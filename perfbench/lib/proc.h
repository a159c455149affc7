#ifndef PERFBENCH_LIB_PROC_H_
#define PERFBENCH_LIB_PROC_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();
/// Bytes this process has passed to write-like syscalls (`wchar` of
/// /proc/self/io), which counts log, page and checkpoint writes alike.
uint64_t WrittenBytes();
/// Total size of the regular files under `path`.
uint64_t DirBytes(const std::string& path);
/// Monotonic wall time in seconds.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_LIB_PROC_H_
