// The benchmark's storage device. Every fsync the engine issues (log group
// commits, checkpoint page writes, atomic file replacement) waits a fixed
// kFlushMicros instead of flushing the host disk: on shared virtual disks
// the real flush latency swings severalfold from one minute to the next,
// which would drown any change to the engine. The data still reaches the
// page cache through write(), so a reopen in the same boot sees every
// acknowledged write; crash durability is not what this benchmark measures.
//
// Defined in the executable, this fsync takes precedence over the C
// library's for every call the statically linked engine makes.

#include <chrono>
#include <thread>

namespace {
constexpr auto kFlushMicros = std::chrono::microseconds(500);
}  // namespace

extern "C" int fsync(int fd) {
  (void)fd;
  std::this_thread::sleep_for(kFlushMicros);
  return 0;
}
