#ifndef PERFBENCH_WORKLOADS_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_WORKLOADS_H_

#include "lib/metrics.h"
#include "workloads/harness.h"

namespace perfbench {

/// Each workload sets itself up (timed), runs closed-loop for
/// `config.seconds`, checks its outputs and returns the end-to-end
/// metrics (untraced) or the per-layer metrics (traced). Progress and
/// detail tables go to stdout; engine errors are thrown.
RunResult RunReaders(const RunConfig& config);
RunResult RunCommits(const RunConfig& config);
RunResult RunGroupware(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_WORKLOADS_H_
