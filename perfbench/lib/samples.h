#ifndef PERFBENCH_LIB_SAMPLES_H_
#define PERFBENCH_LIB_SAMPLES_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Exact order statistics over every recorded sample. Percentiles use the
/// nearest-rank definition: the q-quantile of n sorted samples is the
/// sample at rank ceil(q * n) (1-based), so every reported value is one
/// that was actually observed.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// Samples strictly above the p99 rank; the p99 is only trustworthy
  /// when at least ten lie beyond it.
  size_t beyond_p99 = 0;
};

/// Nearest-rank rank (1-based) of quantile `q` among `n` samples.
size_t NearestRank(size_t n, double q);

/// The q-quantile of `samples` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* samples, double q);

/// Median of a copy of `values`; 0 when empty.
double Median(std::vector<double> values);

Summary Summarize(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_SAMPLES_H_
