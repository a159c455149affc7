#include "lib/samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[NearestRank(samples->size(), q) - 1];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

Summary Summarize(std::vector<double> samples) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.p50 = Quantile(&samples, 0.5);
  summary.p99 = Quantile(&samples, 0.99);
  summary.beyond_p99 = samples.size() - NearestRank(samples.size(), 0.99);
  return summary;
}

}  // namespace perfbench
