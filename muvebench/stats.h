// Summary statistics for the benchmark's latency samples.

#ifndef MUVEBENCH_STATS_H_
#define MUVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace muvebench {

// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

// The tail of a latency sample: the highest percentile with at least ten
// samples beyond it, but never below the median.  In sorted order that
// is the value at 1-based rank max(n - 10, floor(n / 2) + 1), so
// n = 1000 reports p99 and n = 100 reports p90; under 21 samples it is
// the first value not below the median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // 100 * rank / n
  size_t beyond = 0;  // samples strictly after the reported rank
};
Tail TailOf(std::vector<double> values);

}  // namespace muvebench

#endif  // MUVEBENCH_STATS_H_
