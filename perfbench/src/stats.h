#ifndef HM_PERFBENCH_STATS_H_
#define HM_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace hm::perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank q-quantile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// The highest of the reported tail quantiles (0.999, 0.99, 0.95, 0.9,
/// 0.75) that leaves at least ten of `n` samples beyond it; 0.5 when
/// even 0.75 does not.
double TailQuantile(size_t n);

/// Geometric mean of the positive entries of `values`. Non-positive
/// entries are skipped: a phase that returned no nodes reports 0
/// ms/node and carries no information. 0 when no entry is positive.
double GeoMean(const std::vector<double>& values);

/// Timings taken round-robin on the CPUs of a shared host, kept per
/// CPU. Each CPU runs at the speed its neighbours leave it, so pooled
/// samples are a mixture of a few modes, and a pooled median sits
/// between two of them and jumps from run to run. Summary(q) is instead
/// the mean over CPUs of each CPU's q-quantile: every CPU weighs the
/// same, and a spike on one CPU moves only that CPU's quantile.
class PerCpuSamples {
 public:
  /// Adds `value` taken on CPU slot `cpu`. Non-positive values carry
  /// no information (a phase that returned no node) and are skipped.
  void Add(size_t cpu, double value);
  void AddAll(size_t cpu, const std::vector<double>& values);

  /// Mean over CPU slots of each slot's nearest-rank q-quantile; 0
  /// when empty.
  double Summary(double q) const;
  /// Every sample, in no particular order.
  std::vector<double> Pooled() const;

 private:
  std::vector<std::vector<double>> by_cpu_;
};

}  // namespace hm::perfbench

#endif  // HM_PERFBENCH_STATS_H_
