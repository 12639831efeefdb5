#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hm::perfbench {

namespace {

/// 1-based nearest rank of the q-quantile of n samples; the epsilon
/// keeps 0.99 * 1000 at rank 990 despite 0.99 having no exact double.
double NearestRank(double q, size_t n) {
  return std::ceil(q * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = NearestRank(q, values.size());
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    // Samples strictly beyond the nearest-rank q-quantile.
    double beyond = static_cast<double>(n) - NearestRank(q, n);
    if (beyond >= 10) return q;
  }
  return 0.5;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  size_t count = 0;
  for (double value : values) {
    if (value > 0) {
      log_sum += std::log(value);
      ++count;
    }
  }
  return count == 0 ? 0 : std::exp(log_sum / static_cast<double>(count));
}

void PerCpuSamples::Add(size_t cpu, double value) {
  if (value <= 0) return;
  if (by_cpu_.size() <= cpu) by_cpu_.resize(cpu + 1);
  by_cpu_[cpu].push_back(value);
}

void PerCpuSamples::AddAll(size_t cpu, const std::vector<double>& values) {
  for (double value : values) Add(cpu, value);
}

double PerCpuSamples::Summary(double q) const {
  double total = 0;
  size_t slots = 0;
  for (const std::vector<double>& samples : by_cpu_) {
    if (samples.empty()) continue;
    total += Percentile(samples, q);
    ++slots;
  }
  return slots == 0 ? 0 : total / static_cast<double>(slots);
}

std::vector<double> PerCpuSamples::Pooled() const {
  std::vector<double> all;
  for (const std::vector<double>& samples : by_cpu_) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

}  // namespace hm::perfbench
