#include "telemetry/metrics.h"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "util/coding.h"

namespace hm::telemetry {

uint64_t HistogramData::Quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile in 1..count: the nearest-rank definition,
  // ceil(q * count), so p99 of five samples is the fifth.
  auto rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (seen >= rank) return BucketUpperBound(index);
  }
  // count/sum and buckets were read without a global cut; fall back to
  // the highest populated bucket.
  return buckets.empty() ? 0 : BucketUpperBound(buckets.rbegin()->first);
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) data.buckets[i] = n;
  }
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  return data;
}

void Snapshot::SerializeTo(std::string* out) const {
  util::PutVarint64(out, counters.size());
  for (const auto& [name, value] : counters) {
    util::PutLengthPrefixed(out, name);
    util::PutVarint64(out, value);
  }
  util::PutVarint64(out, gauges.size());
  for (const auto& [name, value] : gauges) {
    util::PutLengthPrefixed(out, name);
    util::PutVarSigned64(out, value);
  }
  util::PutVarint64(out, histograms.size());
  for (const auto& [name, data] : histograms) {
    util::PutLengthPrefixed(out, name);
    util::PutVarint64(out, data.count);
    util::PutVarint64(out, data.sum);
    util::PutVarint64(out, data.buckets.size());
    for (const auto& [index, n] : data.buckets) {
      util::PutVarint64(out, index);
      util::PutVarint64(out, n);
    }
  }
}

util::Result<Snapshot> Snapshot::Deserialize(std::string_view in) {
  auto corrupt = []() {
    return util::Status::Corruption("bad telemetry snapshot encoding");
  };
  util::Decoder dec(in);
  Snapshot snap;
  uint64_t n = 0;
  if (!dec.GetVarint64(&n)) return corrupt();
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    uint64_t value = 0;
    if (!dec.GetLengthPrefixed(&name) || !dec.GetVarint64(&value)) {
      return corrupt();
    }
    snap.counters.emplace(name, value);
  }
  if (!dec.GetVarint64(&n)) return corrupt();
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    int64_t value = 0;
    if (!dec.GetLengthPrefixed(&name) || !dec.GetVarSigned64(&value)) {
      return corrupt();
    }
    snap.gauges.emplace(name, value);
  }
  if (!dec.GetVarint64(&n)) return corrupt();
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view name;
    HistogramData data;
    uint64_t cells = 0;
    if (!dec.GetLengthPrefixed(&name) || !dec.GetVarint64(&data.count) ||
        !dec.GetVarint64(&data.sum) || !dec.GetVarint64(&cells)) {
      return corrupt();
    }
    for (uint64_t c = 0; c < cells; ++c) {
      uint64_t index = 0;
      uint64_t cell_count = 0;
      if (!dec.GetVarint64(&index) || !dec.GetVarint64(&cell_count) ||
          index >= kNumBuckets) {
        return corrupt();
      }
      data.buckets[static_cast<uint32_t>(index)] = cell_count;
    }
    snap.histograms.emplace(name, std::move(data));
  }
  if (!dec.Empty()) return corrupt();
  return snap;
}

Snapshot Snapshot::DiffSince(const Snapshot& before) const {
  auto sub = [](uint64_t after, uint64_t prior) {
    return after > prior ? after - prior : 0;
  };
  Snapshot diff;
  for (const auto& [name, value] : counters) {
    auto it = before.counters.find(name);
    uint64_t delta =
        sub(value, it == before.counters.end() ? 0 : it->second);
    if (delta != 0) diff.counters[name] = delta;
  }
  for (const auto& [name, value] : gauges) {
    if (value != 0) diff.gauges[name] = value;
  }
  for (const auto& [name, data] : histograms) {
    auto it = before.histograms.find(name);
    const HistogramData* prior =
        it == before.histograms.end() ? nullptr : &it->second;
    HistogramData delta;
    delta.count = sub(data.count, prior == nullptr ? 0 : prior->count);
    delta.sum = sub(data.sum, prior == nullptr ? 0 : prior->sum);
    for (const auto& [index, cell] : data.buckets) {
      uint64_t before_cell = 0;
      if (prior != nullptr) {
        auto cit = prior->buckets.find(index);
        if (cit != prior->buckets.end()) before_cell = cit->second;
      }
      uint64_t d = sub(cell, before_cell);
      if (d != 0) delta.buckets[index] = d;
    }
    if (delta.count != 0) diff.histograms[name] = std::move(delta);
  }
  return diff;
}

uint64_t Snapshot::counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

void Snapshot::PrintTo(std::ostream& os) const {
  // Zero-valued counters and histograms are elided: the server
  // pre-interns all three metrics for every known opcode, and the
  // never-hit ones are noise in a live `hmbench stats` view. Gauges
  // always print — a gauge's zero is a reading, not an absence
  // (replication.lag_bytes 0 means "caught up", and hiding it would
  // make a healthy follower look like one with no replication at all).
  size_t width = 0;
  for (const auto& [name, value] : counters) {
    if (value != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, value] : gauges) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, data] : histograms) {
    if (data.count != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    os << "counter  " << std::left << std::setw(static_cast<int>(width) + 2)
       << name << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge    " << std::left << std::setw(static_cast<int>(width) + 2)
       << name << value << "\n";
  }
  for (const auto& [name, data] : histograms) {
    if (data.count == 0) continue;
    os << "hist     " << std::left << std::setw(static_cast<int>(width) + 2)
       << name << "count=" << data.count << " mean=" << std::fixed
       << std::setprecision(1) << data.Mean()
       << " p50=" << data.Quantile(0.50) << " p90=" << data.Quantile(0.90)
       << " p99=" << data.Quantile(0.99) << "\n";
    os.unsetf(std::ios::fixed);
  }
}

void Snapshot::PrintJson(std::ostream& os) const {
  // Metric names are `layer.component.metric` identifiers; nothing
  // needs escaping.
  os << "{";
  const char* sep = "";
  auto emit = [&](std::string_view name, auto value) {
    os << sep << "\"" << name << "\": " << value;
    sep = ", ";
  };
  for (const auto& [name, value] : counters) {
    if (value != 0) emit(name, value);
  }
  for (const auto& [name, value] : gauges) {
    if (value != 0) emit(name, value);
  }
  for (const auto& [name, data] : histograms) {
    if (data.count == 0) continue;
    emit(name + ".count", data.count);
    emit(name + ".p50", data.Quantile(0.50));
    emit(name + ".p99", data.Quantile(0.99));
  }
  os << "}";
}

Registry& Registry::Global() {
  // Leaked on purpose: recording threads (server workers, benchmark
  // threads) may outlive static destruction order.
  static Registry* global = new Registry();
  return *global;
}

template <typename T>
T* Registry::Intern(
    std::map<std::string, std::unique_ptr<T>, std::less<>>* map,
    std::string_view name) {
  {
    util::SharedMutexLock lock(mu_);
    auto it = map->find(name);
    if (it != map->end()) return it->second.get();
  }
  util::MutexLock lock(mu_);
  auto [it, _] = map->try_emplace(std::string(name), std::make_unique<T>());
  return it->second.get();
}

Counter* Registry::GetCounter(std::string_view name) {
  return Intern(&counters_, name);
}

Gauge* Registry::GetGauge(std::string_view name) {
  return Intern(&gauges_, name);
}

Histogram* Registry::GetHistogram(std::string_view name) {
  return Intern(&histograms_, name);
}

Snapshot Registry::TakeSnapshot() const {
  util::SharedMutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snapshot();
  }
  return snap;
}

}  // namespace hm::telemetry
