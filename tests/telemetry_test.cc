// Telemetry tests: histogram bucket edges, quantile estimates,
// cross-thread merge determinism, registry interning and the snapshot
// encode/decode/diff pipeline. Carries the `telemetry` ctest label so
// the lock-free fast paths run under TSAN alongside the server suites
// (cmake -DHM_SANITIZE=thread, then ctest -L 'server|telemetry').

#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace hm::telemetry {
namespace {

TEST(BucketTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < kSubBuckets; ++v) {
    EXPECT_EQ(BucketIndex(v), v);
    EXPECT_EQ(BucketLowerBound(static_cast<uint32_t>(v)), v);
    EXPECT_EQ(BucketUpperBound(static_cast<uint32_t>(v)), v);
  }
}

TEST(BucketTest, EdgesAreContiguousAndSelfConsistent) {
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    // Both edges of a bucket map back into that bucket...
    EXPECT_EQ(BucketIndex(BucketLowerBound(i)), i) << "bucket " << i;
    EXPECT_EQ(BucketIndex(BucketUpperBound(i)), i) << "bucket " << i;
    // ...and the ranges tile the axis with no gaps or overlaps.
    if (i + 1 < kNumBuckets) {
      EXPECT_EQ(BucketUpperBound(i) + 1, BucketLowerBound(i + 1))
          << "bucket " << i;
    }
  }
  // The last bucket's upper edge is the top of the uint64 range.
  EXPECT_EQ(BucketUpperBound(kNumBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(BucketTest, RelativeWidthIsBounded) {
  // Above the exact range, bucket width / lower edge <= 1/16: the
  // quantile error bound the histogram advertises.
  for (uint32_t i = kSubBuckets; i < kNumBuckets; ++i) {
    uint64_t lo = BucketLowerBound(i);
    uint64_t width = BucketUpperBound(i) - lo + 1;
    EXPECT_LE(width, lo / kSubBuckets + 1) << "bucket " << i;
  }
}

TEST(HistogramTest, CountsAndSums) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  HistogramData data = h.Snapshot();
  EXPECT_EQ(data.count, 100u);
  EXPECT_EQ(data.sum, 5050u);
  EXPECT_DOUBLE_EQ(data.Mean(), 50.5);
}

TEST(HistogramTest, QuantilesWithinAdvertisedError) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  HistogramData data = h.Snapshot();
  for (double q : {0.50, 0.90, 0.99}) {
    const double exact = q * 10000;
    const auto estimate = static_cast<double>(data.Quantile(q));
    // The estimate is the upper edge of the rank's bucket: never more
    // than one bucket width (1/16 ≈ 6.25%) above the true value.
    EXPECT_GE(estimate, exact - 1) << "q=" << q;
    EXPECT_LE(estimate, exact * (1.0 + 1.0 / kSubBuckets) + 1)
        << "q=" << q;
  }
  EXPECT_EQ(HistogramData{}.Quantile(0.5), 0u);  // empty histogram
}

TEST(HistogramTest, QuantileIsNearestRank) {
  // Nearest rank is ceil(q * count): of five samples p50 is the 3rd and
  // p99 the 5th, so one outlier lifts p99 above the mean.
  Histogram h;
  for (uint64_t v : {1, 2, 3, 4, 1000}) h.Record(v);
  HistogramData data = h.Snapshot();
  EXPECT_EQ(data.Quantile(0.50), 3u);
  EXPECT_EQ(data.Quantile(0.99), BucketUpperBound(BucketIndex(1000)));
  EXPECT_GT(static_cast<double>(data.Quantile(0.99)), data.Mean());
  EXPECT_EQ(data.Quantile(0.0), 1u);  // rank 0 clamps to the 1st sample
  EXPECT_EQ(data.Quantile(1.0), BucketUpperBound(BucketIndex(1000)));
}

TEST(HistogramTest, CrossThreadMergeIsDeterministic) {
  // Four threads hammer one histogram with disjoint deterministic
  // streams; whatever the interleaving, the final state must equal a
  // serial recording of the same multiset (bucketing is a pure
  // function of the value and cells are commutative adds).
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  Histogram concurrent;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        concurrent.Record(i * kThreads + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Histogram serial;
  for (uint64_t v = 0; v < kThreads * kPerThread; ++v) serial.Record(v);

  HistogramData got = concurrent.Snapshot();
  HistogramData want = serial.Snapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST(RegistryTest, InternsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("x.y.count");
  Counter* b = registry.GetCounter("x.y.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("x.z.count"));
  // Kinds are distinct namespaces with their own maps.
  Gauge* g = registry.GetGauge("x.y.level");
  Histogram* h = registry.GetHistogram("x.y.latency_us");
  EXPECT_EQ(g, registry.GetGauge("x.y.level"));
  EXPECT_EQ(h, registry.GetHistogram("x.y.latency_us"));
}

TEST(RegistryTest, CountersExactUnderContention) {
  Registry registry;
  Counter* counter = registry.GetCounter("contended");
  Gauge* gauge = registry.GetGauge("contended_gauge");
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        counter->Add();
        gauge->Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), kThreads * kAdds);
  EXPECT_EQ(gauge->value(), static_cast<int64_t>(kThreads * kAdds));
}

Snapshot MakeSampleSnapshot() {
  Registry registry;
  registry.GetCounter("a.b.count")->Add(42);
  registry.GetCounter("a.b.zero");  // zero values survive round trips
  registry.GetGauge("a.b.level")->Set(-7);
  Histogram* h = registry.GetHistogram("a.b.latency_us");
  for (uint64_t v : {1u, 1u, 17u, 900u, 70000u}) h->Record(v);
  return registry.TakeSnapshot();
}

TEST(SnapshotTest, SerializeDeserializeRoundTrip) {
  Snapshot snap = MakeSampleSnapshot();
  std::string wire;
  snap.SerializeTo(&wire);
  auto decoded = Snapshot::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->counters, snap.counters);
  EXPECT_EQ(decoded->gauges, snap.gauges);
  ASSERT_EQ(decoded->histograms.size(), snap.histograms.size());
  const HistogramData& got = decoded->histograms.at("a.b.latency_us");
  const HistogramData& want = snap.histograms.at("a.b.latency_us");
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST(SnapshotTest, DeserializeRejectsEveryTruncation) {
  Snapshot snap = MakeSampleSnapshot();
  std::string wire;
  snap.SerializeTo(&wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        Snapshot::Deserialize(std::string_view(wire).substr(0, len)).ok())
        << "prefix length " << len;
  }
  // Trailing garbage is rejected too (the wire body is exact).
  EXPECT_FALSE(Snapshot::Deserialize(wire + "x").ok());
}

TEST(SnapshotTest, DiffSubtractsCountersAndKeepsGaugeLevels) {
  Snapshot before;
  before.counters["c.hits"] = 10;
  before.counters["c.misses"] = 5;
  before.histograms["h"].count = 2;
  before.histograms["h"].sum = 30;
  before.histograms["h"].buckets[BucketIndex(15)] = 2;

  Snapshot after;
  after.counters["c.hits"] = 25;
  after.counters["c.misses"] = 5;  // unchanged => dropped from diff
  after.counters["c.new"] = 3;     // new metric => full value
  after.gauges["g.nodes"] = 1234;  // level => carried through
  after.histograms["h"].count = 5;
  after.histograms["h"].sum = 330;
  after.histograms["h"].buckets[BucketIndex(15)] = 2;
  after.histograms["h"].buckets[BucketIndex(100)] = 3;

  Snapshot diff = after.DiffSince(before);
  EXPECT_EQ(diff.counter("c.hits"), 15u);
  EXPECT_EQ(diff.counter("c.new"), 3u);
  EXPECT_FALSE(diff.counters.contains("c.misses"));
  EXPECT_EQ(diff.gauges.at("g.nodes"), 1234);
  const HistogramData& h = diff.histograms.at("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 300u);
  EXPECT_FALSE(h.buckets.contains(BucketIndex(15)));
  EXPECT_EQ(h.buckets.at(BucketIndex(100)), 3u);
}

TEST(SnapshotTest, PrintersEmitEveryMetricName) {
  Snapshot snap = MakeSampleSnapshot();
  std::ostringstream text;
  snap.PrintTo(text);
  EXPECT_NE(text.str().find("a.b.count"), std::string::npos);
  EXPECT_NE(text.str().find("a.b.level"), std::string::npos);
  EXPECT_NE(text.str().find("p99="), std::string::npos);

  std::ostringstream json;
  snap.PrintJson(json);
  EXPECT_NE(json.str().find("\"a.b.count\": 42"), std::string::npos);
  EXPECT_NE(json.str().find("\"a.b.level\": -7"), std::string::npos);
  EXPECT_NE(json.str().find("\"a.b.latency_us.count\": 5"),
            std::string::npos);
  // Zero-valued metrics are skipped so per-phase diffs stay small.
  EXPECT_EQ(json.str().find("a.b.zero"), std::string::npos);
}

TEST(GlobalRegistryTest, FaultToleranceCountersRegisterAndSnapshot) {
  // The fault-tolerance counters this repo's retry/shed/failpoint
  // paths bump. Interning them here pins the names: a rename in the
  // client or server silently orphans dashboards, so this test is the
  // canary. Each is bumped through the same Global() registry the
  // production sites use and must appear in a snapshot.
  const char* names[] = {
      "remote.retries",           "remote.reconnects",
      "remote.deadline_exceeded", "server.shed_requests",
      "failpoint.fires.telemetry_test/fake_site",
  };
  Registry& registry = Registry::Global();
  for (const char* name : names) registry.GetCounter(name)->Add();
  Snapshot snapshot = registry.TakeSnapshot();
  for (const char* name : names) {
    EXPECT_GE(snapshot.counter(name), 1u) << name;
  }
}

TEST(GlobalRegistryTest, IsASingleton) {
  Registry& a = Registry::Global();
  Registry& b = Registry::Global();
  EXPECT_EQ(&a, &b);
  Counter* c = a.GetCounter("telemetry_test.global.count");
  c->Add(1);
  EXPECT_GE(b.TakeSnapshot().counter("telemetry_test.global.count"), 1u);
}

}  // namespace
}  // namespace hm::telemetry
