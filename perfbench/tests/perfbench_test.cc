// Tests of the benchmark's own helpers: the timing decorator must be
// invisible to the code it wraps, and the statistics must mean what the
// metric names say.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/traversal.h"
#include "protocol.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "timed_store.h"
#include "tracer.h"

namespace hm::perfbench {
namespace {

uint64_t RoundTrips() {
  uint64_t total = 0;
  for (const auto& [name, value] :
       telemetry::Registry::Global().TakeSnapshot().counters) {
    if (name.starts_with("remote.") && name.ends_with(".roundtrips")) {
      total += value;
    }
  }
  return total;
}

struct ProtocolTrace {
  std::vector<PhaseRun> phases;
  uint64_t roundtrips = 0;
};

/// Every op through a cold and a warm phase, as the benchmark runs them.
ProtocolTrace RunAllOps(HyperStore* store, const TestDatabase& db) {
  ProtocolTrace trace;
  PhaseRunner runner(store, &db, nullptr);
  uint64_t before = RoundTrips();
  for (OpId op : AllOps()) {
    PhaseInputs inputs = SelectInputs(db, op, 5, 11);
    for (bool warm : {false, true}) {
      EXPECT_TRUE(store->CloseReopen().ok());
      auto run = runner.Run(op, inputs, warm, 3);
      EXPECT_TRUE(run.ok()) << OpName(op) << ": " << run.status().ToString();
      if (run.ok()) trace.phases.push_back(std::move(*run));
    }
  }
  trace.roundtrips = RoundTrips() - before;
  return trace;
}

using StoreFactory = std::unique_ptr<HyperStore> (*)();

void ExpectTransparent(StoreFactory make) {
  GeneratorConfig config;
  config.levels = 3;
  std::unique_ptr<HyperStore> plain = make();
  std::unique_ptr<HyperStore> base = make();
  auto plain_db = Generator(config).Build(plain.get(), nullptr);
  auto base_db = Generator(config).Build(base.get(), nullptr);
  ASSERT_TRUE(plain_db.ok() && base_db.ok());

  Tracer tracer;
  tracer.set_enabled(true);
  std::unique_ptr<HyperStore> timed =
      MakeTimedStore(base.get(), &tracer, Layer::kStore);
  EXPECT_EQ(dynamic_cast<TraversalCapable*>(timed.get()) != nullptr,
            dynamic_cast<TraversalCapable*>(base.get()) != nullptr);
  EXPECT_EQ(dynamic_cast<PipelinedCommitCapable*>(timed.get()) != nullptr,
            dynamic_cast<PipelinedCommitCapable*>(base.get()) != nullptr);
  EXPECT_EQ(timed->SupportsConcurrentReads(), base->SupportsConcurrentReads());

  ProtocolTrace unwrapped = RunAllOps(plain.get(), *plain_db);
  ProtocolTrace wrapped = RunAllOps(timed.get(), *base_db);
  EXPECT_FALSE(tracer.Take().empty());
  EXPECT_EQ(unwrapped.roundtrips, wrapped.roundtrips);
  ASSERT_EQ(unwrapped.phases.size(), wrapped.phases.size());
  PositionKeys plain_keys(*plain_db);
  PositionKeys base_keys(*base_db);
  for (size_t i = 0; i < wrapped.phases.size(); ++i) {
    OpId op = AllOps()[i / 2];
    EXPECT_EQ(CountMismatches(op, unwrapped.phases[i], plain_keys,
                              wrapped.phases[i], base_keys),
              0u)
        << OpName(op);
  }
}

TEST(TimedStoreTest, TransparentOnMem) {
  ExpectTransparent([]() -> std::unique_ptr<HyperStore> {
    return std::make_unique<backends::MemStore>();
  });
}

TEST(TimedStoreTest, TransparentOnLoopbackRemote) {
  ExpectTransparent([]() -> std::unique_ptr<HyperStore> {
    auto store = backends::RemoteStore::Loopback(
        std::make_unique<backends::MemStore>());
    EXPECT_TRUE(store.ok());
    return std::move(*store);
  });
}

TEST(TimedStoreTest, DisabledTracerRecordsNothing) {
  backends::MemStore base;
  Tracer tracer;
  std::unique_ptr<HyperStore> timed =
      MakeTimedStore(&base, &tracer, Layer::kStore);
  ASSERT_TRUE(timed->Begin().ok());
  ASSERT_TRUE(timed->Commit().ok());
  EXPECT_TRUE(tracer.Take().empty());
  tracer.set_enabled(true);
  ASSERT_TRUE(timed->Begin().ok());
  std::vector<Span> spans = tracer.Take();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(MethodName(static_cast<Method>(spans[0].name)), "Begin");
}

TEST(StatsTest, TailQuantileLeavesTenSamplesBeyond) {
  EXPECT_EQ(TailQuantile(10000), 0.999);
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(TailQuantile(999), 0.95);
  EXPECT_EQ(TailQuantile(200), 0.95);
  EXPECT_EQ(TailQuantile(199), 0.9);
  EXPECT_EQ(TailQuantile(100), 0.9);
  EXPECT_EQ(TailQuantile(40), 0.75);
  EXPECT_EQ(TailQuantile(39), 0.5);
  EXPECT_EQ(TailQuantile(0), 0.5);
}

TEST(StatsTest, PercentileIsNearestRank) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 0.99), 990);
  EXPECT_EQ(Percentile(values, 0.5), 500);
  EXPECT_EQ(Percentile(values, 1.0), 1000);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(StatsTest, GeoMeanSkipsZeroNodePhases) {
  EXPECT_DOUBLE_EQ(GeoMean({2, 8}), 4);
  EXPECT_DOUBLE_EQ(GeoMean({2, 0, 8}), 4);
  EXPECT_EQ(GeoMean({0, 0}), 0);
  EXPECT_EQ(GeoMean({}), 0);
}

TEST(StatsTest, PerCpuSummaryWeighsEveryCpuTheSame) {
  PerCpuSamples samples;
  // CPU 0 is twice as fast as CPU 1 and got more samples; one spike.
  samples.AddAll(0, {1, 1, 1, 1, 9});
  samples.AddAll(1, {2, 2, 3, 4});
  samples.Add(1, 0);  // a phase with no node: skipped
  EXPECT_DOUBLE_EQ(samples.Summary(0.5), 1.5);
  EXPECT_DOUBLE_EQ(samples.Summary(0.25), 1.5);
  EXPECT_DOUBLE_EQ(samples.Summary(1.0), 6.5);
  EXPECT_EQ(samples.Pooled().size(), 9u);
  EXPECT_EQ(PerCpuSamples().Summary(0.5), 0);
}

TEST(StatsTest, ZeroNodePhaseReportsZeroMsPerNode) {
  PhaseRun empty;
  empty.call_us = {10, 20};
  empty.commit_us = 30;
  EXPECT_EQ(empty.ms_per_node(), 0);
  EXPECT_DOUBLE_EQ(empty.total_ms(), 0.06);
  OpResult result;
  result.cold_total_ms = 5;
  EXPECT_EQ(result.cold_ms_per_node(), 0);
}

TEST(TracerTest, ParentsFollowContainment) {
  std::vector<Span> spans = {
      {100, 200, 0, Layer::kOp, kNoParent},
      {110, 150, 1, Layer::kStore, kNoParent},
      {120, 140, 2, Layer::kServer, kNoParent},
      {160, 190, 3, Layer::kStore, kNoParent},
      {300, 310, 4, Layer::kOp, kNoParent},
  };
  AssignParents(&spans);
  EXPECT_EQ(spans[0].parent, kNoParent);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[4].parent, kNoParent);
}

}  // namespace
}  // namespace hm::perfbench
