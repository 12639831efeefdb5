// E10 (§5.2 ablation): "If the system supports clustering, clustering
// should be done along the 1-N relationship-hierarchy."
//
// This bench builds the same database under three physical placement
// policies on the OODB backend — clustered (per §5.2), sequential
// (creation order) and random (no physical design) — then measures the
// cold 1-N closure both in wall time and, more robustly, in
// buffer-pool misses per node visited. Misses are the honest locality
// signal: on a machine where the OS absorbs "disk" reads, wall time
// under-reports the cost a real workstation/server network link would
// add to every miss (§3.2 R6/R7).

#include <iomanip>
#include <iostream>

#include "bench/bench_common.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/operations.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using hm::bench::CheckOk;

struct Row {
  std::string policy;
  int level;
  std::string op;
  double cold_ms_per_node;
  double cold_misses_per_node;
  double warm_ms_per_node;
};

const char* PolicyName(hm::objstore::PlacementPolicy policy) {
  switch (policy) {
    case hm::objstore::PlacementPolicy::kClustered:
      return "clustered";
    case hm::objstore::PlacementPolicy::kSequential:
      return "sequential";
    case hm::objstore::PlacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

void RunPolicy(const hm::bench::BenchEnv& env,
               hm::objstore::PlacementPolicy policy, int level,
               std::vector<Row>* rows) {
  hm::backends::OodbOptions options;
  options.cache_pages = env.backend.cache_pages;
  options.placement = policy;
  std::string dir = env.workdir + "/oodb_" + PolicyName(policy) + "_l" +
                    std::to_string(level);
  auto store_or = hm::backends::OodbStore::Open(options, dir);
  CheckOk(store_or.status());
  hm::backends::OodbStore* store = store_or->get();
  hm::TestDatabase db = hm::bench::BuildDatabase(store, level, nullptr);

  // 50 random level-3 starts (same seed across policies).
  hm::util::Rng rng(1234);
  size_t closure_level = std::min<size_t>(3, db.nodes_by_level.size() - 2);
  std::vector<hm::NodeRef> starts;
  for (int i = 0; i < env.iterations; ++i) {
    const auto& pool = db.level(closure_level);
    starts.push_back(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }

  struct OpSpec {
    std::string name;
    std::function<hm::util::Result<uint64_t>(hm::NodeRef)> run;
  };
  std::vector<OpSpec> specs;
  specs.push_back({"10 closure1N",
                   [&](hm::NodeRef start) -> hm::util::Result<uint64_t> {
                     std::vector<hm::NodeRef> out;
                     HM_RETURN_IF_ERROR(hm::ops::Closure1N(store, start, &out));
                     return static_cast<uint64_t>(out.size());
                   }});
  specs.push_back({"14 closureMN",
                   [&](hm::NodeRef start) -> hm::util::Result<uint64_t> {
                     std::vector<hm::NodeRef> out;
                     HM_RETURN_IF_ERROR(hm::ops::ClosureMN(store, start, &out));
                     return static_cast<uint64_t>(out.size());
                   }});

  for (const OpSpec& spec : specs) {
    // Cold: drop caches, count misses over the 50 runs.
    CheckOk(store->CloseReopen());
    store->object_store()->buffer_pool()->ResetStats();
    hm::util::Timer timer;
    uint64_t nodes = 0;
    for (hm::NodeRef start : starts) {
      auto visited = spec.run(start);
      CheckOk(visited.status());
      nodes += *visited;
    }
    double cold_ms = timer.ElapsedMillis();
    uint64_t cold_misses =
        store->object_store()->buffer_pool()->stats().misses;

    // Warm: repeat without dropping caches.
    timer.Restart();
    for (hm::NodeRef start : starts) {
      CheckOk(spec.run(start).status());
    }
    double warm_ms = timer.ElapsedMillis();

    Row row;
    row.policy = PolicyName(policy);
    row.level = level;
    row.op = spec.name;
    row.cold_ms_per_node = cold_ms / static_cast<double>(nodes);
    row.cold_misses_per_node =
        static_cast<double>(cold_misses) / static_cast<double>(nodes);
    row.warm_ms_per_node = warm_ms / static_cast<double>(nodes);
    rows->push_back(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  hm::bench::BenchEnv env;
  env.levels = {4, 5};
  hm::bench::Flags flags("bench_clustering");
  flags.Add("levels", &env.levels)
      .Add("iters", &env.iterations)
      .Add("cache-pages", &env.backend.cache_pages)
      .Parse(argc, argv);
  if (env.levels.empty() || env.iterations <= 0) {
    flags.Fail("needs levels and iters > 0");
  }
  env.workdir = hm::bench::ScratchDir();
  std::cout << "### E10: Clustering ablation (§5.2) — oodb backend\n\n";

  std::vector<Row> rows;
  for (int level : env.levels) {
    for (auto policy : {hm::objstore::PlacementPolicy::kClustered,
                        hm::objstore::PlacementPolicy::kSequential,
                        hm::objstore::PlacementPolicy::kRandom}) {
      RunPolicy(env, policy, level, &rows);
    }
  }

  std::cout << std::left << std::setw(7) << "level" << std::setw(14)
            << "op" << std::setw(12) << "placement" << std::right
            << std::setw(15) << "cold-ms/node" << std::setw(18)
            << "cold-misses/node" << std::setw(15) << "warm-ms/node"
            << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(7) << row.level << std::setw(14)
              << row.op << std::setw(12) << row.policy << std::right
              << std::fixed << std::setprecision(5) << std::setw(15)
              << row.cold_ms_per_node << std::setprecision(3)
              << std::setw(18) << row.cold_misses_per_node
              << std::setprecision(5) << std::setw(15)
              << row.warm_ms_per_node << "\n";
  }
  std::cout
      << "\nReading the table (§5.2/§6.5): the generator creates families "
         "consecutively, so SEQUENTIAL placement is creation-order "
         "clustering along the 1-N hierarchy — the §5.2-compliant "
         "configuration. RANDOM placement is the unclustered baseline; "
         "expect roughly 2x its cold misses per node on closure1N. "
         "CLUSTERED (near-hint packing) is the alternative mechanism; it "
         "trades some bulk-load locality for robustness when creation "
         "order does not follow the hierarchy. closureMN cuts across 1-N "
         "clusters, so every policy's advantage shrinks there. Warm times "
         "converge: once cached, placement is irrelevant.\n";
  return 0;
}
