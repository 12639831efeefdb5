// E14 (§4): the HyperModel "incorporates the same 7 operations" as the
// /RUBE87/ simple-operations benchmark. Five of them (name lookup,
// range lookup, group lookup, reference lookup, sequential scan) are
// §6 operations measured by E2-E6; the remaining two are measured
// here: databaseOpen — wall time to open an existing persistent
// database — and recordInsert — creating one node with attributes,
// linking it into the 1-N hierarchy and committing.

#include <iomanip>
#include <iostream>

#include "bench/bench_common.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using hm::bench::CheckOk;

struct Row {
  std::string backend;
  int level = 0;
  double open_ms = 0;
  double insert_ms = 0;
  uint64_t inserts = 0;
};

}  // namespace

int main(int argc, char** argv) {
  hm::bench::BenchEnv env;
  env.levels = {4, 5};
  hm::bench::Flags flags("bench_open_insert");
  flags.Add("levels", &env.levels)
      .Add("backends", &env.backends)
      .Add("iters", &env.iterations)
      .Add("cache-pages", &env.backend.cache_pages)
      .Parse(argc, argv);
  if (env.levels.empty() || env.backends.empty() || env.iterations <= 0) {
    flags.Fail("needs levels, backends and iters > 0");
  }
  env.workdir = hm::bench::ScratchDir();
  std::cout << "### E14: /RUBE87/ simple operations — databaseOpen and "
               "recordInsert\n\n";

  std::vector<Row> rows;
  for (int level : env.levels) {
    for (const std::string& backend : env.backends) {
      if (backend == "mem") continue;  // nothing persistent to open
      std::string dir =
          env.workdir + "/" + backend + "_open_l" + std::to_string(level);

      Row row;
      row.backend = backend;
      row.level = level;

      // Build once, close cleanly.
      hm::TestDatabase db;
      {
        std::unique_ptr<hm::HyperStore> store =
            hm::bench::Must(hm::bench::OpenBackend(env.backend, backend, dir));
        db = hm::bench::BuildDatabase(store.get(), level, nullptr);
      }

      // --- databaseOpen ---------------------------------------------
      hm::util::Timer timer;
      std::unique_ptr<hm::HyperStore> store =
          hm::bench::Must(hm::bench::OpenBackend(env.backend, backend, dir));
      row.open_ms = timer.ElapsedMillis();

      // --- recordInsert: one node + parent link + commit per op ------
      hm::util::Rng rng(55);
      int64_t next_uid = static_cast<int64_t>(db.node_count()) + 1;
      const auto& parents = db.level(db.nodes_by_level.size() - 2);
      timer.Restart();
      for (int i = 0; i < env.iterations; ++i) {
        CheckOk(store->Begin());
        hm::NodeAttrs attrs;
        attrs.unique_id = next_uid++;
        attrs.ten = rng.UniformInt(1, 10);
        attrs.hundred = rng.UniformInt(1, 100);
        attrs.thousand = rng.UniformInt(1, 1000);
        attrs.million = rng.UniformInt(1, 1000000);
        attrs.kind = hm::NodeKind::kText;
        hm::NodeRef parent = parents[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(parents.size()) - 1))];
        auto node = store->CreateNode(attrs, parent);
        CheckOk(node.status());
        CheckOk(store->AddChild(parent, *node));
        CheckOk(store->Commit());
        ++row.inserts;
      }
      row.insert_ms =
          timer.ElapsedMillis() / static_cast<double>(row.inserts);
      rows.push_back(row);
    }
  }

  std::cout << std::left << std::setw(9) << "backend" << std::setw(7)
            << "level" << std::right << std::setw(14) << "open-ms"
            << std::setw(10) << "inserts" << std::setw(16)
            << "insert-ms/op" << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(9) << row.backend << std::setw(7)
              << row.level << std::right << std::fixed
              << std::setprecision(3) << std::setw(14) << row.open_ms
              << std::setw(10) << row.inserts << std::setprecision(4)
              << std::setw(16) << row.insert_ms << "\n";
  }
  std::cout << "\nEach recordInsert is one durable transaction (create + "
               "index maintenance + 1-N link + commit fsync).\n";
  return 0;
}
