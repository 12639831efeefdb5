// E13 (§7 future work): multi-user behaviour under optimistic
// concurrency control. The paper reports that with optimistic CC "it
// is a problem to define update operations that do not conflict" —
// this bench quantifies exactly that: N parallel editors over update
// sets of varying overlap, measuring commit/conflict rates and
// throughput.

#include <atomic>
#include <iomanip>
#include <iostream>
#include <thread>

#include "bench/bench_common.h"
#include "hypermodel/ext/occ.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

struct Row {
  int users;
  int hot_set;  // nodes each user picks from; smaller = more overlap
  uint64_t commits;
  uint64_t conflicts;
  double conflict_rate;
  double wall_ms;
};

}  // namespace

int main(int argc, char** argv) {
  hm::bench::BenchEnv env;
  env.levels = {4};
  std::string backend = "mem";
  hm::bench::Flags flags("bench_multiuser");
  flags.Add("levels", &env.levels)
      .Add("backend", &backend)
      .Add("cache-pages", &env.backend.cache_pages)
      .Add("remote", &env.backend.remote)
      .Add("remote-mode", &env.backend.remote_mode)
      .Parse(argc, argv);
  if (env.levels.size() != 1) flags.Fail("needs one level");
  env.workdir = hm::bench::ScratchDir();
  std::cout << "### E13: Multi-user editing under optimistic concurrency "
               "control (R8/R9, §7)\n\n";

  // One shared store (default: in-memory, the image model); OCC is the
  // layer under test and backend-independent, so --backend=remote runs
  // the same workload with every workspace round-tripping the wire.
  std::cout << "(backend: " << backend << ")\n\n";
  std::unique_ptr<hm::HyperStore> store = hm::bench::Must(
      hm::bench::OpenBackend(env.backend, backend, env.workdir + "/occ"));
  hm::TestDatabase db =
      hm::bench::BuildDatabase(store.get(), env.levels[0], nullptr);

  std::vector<Row> rows;
  const int edits_per_user = 50;
  for (int users : {2, 4, 8}) {
    for (int hot_set :
         {static_cast<int>(db.text_nodes.size()), 64, 8}) {
      hm::ext::OccManager occ(store.get());
      hm::util::Timer timer;
      std::vector<std::thread> threads;
      for (int u = 0; u < users; ++u) {
        threads.emplace_back([&, u] {
          hm::util::Rng rng(static_cast<uint64_t>(u) * 7919 + 13);
          for (int e = 0; e < edits_per_user; ++e) {
            hm::ext::WorkspaceId ws =
                occ.OpenWorkspace(static_cast<uint64_t>(u));
            hm::NodeRef node = db.text_nodes[static_cast<size_t>(
                rng.UniformInt(0, hot_set - 1))];
            auto text = occ.GetText(ws, node);
            if (!text.ok()) continue;
            std::string edited = *text;
            edited += " [u" + std::to_string(u) + "]";
            // "Think time": yield between read and write, and before
            // commit, so workspaces genuinely overlap — an editor
            // holds a workspace open while working, not for
            // nanoseconds.
            std::this_thread::yield();
            if (!occ.SetText(ws, node, edited).ok()) continue;
            std::this_thread::yield();
            (void)occ.CommitWorkspace(ws);  // Conflict is expected data
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      Row row;
      row.users = users;
      row.hot_set = hot_set;
      row.commits = occ.commits();
      row.conflicts = occ.conflicts();
      row.conflict_rate =
          occ.conflicts() /
          std::max(1.0, static_cast<double>(occ.commits() + occ.conflicts()));
      row.wall_ms = timer.ElapsedMillis();
      rows.push_back(row);
    }
  }

  std::cout << std::left << std::setw(8) << "users" << std::setw(10)
            << "hot-set" << std::right << std::setw(10) << "commits"
            << std::setw(11) << "conflicts" << std::setw(12) << "conf-rate"
            << std::setw(12) << "wall-ms" << "\n";
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(8) << row.users << std::setw(10)
              << row.hot_set << std::right << std::setw(10) << row.commits
              << std::setw(11) << row.conflicts << std::fixed
              << std::setprecision(3) << std::setw(12) << row.conflict_rate
              << std::setprecision(1) << std::setw(12) << row.wall_ms
              << "\n";
  }
  std::cout << "\nExpectation (§7): disjoint update sets (large hot-set) "
               "commit freely; shrinking the hot-set drives the conflict "
               "rate up — the paper's noted difficulty of defining "
               "non-conflicting updates under optimistic CC.\n";
  return 0;
}
