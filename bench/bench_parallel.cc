// E15 (§7): "We have done some experiments with multi-user aspects by
// starting up two and more HyperModel applications in parallel and
// running the operations as for the single user case."
//
// Read-only variant (the conflict-free case the paper could measure):
// K "workstation applications" each open the same persistent database
// with their own page cache (the R6 architecture — private
// workstation caches over one shared server store) and run closure
// traversals in parallel. Reports aggregate throughput scaling.
//
// Flags:
//   --backend=oodb             oodb (default) or remote[MODE]
//   --server-backend=mem,oodb  backend(s) of the self-hosted server in
//                              --backend=remote mode; each entry gets
//                              its own server + sweep (default mem)
//   --readers=1,2,4,8          client counts to sweep (default that)
//   --levels=4 --cache-pages=N --remote=HOST:PORT --remote-mode=MODE
//   --json=PATH                also write the sweep (BENCH_parallel)

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/operations.h"
#include "server/server.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using hm::bench::CheckOk;

struct SweepRow {
  std::string server_backend;
  int readers = 0;
  double total_ops = 0;
  double wall_ms = 0;
  double ops_per_sec = 0;
  double speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  hm::bench::BenchEnv env;
  env.levels = {4};
  std::string backend = "oodb";
  std::vector<std::string> server_backends{"mem"};
  std::vector<int> reader_counts{1, 2, 4, 8};
  std::string json_path;
  hm::bench::Flags flags("bench_parallel");
  flags.Add("levels", &env.levels)
      .Add("backend", &backend)
      .Add("server-backend", &server_backends)
      .Add("readers", &reader_counts)
      .Add("cache-pages", &env.backend.cache_pages)
      .Add("remote", &env.backend.remote)
      .Add("remote-mode", &env.backend.remote_mode)
      .Add("json", &json_path)
      .Parse(argc, argv);
  // Two deployment shapes share the measurement loop below:
  //  - oodb (default): K store handles with private page caches over
  //    one on-disk database — the paper's workstation architecture;
  //  - remote or remote[MODE]: K wire-protocol clients against one
  //    server, exercising the shared side of the server's backend lock
  //    (read-only dispatches run concurrently when the backend allows).
  const bool remote = backend != "oodb";
  auto remote_mode =
      remote ? hm::bench::RemoteModeOf(backend, env.backend.remote_mode)
             : env.backend.remote_mode;
  if (!remote_mode.ok()) flags.Fail("--backend must be oodb or remote[MODE]");
  if (env.levels.size() != 1 || reader_counts.empty() ||
      server_backends.empty()) {
    flags.Fail("needs one level, readers and server backends");
  }
  env.workdir = hm::bench::ScratchDir();
  std::cout << "### E15: Parallel HyperModel applications (§7) — K readers, "
               "one shared database, private caches\n\n";

  int max_readers = 1;
  for (int k : reader_counts) max_readers = std::max(max_readers, k);
  const int ops_per_reader = 2000;
  std::vector<SweepRow> rows;

  // One full sweep: build the shared database, then run every reader
  // count against it. `server_backend` is the self-hosted server's
  // store in remote mode ("external" when --remote points elsewhere,
  // "in-process" for the direct oodb multi-handle shape).
  auto run_sweep = [&](const std::string& server_backend) {
    std::string dir = env.workdir + "/shared_" + server_backend;
    std::unique_ptr<hm::server::Server> own_server;
    hm::backends::RemoteOptions remote_options;
    remote_options.mode = *remote_mode;
    // Each "application" opens its own store handle: its own buffer
    // pool over the shared directory, or its own connection.
    auto open_app = [&]() -> std::unique_ptr<hm::HyperStore> {
      if (remote) {
        return hm::bench::Must(
            hm::backends::RemoteStore::Connect(remote_options));
      }
      return hm::bench::Must(hm::bench::OpenBackend(env.backend, "oodb", dir));
    };
    hm::TestDatabase db;
    if (remote) {
      if (env.backend.remote.empty()) {
        // Self-host one server; enough workers that every reader below
        // gets a concurrent session.
        hm::server::ServerOptions options;
        options.host = "127.0.0.1";
        options.port = 0;
        options.workers = max_readers + 1;
        own_server = hm::bench::Must(hm::server::Server::Start(
            options, hm::bench::Must(hm::bench::OpenBackend(
                         env.backend, server_backend, dir))));
        remote_options.host = own_server->host();
        remote_options.port = own_server->port();
        std::cout << "(backend: " << backend << ", server backend: "
                  << server_backend << ", read-parallel dispatch "
                  << (own_server->read_parallel() ? "on" : "off") << ")\n\n";
      } else {
        auto parsed = hm::bench::Must(
            hm::backends::ParseRemoteAddr(env.backend.remote));
        remote_options.host = parsed.host;
        remote_options.port = parsed.port;
        std::cout << "(backend: " << backend << ", external server at "
                  << env.backend.remote << ")\n\n";
      }
      auto builder = hm::backends::RemoteStore::Connect(remote_options);
      CheckOk(builder.status());
      // A long-lived external server must start empty (uids from 1); on
      // a fresh self-hosted one this is an idempotent no-op.
      CheckOk((*builder)->ResetServer());
      db = hm::bench::BuildDatabase(builder->get(), env.levels[0], nullptr);
    } else {
      std::cout << "(backend: oodb)\n\n";
      db = hm::bench::BuildDatabase(open_app().get(), env.levels[0], nullptr);
    }

    size_t closure_level = std::min<size_t>(3, db.nodes_by_level.size() - 2);

    {
      // Untimed warmup so the first timed row isn't charged for the
      // server's cold page cache (the builder handle is still open).
      std::unique_ptr<hm::HyperStore> warm = open_app();
      for (hm::NodeRef start : db.level(closure_level)) {
        std::vector<hm::NodeRef> out;
        CheckOk(hm::ops::Closure1N(warm.get(), start, &out));
      }
    }

    std::cout << std::left << std::setw(9) << "readers" << std::right
              << std::setw(12) << "total-ops" << std::setw(14) << "wall-ms"
              << std::setw(14) << "ops/sec" << std::setw(12) << "speedup"
              << "\n";
    double baseline_ops_per_sec = 0;
    for (int readers : reader_counts) {
      // The applications open sequentially, before the threads start.
      std::vector<std::unique_ptr<hm::HyperStore>> apps;
      for (int r = 0; r < readers; ++r) apps.push_back(open_app());

      std::atomic<uint64_t> nodes_visited{0};
      hm::util::Timer timer;
      std::vector<std::thread> threads;
      for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&, r] {
          hm::HyperStore* store = apps[static_cast<size_t>(r)].get();
          hm::util::Rng rng(static_cast<uint64_t>(r) * 131 + 7);
          uint64_t local = 0;
          for (int op = 0; op < ops_per_reader; ++op) {
            const auto& pool = db.level(closure_level);
            hm::NodeRef start = pool[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
            std::vector<hm::NodeRef> out;
            CheckOk(hm::ops::Closure1N(store, start, &out));
            local += out.size();
          }
          nodes_visited += local;
        });
      }
      for (std::thread& thread : threads) thread.join();
      double wall_ms = timer.ElapsedMillis();
      double total_ops = static_cast<double>(readers) * ops_per_reader;
      double ops_per_sec = total_ops / (wall_ms / 1000.0);
      if (baseline_ops_per_sec == 0) baseline_ops_per_sec = ops_per_sec;
      double speedup = ops_per_sec / baseline_ops_per_sec;
      std::cout << std::left << std::setw(9) << readers << std::right
                << std::setw(12) << static_cast<long>(total_ops) << std::fixed
                << std::setprecision(1) << std::setw(14) << wall_ms
                << std::setprecision(0) << std::setw(14) << ops_per_sec
                << std::setprecision(2) << std::setw(12) << speedup << "\n";
      rows.push_back({server_backend, readers, total_ops, wall_ms,
                      ops_per_sec, speedup});
      (void)nodes_visited;
    }
    if (own_server) {
      std::cout << "\n(" << own_server->shared_reads_served()
                << " dispatches ran under the server's shared lock)\n";
      own_server->Stop();
    }
    std::cout << "\n";
  };

  if (remote && env.backend.remote.empty()) {
    for (const std::string& server_backend : server_backends) {
      run_sweep(server_backend);
    }
  } else {
    run_sweep(remote ? "external" : "in-process");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"parallel\",\n  \"level\": " << env.levels[0]
        << ",\n  \"backend\": \"" << backend
        << "\",\n  \"ops_per_reader\": " << ops_per_reader
        << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      out << "    {\"server_backend\": \"" << row.server_backend
          << "\", \"readers\": " << row.readers << ", \"total_ops\": "
          << static_cast<long>(row.total_ops) << ", \"wall_ms\": "
          << std::fixed << std::setprecision(1) << row.wall_ms
          << ", \"ops_per_sec\": " << std::setprecision(0)
          << row.ops_per_sec << ", \"speedup\": " << std::setprecision(2)
          << row.speedup << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "(JSON written to " << json_path << ")\n";
  }

  unsigned cores = std::thread::hardware_concurrency();
  std::cout << "\nHost has " << cores << " core(s). Expected shape: "
               "aggregate ops/sec grows toward ~min(K, cores)x the "
               "single-reader rate and never degrades below it — "
               "read-only applications with private workstation caches "
               "do not interfere, and a read-parallel server backend "
               "(oodb/rel latch-crawling) serves its clients "
               "concurrently instead of serializing them on one lock. "
               "On a single-core host that reads as flat aggregate "
               "throughput. The hard multi-user problem is updates "
               "(E13), exactly as the paper observes in §7.\n";
  return 0;
}
