// bench_commit — group-commit write-pipeline throughput.
//
// Concurrent editor threads hammer tiny commits against a persistent
// backend and we measure commits/sec and commit-latency percentiles as
// the group-commit window widens. The HyperModel store API is
// single-writer, so editors serialize the mutation + commit-record
// append under one mutex (via PipelinedCommitCapable::CommitBegin) and
// then block on durability *outside* it (CommitWait) — which is
// exactly the window the group-commit coordinator amortizes: N
// committers, one fsync. Every commit goes through the coordinator;
// the window is only how long a solo leader waits for a companion, so
// at --group-commit-us=0 a lone committer syncs at once and committers
// that arrive during a sync still share the next one.
//
// Flags (comma lists fan out the run matrix):
//   --backend=oodb|rel      default oodb
//   --clients=1,2,4,8       editor thread counts
//   --commits=N             commits per editor per run (default 200)
//   --group-commit-us=0,100,1000   coordinator windows to sweep
//   --dir=PATH              where to make the scratch directory, which is
//                           removed on exit; PATH itself is kept unless
//                           the run created it (default: TMPDIR)
//   --json=PATH             also write the table as JSON
//
// The `wal_syncs` column is the telemetry delta of storage.wal.syncs
// across the run (oodb only; the rel backend batches FileManager
// fsyncs, which the WAL counter does not see). syncs/commit < 1 is the
// telemetry-verified signature that syncing stayed sublinear in
// committers.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "hypermodel/store.h"
#include "telemetry/metrics.h"
#include "util/timer.h"

namespace hm::bench {
namespace {

struct Config {
  std::string backend = "oodb";
  std::vector<int> clients{1, 2, 4, 8};
  int commits = 200;
  std::vector<uint32_t> windows_us{0, 100, 1000};
  std::string dir;
  std::string json_path;
};

struct RunResult {
  std::string backend;
  uint32_t window_us = 0;
  int clients = 0;
  int commits = 0;  // total across clients
  double wall_ms = 0;
  double commits_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t wal_syncs = 0;
  double syncs_per_commit = 0;
};

void Die(const std::string& message) {
  std::fprintf(stderr, "bench_commit: %s\n", message.c_str());
  std::exit(1);
}

Config ParseFlags(int argc, char** argv) {
  Config config;
  Flags flags("bench_commit");
  flags.Add("backend", &config.backend)
      .Add("clients", &config.clients)
      .Add("commits", &config.commits)
      .Add("group-commit-us", &config.windows_us)
      .Add("dir", &config.dir)
      .Add("json", &config.json_path)
      .Parse(argc, argv);
  if (config.backend != "oodb" && config.backend != "rel") {
    flags.Fail("--backend must be oodb or rel");
  }
  return config;
}

std::unique_ptr<HyperStore> OpenStore(const Config& config, uint32_t window_us,
                                      const std::string& dir) {
  BackendConfig backend;
  backend.group_commit_us = window_us;
  auto store = OpenBackend(backend, config.backend, dir);
  if (!store.ok()) Die(config.backend + " open: " + store.status().ToString());
  return std::move(*store);
}

RunResult RunOne(const Config& config, uint32_t window_us, int clients) {
  std::string dir = config.dir + "/" + config.backend + "_w" +
                    std::to_string(window_us) + "_c" + std::to_string(clients);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::unique_ptr<HyperStore> store = OpenStore(config, window_us, dir);
  auto* pipelined = dynamic_cast<PipelinedCommitCapable*>(store.get());
  if (pipelined == nullptr) Die(config.backend + " lacks pipelined commits");

  // One private node per editor, created up front so the measured loop
  // is pure attribute edits + commits.
  std::vector<NodeRef> nodes(static_cast<size_t>(clients), kInvalidNode);
  {
    util::Status s = store->Begin();
    if (!s.ok()) Die("setup begin: " + s.ToString());
    for (int c = 0; c < clients; ++c) {
      NodeAttrs attrs;
      attrs.unique_id = 1000000 + c;
      attrs.kind = NodeKind::kInternal;
      auto node = store->CreateNode(attrs, kInvalidNode);
      if (!node.ok()) Die("setup create: " + node.status().ToString());
      nodes[static_cast<size_t>(c)] = *node;
    }
    s = store->Commit();
    if (!s.ok()) Die("setup commit: " + s.ToString());
  }

  telemetry::Counter* syncs =
      telemetry::Registry::Global().GetCounter("storage.wal.syncs");
  uint64_t syncs_before = syncs->value();

  std::mutex store_mu;  // serializes Begin..CommitBegin across editors
  std::vector<util::StatsAccumulator> latencies(
      static_cast<size_t>(clients));
  std::atomic<int> start_gate{0};
  std::atomic<bool> failed{false};

  auto editor = [&](int id) {
    start_gate.fetch_add(1);
    while (start_gate.load() < clients) std::this_thread::yield();
    NodeRef node = nodes[static_cast<size_t>(id)];
    for (int i = 0; i < config.commits && !failed.load(); ++i) {
      util::Timer timer;
      uint64_t ticket = 0;
      {
        std::lock_guard lock(store_mu);
        util::Status s = store->Begin();
        if (s.ok()) s = store->SetAttr(node, Attr::kThousand, i);
        if (!s.ok()) {
          failed.store(true);
          break;
        }
        auto enrolled = pipelined->CommitBegin();
        if (!enrolled.ok()) {
          failed.store(true);
          break;
        }
        ticket = *enrolled;
      }
      util::Status s = pipelined->CommitWait(ticket);
      if (!s.ok()) {
        failed.store(true);
        break;
      }
      latencies[static_cast<size_t>(id)].Add(timer.ElapsedMicros());
    }
  };

  util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) threads.emplace_back(editor, c);
  for (std::thread& t : threads) t.join();
  double wall_ms = wall.ElapsedMillis();
  if (failed.load()) Die("an editor hit a commit error");

  uint64_t syncs_after = syncs->value();
  store.reset();  // drain the pipeline before the next config reuses it

  util::StatsAccumulator all;
  for (const util::StatsAccumulator& acc : latencies) {
    for (double sample : acc.samples()) all.Add(sample);
  }
  RunResult result;
  result.backend = config.backend;
  result.window_us = window_us;
  result.clients = clients;
  result.commits = clients * config.commits;
  result.wall_ms = wall_ms;
  result.commits_per_sec =
      wall_ms > 0 ? 1000.0 * static_cast<double>(result.commits) / wall_ms : 0;
  result.p50_us = all.Percentile(0.50);
  result.p99_us = all.Percentile(0.99);
  result.wal_syncs = syncs_after - syncs_before;
  result.syncs_per_commit =
      static_cast<double>(result.wal_syncs) /
      static_cast<double>(result.commits > 0 ? result.commits : 1);
  return result;
}

void WriteJson(const std::string& path, const std::vector<RunResult>& rows) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    out << "  {\"backend\": \"" << r.backend
        << "\", \"group_commit_us\": " << r.window_us
        << ", \"clients\": " << r.clients << ", \"commits\": " << r.commits
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"commits_per_sec\": " << r.commits_per_sec
        << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
        << ", \"wal_syncs\": " << r.wal_syncs
        << ", \"syncs_per_commit\": " << r.syncs_per_commit << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

int Main(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  config.dir = ScratchDir(config.dir);

  std::printf("group-commit pipeline: %s backend, %d commits/editor\n",
              config.backend.c_str(), config.commits);
  std::printf("%-8s %8s %8s %12s %10s %10s %10s %8s\n", "window", "clients",
              "commits", "commits/s", "p50(us)", "p99(us)", "wal_syncs",
              "syncs/c");
  std::vector<RunResult> rows;
  for (uint32_t window_us : config.windows_us) {
    for (int clients : config.clients) {
      RunResult r = RunOne(config, window_us, clients);
      rows.push_back(r);
      std::printf("%-8llu %8d %8d %12.0f %10.0f %10.0f %10llu %8.3f\n",
                  static_cast<unsigned long long>(r.window_us), r.clients,
                  r.commits, r.commits_per_sec, r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.wal_syncs),
                  r.syncs_per_commit);
    }
  }
  if (!config.json_path.empty()) WriteJson(config.json_path, rows);
  return 0;
}

}  // namespace
}  // namespace hm::bench

int main(int argc, char** argv) { return hm::bench::Main(argc, argv); }
