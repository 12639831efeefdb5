// bench_replication — the three numbers DESIGN.md §16 promises for
// the replication layer, measured on a real in-process fleet. Each
// node is a replication::Node, an OodbStore-backed loopback server with
// its coordinator, wired as `hmbench serve` and the tests wire theirs:
//
//  1. read throughput, 1 primary vs primary + 2 replicas: R reader
//     clients (each its own ReplicatedStore connection) run clean
//     Begin / lookup-batch / Commit rounds for a fixed wall window.
//     With replicas the clean reads fan out round-robin; the
//     replica_read_share column is the telemetry-verified fraction
//     that actually landed on a follower.
//
//  2. failover time: kill the primary (sockets die, directory
//     survives) and measure kill -> first successful clean read
//     (replicas keep serving, so this is the availability gap) and
//     kill -> first committed write (the client-driven promotion
//     sweep: probe, promote highest-LSN follower, fence the rest).
//
//  3. steady-state lag: primary + 1 replica under the bench_commit
//     write shape (tiny SetAttr transactions, one commit each) for a
//     fixed window, sampling the replication.lag_bytes /
//     replication.lag_lsn gauges every few milliseconds. One replica
//     only, so the process-global gauges are unambiguous.
//
//  4. closure ladder: closure1N from the root of a generated level-4
//     database over primary + 1 replica, through a replicated client
//     whose peers run each RemoteMode in turn — the `remote` latency
//     ladder (README) for the replicated stack, as warm ms/node and
//     round trips per closure.
//
// Flags:
//   --nodes=N       uids preloaded for the read phase (default 1500)
//   --readers=R     reader clients in phase 1 (default 4)
//   --read-ms=MS    wall window per read config (default 1500)
//   --write-ms=MS   wall window for the lag phase (default 2000)
//   --dir=PATH      where to make the scratch directory, which is removed
//                   on exit; PATH itself is kept unless the run created
//                   it (default: TMPDIR)
//   --json=PATH     also write the results as BENCH_replication JSON
//
// All fleets share this host's cores, so the expected shape on a
// small machine is modest read scaling plus a large replica_read
// share — the point is offload (the primary stops being the only
// read path), not loopback speedup.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "hypermodel/store.h"
#include "replication/node.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "util/random.h"
#include "util/timer.h"

namespace hm::bench {
namespace {

using backends::OodbStore;
using backends::RemoteStore;
using backends::ReplicatedStore;
using replication::CoordinatorOptions;
using replication::Node;
using replication::ReplicatorOptions;

struct Config {
  int64_t nodes = 1500;
  int readers = 4;
  int read_ms = 1500;
  int write_ms = 2000;
  std::string dir;
  std::string json_path;
};

void Die(const std::string& message) {
  std::fprintf(stderr, "bench_replication: %s\n", message.c_str());
  std::exit(1);
}

Config ParseFlags(int argc, char** argv) {
  Config config;
  Flags("bench_replication")
      .Add("nodes", &config.nodes)
      .Add("readers", &config.readers)
      .Add("read-ms", &config.read_ms)
      .Add("write-ms", &config.write_ms)
      .Add("dir", &config.dir)
      .Add("json", &config.json_path)
      .Parse(argc, argv);
  return config;
}

void CheckOk(const util::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

NodeAttrs MakeAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- fleet harness ---------------------------------------------------

/// Starts a node in a fresh `dir`: a primary, or a replica of the
/// primary on `primary_port`.
std::unique_ptr<Node> StartNode(const std::string& dir, bool as_replica,
                                uint16_t primary_port) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  backends::OodbOptions options;
  options.cache_pages = 1024;
  options.wal_segment_bytes = 1 << 18;
  auto store = OodbStore::Open(options, dir + "/oodb");
  if (!store.ok()) Die("oodb open: " + store.status().ToString());

  server::ServerOptions sopts;
  // Each worker owns one connection for its lifetime; the primary
  // serves two replicator connections plus every bench client.
  sopts.workers = 16;
  CoordinatorOptions copts;
  copts.state_dir = dir;
  copts.semisync_timeout_ms = 2000;
  std::optional<ReplicatorOptions> replica_of;
  if (as_replica) {
    replica_of.emplace();
    replica_of->primary.host = "127.0.0.1";
    replica_of->primary.port = primary_port;
    replica_of->poll_ms = 2;
  }
  auto node =
      Node::Start(std::move(*store), sopts, copts, std::move(replica_of));
  if (!node.ok()) Die("node start: " + node.status().ToString());
  return std::move(*node);
}

std::unique_ptr<RemoteStore> DirectClient(uint16_t port) {
  backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.max_retries = 1;
  auto store = RemoteStore::Connect(options);
  if (!store.ok()) Die("direct client: " + store.status().ToString());
  return std::move(*store);
}

std::unique_ptr<ReplicatedStore> FleetClient(
    const std::vector<uint16_t>& ports,
    backends::RemoteMode mode = backends::RemoteMode::kPushdown) {
  backends::ReplicatedOptions options;
  for (uint16_t port : ports) {
    backends::RemoteOptions peer;
    peer.host = "127.0.0.1";
    peer.port = port;
    peer.mode = mode;
    peer.max_retries = 1;
    options.peers.push_back(peer);
  }
  auto store = ReplicatedStore::Connect(options);
  if (!store.ok()) Die("fleet client: " + store.status().ToString());
  return std::move(*store);
}

/// Loads uids [1, nodes] in 100-node transactions through `client`.
void Preload(HyperStore* client, int64_t nodes) {
  for (int64_t uid = 1; uid <= nodes;) {
    CheckOk(client->Begin(), "preload begin");
    for (int64_t i = 0; i < 100 && uid <= nodes; ++i, ++uid) {
      auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
      CheckOk(node.status(), "preload create");
    }
    CheckOk(client->Commit(), "preload commit");
  }
}

/// Blocks until every follower's replayed LSN reaches the primary's
/// current durable LSN.
void AwaitCatchUp(uint16_t primary_port,
                  const std::vector<uint16_t>& follower_ports) {
  auto primary = DirectClient(primary_port);
  server::ReplPeer head;
  CheckOk(primary->ReplReport(0, 0, &head), "primary status");
  for (uint16_t port : follower_ports) {
    auto follower = DirectClient(port);
    if (!WaitFor(
            [&] {
              server::ReplPeer peer;
              return follower->ReplReport(0, 0, &peer).ok() &&
                     peer.durable_lsn >= head.durable_lsn;
            },
            30000)) {
      Die("follower never caught up to primary LSN");
    }
  }
}

// --- phase 1: read throughput ---------------------------------------

struct ReadRow {
  int replicas = 0;
  int readers = 0;
  uint64_t lookups = 0;
  double wall_ms = 0;
  double per_sec = 0;
  double replica_share = 0;
};

ReadRow MeasureReads(const Config& config,
                     const std::vector<uint16_t>& ports, int replicas) {
  auto* replica_reads =
      telemetry::Registry::Global().GetCounter("replicated.replica_reads");
  const uint64_t replica_before = replica_reads->value();

  std::atomic<uint64_t> lookups{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.readers));
  for (int r = 0; r < config.readers; ++r) {
    threads.emplace_back([&, r] {
      auto client = FleetClient(ports);
      util::Rng rng(0x5EED0000u + static_cast<uint64_t>(r));
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client->Begin().ok()) {
          failed.store(true);
          return;
        }
        for (int i = 0; i < 20; ++i) {
          int64_t uid = rng.UniformInt(1, config.nodes);
          auto node = client->LookupUnique(uid);
          if (!node.ok()) {
            failed.store(true);
            return;
          }
          ++mine;
        }
        if (!client->Commit().ok()) {
          failed.store(true);
          return;
        }
      }
      lookups.fetch_add(mine);
    });
  }

  util::Timer wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(config.read_ms));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  double wall_ms = wall.ElapsedMillis();
  if (failed.load()) Die("a reader hit an error mid-window");

  ReadRow row;
  row.replicas = replicas;
  row.readers = config.readers;
  row.lookups = lookups.load();
  row.wall_ms = wall_ms;
  row.per_sec = static_cast<double>(row.lookups) / (wall_ms / 1000.0);
  row.replica_share =
      row.lookups > 0
          ? static_cast<double>(replica_reads->value() - replica_before) /
                static_cast<double>(row.lookups)
          : 0;
  return row;
}

// --- phase 3: steady-state lag --------------------------------------

struct LagRow {
  int write_ms = 0;
  uint64_t commits = 0;
  double commits_per_sec = 0;
  int64_t lag_bytes_max = 0;
  double lag_bytes_mean = 0;
  int64_t lag_lsn_max = 0;
  uint64_t txns_applied = 0;
};

LagRow MeasureLag(const Config& config, const std::string& root) {
  auto primary = StartNode(root + "/lag_primary", false, 0);
  auto replica = StartNode(root + "/lag_replica", true, primary->port());

  auto client = DirectClient(primary->port());
  // One target node; the measured loop is the bench_commit shape —
  // tiny SetAttr transactions, one (semi-sync) commit each.
  CheckOk(client->Begin(), "lag setup begin");
  auto node = client->CreateNode(MakeAttrs(1), kInvalidNode);
  CheckOk(node.status(), "lag setup create");
  CheckOk(client->Commit(), "lag setup commit");
  AwaitCatchUp(primary->port(), {replica->port()});

  auto& reg = telemetry::Registry::Global();
  auto* lag_bytes = reg.GetGauge("replication.lag_bytes");
  auto* lag_lsn = reg.GetGauge("replication.lag_lsn");
  auto* applied = reg.GetCounter("replication.txns_applied");
  const uint64_t applied_before = applied->value();

  std::atomic<bool> stop{false};
  int64_t max_bytes = 0, max_lsn = 0;
  double sum_bytes = 0;
  uint64_t samples = 0;
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      int64_t bytes = lag_bytes->value();
      max_bytes = std::max(max_bytes, bytes);
      max_lsn = std::max(max_lsn, lag_lsn->value());
      sum_bytes += static_cast<double>(bytes);
      ++samples;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  uint64_t commits = 0;
  util::Timer wall;
  while (wall.ElapsedMillis() < config.write_ms) {
    CheckOk(client->Begin(), "lag begin");
    CheckOk(client->SetAttr(*node, Attr::kThousand,
                            static_cast<int64_t>(commits % 1000)),
            "lag set");
    CheckOk(client->Commit(), "lag commit");
    ++commits;
  }
  double wall_ms = wall.ElapsedMillis();
  stop.store(true);
  sampler.join();

  LagRow row;
  row.write_ms = config.write_ms;
  row.commits = commits;
  row.commits_per_sec = static_cast<double>(commits) / (wall_ms / 1000.0);
  row.lag_bytes_max = max_bytes;
  row.lag_bytes_mean =
      samples > 0 ? sum_bytes / static_cast<double>(samples) : 0;
  row.lag_lsn_max = max_lsn;
  row.txns_applied = applied->value() - applied_before;

  return row;
}

// --- phase 4: closure ladder -----------------------------------------

struct LadderRow {
  std::string mode;
  uint64_t nodes = 0;  // per closure
  double ms_per_node = 0;
  double roundtrips = 0;  // per closure, both peers' clients together
};

std::vector<LadderRow> MeasureClosureLadder(const std::string& root) {
  auto primary = StartNode(root + "/ladder_primary", false, 0);
  auto replica = StartNode(root + "/ladder_replica", true, primary->port());
  const std::vector<uint16_t> ports{primary->port(), replica->port()};
  NodeRef start = kInvalidNode;
  {
    auto loader = FleetClient(ports);
    GeneratorConfig config;
    config.levels = 4;
    config.generate_contents = false;
    auto db = Generator(config).Build(loader.get(), nullptr);
    CheckOk(db.status(), "ladder build");
    start = db->root;
  }
  AwaitCatchUp(primary->port(), {replica->port()});

  constexpr int kClosures = 20;
  std::vector<LadderRow> rows;
  for (backends::RemoteMode mode :
       {backends::RemoteMode::kPerCall, backends::RemoteMode::kBatched,
        backends::RemoteMode::kPushdown}) {
    auto client = FleetClient(ports, mode);
    auto* roundtrips = telemetry::Registry::Global().GetCounter(
        "remote." + std::string(backends::RemoteModeName(mode)) +
        ".roundtrips");
    std::vector<NodeRef> out;
    CheckOk(ops::Closure1N(client.get(), start, &out), "ladder warm-up");
    const uint64_t before = roundtrips->value();
    util::Timer wall;
    for (int i = 0; i < kClosures; ++i) {
      CheckOk(ops::Closure1N(client.get(), start, &out), "ladder closure");
    }
    const double wall_ms = wall.ElapsedMillis();
    LadderRow row;
    row.mode = std::string(backends::RemoteModeName(mode));
    row.nodes = out.size();
    row.ms_per_node = wall_ms / static_cast<double>(kClosures * out.size());
    row.roundtrips = static_cast<double>(roundtrips->value() - before) /
                     kClosures;
    rows.push_back(row);
  }
  return rows;
}

// --- driver ----------------------------------------------------------

int Main(int argc, char** argv) {
  Config config = ParseFlags(argc, argv);
  const std::string root = ScratchDir(config.dir);

  std::printf("### Replication bench (DESIGN.md §16): %lld uids, "
              "%d readers, %d ms read window\n\n",
              static_cast<long long>(config.nodes), config.readers,
              config.read_ms);

  // Phase 1a: primary only. The single peer takes every read.
  std::vector<ReadRow> read_rows;
  {
    auto primary = StartNode(root + "/solo_primary", false, 0);
    auto loader = FleetClient({primary->port()});
    Preload(loader.get(), config.nodes);
    read_rows.push_back(
        MeasureReads(config, {primary->port()}, /*replicas=*/0));
  }

  // Phase 1b + 2: primary + 2 replicas; then kill the primary under
  // the same fleet and time the failover.
  double read_gap_ms = 0, write_failover_ms = 0;
  uint64_t epoch_after = 0;
  {
    auto primary = StartNode(root + "/primary", false, 0);
    auto r1 = StartNode(root + "/replica1", true, primary->port());
    auto r2 = StartNode(root + "/replica2", true, primary->port());
    std::vector<uint16_t> ports{primary->port(), r1->port(), r2->port()};

    auto loader = FleetClient(ports);
    Preload(loader.get(), config.nodes);
    AwaitCatchUp(primary->port(), {r1->port(), r2->port()});
    read_rows.push_back(MeasureReads(config, ports, /*replicas=*/2));

    // Phase 2: kill -> first clean read (availability gap) and kill ->
    // first committed write (promotion sweep, epoch bump, fencing).
    primary.reset();
    util::Timer down;
    if (!WaitFor(
            [&] {
              if (!loader->Begin().ok()) return false;
              bool ok = loader->LookupUnique(1).ok();
              ok = loader->Commit().ok() && ok;
              return ok;
            },
            30000)) {
      Die("no successful read within 30 s of primary loss");
    }
    read_gap_ms = down.ElapsedMillis();
    if (!WaitFor(
            [&] {
              if (!loader->Begin().ok()) return false;
              auto node =
                  loader->CreateNode(MakeAttrs(config.nodes + 1), kInvalidNode);
              if (!node.ok()) {
                (void)loader->Abort();
                return false;
              }
              return loader->Commit().ok();
            },
            30000)) {
      Die("no successful write within 30 s of primary loss");
    }
    write_failover_ms = down.ElapsedMillis();
    epoch_after = loader->known_epoch();
  }

  // Phase 3: steady-state lag under the write load.
  LagRow lag = MeasureLag(config, root);

  // Phase 4: closures through the replicated client, per fetch mode.
  std::vector<LadderRow> ladder = MeasureClosureLadder(root);

  std::printf("%-10s %8s %10s %12s %12s %14s\n", "config", "readers",
              "lookups", "wall-ms", "lookups/s", "replica-share");
  for (const ReadRow& row : read_rows) {
    std::printf("%-10s %8d %10llu %12.1f %12.0f %14.2f\n",
                row.replicas == 0 ? "1p" : "1p+2r", row.readers,
                static_cast<unsigned long long>(row.lookups), row.wall_ms,
                row.per_sec, row.replica_share);
  }
  std::printf("\nfailover: read gap %.1f ms, first committed write "
              "%.1f ms (epoch %llu after promotion)\n",
              read_gap_ms, write_failover_ms,
              static_cast<unsigned long long>(epoch_after));
  std::printf("steady lag over %d ms of commits: %llu commits "
              "(%.0f/s), lag_bytes max %lld mean %.0f, lag_lsn max %lld, "
              "%llu txns applied on the replica\n",
              lag.write_ms, static_cast<unsigned long long>(lag.commits),
              lag.commits_per_sec,
              static_cast<long long>(lag.lag_bytes_max), lag.lag_bytes_mean,
              static_cast<long long>(lag.lag_lsn_max),
              static_cast<unsigned long long>(lag.txns_applied));
  std::printf("\nclosure1N over primary + 1 replica (%llu nodes):\n",
              static_cast<unsigned long long>(ladder.front().nodes));
  for (const LadderRow& row : ladder) {
    std::printf("  %-9s %.6f ms/node  %.1f round trips/closure\n",
                row.mode.c_str(), row.ms_per_node, row.roundtrips);
  }

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    out << "{\n  \"bench\": \"replication\",\n  \"nodes\": " << config.nodes
        << ",\n  \"readers\": " << config.readers
        << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n  \"read_throughput\": [\n";
    for (size_t i = 0; i < read_rows.size(); ++i) {
      const ReadRow& row = read_rows[i];
      out << "    {\"replicas\": " << row.replicas
          << ", \"readers\": " << row.readers
          << ", \"lookups\": " << row.lookups << ", \"wall_ms\": "
          << std::fixed << std::setprecision(1) << row.wall_ms
          << ", \"per_sec\": " << std::setprecision(0) << row.per_sec
          << ", \"replica_read_share\": " << std::setprecision(3)
          << row.replica_share << "}" << (i + 1 < read_rows.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"failover\": {\"read_gap_ms\": " << std::setprecision(1)
        << read_gap_ms << ", \"write_failover_ms\": " << write_failover_ms
        << ", \"epoch_after\": " << epoch_after
        << "},\n  \"steady_lag\": {\"write_ms\": " << lag.write_ms
        << ", \"commits\": " << lag.commits << ", \"commits_per_sec\": "
        << std::setprecision(0) << lag.commits_per_sec
        << ", \"lag_bytes_max\": " << lag.lag_bytes_max
        << ", \"lag_bytes_mean\": " << std::setprecision(0)
        << lag.lag_bytes_mean << ", \"lag_lsn_max\": " << lag.lag_lsn_max
        << ", \"txns_applied\": " << lag.txns_applied
        << "},\n  \"closure_ladder\": [\n";
    for (size_t i = 0; i < ladder.size(); ++i) {
      const LadderRow& row = ladder[i];
      out << "    {\"mode\": \"" << row.mode << "\", \"nodes\": " << row.nodes
          << ", \"ms_per_node\": " << std::setprecision(6)
          << row.ms_per_node << ", \"roundtrips\": " << std::setprecision(1)
          << row.roundtrips << "}" << (i + 1 < ladder.size() ? "," : "")
          << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\n(JSON written to %s)\n", config.json_path.c_str());
  }

  return 0;
}

}  // namespace
}  // namespace hm::bench

int main(int argc, char** argv) { return hm::bench::Main(argc, argv); }
