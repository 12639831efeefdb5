// hmbench — command-line driver for the HyperModel benchmark.
//
// Runs the full §6 protocol (or a chosen subset) against any of the
// backends and prints the paper-style tables, optionally CSV; it is
// the one entry point of the paper tables (EXPERIMENTS.md lists one line
// per table). Subcommands serve a backend over the wire protocol,
// launch a sharded fleet, print a live server's telemetry, and fsck a
// generated database. `hmbench --help` prints kUsage below, the
// reference for every flag.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "analysis/fsck.h"
#include "bench/bench_common.h"
#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "replication/coordinator.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace {

using hm::bench::CheckOk;
using hm::bench::Flags;
using hm::bench::Must;

constexpr char kUsage[] = R"(hmbench — the HyperModel benchmark
(Berre/Anderson/Mallison, TR CS/E-88-031)

usage: hmbench [options]           run the benchmark
       hmbench serve [options]     expose a backend over TCP
       hmbench cluster [options]   launch an N-shard serve fleet
       hmbench stats [options]     print a live server's telemetry
       hmbench fsck [options]      verify a generated database

  --levels=4,5,6      leaf levels to run (default 4; paper sizes 4, 5, 6)
  --backends=...      subset of mem,oodb,rel,net,remote,shard (default the
                      four in-process ones); also remote[MODE],
                      remote://primary;replica;... and shard://host:port,...
  --ops=01,05A,10     operation numbers (default: all 20; empty
                      with --creation: the creation table alone)
  --iters=N           runs per cold/warm phase (default 50)
  --cache-pages=N     workstation cache size in 8 KiB pages (default 2048)
  --seed=N            input-selection seed (default 7)
  --dir=PATH          where to make the scratch directory, which is
                      removed on exit; PATH itself is kept unless
                      the run created it (default /tmp/hmbench)
  --remote=HOST:PORT  server address for the remote backend
                      (default: spawn an in-process loopback
                      server over a mem backend); the shard
                      backend takes its fleet address list
                      (shard://host:port,host:port,...) here;
                      a semicolon list (primary;replica;...)
                      selects the replica-aware client, which
                      fans reads over the replicas and fails
                      over when the primary dies
  --shards=N          fleet size when the shard backend
                      self-hosts an in-process loopback fleet
                      (default 4)
  --remote-mode=MODE  wire-latency rung for the remote backend:
                      percall, batched or pushdown (default);
                      or spell a backend remote[MODE] to pin one
                      run, e.g. --backends=remote[percall],
                      remote[pushdown]
  --json=PATH         also write the report as JSON
  --csv               CSV output
  --creation          include the database-creation table (§5.3)

hmbench stats — fetch and print a live server's telemetry (wire
opcode kStats)

  --remote=HOST:PORT  server to query (default 127.0.0.1:7433)

hmbench serve — expose one backend over the wire protocol. The
resolved host:port is printed, alone and flushed, as the first stdout
line, so a launcher learns an ephemeral port. On SIGINT/SIGTERM the
server stops accepting, drains in-flight work (group-commit batches
included), checkpoints persistent state, prints its telemetry, and
exits 0.

  --backend=NAME      backend to serve: mem,oodb,rel,net
  --host=ADDR         bind address (default 127.0.0.1)
  --port=N            TCP port (default 7433; 0 = ephemeral)
  --shard=K/N         serve as shard K of an N-shard fleet: wraps the
                      backend in the cluster ref translation layer and
                      reports (K, N) via the kShardInfo handshake
  --workers=N         worker-pool size (default 4)
  --queue=N           pending-connection bound (default 64)
  --max-inflight=N    in-flight request ceiling; beyond it the server
                      sheds with kOverloaded (default 0 = off)
  --drain-ms=N        Stop() grace for in-flight requests (default 2000)
  --cache-pages=N     backend cache size
  --dir=PATH          backend directory (default /tmp/hmserve)
  --group-commit-us=N group-commit window for oodb/rel commits
                      (default 0 = fsync per commit)
  --checkpoint-ms=N   oodb background fuzzy-checkpoint interval
                      (default 0 = checkpoint only at shutdown;
                      forced to 0 on replicas — see DESIGN.md §16)
  --replicate         serve as a replication primary: ship the
                      WAL to subscribing replicas (oodb only)
  --replica-of=H:P    serve as a read-only replica of the
                      primary at H:P (oodb only); writes answer
                      kReadOnly, reads serve the replayed state
  --semisync-ms=N     how long a primary commit waits for a
                      replica ack before degrading to async
                      (default 5000)

hmbench cluster — launch N `hmbench serve --port=0 --shard=k/N`
children, print the fleet's shard://host:port,... spelling (alone,
flushed) on stdout, and supervise until SIGINT/SIGTERM, which is
forwarded to the fleet. A crashed shard is restarted in its slot on
the same port.

  --shards=N          fleet size (default 4)
  --backend=NAME      backend each shard serves (default mem)
  --dir=PATH          root directory (shard k uses PATH/shardK)
  --cache-pages=N     per-shard backend cache size
  --workers=N         per-shard worker-pool size

hmbench fsck — generate a database, then walk it through the public
store API checking every §5.2 invariant (src/analysis/fsck.h). Exits 0
on a clean report, 2 on violations.

  --backend=NAME      backend to verify: mem,oodb,rel,net,remote,
                      shard, or shard://host:port,... to verify
                      a running fleet end to end
  --level=N           leaf level of the generated tree (default 4)
  --cache-pages=N     backend cache size
  --dir=PATH          where to make the scratch directory, which is
                      removed on exit; PATH itself is kept unless
                      the run created it (default /tmp/hmfsck)
  --remote=HOST:PORT  server for the remote backend (default:
                      in-process loopback over a mem backend)
  --shards=N          fleet size for a self-hosted shard backend

examples:
  hmbench --levels=4 --ops=10,14,15          # closure traversals
  hmbench --creation --ops= --levels=4,5     # creation table alone
  hmbench --levels=4,5,6 --creation          # the full paper matrix
  hmbench --backends=oodb --csv > oodb.csv
  hmbench serve --backend=mem &              # then, in another shell:
  hmbench --backends=remote --remote=127.0.0.1:7433
  hmbench stats --remote=127.0.0.1:7433      # live server telemetry
)";

// --- `hmbench serve`: the server side of the remote backend ----------

std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

struct ServeArgs {
  std::string backend = "mem";
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  int workers = 4;
  size_t queue = 64;
  std::string dir = "/tmp/hmserve";
  int max_inflight = 0;
  int drain_ms = 2000;
  /// Cache, group-commit window and checkpoint interval of the store.
  hm::bench::BackendConfig store;
  /// Fleet placement from --shard=K/N; (0, 1) = standalone.
  hm::cluster::ShardSpec shard;
  /// Replication role (DESIGN.md §16): --replicate ships this node's
  /// WAL; --replica-of=HOST:PORT replays a primary's.
  bool replicate = false;
  std::string replica_of;
  uint64_t semisync_ms = 5000;
};

/// (Re)creates the served backend, wrapped in the cluster translation
/// layer when this server is one shard of a fleet (--shard=K/N).
/// Persistent backends start from an empty directory — the server owns
/// its database the way a DBMS owns its volume; clients rebuild through
/// the protocol.
hm::util::Result<std::unique_ptr<hm::HyperStore>> MakeServeBackend(
    const ServeArgs& args) {
  std::string dir = args.dir + "/" + args.backend;
  if (args.backend != "mem") {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
  }
  auto backend = hm::bench::OpenBackend(args.store, args.backend, dir);
  HM_RETURN_IF_ERROR(backend.status());
  if (args.shard.count <= 1) return backend;
  auto wrapped =
      hm::cluster::ShardLocalStore::Wrap(args.shard, std::move(*backend));
  HM_RETURN_IF_ERROR(wrapped.status());
  return std::unique_ptr<hm::HyperStore>(std::move(*wrapped));
}

int ServeMain(int argc, char** argv) {
  ServeArgs args;
  std::string shard;
  Flags flags("hmbench serve", kUsage);
  flags.Add("backend", &args.backend)
      .Add("host", &args.host)
      .Add("port", &args.port)
      .Add("workers", &args.workers)
      .Add("queue", &args.queue)
      .Add("max-inflight", &args.max_inflight)
      .Add("drain-ms", &args.drain_ms)
      .Add("cache-pages", &args.store.cache_pages)
      .Add("dir", &args.dir)
      .Add("group-commit-us", &args.store.group_commit_us)
      .Add("checkpoint-ms", &args.store.checkpoint_ms)
      .Add("shard", &shard)
      .Add("replicate", &args.replicate)
      .Add("replica-of", &args.replica_of)
      .Add("semisync-ms", &args.semisync_ms)
      .Parse(argc, argv, 2);
  if (args.backend != "mem" && args.backend != "oodb" &&
      args.backend != "rel" && args.backend != "net") {
    flags.Fail("serve supports mem,oodb,rel,net, not '" + args.backend + "'");
  }
  if (!shard.empty()) args.shard = Must(hm::cluster::ParseShardSpec(shard));

  const bool is_replica = !args.replica_of.empty();
  const bool replicated = args.replicate || is_replica;
  if (args.replicate && is_replica) {
    std::cerr << "hmbench serve: --replicate and --replica-of are "
                 "mutually exclusive\n";
    return 1;
  }
  if (replicated && args.backend != "oodb") {
    std::cerr << "hmbench serve: replication needs --backend=oodb "
                 "(the WAL is what gets shipped)\n";
    return 1;
  }
  if (replicated && args.shard.count > 1) {
    std::cerr << "hmbench serve: --shard and replication cannot be "
                 "combined yet\n";
    return 1;
  }
  if (is_replica && args.store.checkpoint_ms != 0) {
    // A fuzzy checkpoint would advance recovery past replicated applies
    // that exist in no local WAL (DESIGN.md §16) — never on a replica.
    std::cerr << "hmbench serve: ignoring --checkpoint-ms on a replica\n";
    args.store.checkpoint_ms = 0;
  }

  auto backend = MakeServeBackend(args);
  CheckOk(backend.status());
  // Replication needs the concrete store under the HyperStore surface:
  // the shipper reads its WAL, the replicator applies into it. Safe:
  // the backend is an unwrapped oodb (checked above).
  auto* oodb = replicated
                   ? static_cast<hm::backends::OodbStore*>(backend->get())
                   : nullptr;

  std::unique_ptr<hm::replication::Coordinator> coordinator;
  hm::server::ServerOptions options;
  options.host = args.host;
  options.port = args.port;
  options.workers = args.workers;
  options.queue_capacity = args.queue;
  options.max_inflight = args.max_inflight;
  options.drain_ms = args.drain_ms;
  options.shard_id = args.shard.id;
  options.shard_count = args.shard.count;
  if (replicated) {
    // Role/epoch state lives in args.dir itself — outside the wiped
    // per-backend subdirectory — so a restarted node keeps its fence.
    hm::replication::CoordinatorOptions copts;
    copts.state_dir = args.dir;
    copts.semisync_timeout_ms = static_cast<int64_t>(args.semisync_ms);
    auto coord = hm::replication::Coordinator::Open(copts, is_replica);
    CheckOk(coord.status());
    coordinator = std::move(*coord);
    options.replication = coordinator.get();
    // No reset_factory: a reset would fork the shipped WAL chain under
    // the followers. Reset stays an idempotent no-op while untouched.
  } else {
    options.reset_factory = [args] { return MakeServeBackend(args); };
  }
  if (coordinator != nullptr && !is_replica) {
    // Fresh data directory (wiped above), so the WAL chain is
    // replayable from empty for any follower that subscribes.
    CheckOk(coordinator->ServePrimary(oodb, /*chain_complete=*/true));
  }
  auto server = hm::server::Server::Start(options, std::move(*backend));
  CheckOk(server.status());
  if (coordinator != nullptr && is_replica) {
    hm::replication::ReplicatorOptions ropts;
    auto primary_addr = hm::backends::ParseRemoteAddr(args.replica_of);
    CheckOk(primary_addr.status());
    ropts.primary = *primary_addr;
    ropts.mirror_dir = args.dir + "/repl_mirror";
    std::error_code mirror_ec;
    std::filesystem::create_directories(ropts.mirror_dir, mirror_ec);
    ropts.follower_id = (*server)->port();
    hm::server::Server* raw_server = server->get();
    CheckOk(coordinator->ServeReplica(
        ropts, oodb, [raw_server](const std::function<void()>& fn) {
          raw_server->WithExclusiveBackend(
              [&fn](hm::HyperStore*) { fn(); });
        }));
  }

  // The resolved address goes first, alone and flushed, so a launcher
  // reading our stdout learns an ephemeral port without parsing the
  // human banner (the cluster subcommand depends on this line).
  std::cout << (*server)->host() << ":" << (*server)->port() << "\n"
            << std::flush;
  std::cout << "hmbench serve: " << args.backend << " backend on "
            << (*server)->host() << ":" << (*server)->port() << " ("
            << args.workers << " workers); read-parallel dispatch "
            << ((*server)->read_parallel() ? "on" : "off");
  if (args.shard.count > 1) {
    std::cout << "; shard " << args.shard.id << "/" << args.shard.count;
  }
  if (coordinator != nullptr) {
    std::cout << "; replication "
              << hm::replication::RoleName(coordinator->role()) << " epoch "
              << coordinator->epoch();
    if (is_replica) std::cout << " of " << args.replica_of;
  }
  std::cout << "; Ctrl-C to stop\n" << std::flush;

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // The replicator (if any) must stop before the server: its exclusive
  // hook dispatches through it.
  if (coordinator != nullptr) coordinator->Shutdown();
  // Stop() drains: the listener closes first, in-flight requests get
  // up to --drain-ms to finish with their responses delivered.
  (*server)->Stop();
  std::cout << "hmbench serve: stopped after "
            << (*server)->requests_served() << " requests over "
            << (*server)->connections_accepted() << " connections ("
            << (*server)->connections_rejected() << " rejected, "
            << (*server)->requests_shed() << " shed)\n";
  // Destroying the server destroys the backend, whose teardown
  // checkpoints the WAL — persistent state is durable before exit.
  server->reset();
  hm::telemetry::Registry::Global().TakeSnapshot().PrintTo(std::cout);
  std::cout << std::flush;
  return 0;
}

// --- `hmbench cluster`: launch and supervise a serve fleet -----------

/// One fleet member: the child pid and the read end of its stdout
/// pipe (kept open so late child output has somewhere to go).
struct ShardProc {
  pid_t pid = -1;
  int out_fd = -1;
};

/// Reads one '\n'-terminated line from fd (the serve announce line).
bool ReadLine(int fd, std::string* line) {
  line->clear();
  char c = 0;
  while (true) {
    ssize_t n = read(fd, &c, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (c == '\n') return true;
    line->push_back(c);
  }
}

/// Fixed per-fleet spawn parameters (so a restart re-creates a child
/// exactly, modulo the pinned port).
struct ClusterSpawnConfig {
  uint32_t shards = 4;
  std::string backend = "mem";
  std::string dir = "/tmp/hmcluster";
  std::string cache_pages;  // passed through to each child when set
  std::string workers;
};

/// Forks one `hmbench serve` child for shard `k` listening on `port`
/// ("0" = ephemeral) and reads its announce line. On success fills
/// `*out` / `*addr_out`; on failure the child (if any) is reaped.
bool SpawnShard(const ClusterSpawnConfig& config, uint32_t k,
                const std::string& port, ShardProc* out,
                std::string* addr_out) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    std::cerr << "hmbench cluster: pipe: " << std::strerror(errno) << "\n";
    return false;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::cerr << "hmbench cluster: fork: " << std::strerror(errno) << "\n";
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stdout -> pipe, then become `hmbench serve` for shard k.
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<std::string> child_args = {
        "hmbench",
        "serve",
        "--backend=" + config.backend,
        "--port=" + port,
        "--shard=" + std::to_string(k) + "/" + std::to_string(config.shards),
        "--dir=" + config.dir + "/shard" + std::to_string(k),
    };
    if (!config.cache_pages.empty()) {
      child_args.push_back("--cache-pages=" + config.cache_pages);
    }
    if (!config.workers.empty()) {
      child_args.push_back("--workers=" + config.workers);
    }
    std::vector<char*> child_argv;
    child_argv.reserve(child_args.size() + 1);
    for (std::string& a : child_args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    execv("/proc/self/exe", child_argv.data());
    std::cerr << "hmbench cluster: execv: " << std::strerror(errno) << "\n";
    _exit(127);
  }
  close(pipe_fds[1]);
  std::string addr;
  if (!ReadLine(pipe_fds[0], &addr) || addr.find(':') == std::string::npos) {
    close(pipe_fds[0]);
    waitpid(pid, nullptr, 0);
    return false;
  }
  out->pid = pid;
  out->out_fd = pipe_fds[0];
  *addr_out = addr;
  return true;
}

int ClusterMain(int argc, char** argv) {
  ClusterSpawnConfig config;
  Flags("hmbench cluster", kUsage)
      .Add("shards", &config.shards)
      .Add("backend", &config.backend)
      .Add("dir", &config.dir)
      .Add("cache-pages", &config.cache_pages)
      .Add("workers", &config.workers)
      .Parse(argc, argv, 2);
  const uint32_t shards = config.shards;
  if (shards < 1 || shards > hm::cluster::kMaxShards) {
    std::cerr << "hmbench cluster: --shards must be in [1, "
              << hm::cluster::kMaxShards << "]\n";
    return 1;
  }

  std::vector<ShardProc> fleet(shards);
  std::vector<std::string> addrs(shards);
  for (uint32_t k = 0; k < shards; ++k) {
    if (!SpawnShard(config, k, "0", &fleet[k], &addrs[k])) {
      std::cerr << "hmbench cluster: shard " << k
                << " exited before announcing its address\n";
      for (uint32_t j = 0; j < k; ++j) kill(fleet[j].pid, SIGTERM);
      return 1;
    }
  }

  // The fleet spelling goes first, alone and flushed — scripts read it
  // the way the serve announce line is read.
  std::string spec = "shard://";
  for (size_t k = 0; k < addrs.size(); ++k) {
    if (k > 0) spec += ",";
    spec += addrs[k];
  }
  std::cout << spec << "\n" << std::flush;
  std::cout << "hmbench cluster: " << shards << "-shard " << config.backend
            << " fleet up; Ctrl-C to stop\n"
            << std::flush;

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Supervision: a crashed shard is restarted into its slot on the
  // port it announced, so the published shard:// spelling stays valid
  // and clients reconnect transparently. A slot that keeps dying
  // (kMaxSlotRestarts times without surviving kStableMs) takes the
  // fleet down — better a clean exit than a restart loop answering
  // kUnavailable forever.
  constexpr int kMaxSlotRestarts = 5;
  constexpr auto kStableMs = std::chrono::milliseconds(5000);
  hm::telemetry::Counter* restarts_counter =
      hm::telemetry::Registry::Global().GetCounter("cluster.restarts");
  std::vector<int> slot_restarts(shards, 0);
  std::vector<std::chrono::steady_clock::time_point> slot_started(
      shards, std::chrono::steady_clock::now());
  bool fleet_failed = false;
  while (g_stop_requested == 0 && !fleet_failed) {
    pid_t done = waitpid(-1, nullptr, WNOHANG);
    if (done <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    size_t slot = fleet.size();
    for (size_t k = 0; k < fleet.size(); ++k) {
      if (fleet[k].pid == done) slot = k;
    }
    if (slot == fleet.size()) continue;  // not ours (already replaced)
    close(fleet[slot].out_fd);
    fleet[slot] = ShardProc{};
    auto now = std::chrono::steady_clock::now();
    if (now - slot_started[slot] >= kStableMs) slot_restarts[slot] = 0;
    if (++slot_restarts[slot] > kMaxSlotRestarts) {
      std::cerr << "hmbench cluster: shard " << slot << " died "
                << kMaxSlotRestarts
                << " times in quick succession; stopping the fleet\n";
      fleet_failed = true;
      break;
    }
    // The same slot must come back on the same port (the announced
    // address is what clients hold); the port is the addr's suffix.
    std::string port = addrs[slot].substr(addrs[slot].rfind(':') + 1);
    std::string new_addr;
    if (!SpawnShard(config, static_cast<uint32_t>(slot), port, &fleet[slot],
                    &new_addr)) {
      std::cerr << "hmbench cluster: shard " << slot << " (pid " << done
                << ") died and could not be restarted on port " << port
                << "; stopping the fleet\n";
      fleet_failed = true;
      break;
    }
    slot_started[slot] = std::chrono::steady_clock::now();
    restarts_counter->Add();
    std::cerr << "hmbench cluster: shard " << slot << " (pid " << done
              << ") died; restarted as pid " << fleet[slot].pid << " on "
              << new_addr << " (restart " << slot_restarts[slot]
              << " of this slot)\n";
  }
  for (const ShardProc& proc : fleet) {
    if (proc.pid > 0) kill(proc.pid, SIGTERM);
  }
  int failures = fleet_failed ? 1 : 0;
  for (const ShardProc& proc : fleet) {
    if (proc.pid <= 0) continue;
    int wstatus = 0;
    if (waitpid(proc.pid, &wstatus, 0) == proc.pid &&
        (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
      ++failures;
    }
    close(proc.out_fd);
  }
  std::cout << "hmbench cluster: fleet stopped ("
            << restarts_counter->value() << " shard restarts)\n";
  return failures == 0 ? 0 : 1;
}

// --- `hmbench stats`: live telemetry from a running server -----------

int StatsMain(int argc, char** argv) {
  std::string remote = "127.0.0.1:7433";
  Flags("hmbench stats", kUsage).Add("remote", &remote).Parse(argc, argv, 2);
  auto options = hm::backends::ParseRemoteAddr(remote);
  CheckOk(options.status());
  auto store = hm::backends::RemoteStore::Connect(*options);
  CheckOk(store.status());
  hm::telemetry::Snapshot snapshot;
  CheckOk((*store)->ServerStats(&snapshot));
  std::cout << "server " << remote << " — backend "
            << (*store)->server_backend() << ", wire v"
            << static_cast<int>(hm::server::kWireVersion) << "\n";
  snapshot.PrintTo(std::cout);
  return 0;
}

// --- `hmbench fsck`: build a database, verify every invariant --------

int FsckMain(int argc, char** argv) {
  std::string backend = "mem";
  int level = 4;
  std::string dir = "/tmp/hmfsck";
  hm::bench::BackendConfig config;
  Flags flags("hmbench fsck", kUsage);
  flags.Add("backend", &backend)
      .Add("level", &level)
      .Add("cache-pages", &config.cache_pages)
      .Add("dir", &dir)
      .Add("remote", &config.remote)
      .Add("shards", &config.shards)
      .Parse(argc, argv, 2);
  if (level < 1) flags.Fail("--level must be >= 1");

  std::unique_ptr<hm::HyperStore> store = Must(hm::bench::OpenBackend(
      config, backend, hm::bench::ScratchDir(dir) + "/" + backend));
  hm::TestDatabase db = hm::bench::BuildDatabase(store.get(), level, nullptr);

  hm::analysis::FsckOptions options;
  options.config.levels = level;
  auto report = Must(hm::analysis::RunFsck(store.get(), options));
  std::cout << "hmbench fsck: backend " << backend << ", level " << level
            << " (" << db.node_count() << " nodes)\n";
  report.PrintTo(std::cout);
  return report.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return ServeMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "cluster") == 0) {
    return ClusterMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    return StatsMain(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fsck") == 0) {
    return FsckMain(argc, argv);
  }
  if (argc > 1 && argv[1][0] != '-') {
    // A bare word that is not a known subcommand is a typo'd
    // subcommand, not a benchmark flag.
    std::cerr << "hmbench: unknown subcommand '" << argv[1] << "'\n"
              << kUsage;
    return 1;
  }
  hm::bench::ProtocolConfig run;
  run.dir = "/tmp/hmbench";
  hm::bench::BackendConfig backend;
  std::string json;
  bool csv = false;
  Flags flags("hmbench", kUsage);
  flags.Add("levels", &run.levels)
      .Add("backends", &run.backends)
      .Add("ops", &run.ops)
      .Add("iters", &run.iterations)
      .Add("cache-pages", &backend.cache_pages)
      .Add("seed", &run.seed)
      .Add("dir", &run.dir)
      .Add("remote", &backend.remote)
      .Add("shards", &backend.shards)
      .Add("remote-mode", &backend.remote_mode)
      .Add("json", &json)
      .Add("csv", &csv)
      .Add("creation", &run.creation)
      .Parse(argc, argv);
  if (run.levels.empty() || run.backends.empty() || run.iterations <= 0 ||
      (run.ops.empty() && !run.creation)) {
    flags.Fail("needs levels, backends, iters > 0, and ops or --creation");
  }
  run.dir = hm::bench::ScratchDir(run.dir);

  hm::Report report = hm::bench::RunProtocol(run, backend);
  if (csv) {
    report.PrintCsv(std::cout);
  } else {
    if (run.creation) report.PrintCreationTable(std::cout);
    if (!run.ops.empty()) report.PrintOpTable(std::cout);
  }
  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "hmbench: cannot write JSON to '" << json << "'\n";
      return 1;
    }
    report.PrintJson(out);
    std::cerr << "JSON written to " << json << "\n";
  }
  return 0;
}
