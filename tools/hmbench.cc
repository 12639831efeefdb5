// hmbench — command-line driver for the HyperModel benchmark.
//
// Runs the full §6 protocol (or a chosen subset) against any of the
// backends and prints the paper-style tables, optionally CSV. Can also
// run as a server (`hmbench serve`) exposing one backend over the
// binary wire protocol for `--backends=remote` clients.
//
// Usage:
//   hmbench [options]
//     --levels=4,5,6        leaf levels of the 1-N hierarchy (default 4)
//     --backends=mem,oodb,rel  backends to run (default all in-process)
//     --ops=01,03,10        operation numbers to run (default: all 20;
//                           accepts 01,02,03,04,05A,05B,06,07A,07B,
//                           08..18)
//     --iters=50            protocol iterations per run (default 50)
//     --cache-pages=2048    workstation cache size in 8 KiB pages
//     --seed=7              input-selection seed
//     --dir=PATH            working directory (default /tmp/hmbench)
//     --remote=HOST:PORT    server for the `remote` backend; without
//                           it, `remote` spawns an in-process loopback
//                           server over a mem backend. For the `shard`
//                           backend, pass the fleet address list
//                           (shard://host:port,host:port,...) here
//     --shards=N            fleet size for a self-hosted `shard`
//                           backend (in-process loopback fleet)
//     --remote-mode=MODE    percall | batched | pushdown (default) —
//                           or pin per run via remote[MODE] backends
//     --json=PATH           also write the report as JSON
//     --csv                 machine-readable CSV instead of tables
//     --creation            include the §5.3 creation table
//     --help
//
//   hmbench stats [options]
//     --remote=HOST:PORT    server to query (default 127.0.0.1:7433);
//                           fetches the server's telemetry registry
//                           (wire opcode kStats) and pretty-prints it
//
//   hmbench fsck [options]
//     --backend=mem         backend to verify (mem,oodb,rel,net,remote,
//                           shard, or shard://host:port,... to verify
//                           a running fleet end to end)
//     --level=4             leaf level of the generated database
//     --cache-pages=2048    backend cache size
//     --dir=PATH            scratch directory (default /tmp/hmfsck)
//     --remote=HOST:PORT    server for the remote backend
//     --shards=N            fleet size for a self-hosted shard backend
//     Generates a fresh §5.2 database into the backend, then walks it
//     through the public store API checking every schema invariant
//     (src/analysis/fsck.h). Exits 0 on a clean report, 2 on
//     violations.
//
//   hmbench serve [options]
//     --backend=mem         backend to serve (mem,oodb,rel,net)
//     --host=127.0.0.1      bind address
//     --port=7433           TCP port (0 = ephemeral). The resolved
//                           host:port is printed, alone and flushed,
//                           as the first stdout line before serving —
//                           launchers read it to learn an ephemeral
//                           port
//     --shard=K/N           serve as shard K of an N-shard fleet:
//                           wraps the backend in the cluster ref
//                           translation layer and reports (K, N) via
//                           the kShardInfo handshake
//     --workers=4           worker-pool size
//     --queue=64            pending-connection queue bound
//     --max-inflight=0      in-flight request ceiling; beyond it the
//                           server sheds with kOverloaded (0 = off)
//     --drain-ms=2000       Stop() grace for in-flight requests
//     --cache-pages=2048    backend cache size
//     --dir=PATH            backend directory (default /tmp/hmserve)
//     --group-commit-us=0   group-commit window for oodb/rel commits
//                           (0 = fsync per commit)
//     --checkpoint-ms=0     oodb background fuzzy-checkpoint interval
//                           (0 = checkpoint only at shutdown)
//     On SIGINT/SIGTERM the server stops accepting, drains in-flight
//     work (group-commit batches included), checkpoints persistent
//     state, prints its telemetry, and exits 0.
//
//   hmbench cluster [options]
//     --shards=4            fleet size
//     --backend=mem         backend each shard serves
//     --dir=PATH            root directory (shard k uses PATH/shardK)
//     --cache-pages=2048    per-shard backend cache size
//     --workers=4           per-shard worker-pool size
//     Launches N `hmbench serve --port=0 --shard=k/N` child processes,
//     reads each one's announced address, prints the fleet's
//     `shard://host:port,...` spelling (alone, flushed) on stdout, and
//     supervises until SIGINT/SIGTERM, which it forwards to the fleet.
//
// Examples:
//   hmbench --levels=4 --ops=10,14,15          # closure traversals
//   hmbench --levels=4,5,6 --creation          # the full paper matrix
//   hmbench --backends=oodb --csv > oodb.csv
//   hmbench serve --backend=mem &              # then, in another shell:
//   hmbench --backends=remote --remote=127.0.0.1:7433
//   hmbench stats --remote=127.0.0.1:7433      # live server telemetry

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "analysis/fsck.h"
#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/report.h"
#include "replication/coordinator.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace {

struct Args {
  std::vector<int> levels{4};
  std::vector<std::string> backends{"mem", "oodb", "rel", "net"};
  std::vector<hm::OpId> ops = hm::AllOps();
  int iters = 50;
  size_t cache_pages = 2048;
  uint64_t seed = 7;
  std::string dir = "/tmp/hmbench";
  std::string remote;  // host:port of an external server, or empty
  uint32_t shards = 4;  // fleet size for a self-hosted shard backend
  hm::backends::RemoteMode remote_mode =
      hm::backends::RemoteMode::kPushdown;
  std::string json;  // path for JSON output, or empty
  bool csv = false;
  bool creation = false;
};

[[noreturn]] void Usage(int code) {
  std::cout <<
      "hmbench — the HyperModel benchmark (Berre/Anderson/Mallison, "
      "TR CS/E-88-031)\n\n"
      "usage: hmbench [options]           run the benchmark\n"
      "       hmbench serve [options]     expose a backend over TCP\n"
      "       hmbench cluster [options]   launch an N-shard serve fleet\n"
      "       hmbench stats [options]     print a live server's telemetry\n"
      "       hmbench fsck [options]      verify a generated database\n"
      "\n"
      "  --levels=4,5,6      leaf levels to run (paper sizes: 4, 5, 6)\n"
      "  --backends=...      subset of mem,oodb,rel,net,remote,shard\n"
      "  --ops=01,05A,10     operation numbers (default: all 20)\n"
      "  --iters=N           runs per cold/warm phase (default 50)\n"
      "  --cache-pages=N     workstation cache size in 8 KiB pages\n"
      "  --seed=N            input-selection seed\n"
      "  --dir=PATH          scratch directory\n"
      "  --remote=HOST:PORT  server address for the remote backend\n"
      "                      (default: spawn an in-process loopback\n"
      "                      server over a mem backend); the shard\n"
      "                      backend takes its fleet address list\n"
      "                      (shard://host:port,host:port,...) here;\n"
      "                      a semicolon list (primary;replica;...)\n"
      "                      selects the replica-aware client, which\n"
      "                      fans reads over the replicas and fails\n"
      "                      over when the primary dies\n"
      "  --shards=N          fleet size when the shard backend\n"
      "                      self-hosts an in-process loopback fleet\n"
      "                      (default 4)\n"
      "  --remote-mode=MODE  wire-latency rung for the remote backend:\n"
      "                      percall, batched or pushdown (default);\n"
      "                      or spell a backend remote[MODE] to pin one\n"
      "                      run, e.g. --backends=remote[percall],\n"
      "                      remote[pushdown]\n"
      "  --json=PATH         also write the report as JSON\n"
      "  --csv               CSV output\n"
      "  --creation          include the database-creation table (§5.3)\n"
      "\n"
      "hmbench stats — fetch and print a live server's telemetry\n\n"
      "  --remote=HOST:PORT  server to query (default 127.0.0.1:7433)\n"
      "\n"
      "hmbench serve — expose one backend over the wire protocol\n"
      "(announces its resolved host:port as the first stdout line)\n\n"
      "  --backend=NAME      backend to serve: mem,oodb,rel,net\n"
      "  --host=ADDR         bind address (default 127.0.0.1)\n"
      "  --port=N            TCP port (default 7433; 0 = ephemeral)\n"
      "  --shard=K/N         serve as shard K of an N-shard fleet\n"
      "  --workers=N         worker-pool size (default 4)\n"
      "  --queue=N           pending-connection bound (default 64)\n"
      "  --cache-pages=N     backend cache size\n"
      "  --dir=PATH          backend directory (default /tmp/hmserve)\n"
      "  --group-commit-us=N group-commit window for oodb/rel commits\n"
      "                      (default 0 = fsync per commit)\n"
      "  --checkpoint-ms=N   oodb background fuzzy-checkpoint interval\n"
      "                      (default 0 = checkpoint only at shutdown;\n"
      "                      forced to 0 on replicas — see DESIGN.md §16)\n"
      "  --replicate         serve as a replication primary: ship the\n"
      "                      WAL to subscribing replicas (oodb only)\n"
      "  --replica-of=H:P    serve as a read-only replica of the\n"
      "                      primary at H:P (oodb only); writes answer\n"
      "                      kReadOnly, reads serve the replayed state\n"
      "  --semisync-ms=N     how long a primary commit waits for a\n"
      "                      replica ack before degrading to async\n"
      "                      (default 5000)\n"
      "\n"
      "hmbench cluster — launch and supervise an N-shard serve fleet\n"
      "(a crashed shard is restarted in its slot on the same port)\n\n"
      "  --shards=N          fleet size (default 4)\n"
      "  --backend=NAME      backend each shard serves (default mem)\n"
      "  --dir=PATH          root directory (shard k uses PATH/shardK)\n"
      "  --cache-pages=N     per-shard backend cache size\n"
      "  --workers=N         per-shard worker-pool size\n"
      "\n"
      "hmbench fsck — generate a database, verify every §5.2 invariant\n\n"
      "  --backend=NAME      backend to verify: mem,oodb,rel,net,remote,\n"
      "                      shard, or shard://host:port,... to verify\n"
      "                      a running fleet end to end\n"
      "  --level=N           leaf level of the generated tree (default 4)\n"
      "  --cache-pages=N     backend cache size\n"
      "  --dir=PATH          scratch directory (default /tmp/hmfsck)\n"
      "  --remote=HOST:PORT  server for the remote backend (default:\n"
      "                      in-process loopback over a mem backend)\n"
      "  --shards=N          fleet size for a self-hosted shard backend\n";
  std::exit(code);
}

std::vector<std::string> SplitCsv(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const std::map<std::string, hm::OpId>& OpTable() {
  static const std::map<std::string, hm::OpId> table = {
      {"01", hm::OpId::kNameLookup},
      {"02", hm::OpId::kNameOidLookup},
      {"03", hm::OpId::kRangeLookupHundred},
      {"04", hm::OpId::kRangeLookupMillion},
      {"05A", hm::OpId::kGroupLookup1N},
      {"05B", hm::OpId::kGroupLookupMN},
      {"06", hm::OpId::kGroupLookupMNAtt},
      {"07A", hm::OpId::kRefLookup1N},
      {"07B", hm::OpId::kRefLookupMN},
      {"08", hm::OpId::kRefLookupMNAtt},
      {"09", hm::OpId::kSeqScan},
      {"10", hm::OpId::kClosure1N},
      {"11", hm::OpId::kClosure1NAttSum},
      {"12", hm::OpId::kClosure1NAttSet},
      {"13", hm::OpId::kClosure1NPred},
      {"14", hm::OpId::kClosureMN},
      {"15", hm::OpId::kClosureMNAtt},
      {"16", hm::OpId::kTextNodeEdit},
      {"17", hm::OpId::kFormNodeEdit},
      {"18", hm::OpId::kClosureMNAttLinkSum},
  };
  return table;
}

void CheckOk(const hm::util::Status& status) {
  if (!status.ok()) {
    std::cerr << "hmbench: " << status.ToString() << "\n";
    std::exit(1);
  }
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      Usage(0);
    } else if (arg.starts_with("--levels=")) {
      args.levels.clear();
      for (const std::string& level : SplitCsv(value("--levels="))) {
        args.levels.push_back(std::atoi(level.c_str()));
      }
    } else if (arg.starts_with("--backends=")) {
      args.backends = SplitCsv(value("--backends="));
    } else if (arg.starts_with("--ops=")) {
      args.ops.clear();
      for (std::string op : SplitCsv(value("--ops="))) {
        for (char& c : op) c = static_cast<char>(std::toupper(c));
        auto it = OpTable().find(op);
        if (it == OpTable().end()) {
          std::cerr << "unknown operation '" << op << "'\n";
          Usage(1);
        }
        args.ops.push_back(it->second);
      }
    } else if (arg.starts_with("--iters=")) {
      args.iters = std::atoi(value("--iters=").c_str());
    } else if (arg.starts_with("--cache-pages=")) {
      args.cache_pages =
          static_cast<size_t>(std::atoll(value("--cache-pages=").c_str()));
    } else if (arg.starts_with("--seed=")) {
      args.seed = static_cast<uint64_t>(std::atoll(value("--seed=").c_str()));
    } else if (arg.starts_with("--dir=")) {
      args.dir = value("--dir=");
    } else if (arg.starts_with("--remote=")) {
      args.remote = value("--remote=");
    } else if (arg.starts_with("--shards=")) {
      args.shards =
          static_cast<uint32_t>(std::atoi(value("--shards=").c_str()));
    } else if (arg.starts_with("--remote-mode=")) {
      auto parsed = hm::backends::ParseRemoteMode(value("--remote-mode="));
      CheckOk(parsed.status());
      args.remote_mode = *parsed;
    } else if (arg.starts_with("--json=")) {
      args.json = value("--json=");
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--creation") {
      args.creation = true;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      Usage(1);
    }
  }
  if (args.levels.empty() || args.backends.empty() || args.ops.empty() ||
      args.iters <= 0) {
    Usage(1);
  }
  return args;
}

std::unique_ptr<hm::HyperStore> OpenBackend(const Args& args,
                                            const std::string& name,
                                            const std::string& dir) {
  if (name == "mem") return std::make_unique<hm::backends::MemStore>();
  if (name == "oodb") {
    hm::backends::OodbOptions options;
    options.cache_pages = args.cache_pages;
    auto store = hm::backends::OodbStore::Open(options, dir);
    CheckOk(store.status());
    return std::move(*store);
  }
  if (name == "net") {
    hm::backends::NetOptions options;
    options.cache_pages = args.cache_pages;
    auto store = hm::backends::NetStore::Open(options, dir);
    CheckOk(store.status());
    return std::move(*store);
  }
  if (name == "rel") {
    hm::backends::RelOptions options;
    options.cache_pages = args.cache_pages;
    auto store = hm::backends::RelStore::Open(options, dir);
    CheckOk(store.status());
    return std::move(*store);
  }
  if (name.starts_with("remote://") ||
      ((name == "remote" || name.starts_with("remote[")) &&
       args.remote.find(';') != std::string::npos)) {
    // Semicolon-separated peers select the replica-aware client:
    // remote://primary;replica1;replica2 (commas belong to shard://).
    std::string spec = name.starts_with("remote://")
                           ? name.substr(std::strlen("remote://"))
                           : args.remote;
    auto options = hm::backends::ParseReplicatedAddrs(spec);
    CheckOk(options.status());
    auto store = hm::backends::ReplicatedStore::Connect(*options);
    CheckOk(store.status());
    CheckOk((*store)->ResetServer());
    return std::move(*store);
  }
  if (name == "remote" || name.starts_with("remote[")) {
    hm::backends::RemoteMode mode = args.remote_mode;
    if (name.starts_with("remote[")) {
      if (!name.ends_with("]")) {
        std::cerr << "bad backend spelling '" << name
                  << "' (want remote[percall|batched|pushdown])\n";
        std::exit(1);
      }
      auto parsed =
          hm::backends::ParseRemoteMode(name.substr(7, name.size() - 8));
      CheckOk(parsed.status());
      mode = *parsed;
    }
    hm::util::Result<std::unique_ptr<hm::backends::RemoteStore>> store =
        [&]() {
          if (args.remote.empty()) {
            // No server given: self-host over loopback so the remote
            // backend is runnable out of the box.
            hm::server::ServerOptions options;
            options.reset_factory =
                []() -> hm::util::Result<std::unique_ptr<hm::HyperStore>> {
              return std::unique_ptr<hm::HyperStore>(
                  std::make_unique<hm::backends::MemStore>());
            };
            return hm::backends::RemoteStore::Loopback(
                std::make_unique<hm::backends::MemStore>(), options, mode);
          }
          auto remote_options = hm::backends::ParseRemoteAddr(args.remote);
          CheckOk(remote_options.status());
          remote_options->mode = mode;
          return hm::backends::RemoteStore::Connect(*remote_options);
        }();
    CheckOk(store.status());
    // Each (backend, level) run rebuilds the database from uid 1, so a
    // long-lived server must start empty every time.
    CheckOk((*store)->ResetServer());
    return std::move(*store);
  }
  if (name == "shard" || name.starts_with("shard://")) {
    // Fleet address: an explicit shard://... spelling wins, then
    // --remote (so `--backends=shard --remote=shard://...` works
    // without commas breaking the --backends CSV), else a self-hosted
    // in-process loopback fleet of --shards servers.
    std::string addrs;
    if (name.starts_with("shard://")) {
      addrs = name;
    } else if (args.remote.starts_with("shard://") ||
               args.remote.find(',') != std::string::npos) {
      addrs = args.remote;
    }
    hm::backends::RemoteOptions client_options;
    client_options.mode = args.remote_mode;
    auto store = addrs.empty()
                     ? hm::backends::ShardedStore::Loopback(
                           args.shards, args.remote_mode)
                     : hm::backends::ShardedStore::Connect(addrs,
                                                           client_options);
    CheckOk(store.status());
    CheckOk((*store)->ResetServer());
    return std::move(*store);
  }
  std::cerr << "unknown backend '" << name << "'\n";
  Usage(1);
}

// --- `hmbench serve`: the server side of the remote backend ----------

std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

struct ServeArgs {
  std::string backend = "mem";
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  int workers = 4;
  size_t queue = 64;
  size_t cache_pages = 2048;
  std::string dir = "/tmp/hmserve";
  int max_inflight = 0;
  int drain_ms = 2000;
  uint64_t group_commit_us = 0;
  uint64_t checkpoint_ms = 0;
  /// Fleet placement from --shard=K/N; (0, 1) = standalone.
  hm::cluster::ShardSpec shard;
  /// Replication role (DESIGN.md §16): --replicate ships this node's
  /// WAL; --replica-of=HOST:PORT replays a primary's.
  bool replicate = false;
  std::string replica_of;
  uint64_t semisync_ms = 5000;
};

/// (Re)creates the served backend. Persistent backends start from an
/// empty directory — the server owns its database the way a DBMS owns
/// its volume; clients rebuild through the protocol.
hm::util::Result<std::unique_ptr<hm::HyperStore>> MakeServeBackend(
    const ServeArgs& args) {
  if (args.backend == "mem") {
    return std::unique_ptr<hm::HyperStore>(
        std::make_unique<hm::backends::MemStore>());
  }
  std::string dir = args.dir + "/" + args.backend;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (args.backend == "oodb") {
    hm::backends::OodbOptions options;
    options.cache_pages = args.cache_pages;
    options.group_commit_us = args.group_commit_us;
    options.checkpoint_interval_ms = args.checkpoint_ms;
    auto store = hm::backends::OodbStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return std::unique_ptr<hm::HyperStore>(std::move(*store));
  }
  if (args.backend == "net") {
    hm::backends::NetOptions options;
    options.cache_pages = args.cache_pages;
    auto store = hm::backends::NetStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return std::unique_ptr<hm::HyperStore>(std::move(*store));
  }
  if (args.backend == "rel") {
    hm::backends::RelOptions options;
    options.cache_pages = args.cache_pages;
    options.group_commit_us = args.group_commit_us;
    auto store = hm::backends::RelStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return std::unique_ptr<hm::HyperStore>(std::move(*store));
  }
  return hm::util::Status::InvalidArgument(
      "unknown backend '" + args.backend +
      "' (serve supports mem,oodb,rel,net)");
}

/// MakeServeBackend plus the cluster translation wrapper when this
/// server is one shard of a fleet (--shard=K/N).
hm::util::Result<std::unique_ptr<hm::HyperStore>> MakeShardBackend(
    const ServeArgs& args) {
  auto backend = MakeServeBackend(args);
  HM_RETURN_IF_ERROR(backend.status());
  if (args.shard.count <= 1) return std::move(*backend);
  auto wrapped =
      hm::cluster::ShardLocalStore::Wrap(args.shard, std::move(*backend));
  HM_RETURN_IF_ERROR(wrapped.status());
  return std::unique_ptr<hm::HyperStore>(std::move(*wrapped));
}

int ServeMain(int argc, char** argv) {
  ServeArgs args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      Usage(0);
    } else if (arg.starts_with("--backend=")) {
      args.backend = value("--backend=");
    } else if (arg.starts_with("--host=")) {
      args.host = value("--host=");
    } else if (arg.starts_with("--port=")) {
      args.port = static_cast<uint16_t>(std::atoi(value("--port=").c_str()));
    } else if (arg.starts_with("--workers=")) {
      args.workers = std::atoi(value("--workers=").c_str());
    } else if (arg.starts_with("--queue=")) {
      args.queue =
          static_cast<size_t>(std::atoll(value("--queue=").c_str()));
    } else if (arg.starts_with("--max-inflight=")) {
      args.max_inflight = std::atoi(value("--max-inflight=").c_str());
    } else if (arg.starts_with("--drain-ms=")) {
      args.drain_ms = std::atoi(value("--drain-ms=").c_str());
    } else if (arg.starts_with("--cache-pages=")) {
      args.cache_pages =
          static_cast<size_t>(std::atoll(value("--cache-pages=").c_str()));
    } else if (arg.starts_with("--dir=")) {
      args.dir = value("--dir=");
    } else if (arg.starts_with("--group-commit-us=")) {
      args.group_commit_us =
          std::strtoull(value("--group-commit-us=").c_str(), nullptr, 10);
    } else if (arg.starts_with("--checkpoint-ms=")) {
      args.checkpoint_ms =
          std::strtoull(value("--checkpoint-ms=").c_str(), nullptr, 10);
    } else if (arg.starts_with("--shard=")) {
      auto spec = hm::cluster::ParseShardSpec(value("--shard="));
      CheckOk(spec.status());
      args.shard = *spec;
    } else if (arg == "--replicate") {
      args.replicate = true;
    } else if (arg.starts_with("--replica-of=")) {
      args.replica_of = value("--replica-of=");
    } else if (arg.starts_with("--semisync-ms=")) {
      args.semisync_ms =
          std::strtoull(value("--semisync-ms=").c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown serve argument '" << arg << "'\n";
      Usage(1);
    }
  }

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
  if (is_replica && args.checkpoint_ms != 0) {
    // A fuzzy checkpoint would advance recovery past replicated applies
    // that exist in no local WAL (DESIGN.md §16) — never on a replica.
    std::cerr << "hmbench serve: ignoring --checkpoint-ms on a replica\n";
    args.checkpoint_ms = 0;
  }

  auto backend = MakeShardBackend(args);
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
    options.reset_factory = [args] { return MakeShardBackend(args); };
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
  std::string backend;
  std::string dir;
  std::string cache_pages;
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
  uint32_t shards = 4;
  std::string backend = "mem";
  std::string dir = "/tmp/hmcluster";
  std::string cache_pages;
  std::string workers;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      Usage(0);
    } else if (arg.starts_with("--shards=")) {
      shards = static_cast<uint32_t>(std::atoi(value("--shards=").c_str()));
    } else if (arg.starts_with("--backend=")) {
      backend = value("--backend=");
    } else if (arg.starts_with("--dir=")) {
      dir = value("--dir=");
    } else if (arg.starts_with("--cache-pages=")) {
      cache_pages = value("--cache-pages=");
    } else if (arg.starts_with("--workers=")) {
      workers = value("--workers=");
    } else {
      std::cerr << "unknown cluster argument '" << arg << "'\n";
      Usage(1);
    }
  }
  if (shards < 1 || shards > hm::cluster::kMaxShards) {
    std::cerr << "hmbench cluster: --shards must be in [1, "
              << hm::cluster::kMaxShards << "]\n";
    return 1;
  }

  ClusterSpawnConfig config{shards, backend, dir, cache_pages, workers};
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
  std::cout << "hmbench cluster: " << shards << "-shard " << backend
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
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(0);
    } else if (arg.starts_with("--remote=")) {
      remote = arg.substr(std::strlen("--remote="));
    } else {
      std::cerr << "unknown stats argument '" << arg << "'\n";
      Usage(1);
    }
  }
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
  Args shim;  // carries cache/remote settings into OpenBackend
  shim.dir = "/tmp/hmfsck";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      Usage(0);
    } else if (arg.starts_with("--backend=")) {
      backend = value("--backend=");
    } else if (arg.starts_with("--level=")) {
      level = std::atoi(value("--level=").c_str());
    } else if (arg.starts_with("--cache-pages=")) {
      shim.cache_pages =
          static_cast<size_t>(std::atoll(value("--cache-pages=").c_str()));
    } else if (arg.starts_with("--dir=")) {
      shim.dir = value("--dir=");
    } else if (arg.starts_with("--remote=")) {
      shim.remote = value("--remote=");
    } else if (arg.starts_with("--shards=")) {
      shim.shards =
          static_cast<uint32_t>(std::atoi(value("--shards=").c_str()));
    } else {
      std::cerr << "unknown fsck argument '" << arg << "'\n";
      Usage(1);
    }
  }
  if (level < 1) {
    std::cerr << "hmbench fsck: --level must be >= 1\n";
    Usage(1);
  }

  std::filesystem::remove_all(shim.dir);
  std::filesystem::create_directories(shim.dir);
  std::unique_ptr<hm::HyperStore> store =
      OpenBackend(shim, backend, shim.dir + "/" + backend);

  hm::GeneratorConfig config;
  config.levels = level;
  hm::Generator generator(config);
  auto db = generator.Build(store.get(), nullptr);
  CheckOk(db.status());

  hm::analysis::FsckOptions options;
  options.config = config;
  auto report = hm::analysis::RunFsck(store.get(), options);
  CheckOk(report.status());
  std::cout << "hmbench fsck: backend " << backend << ", level " << level
            << " (" << db->node_count() << " nodes)\n";
  report->PrintTo(std::cout);
  return report->ok() ? 0 : 2;
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
    std::cerr << "unknown subcommand '" << argv[1] << "'\n";
    Usage(1);
  }
  Args args = Parse(argc, argv);
  std::filesystem::remove_all(args.dir);
  std::filesystem::create_directories(args.dir);

  hm::Report report;
  for (int level : args.levels) {
    for (const std::string& backend : args.backends) {
      std::string dir =
          args.dir + "/" + backend + "_l" + std::to_string(level);
      std::unique_ptr<hm::HyperStore> store =
          OpenBackend(args, backend, dir);

      // Report the spelling that actually ran: a bare "remote"
      // resolves to its effective rung so pinned and default modes
      // stay distinct rows in one report.
      std::string label = backend;
      if (backend == "remote") {
        if (auto* remote =
                dynamic_cast<hm::backends::RemoteStore*>(store.get())) {
          label = "remote[" +
                  std::string(
                      hm::backends::RemoteModeName(remote->mode())) +
                  "]";
        }
      }

      hm::GeneratorConfig gen_config;
      gen_config.levels = level;
      hm::Generator generator(gen_config);
      hm::CreationTiming timing;
      auto db = generator.Build(store.get(), &timing);
      CheckOk(db.status());
      if (args.creation) {
        hm::CreationRow row;
        row.backend = label;
        row.level = level;
        row.nodes = db->node_count();
        row.timing = timing;
        report.AddCreation(row);
      }

      hm::DriverConfig config;
      config.iterations = args.iters;
      config.seed = args.seed;
      hm::Driver driver(store.get(), &*db, config);
      for (hm::OpId op : args.ops) {
        auto result = driver.Run(op);
        CheckOk(result.status());
        // Keep the requested spelling ("remote[percall]") so pinned
        // remote modes stay distinct columns in the report (a bare
        // "remote" was resolved to its rung above).
        result->backend = label;
        report.AddOpResult(*result);
      }
    }
  }

  if (args.csv) {
    report.PrintCsv(std::cout);
  } else {
    if (args.creation) report.PrintCreationTable(std::cout);
    report.PrintOpTable(std::cout);
  }
  if (!args.json.empty()) {
    std::ofstream json(args.json);
    if (!json) {
      std::cerr << "hmbench: cannot write JSON to '" << args.json << "'\n";
      return 1;
    }
    report.PrintJson(json);
    std::cerr << "JSON written to " << args.json << "\n";
  }
  return 0;
}
