#include "bench/bench_common.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "server/server.h"

namespace hm::bench {

void CheckOk(const util::Status& status) {
  if (!status.ok()) {
    std::cerr << "benchmark failed: " << status.ToString() << "\n";
    std::exit(1);
  }
}

// --- Flags -----------------------------------------------------------

bool ParseFlagValue(const std::string& text, std::string* out) {
  *out = text;
  return true;
}

bool ParseFlagValue(const std::string& text, backends::RemoteMode* out) {
  auto mode = backends::ParseRemoteMode(text);
  if (mode.ok()) *out = *mode;
  return mode.ok();
}

bool ParseFlagValue(const std::string& text, OpId* out) {
  std::string number = text;
  for (char& c : number) c = static_cast<char>(std::toupper(c));
  for (OpId op : AllOps()) {
    std::string_view name = OpName(op);  // "05A groupLookup1N"
    if (name.substr(0, name.find(' ')) == number) {
      *out = op;
      return true;
    }
  }
  return false;
}

void Flags::Parse(int argc, char** argv, int first) const {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      if (help_.empty()) {
        std::cout << "usage: " << program_;
        for (const Flag& flag : flags_) {
          std::cout << " [--" << flag.name << (flag.is_switch ? "]" : "=]");
        }
        std::cout << "\n";
      } else {
        std::cout << help_;
      }
      std::exit(0);
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    auto flag = std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) {
      return "--" + f.name == name;
    });
    if (flag == flags_.end() || flag->is_switch != (eq == std::string::npos)) {
      Fail("unknown argument '" + arg + "'");
    }
    if (!flag->set(flag->is_switch ? "" : arg.substr(eq + 1))) {
      Fail("bad value in '" + arg + "'");
    }
  }
}

void Flags::Fail(const std::string& message) const {
  std::cerr << program_ << ": " << message << " (flags:";
  for (const Flag& flag : flags_) {
    std::cerr << " --" << flag.name << (flag.is_switch ? "" : "=");
  }
  std::cerr << ")\n";
  std::exit(1);
}

// --- Backends --------------------------------------------------------

util::Result<backends::RemoteMode> RemoteModeOf(
    const std::string& name, backends::RemoteMode fallback) {
  if (name == "remote") return fallback;
  if (!name.starts_with("remote[") || !name.ends_with("]")) {
    return util::Status::InvalidArgument(
        "bad backend spelling '" + name +
        "' (want remote[percall|batched|pushdown])");
  }
  return backends::ParseRemoteMode(name.substr(7, name.size() - 8));
}

util::Result<std::unique_ptr<HyperStore>> OpenBackend(
    const BackendConfig& config, const std::string& name,
    const std::string& dir) {
  using Store = std::unique_ptr<HyperStore>;
  if (name == "mem") return Store(std::make_unique<backends::MemStore>());
  if (name == "oodb") {
    backends::OodbOptions options;
    options.cache_pages = config.cache_pages;
    options.group_commit_us = config.group_commit_us;
    options.checkpoint_interval_ms = config.checkpoint_ms;
    auto store = backends::OodbStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return Store(std::move(*store));
  }
  if (name == "rel") {
    backends::RelOptions options;
    options.cache_pages = config.cache_pages;
    options.group_commit_us = config.group_commit_us;
    auto store = backends::RelStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return Store(std::move(*store));
  }
  if (name == "net") {
    backends::NetOptions options;
    options.cache_pages = config.cache_pages;
    auto store = backends::NetStore::Open(options, dir);
    HM_RETURN_IF_ERROR(store.status());
    return Store(std::move(*store));
  }
  const bool remote = name == "remote" || name.starts_with("remote[");
  if (name.starts_with("remote://") ||
      (remote && config.remote.find(';') != std::string::npos)) {
    // Semicolon-separated peers select the replica-aware client:
    // remote://primary;replica1;replica2 (commas belong to shard://).
    auto options = backends::ParseReplicatedAddrs(
        name.starts_with("remote://") ? name.substr(9) : config.remote);
    HM_RETURN_IF_ERROR(options.status());
    auto store = backends::ReplicatedStore::Connect(*options);
    HM_RETURN_IF_ERROR(store.status());
    HM_RETURN_IF_ERROR((*store)->ResetServer());
    return Store(std::move(*store));
  }
  if (remote) {
    auto mode = RemoteModeOf(name, config.remote_mode);
    HM_RETURN_IF_ERROR(mode.status());
    auto store = [&]() -> util::Result<std::unique_ptr<backends::RemoteStore>> {
      if (config.remote.empty()) {
        // Self-hosted loopback: the hop is still real TCP, just
        // against a server thread in this process.
        server::ServerOptions options;
        options.reset_factory = []() -> util::Result<Store> {
          return Store(std::make_unique<backends::MemStore>());
        };
        return backends::RemoteStore::Loopback(
            std::make_unique<backends::MemStore>(), options, *mode);
      }
      auto options = backends::ParseRemoteAddr(config.remote);
      HM_RETURN_IF_ERROR(options.status());
      options->mode = *mode;
      return backends::RemoteStore::Connect(*options);
    }();
    HM_RETURN_IF_ERROR(store.status());
    HM_RETURN_IF_ERROR((*store)->ResetServer());
    return Store(std::move(*store));
  }
  if (name == "shard" || name.starts_with("shard://")) {
    // Fleet address: an explicit shard://... name wins, then a fleet
    // list in `remote` (so `--backends=shard --remote=shard://...`
    // keeps commas out of the backend list), else a self-hosted
    // loopback fleet of `shards` servers.
    std::string addrs = name.starts_with("shard://") ? name : "";
    if (addrs.empty() && (config.remote.starts_with("shard://") ||
                          config.remote.find(',') != std::string::npos)) {
      addrs = config.remote;
    }
    backends::RemoteOptions client_options;
    client_options.mode = config.remote_mode;
    auto store = addrs.empty() ? backends::ShardedStore::Loopback(
                                     config.shards, config.remote_mode)
                               : backends::ShardedStore::Connect(
                                     addrs, client_options);
    HM_RETURN_IF_ERROR(store.status());
    HM_RETURN_IF_ERROR((*store)->ResetServer());
    return Store(std::move(*store));
  }
  return util::Status::InvalidArgument("unknown backend '" + name + "'");
}

namespace {

/// Removes what ScratchDir made when static objects are destroyed,
/// which happens on main's return and on std::exit alike.
struct ScratchDirs {
  std::vector<std::string> paths;
  ~ScratchDirs() {
    std::error_code ec;
    for (const std::string& path : paths) {
      std::filesystem::remove_all(path, ec);
    }
  }
};

}  // namespace

std::string ScratchDir(const std::string& root) {
  static ScratchDirs dirs;
  std::string parent = root;
  if (parent.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    parent = tmp != nullptr ? tmp : "/tmp";
  }
  if (!std::filesystem::exists(parent)) {
    // Remove from the topmost directory this call creates.
    std::filesystem::path made = parent;
    while (made.has_parent_path() &&
           !std::filesystem::exists(made.parent_path())) {
      made = made.parent_path();
    }
    std::filesystem::create_directories(parent);
    dirs.paths.push_back(made);
  }
  std::string path = parent + "/hm_bench_XXXXXX";
  if (::mkdtemp(path.data()) == nullptr) {
    CheckOk(util::Status::IoError("mkdtemp under " + parent + ": " +
                                  std::strerror(errno)));
  }
  dirs.paths.push_back(path);
  return path;
}

// --- The §6 protocol -------------------------------------------------

TestDatabase BuildDatabase(HyperStore* store, int level,
                           CreationTiming* timing) {
  GeneratorConfig config;
  config.levels = level;
  Generator generator(config);
  return Must(generator.Build(store, timing));
}

Report RunProtocol(const ProtocolConfig& run, const BackendConfig& backend) {
  Report report;
  for (int level : run.levels) {
    for (const std::string& name : run.backends) {
      std::unique_ptr<HyperStore> store = Must(OpenBackend(
          backend, name, run.dir + "/" + name + "_l" + std::to_string(level)));

      // Report the spelling that actually ran: a bare "remote" resolves
      // to its rung, so runs at different rungs stay distinct rows.
      std::string label = name;
      if (auto* remote = dynamic_cast<backends::RemoteStore*>(store.get());
          remote != nullptr && name == "remote") {
        label = "remote[" +
                std::string(backends::RemoteModeName(remote->mode())) + "]";
      }

      CreationTiming timing;
      TestDatabase db = BuildDatabase(store.get(), level, &timing);
      if (run.creation) {
        report.AddCreation({label, level, db.node_count(), timing});
      }

      DriverConfig config;
      config.iterations = run.iterations;
      config.seed = run.seed;
      Driver driver(store.get(), &db, config);
      for (OpId op : run.ops) {
        OpResult result = Must(driver.Run(op));
        // The driver reports the store's own name ("remote").
        result.backend = label;
        report.AddOpResult(result);
      }
    }
  }
  return report;
}

}  // namespace hm::bench
