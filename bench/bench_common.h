#ifndef HM_BENCH_BENCH_COMMON_H_
#define HM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "hypermodel/backends/remote_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/report.h"
#include "hypermodel/store.h"

namespace hm::bench {

/// Dies with a message on error status (benchmark binaries only).
void CheckOk(const util::Status& status);

/// The value of `result`, or CheckOk's exit.
template <typename T>
T Must(util::Result<T> result) {
  CheckOk(result.status());
  return std::move(*result);
}

// --- Flags -----------------------------------------------------------

bool ParseFlagValue(const std::string& text, std::string* out);
bool ParseFlagValue(const std::string& text, backends::RemoteMode* out);
/// An operation number: 01, 02, ..., 05A, 05b, ..., 18.
bool ParseFlagValue(const std::string& text, OpId* out);

template <typename T>
  requires std::is_integral_v<T>
bool ParseFlagValue(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

/// A comma list; empty items are skipped, so `--ops=` is the empty list.
template <typename T>
bool ParseFlagValue(const std::string& text, std::vector<T>* out) {
  out->clear();
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = std::min(text.find(',', start), text.size());
    if (comma > start) {
      T item{};
      if (!ParseFlagValue(text.substr(start, comma - start), &item)) {
        return false;
      }
      out->push_back(std::move(item));
    }
    start = comma + 1;
  }
  return true;
}

/// The one command-line parser of hmbench and the bench binaries. Each
/// binds exactly the flags it honours, so a flag it would ignore is an
/// error rather than a no-op. Flags only (`--name=value`, or a bare
/// `--name` for a bool); nothing is read from the environment.
class Flags {
 public:
  /// `help` is what --help prints; empty prints the bound flag names.
  explicit Flags(std::string program, std::string help = "")
      : program_(std::move(program)), help_(std::move(help)) {}

  template <typename T>
  Flags& Add(std::string name, T* out) {
    flags_.push_back({std::move(name), std::is_same_v<T, bool>,
                      [out](const std::string& text) {
                        if constexpr (std::is_same_v<T, bool>) {
                          *out = true;
                          return true;
                        } else {
                          return ParseFlagValue(text, out);
                        }
                      }});
    return *this;
  }

  /// Parses argv[first..]: exits 0 after printing the help on --help,
  /// and through Fail on an unknown flag or a malformed value.
  void Parse(int argc, char** argv, int first = 1) const;

  /// Prints `program: message` and the accepted flags; exits 1.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    bool is_switch;
    std::function<bool(const std::string&)> set;
  };
  std::string program_;
  std::string help_;
  std::vector<Flag> flags_;
};

// --- Backends --------------------------------------------------------

/// Everything the backend factory reads besides the backend's name.
struct BackendConfig {
  /// Workstation cache of the persistent backends, in 8 KiB pages.
  size_t cache_pages = 2048;
  /// Group-commit window of oodb/rel commits: how long a solo
  /// committer waits for a companion to share its fsync (0 = not at
  /// all). The stores' own type, so the flag parser's range check
  /// rejects what they could not hold.
  uint32_t group_commit_us = 0;
  /// oodb background fuzzy-checkpoint interval (0 = at shutdown only).
  uint32_t checkpoint_ms = 0;
  /// Server of a wire backend: host:port for `remote`, a semicolon
  /// list primary;replica;... for the replica-aware client, a
  /// shard://host:port,... fleet for `shard`. Empty self-hosts an
  /// in-process loopback server (or fleet) over mem.
  std::string remote;
  /// Wire rung of `remote` and `shard` unless a name pins one.
  backends::RemoteMode remote_mode = backends::RemoteMode::kPushdown;
  /// Fleet size of a self-hosted `shard` backend.
  uint32_t shards = 4;
};

/// The one backend factory. Maps a name — mem, oodb, rel, net, remote,
/// remote[percall|batched|pushdown], remote://primary;replica;...,
/// shard or shard://host:port,... — to an open store. Persistent
/// backends live in `dir`; wire clients reset their server, because
/// every run rebuilds the database from uid 1.
util::Result<std::unique_ptr<HyperStore>> OpenBackend(
    const BackendConfig& config, const std::string& name,
    const std::string& dir);

/// The rung a `remote` or `remote[MODE]` backend name runs at.
util::Result<backends::RemoteMode> RemoteModeOf(const std::string& name,
                                                backends::RemoteMode fallback);

/// Makes a fresh, uniquely named directory under `root` (default:
/// TMPDIR, else /tmp) and returns it. That directory is removed when
/// the process exits through main's return or std::exit (CheckOk too);
/// `root` and whatever else it holds are left alone, unless this call
/// created `root`, which then goes too.
std::string ScratchDir(const std::string& root = "");

// --- The §6 protocol -------------------------------------------------

/// Builds the §5.2 database at `level` into `store`, capturing the
/// §5.3 creation timing.
TestDatabase BuildDatabase(HyperStore* store, int level,
                           CreationTiming* timing);

/// One run of the paper tables: every level x backend.
struct ProtocolConfig {
  std::vector<int> levels{4};
  std::vector<std::string> backends{"mem", "oodb", "rel", "net"};
  std::vector<OpId> ops = AllOps();
  int iterations = 50;
  uint64_t seed = 7;
  bool creation = false;  // also record the §5.3 creation rows
  std::string dir;        // persistent backends get dir/<backend>_l<level>
};

/// Builds the database on every backend at every level and runs each
/// op through the full cold/warm protocol. A bare `remote` row is
/// labelled with its resolved rung (remote[pushdown] etc.).
Report RunProtocol(const ProtocolConfig& run, const BackendConfig& backend);

/// Sweep settings of the bench binaries; each binds the flags it uses.
struct BenchEnv {
  std::vector<int> levels;
  std::vector<std::string> backends{"mem", "oodb", "rel", "net"};
  int iterations = 50;
  BackendConfig backend;
  std::string workdir;  // a ScratchDir when the binary needs one
};

}  // namespace hm::bench

#endif  // HM_BENCH_BENCH_COMMON_H_
