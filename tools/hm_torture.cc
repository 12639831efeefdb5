// hm_torture — crash-recovery torture driver.
//
// Each round forks a child that builds a §5.2 test database into the
// persistent oodb backend and then runs a SetText edit workload (each
// edit followed by a read-only transaction that reads it back, so
// crashes also land right after commits that logged nothing), with
// one failpoint armed to kill the process (`crash`) or surface an
// injected I/O error (`error`) after a randomly chosen number of
// evaluations. The parent records a durability oracle the child
// fsyncs line-by-line, waits for the child to die, reopens the store
// (driving WAL recovery), and asserts:
//
//   1. reopen succeeds — recovery never refuses a crashed store,
//   2. fsck is clean once the build had committed ("built" marker),
//   3. every edit whose "committed" marker reached the oracle is
//      readable with exactly the committed text — zero committed-edit
//      loss.
//
// The oracle protocol tolerates the one unavoidable race: a crash
// between Commit() returning and the marker write leaves the LAST
// intended edit committed-but-unrecorded, so that single edit may
// read as either its old or new text. Everything older must match.
//
// Usage:
//   hm_torture [--rounds=25] [--seed=ci] [--dir=/tmp/hm_torture]
//              [--levels=3] [--edits=40] [--keep]
//
// Exits 0 when every round recovers cleanly; 1 otherwise (failed
// rounds keep their directory for inspection). Requires a build with
// failpoints compiled in (-DHM_FAILPOINTS=on, or any non-Release
// 'auto' build).
//
// Replication drills (--drill=..., DESIGN.md §16) run a different
// torture: each round spawns a real replicated fleet — one `hmbench
// serve --replicate` primary plus two `--replica-of` followers, as
// separate processes — builds a database and runs an edit workload
// through the replica-aware client while injecting one seeded fault:
//
//   kill-primary   SIGKILL the primary mid-workload; the client must
//                  fail over (promote the most-replayed follower) and
//                  finish every edit. Afterwards a resurrected old
//                  primary must end up fenced (kFencedOff on writes).
//   kill-follower  SIGKILL one follower; writes continue undisturbed,
//                  and the restarted follower must catch back up from
//                  its mirror and serve every acked edit.
//   partition      SIGSTOP the primary (alive but unreachable) —
//                  same obligations as kill-primary, plus the
//                  un-stopped primary must be fenced on first contact.
//
// The drill oracle: every edit the client saw Commit() succeed for is
// readable with exactly its committed text after the fault, and fsck
// is clean on the node serving as primary at the end. Drills need
// --hmbench=PATH to the serve binary and no failpoint support.
//
//   hm_torture --drill=kill-primary --hmbench=./hmbench [--rounds=25]
//              [--seed=ci] [--dir=/tmp/hm_drill] [--levels=2]
//              [--edits=30]

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fsck.h"
#include "bench/bench_common.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/generator.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace {

using hm::GeneratorConfig;
using hm::NodeRef;
using hm::backends::OodbOptions;
using hm::backends::OodbStore;

/// Child exit code when an injected `error`-action failpoint surfaced
/// through the store API: the app "died" right after a failed commit,
/// leaving whatever the fault left on disk (e.g. a torn WAL tail).
constexpr int kInjectedErrorExit = 43;

/// One crash point the torture rotates through. `crash` kills the
/// child inside the store; `error` injects the fault and lets the
/// child exit immediately after the first failed operation; `delay=MS`
/// stretches a timing window (e.g. the group-commit leader's linger)
/// without failing anything — those rounds must finish cleanly.
struct CrashPoint {
  const char* site;
  const char* action;  // "crash", "error" or "delay=MS"
  uint64_t min_after;
  uint64_t max_after;
};

bool IsError(const CrashPoint& point) {
  return std::strcmp(point.action, "error") == 0;
}

// `after=K` ranges sized to the workload: a levels=3 build commits
// once per generator phase (~5 WAL syncs, a few hundred appends) and
// each edit adds one commit, so small K crashes mid-build and large K
// crashes mid-edits or not at all (a clean-shutdown round, also worth
// checking). wal/append/short_write runs in `error` mode so the torn
// tail is actually written before the child dies — a `crash` there
// would exit before tearing anything.
// The commit-pipeline sites: rollovers happen every few KiB of WAL
// (the child runs 4 KiB segments), the fuzzy checkpointer ticks every
// 20 ms, and the group-commit leader lingers 100 us per batch — so
// each site is hit many times per round.
constexpr CrashPoint kCrashPoints[] = {
    {"wal/sync/error", "crash", 1, 50},
    {"wal/sync/error", "error", 1, 50},
    {"wal/append/error", "crash", 1, 300},
    {"wal/append/short_write", "error", 1, 50},
    {"file/write/error", "crash", 1, 12},
    {"buffer_pool/flush/error", "crash", 1, 12},
    {"wal/rollover/error", "crash", 1, 40},
    {"wal/rollover/error", "error", 1, 40},
    {"checkpoint/mid_flush/crash", "crash", 1, 8},
    {"group_commit/leader/delay", "delay=2", 1, 30},
};

struct Args {
  int rounds = 25;
  std::string seed = "ci";
  std::string dir = "/tmp/hm_torture";
  int levels = 3;
  int edits = 40;
  bool keep = false;
  std::string drill;    // empty = crash torture; else a drill name
  std::string hmbench;  // path to the hmbench binary (drills only)
};

/// FNV-1a so `--seed=ci` and friends map to a stable uint64.
uint64_t HashSeed(const std::string& seed) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : seed) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr char kUsage[] =
    "usage: hm_torture [--rounds=N] [--seed=STR] [--dir=PATH]\n"
    "                  [--levels=N] [--edits=N] [--keep]\n"
    "       hm_torture --drill=kill-primary|kill-follower|partition\n"
    "                  --hmbench=PATH [--rounds=N] [--seed=STR]\n"
    "                  [--dir=PATH] [--levels=N] [--edits=N]\n";

/// Appends one line to the oracle log and fsyncs it. The oracle is the
/// ground truth the parent judges recovery against, so a marker that
/// is not on disk must not be trusted — hence the fsync per line.
bool OracleWrite(int fd, const std::string& line) {
  std::string payload = line + "\n";
  size_t off = 0;
  while (off < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) return false;
    off += static_cast<size_t>(n);
  }
  return ::fsync(fd) == 0;
}

std::string EditText(int i) { return "torture-edit-" + std::to_string(i); }

// --- Replication drills ----------------------------------------------

/// One `hmbench serve` child process.
struct ServeProc {
  pid_t pid = 0;
  int out_fd = -1;  // its stdout; the announce line is read from here
  std::string addr;
  uint16_t port = 0;
  std::string dir;
};

/// Reads one '\n'-terminated line (the announce line) from fd.
bool ReadAnnounceLine(int fd, std::string* line) {
  line->clear();
  char c = 0;
  while (true) {
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
    if (line->size() > 256) return false;
  }
}

/// Forks one serve process. `port` is "0" for ephemeral or a specific
/// port (a restarted node must come back on its published address).
/// `role_flag` is "--replicate" or "--replica-of=host:port".
bool SpawnServe(const Args& args, const std::string& dir,
                const std::string& port, const std::string& role_flag,
                ServeProc* out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::string dir_flag = "--dir=" + dir;
    std::string port_flag = "--port=" + port;
    ::execl(args.hmbench.c_str(), args.hmbench.c_str(), "serve",
            "--backend=oodb", "--host=127.0.0.1", dir_flag.c_str(),
            port_flag.c_str(), "--workers=8", "--semisync-ms=2000",
            role_flag.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string line;
  if (!ReadAnnounceLine(fds[0], &line) ||
      line.rfind("127.0.0.1:", 0) != 0 ||
      !hm::bench::ParseFlagValue(line.substr(line.rfind(':') + 1),
                                 &out->port)) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  out->pid = pid;
  out->out_fd = fds[0];
  out->addr = line;
  out->dir = dir;
  return true;
}

void KillServe(ServeProc* proc, int sig) {
  if (proc->pid <= 0) return;
  ::kill(proc->pid, sig);
  if (sig == SIGKILL || sig == SIGTERM) {
    ::waitpid(proc->pid, nullptr, 0);
    if (proc->out_fd >= 0) ::close(proc->out_fd);
    proc->out_fd = -1;
    proc->pid = 0;
  }
}

/// Polls `pred` until it holds or `timeout_ms` elapses.
bool DrillWaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

std::unique_ptr<hm::backends::RemoteStore> DirectClient(uint16_t port) {
  hm::backends::RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.deadline_ms = 2000;
  options.max_retries = 1;
  auto store = hm::backends::RemoteStore::Connect(options);
  return store.ok() ? std::move(*store) : nullptr;
}

/// One drill round. Returns "" on success, else the failure text.
std::string RunDrillRound(const Args& args, hm::util::Rng& rng,
                          const std::string& dir) {
  using hm::backends::RemoteStore;
  using hm::backends::ReplicatedStore;

  ServeProc primary, f1, f2;
  std::vector<ServeProc*> fleet = {&primary, &f1, &f2};
  auto cleanup = [&] {
    for (ServeProc* proc : fleet) {
      if (proc->pid > 0) ::kill(proc->pid, SIGCONT);  // undo SIGSTOP
      KillServe(proc, SIGKILL);
    }
  };

  if (!SpawnServe(args, dir + "/p", "0", "--replicate", &primary)) {
    return "failed to spawn primary";
  }
  std::string replica_flag = "--replica-of=" + primary.addr;
  if (!SpawnServe(args, dir + "/f1", "0", replica_flag, &f1) ||
      !SpawnServe(args, dir + "/f2", "0", replica_flag, &f2)) {
    cleanup();
    return "failed to spawn followers";
  }

  hm::backends::ReplicatedOptions options;
  for (ServeProc* proc : fleet) {
    hm::backends::RemoteOptions peer;
    peer.host = "127.0.0.1";
    peer.port = proc->port;
    peer.deadline_ms = 2000;  // a SIGSTOPped primary must fail fast
    peer.max_retries = 1;
    options.peers.push_back(peer);
  }
  auto client = ReplicatedStore::Connect(options);
  if (!client.ok()) {
    cleanup();
    return "client connect: " + client.status().ToString();
  }

  GeneratorConfig config;
  config.levels = args.levels;
  auto db = hm::Generator(config).Build(client->get(), nullptr);
  if (!db.ok()) {
    cleanup();
    return "build: " + db.status().ToString();
  }
  const std::vector<NodeRef>& texts = db->text_nodes;

  // The fault moment is seeded into the middle half of the workload so
  // every round exercises both a running fleet and a post-fault one.
  const int kill_at = static_cast<int>(
      rng.UniformInt(args.edits / 4, 3 * args.edits / 4));

  // The acked-edit ledger: ref -> last edit index whose Commit()
  // returned Ok to the client. That return is the durability promise
  // the drill holds the fleet to across the fault.
  std::map<NodeRef, int> ledger;
  for (int i = 0; i < args.edits; ++i) {
    if (i == kill_at) {
      if (args.drill == "kill-primary") {
        KillServe(&primary, SIGKILL);
      } else if (args.drill == "kill-follower") {
        KillServe(&f1, SIGKILL);
      } else {  // partition: alive but unreachable
        ::kill(primary.pid, SIGSTOP);
      }
    }
    NodeRef ref = texts[static_cast<size_t>(i) % texts.size()];
    // Retry until the edit commits: after a primary loss the first
    // attempt surfaces kUnavailable (its fate is unknown) and the next
    // one runs the client's failover sweep. Re-sending is safe — the
    // edit sets an absolute text, so a double apply is idempotent.
    bool committed = DrillWaitFor(
        [&] {
          hm::util::Status status = (*client)->Begin();
          if (status.ok()) status = (*client)->SetText(ref, EditText(i));
          if (status.ok()) status = (*client)->Commit();
          if (!status.ok()) (void)(*client)->Abort();
          return status.ok();
        },
        30000);
    if (!committed) {
      cleanup();
      return "edit " + std::to_string(i) + " never committed after fault";
    }
    ledger[ref] = i;
  }

  // Oracle part 1: every acked edit reads back with its committed text
  // through the (possibly failed-over) client.
  for (const auto& [ref, index] : ledger) {
    auto text = (*client)->GetText(ref);
    if (!text.ok()) {
      cleanup();
      return "acked edit " + std::to_string(index) +
             " unreadable: " + text.status().ToString();
    }
    if (*text != EditText(index)) {
      cleanup();
      return "acked edit lost on node " + std::to_string(ref) +
             ": expected \"" + EditText(index) + "\", got \"" + *text + "\"";
    }
  }

  // Oracle part 2: fsck is clean on whichever node serves as primary
  // now (the promoted follower for kill-primary/partition).
  {
    uint16_t port = options.peers[(*client)->primary_index()].port;
    auto direct = DirectClient(port);
    if (direct == nullptr) {
      cleanup();
      return "cannot reach acting primary for fsck";
    }
    hm::analysis::FsckOptions fsck_options;
    fsck_options.config = config;
    auto report = hm::analysis::RunFsck(direct.get(), fsck_options);
    if (!report.ok()) {
      cleanup();
      return "fsck did not run: " + report.status().ToString();
    }
    if (!report->ok()) {
      cleanup();
      return "fsck found " + std::to_string(report->violations.size()) +
             " violations on acting primary; first: " +
             report->violations.front().ToString();
    }
  }

  std::string failure;
  if (args.drill == "kill-follower") {
    // The restarted follower (same directory, same published port)
    // must rebuild from its mirror, catch up, and serve every acked
    // edit itself.
    if (!SpawnServe(args, f1.dir, std::to_string(f1.port), replica_flag,
                    &f1)) {
      cleanup();
      return "failed to restart follower";
    }
    auto on_follower = DirectClient(f1.port);
    if (on_follower == nullptr) {
      cleanup();
      return "cannot reach restarted follower";
    }
    // Catch-up is judged by content, not by LSN: the follower's
    // replayed LSN stops at the last applied *commit*, while the
    // primary's head keeps advancing over non-commit records
    // (checkpoint barriers, rollovers), so LSN equality is
    // unreachable once the workload stops.
    if (!DrillWaitFor(
            [&] {
              for (const auto& [ref, index] : ledger) {
                auto text = on_follower->GetText(ref);
                if (!text.ok() || *text != EditText(index)) return false;
              }
              return true;
            },
            30000)) {
      failure = "restarted follower never caught up to the acked edits";
    }
  } else {
    // kill-primary / partition: the old primary comes back (restart in
    // its directory on its published port, or SIGCONT) still believing
    // it is a primary at the old epoch. The client knows the newer
    // epoch and must fence it on contact; from then on the node
    // answers writes kFencedOff — no split brain for any client that
    // has seen the new epoch.
    if (args.drill == "kill-primary") {
      if (!SpawnServe(args, primary.dir, std::to_string(primary.port),
                      "--replicate", &primary)) {
        cleanup();
        return "failed to resurrect old primary";
      }
    } else {
      ::kill(primary.pid, SIGCONT);
    }
    bool fenced = DrillWaitFor(
        [&] {
          // Client reads revive downed peers periodically; each
          // revival probe carries the fence.
          for (int i = 0; i < 40; ++i) {
            (void)(*client)->LookupUnique(1);
          }
          auto zombie = DirectClient(primary.port);
          if (zombie == nullptr) return false;
          hm::util::Status denied = zombie->Begin();
          if (denied.ok()) (void)zombie->Abort();
          return denied.IsFencedOff();
        },
        20000);
    if (!fenced) failure = "resurrected old primary was never fenced";
  }

  cleanup();
  return failure;
}

int RunDrills(const Args& args) {
  if (args.drill != "kill-primary" && args.drill != "kill-follower" &&
      args.drill != "partition") {
    std::fprintf(stderr,
                 "hm_torture: unknown drill '%s' (kill-primary, "
                 "kill-follower, partition)\n",
                 args.drill.c_str());
    return 2;
  }
  if (args.hmbench.empty()) {
    std::fprintf(stderr, "hm_torture: --drill needs --hmbench=PATH\n");
    return 2;
  }
  // A dead serve child must never take the drill down with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  hm::util::Rng rng(HashSeed(args.seed));
  std::filesystem::create_directories(args.dir);

  int failures = 0;
  for (int round = 0; round < args.rounds; ++round) {
    std::string dir = args.dir + "/round-" + std::to_string(round);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string failure = RunDrillRound(args, rng, dir);
    std::printf("round %2d  drill=%-13s %s\n", round, args.drill.c_str(),
                failure.empty() ? "OK" : ("FAIL: " + failure).c_str());
    std::fflush(stdout);
    if (!failure.empty()) {
      ++failures;
      std::printf("         kept %s for inspection\n", dir.c_str());
    } else if (!args.keep) {
      std::filesystem::remove_all(dir);
    }
  }
  std::printf("hm_torture: %d/%d %s drills green\n",
              args.rounds - failures, args.rounds, args.drill.c_str());
  return failures == 0 ? 0 : 1;
}

/// The child's whole life. Never returns; exit codes:
///   0  workload finished (the failpoint never fired),
///   42 kFailpointCrashExit — the armed crash point killed us,
///   43 an injected error surfaced and we stopped,
///   3..6 real bugs (open/build/edit/read failed without injection).
[[noreturn]] void RunChild(const std::string& dir, const CrashPoint& point,
                           uint64_t after, const Args& args) {
  std::string spec =
      std::string(point.action) + ",after=" + std::to_string(after);
  hm::util::Status status = hm::util::Failpoint::Enable(point.site, spec);
  if (!status.ok()) {
    std::fprintf(stderr, "child: Enable(%s): %s\n", point.site,
                 status.ToString().c_str());
    ::_exit(2);
  }

  int oracle = ::open((dir + "/oracle.log").c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (oracle < 0) ::_exit(2);

  OodbOptions options;
  // Exercise the whole commit pipeline: segment rollover every 4 KiB,
  // a 100 us group-commit window and a 20 ms fuzzy checkpointer.
  options.wal_segment_bytes = 4096;
  options.group_commit_us = 100;
  options.checkpoint_interval_ms = 20;
  auto store = OodbStore::Open(options, dir);
  if (!store.ok()) {
    if (IsError(point)) ::_exit(kInjectedErrorExit);
    std::fprintf(stderr, "child: Open: %s\n",
                 store.status().ToString().c_str());
    ::_exit(3);
  }

  GeneratorConfig config;
  config.levels = args.levels;
  auto db = hm::Generator(config).Build(store->get(), nullptr);
  if (!db.ok()) {
    if (IsError(point)) ::_exit(kInjectedErrorExit);
    std::fprintf(stderr, "child: Build: %s\n",
                 db.status().ToString().c_str());
    ::_exit(4);
  }
  if (!OracleWrite(oracle, "built")) ::_exit(2);

  const std::vector<NodeRef>& texts = db->text_nodes;
  for (int i = 0; i < args.edits; ++i) {
    NodeRef ref = texts[static_cast<size_t>(i) % texts.size()];
    if (!OracleWrite(oracle, "intent " + std::to_string(i) + " " +
                                 std::to_string(ref))) {
      ::_exit(2);
    }
    hm::util::Status edit = (*store)->Begin();
    if (edit.ok()) edit = (*store)->SetText(ref, EditText(i));
    if (edit.ok()) edit = (*store)->Commit();
    if (!edit.ok()) {
      if (IsError(point)) ::_exit(kInjectedErrorExit);
      std::fprintf(stderr, "child: edit %d: %s\n", i,
                   edit.ToString().c_str());
      ::_exit(5);
    }
    if (!OracleWrite(oracle, "committed " + std::to_string(i) + " " +
                                 std::to_string(ref))) {
      ::_exit(2);
    }
    // A read-only transaction: it appends no WAL record, and its
    // commit syncs only what someone else left pending.
    hm::util::Status read = (*store)->Begin();
    if (read.ok()) {
      auto text = (*store)->GetText(ref);
      read = text.status();
      if (read.ok() && *text != EditText(i)) {
        read = hm::util::Status::Internal("read back \"" + *text + "\"");
      }
    }
    if (read.ok()) read = (*store)->Commit();
    if (!read.ok()) {
      if (IsError(point)) ::_exit(kInjectedErrorExit);
      std::fprintf(stderr, "child: read after edit %d: %s\n", i,
                   read.ToString().c_str());
      ::_exit(6);
    }
  }
  store.value().reset();  // clean close — this round never crashed
  ::_exit(0);
}

/// What the oracle on disk promises about the crashed child.
struct Oracle {
  bool built = false;
  /// ref -> index of the last edit whose "committed" marker landed.
  std::map<NodeRef, int> committed;
  /// The final "intent" line, if any: the one edit that may have
  /// committed without its marker.
  int last_intent_index = -1;
  NodeRef last_intent_ref = hm::kInvalidNode;
  int committed_count = 0;
};

Oracle ReadOracle(const std::string& dir) {
  Oracle oracle;
  std::ifstream in(dir + "/oracle.log");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string kind;
    tokens >> kind;
    if (kind == "built") {
      oracle.built = true;
    } else if (kind == "intent") {
      tokens >> oracle.last_intent_index >> oracle.last_intent_ref;
    } else if (kind == "committed") {
      int index = 0;
      NodeRef ref = hm::kInvalidNode;
      tokens >> index >> ref;
      oracle.committed[ref] = index;
      ++oracle.committed_count;
    }
  }
  return oracle;
}

/// Reopens the store (running WAL recovery) and checks it against the
/// oracle. Returns an empty string on success, else the failure text.
std::string VerifyRound(const std::string& dir, const Args& args) {
  Oracle oracle = ReadOracle(dir);

  OodbOptions options;
  auto store = OodbStore::Open(options, dir);
  if (!store.ok()) {
    return "reopen after crash failed: " + store.status().ToString();
  }

  if (!oracle.built) return "";  // crashed mid-build: reopening is the test

  GeneratorConfig config;
  config.levels = args.levels;
  hm::analysis::FsckOptions fsck_options;
  fsck_options.config = config;
  auto report = hm::analysis::RunFsck(store->get(), fsck_options);
  if (!report.ok()) return "fsck did not run: " + report.status().ToString();
  if (!report->ok()) {
    std::ostringstream out;
    out << "fsck found " << report->violations.size() << " violations; first: "
        << report->violations.front().ToString();
    return out.str();
  }

  for (const auto& [ref, index] : oracle.committed) {
    auto text = (*store)->GetText(ref);
    if (!text.ok()) {
      return "GetText(" + std::to_string(ref) +
             ") after recovery: " + text.status().ToString();
    }
    if (*text == EditText(index)) continue;
    // The final intended edit may have committed just before the
    // crash without its marker reaching the oracle.
    if (ref == oracle.last_intent_ref && oracle.last_intent_index > index &&
        *text == EditText(oracle.last_intent_index)) {
      continue;
    }
    return "committed edit lost on node " + std::to_string(ref) +
           ": expected \"" + EditText(index) + "\", got \"" + *text + "\"";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  hm::bench::Flags("hm_torture", kUsage)
      .Add("rounds", &args.rounds)
      .Add("seed", &args.seed)
      .Add("dir", &args.dir)
      .Add("levels", &args.levels)
      .Add("edits", &args.edits)
      .Add("drill", &args.drill)
      .Add("hmbench", &args.hmbench)
      .Add("keep", &args.keep)
      .Parse(argc, argv);
  // Replication drills fault real processes with signals, so they run
  // fine in builds without failpoint support.
  if (args.drill.empty() && !hm::util::kFailpointsCompiled) {
    std::fprintf(stderr,
                 "hm_torture: failpoints are compiled out of this build; "
                 "configure with -DHM_FAILPOINTS=on\n");
    return 2;
  }
  if (args.rounds <= 0 || args.levels < 2 || args.edits <= 0) {
    std::fprintf(stderr, "hm_torture: rounds/levels/edits out of range\n");
    return 2;
  }
  if (!args.drill.empty()) return RunDrills(args);

  hm::util::Rng rng(HashSeed(args.seed));
  std::filesystem::create_directories(args.dir);

  int failures = 0;
  for (int round = 0; round < args.rounds; ++round) {
    const CrashPoint& point =
        kCrashPoints[rng.NextBounded(std::size(kCrashPoints))];
    uint64_t after = static_cast<uint64_t>(rng.UniformInt(
        static_cast<int64_t>(point.min_after),
        static_cast<int64_t>(point.max_after)));
    std::string dir = args.dir + "/round-" + std::to_string(round);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
      return 2;
    }
    if (pid == 0) RunChild(dir, point, after, args);

    int wait_status = 0;
    if (::waitpid(pid, &wait_status, 0) != pid) {
      std::fprintf(stderr, "waitpid: %s\n", std::strerror(errno));
      return 2;
    }

    std::string failure;
    int exit_code = -1;
    if (WIFEXITED(wait_status)) {
      exit_code = WEXITSTATUS(wait_status);
      if (exit_code != 0 && exit_code != hm::util::kFailpointCrashExit &&
          exit_code != kInjectedErrorExit) {
        failure = "child exited " + std::to_string(exit_code) +
                  " (store bug, not an injected fault)";
      }
    } else if (WIFSIGNALED(wait_status)) {
      failure = "child killed by signal " +
                std::to_string(WTERMSIG(wait_status)) +
                " (faults must surface as Status, never crash)";
    }
    if (failure.empty()) failure = VerifyRound(dir, args);

    Oracle oracle = ReadOracle(dir);
    std::printf("round %2d  %-28s %-7s after=%-3" PRIu64
                " exit=%-2d built=%s committed=%d  %s\n",
                round, point.site, point.action, after, exit_code,
                oracle.built ? "yes" : "no ", oracle.committed_count,
                failure.empty() ? "OK" : ("FAIL: " + failure).c_str());

    if (!failure.empty()) {
      ++failures;
      std::printf("         kept %s for inspection\n", dir.c_str());
    } else if (!args.keep) {
      std::filesystem::remove_all(dir);
    }
  }

  std::printf("hm_torture: %d/%d rounds recovered cleanly\n",
              args.rounds - failures, args.rounds);
  return failures == 0 ? 0 : 1;
}
