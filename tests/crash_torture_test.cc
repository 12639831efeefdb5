// Crash-recovery torture scenarios: a child process runs a real
// workload against the persistent oodb backend and is killed by a
// `crash`-action failpoint (or dies right after an injected error);
// the parent reopens the store — driving WAL recovery — and asserts a
// clean fsck plus zero committed-edit loss. The deterministic cousins
// of the randomized tools/hm_torture driver.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/fsck.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/generator.h"
#include "util/failpoint.h"
#include "test_dir.h"

namespace hm {
namespace {

using backends::OodbOptions;
using backends::OodbStore;

constexpr int kEdits = 12;

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.levels = 3;
  return config;
}

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::kFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out of this build";
    }
    // These scenarios pin exact pipeline geometry (tiny segments so a
    // countdown failpoint lands mid-rollover); the CI torture job's
    // HM_WAL_SEGMENT_BYTES must not override it. The forked child inherits the cleaned env.
    ::unsetenv("HM_WAL_SEGMENT_BYTES");
  }
  void TearDown() override {
    util::Failpoint::DisableAll();
  }

  /// Runs the build+edit workload in a forked child with `site`
  /// armed as `spec` AFTER the database build finished, so the crash
  /// lands deterministically inside the edit loop. Returns the child's
  /// wait status. Committed edits are recorded, fsync'd, in
  /// `dir_/oracle.log` before/after each commit. With a background
  /// checkpointer enabled, the child settles before arming (so stale
  /// build records do not trigger a pre-edit checkpoint) and lingers
  /// after the loop (so an armed checkpoint site is guaranteed a tick
  /// with fresh records).
  int RunWorkloadChild(const std::string& site, const std::string& spec,
                       const OodbOptions& options = OodbOptions{}) {
    pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
      int oracle = ::open((dir_ + "/oracle.log").c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (oracle < 0) ::_exit(2);
      auto store = OodbStore::Open(options, dir_);
      if (!store.ok()) ::_exit(3);
      auto db = Generator(SmallConfig()).Build(store->get(), nullptr);
      if (!db.ok()) ::_exit(4);
      if (!OracleAppend(oracle, "built")) ::_exit(2);
      if (options.checkpoint_interval_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            5 * options.checkpoint_interval_ms + 20));
      }
      // Arm the failpoint only now: the build is fault-free, the edit
      // loop is where the lightning strikes.
      if (!util::Failpoint::Enable(site, spec).ok()) ::_exit(2);
      for (int i = 0; i < kEdits; ++i) {
        NodeRef ref = db->text_nodes[static_cast<size_t>(i) %
                                     db->text_nodes.size()];
        util::Status s = (*store)->Begin();
        if (s.ok()) s = (*store)->SetText(ref, EditText(i));
        if (s.ok()) s = (*store)->Commit();
        if (!s.ok()) ::_exit(43);  // injected error surfaced; stop here
        if (!OracleAppend(oracle, "committed " + std::to_string(i) + " " +
                                      std::to_string(ref))) {
          ::_exit(2);
        }
      }
      if (options.checkpoint_interval_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            5 * options.checkpoint_interval_ms + 100));
      }
      ::_exit(0);
    }
    int wait_status = 0;
    EXPECT_EQ(::waitpid(pid, &wait_status, 0), pid);
    return wait_status;
  }

  static bool OracleAppend(int fd, const std::string& line) {
    std::string payload = line + "\n";
    if (::write(fd, payload.data(), payload.size()) !=
        static_cast<ssize_t>(payload.size())) {
      return false;
    }
    return ::fsync(fd) == 0;
  }

  static std::string EditText(int i) {
    return "crash-edit-" + std::to_string(i);
  }

  /// Parses the oracle: ref -> last edit index whose marker landed.
  std::map<NodeRef, int> CommittedEdits(bool* built) {
    std::map<NodeRef, int> committed;
    *built = false;
    std::ifstream in(dir_ + "/oracle.log");
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream tokens(line);
      std::string kind;
      tokens >> kind;
      if (kind == "built") {
        *built = true;
      } else if (kind == "committed") {
        int index = 0;
        NodeRef ref = kInvalidNode;
        tokens >> index >> ref;
        committed[ref] = index;
      }
    }
    return committed;
  }

  /// Reopens (recovering), fscks, and checks committed-edit
  /// durability: every edit whose marker reached the oracle must read
  /// back with exactly the committed text.
  void VerifyRecovered() {
    bool built = false;
    std::map<NodeRef, int> committed = CommittedEdits(&built);
    ASSERT_TRUE(built);
    ASSERT_FALSE(committed.empty()) << "crash landed before any commit";

    auto store = OodbStore::Open(OodbOptions{}, dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    analysis::FsckOptions options;
    options.config = SmallConfig();
    auto report = analysis::RunFsck(store->get(), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->violations.front().ToString();

    // kEdits is below the text-node count, so the round-robin edit
    // loop touches each node at most once: a marked edit is the final
    // word on its node and must read back exactly.
    for (const auto& [ref, index] : committed) {
      auto text = (*store)->GetText(ref);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_EQ(*text, EditText(index))
          << "node " << ref << ": committed edit " << index << " lost";
    }
  }

  test::TestDir tmp_{"hm_crash"};
  const std::string dir_ = tmp_.path();
};

TEST_F(CrashTortureTest, CrashAtWalSyncDuringEditsRecovers) {
  int wait_status =
      RunWorkloadChild("wal/sync/error", "crash,after=5");
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), util::kFailpointCrashExit);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, CrashAtWalAppendDuringEditsRecovers) {
  int wait_status =
      RunWorkloadChild("wal/append/error", "crash,after=20");
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), util::kFailpointCrashExit);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, TornWalTailDuringEditsRecovers) {
  // `error` (not `crash`): the torn tail must actually be written
  // before the child stops, which a crash at the site would preempt.
  int wait_status =
      RunWorkloadChild("wal/append/short_write", "error,after=4");
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 43);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, CrashMidRolloverRecovers) {
  // Tiny segments make nearly every edit commit roll the WAL; the
  // crash lands between sealing the old segment and opening the new
  // one — the window where a broken rollover could lose the tail of
  // the chain. Recovery must come up on the sealed chain with every
  // marked commit intact.
  OodbOptions options;
  options.wal_segment_bytes = 512;
  int wait_status =
      RunWorkloadChild("wal/rollover/error", "crash,after=6", options);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), util::kFailpointCrashExit);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, RolloverErrorSurfacesAndChainStaysUsable) {
  // Same window, `error` action: the roll fails, the commit surfaces
  // the IoError, and the store must still be recoverable afterwards —
  // the old segment stays current and consistent.
  OodbOptions options;
  options.wal_segment_bytes = 512;
  int wait_status =
      RunWorkloadChild("wal/rollover/error", "error,after=6,times=1", options);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 43);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, CrashMidFuzzyCheckpointRecovers) {
  // The background checkpointer dies between dirty-page flush batches:
  // a half-flushed data file plus an un-advanced recovery-start LSN.
  // The fuzzy invariant (checkpoint record written only after the data
  // sync) means recovery replays from the previous checkpoint and no
  // committed edit is lost.
  OodbOptions options;
  options.wal_segment_bytes = 4096;
  options.checkpoint_interval_ms = 10;
  options.checkpoint_wal_bytes = 1024;
  int wait_status =
      RunWorkloadChild("checkpoint/mid_flush/crash", "crash,after=1", options);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), util::kFailpointCrashExit);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, KilledAfterReadOnlyCommitKeepsPriorEdit) {
  // A read-only commit writes nothing to the log. The child commits one
  // edit, commits a read-only transaction over it and is killed; the
  // edit must survive and the store must fsck clean.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int oracle = ::open((dir_ + "/oracle.log").c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (oracle < 0) ::_exit(2);
    auto store = OodbStore::Open(OodbOptions{}, dir_);
    if (!store.ok()) ::_exit(3);
    auto db = Generator(SmallConfig()).Build(store->get(), nullptr);
    if (!db.ok()) ::_exit(4);
    if (!OracleAppend(oracle, "built")) ::_exit(2);
    const NodeRef ref = db->text_nodes[0];
    util::Status s = (*store)->Begin();
    if (s.ok()) s = (*store)->SetText(ref, EditText(0));
    if (s.ok()) s = (*store)->Commit();
    if (!s.ok()) ::_exit(43);
    if (!OracleAppend(oracle, "committed 0 " + std::to_string(ref))) {
      ::_exit(2);
    }
    s = (*store)->Begin();
    if (s.ok()) s = (*store)->GetText(ref).status();
    if (s.ok()) s = (*store)->Commit();
    if (!s.ok()) ::_exit(43);
    ::kill(::getpid(), SIGKILL);
    ::_exit(5);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wait_status)) << "child exit " << wait_status;
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);
  VerifyRecovered();
}

TEST_F(CrashTortureTest, CleanRunNeedsNoRecovery) {
  // Control: the failpoint never fires (after=1000 outlasts the
  // workload); the child exits 0 and everything is durable.
  int wait_status =
      RunWorkloadChild("wal/sync/error", "crash,after=1000");
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 0);
  VerifyRecovered();
}

}  // namespace
}  // namespace hm
