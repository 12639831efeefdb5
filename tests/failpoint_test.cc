// Tests for the failpoint fault-injection framework (util/failpoint.h):
// spec parsing, firing arithmetic (1in / after / times), the env-var
// list grammar, telemetry, and injection through real storage sites —
// including the WAL torn-tail recovery scenario.

#include "util/failpoint.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/commit_pipeline/segmented_wal.h"
#include "telemetry/metrics.h"
#include "test_dir.h"

namespace hm {
namespace {

using util::Failpoint;

#ifdef HM_FAILPOINT_SITES

static_assert(util::kFailpointsCompiled);

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoint::DisableAll(); }
};

TEST_F(FailpointTest, DisabledSiteDoesNothing) {
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/never/enabled"));
  EXPECT_EQ(Failpoint::FireCount("test/never/enabled"), 0u);
}

TEST_F(FailpointTest, ErrorActionInjectsIoError) {
  ASSERT_TRUE(Failpoint::Enable("test/a", "error").ok());
  auto evaluate = []() -> util::Status {
    HM_FAILPOINT("test/a");
    return util::Status::Ok();
  };
  util::Status status = evaluate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  EXPECT_NE(status.message().find("test/a"), std::string::npos);
}

TEST_F(FailpointTest, OneInFiresDeterministically) {
  ASSERT_TRUE(Failpoint::Enable("test/one_in", "error,1in=3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(HM_FAILPOINT_FIRED("test/one_in"));
  }
  // Fires on exactly every 3rd evaluation: indices 2, 5, 8.
  std::vector<bool> expected{false, false, true,  false, false,
                             true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(Failpoint::FireCount("test/one_in"), 3u);
}

TEST_F(FailpointTest, AfterSkipsLeadingEvaluations) {
  ASSERT_TRUE(Failpoint::Enable("test/after", "error,after=4").ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(HM_FAILPOINT_FIRED("test/after")) << "evaluation " << i;
  }
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/after"));
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/after"));
}

TEST_F(FailpointTest, TimesCapsTotalFires) {
  ASSERT_TRUE(Failpoint::Enable("test/times", "error,times=2").ok());
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (HM_FAILPOINT_FIRED("test/times")) ++fires;
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(Failpoint::FireCount("test/times"), 2u);
}

TEST_F(FailpointTest, DelayActionSleeps) {
  ASSERT_TRUE(Failpoint::Enable("test/delay", "delay=30").ok());
  auto start = std::chrono::steady_clock::now();
  HM_FAILPOINT_HIT("test/delay");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  // A delay-only site never injects an error through HM_FAILPOINT.
  auto evaluate = []() -> util::Status {
    HM_FAILPOINT("test/delay");
    return util::Status::Ok();
  };
  EXPECT_TRUE(evaluate().ok());
}

TEST_F(FailpointTest, ReenableResetsState) {
  ASSERT_TRUE(Failpoint::Enable("test/re", "error,times=1").ok());
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/re"));
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/re"));
  ASSERT_TRUE(Failpoint::Enable("test/re", "error,times=1").ok());
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/re"));
}

TEST_F(FailpointTest, DisableStopsFiring) {
  ASSERT_TRUE(Failpoint::Enable("test/off", "error").ok());
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/off"));
  Failpoint::Disable("test/off");
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/off"));
}

TEST_F(FailpointTest, InvalidSpecsAreRejected) {
  EXPECT_FALSE(Failpoint::Enable("test/bad", "explode").ok());
  EXPECT_FALSE(Failpoint::Enable("test/bad", "").ok());
  EXPECT_FALSE(Failpoint::Enable("test/bad", "error,,1in=2").ok());
  EXPECT_FALSE(Failpoint::Enable("test/bad", "1in=0").ok());
  EXPECT_FALSE(Failpoint::Enable("test/bad", "1in=abc").ok());
  EXPECT_FALSE(Failpoint::Enable("test/bad", "after=").ok());
  EXPECT_FALSE(Failpoint::Enable("", "error").ok());
  // A rejected Enable must not leave a live site behind.
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/bad"));
}

TEST_F(FailpointTest, SpecListGrammar) {
  // Semicolon-separated entries, whitespace-tolerant, and the FIRST
  // '=' splits name from spec (specs themselves contain '=').
  ASSERT_TRUE(Failpoint::EnableFromSpecList(
                  " test/l1=error,1in=2 ; test/l2=delay=5 ")
                  .ok());
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/l1"));
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/l1"));
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/l2"));

  EXPECT_FALSE(Failpoint::EnableFromSpecList("no-equals-sign").ok());
  EXPECT_FALSE(Failpoint::EnableFromSpecList("=error").ok());
}

TEST_F(FailpointTest, EnvVarArmsSitesWithoutDeadlocking) {
  // Loading HM_FAILPOINTS happens inside a call_once latch, and the
  // loader arms its specs through Enable() — which re-enters the
  // latch. Regression: that inner call must return, not deadlock.
  // This process's latch already settled at the first site
  // evaluation, so the env path only runs in a re-exec'd child.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("HM_FAILPOINTS", "failpoint_test/env/site=error,times=1", 1);
    ::execl("/proc/self/exe", "failpoint_test",
            "--gtest_filter=FailpointTest.EnvVarChildAssertions",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  for (int waited_ms = 0;; waited_ms += 50) {
    pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    ASSERT_EQ(done, 0);
    if (waited_ms >= 10000) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "re-exec'd child hung loading HM_FAILPOINTS";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(FailpointTest, EnvVarChildAssertions) {
  // Runs for real only in the child re-exec'd by the test above.
  const char* env = std::getenv("HM_FAILPOINTS");
  if (env == nullptr || std::string_view(env).find(
                            "failpoint_test/env/site") ==
                            std::string_view::npos) {
    GTEST_SKIP() << "meaningful only in the re-exec'd child";
  }
  EXPECT_TRUE(HM_FAILPOINT_FIRED("failpoint_test/env/site"));
  EXPECT_FALSE(HM_FAILPOINT_FIRED("failpoint_test/env/site"));  // times=1
}

TEST_F(FailpointTest, FiresAreCountedInTelemetry) {
  ASSERT_TRUE(Failpoint::Enable("test/counted", "error").ok());
  telemetry::Counter* counter = telemetry::Registry::Global().GetCounter(
      "failpoint.fires.test/counted");
  uint64_t before = counter->value();
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/counted"));
  EXPECT_TRUE(HM_FAILPOINT_FIRED("test/counted"));
  EXPECT_EQ(counter->value(), before + 2);
}

// ---- Injection through real storage sites ----------------------------

class FailpointWalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::Failpoint::DisableAll();
  }

  test::TestDir tmp_{"hm_failpoint"};
  const std::string dir_ = tmp_.path();
};

TEST_F(FailpointWalTest, WalAppendErrorSurfacesAsStatus) {
  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(dir_ + "/wal.log").ok());
  ASSERT_TRUE(Failpoint::Enable("wal/append/error", "error,times=1").ok());
  auto lsn = wal.Append(storage::WalRecordType::kUpdate, 1, "doomed");
  ASSERT_FALSE(lsn.ok());
  EXPECT_EQ(lsn.status().code(), util::StatusCode::kIoError);
  // The injection is one-shot; the WAL keeps working afterwards.
  EXPECT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "fine").ok());
  EXPECT_TRUE(wal.Sync().ok());
}

TEST_F(FailpointWalTest, WalSyncErrorSurfacesAsStatus) {
  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(dir_ + "/wal.log").ok());
  ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "x").ok());
  ASSERT_TRUE(Failpoint::Enable("wal/sync/error", "error,times=1").ok());
  EXPECT_FALSE(wal.Sync().ok());
  EXPECT_TRUE(wal.Sync().ok());
}

// A torn write stops the log: an append after it, which would roll
// the torn segment into the sealed middle of the chain here, fails
// with the write's error instead, so reopening recovers the commits
// before the tear.
TEST_F(FailpointWalTest, TornWriteStopsTheLogUntilReopen) {
  const std::string path = dir_ + "/wal.log";
  storage::SegmentedWalOptions options;
  options.segment_bytes = 64;
  {
    storage::SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path, options).ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "one").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(
        Failpoint::Enable("wal/append/short_write", "error,times=1").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 2, "torn").ok());
    util::Status sync = wal.Sync();
    ASSERT_FALSE(sync.ok());
    auto after = wal.Append(storage::WalRecordType::kAbort, 2, "");
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.status().message(), sync.message());
    EXPECT_EQ(wal.Sync().message(), sync.message());
    EXPECT_EQ(wal.segment_count(), 1u);
  }
  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path, options).ok());
  std::vector<std::string> replayed;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(replayed, std::vector<std::string>{"one"});
  EXPECT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 3, "fresh").ok());
  EXPECT_TRUE(wal.Sync().ok());
}

// Satellite: the torn-tail scenario end to end. A short write tears
// the final record; Recover keeps every prior commit, truncates the
// tail, and the log accepts (and replays) new appends cleanly.
TEST_F(FailpointWalTest, TornTailIsTruncatedAndLogStaysAppendable) {
  std::string path = dir_ + "/wal.log";
  {
    storage::SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    // Two durable committed transactions.
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "one").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 2, "two").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 2, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    // A third transaction whose flush tears mid-record.
    ASSERT_TRUE(
        Failpoint::Enable("wal/append/short_write", "error,times=1").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 3, "torn").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 3, "").ok());
    util::Status sync = wal.Sync();
    ASSERT_FALSE(sync.ok());
    EXPECT_NE(sync.message().find("torn tail"), std::string::npos);
    // Writer destroyed here; the torn bytes stay on disk (the
    // destructor's sync finds an empty buffer and writes nothing).
  }

  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  uint64_t torn_size = wal.SizeBytes();
  std::vector<std::string> replayed;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  // Both intact commits replay; the torn txn 3 is gone.
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], "one");
  EXPECT_EQ(replayed[1], "two");
  EXPECT_LT(wal.SizeBytes(), torn_size);  // the tail was truncated

  // The log is immediately appendable, and the new record replays.
  ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 4, "fresh").ok());
  ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 4, "").ok());
  ASSERT_TRUE(wal.Sync().ok());
  replayed.clear();
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[2], "fresh");
}

#else  // !HM_FAILPOINT_SITES

// Release passthrough: nothing can be enabled, sites report never
// firing, and the admin surface still links. (failpoint.h itself
// static_asserts that the disabled macros expand to no code at all.)
static_assert(!util::kFailpointsCompiled);

TEST(FailpointCompiledOutTest, AdminSurfaceDeclinesAndSitesAreInert) {
  util::Status enabled = Failpoint::Enable("test/any", "error");
  EXPECT_EQ(enabled.code(), util::StatusCode::kNotSupported);
  EXPECT_FALSE(HM_FAILPOINT_FIRED("test/any"));
  EXPECT_EQ(Failpoint::FireCount("test/any"), 0u);
  Failpoint::DisableAll();  // links and does nothing
}

#endif  // HM_FAILPOINT_SITES

}  // namespace
}  // namespace hm
