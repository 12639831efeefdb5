// Tests for WAL-shipping replication (DESIGN.md §16): the FrameDecoder
// that reassembles shipped WAL bytes, the primary-side WalShipper
// (retention floor, ack table, semi-sync wait, chain identity), and
// end-to-end primary/replica fleets over real loopback servers —
// replay catch-up, read-only enforcement, promotion with epoch
// fencing, fence persistence across restarts, and the ReplicatedStore
// client's failover sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "hypermodel/types.h"
#include "replication/coordinator.h"
#include "replication/replicator.h"
#include "replication/wal_shipper.h"
#include "server/server.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"

namespace hm::replication {
namespace {

using backends::OodbStore;
using backends::RemoteStore;
using backends::ReplicatedStore;
using storage::SegmentedWal;
using storage::WalRecordType;

NodeAttrs MakeAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

/// Polls `pred` every 5 ms for up to `timeout_ms`. Returns whether it
/// ever held.
bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// --- FrameDecoder ----------------------------------------------------

std::string ThreeFrameTxn(uint64_t txn_id, const std::string& payload) {
  std::string bytes;
  storage::AppendWalFrame(&bytes, WalRecordType::kUpdate, txn_id, "head");
  storage::AppendWalFrame(&bytes, WalRecordType::kUpdate, txn_id, payload);
  storage::AppendWalFrame(&bytes, WalRecordType::kCommit, txn_id, "");
  return bytes;
}

TEST(FrameDecoderTest, DecodesWholeFrames) {
  const std::string bytes = ThreeFrameTxn(7, "node-bytes");
  FrameDecoder decoder;
  decoder.Feed(bytes);

  FrameDecoder::Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, WalRecordType::kUpdate);
  EXPECT_EQ(frame.txn_id, 7u);
  EXPECT_EQ(frame.payload, "head");

  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok() && *got);
  EXPECT_EQ(frame.type, WalRecordType::kUpdate);
  EXPECT_EQ(frame.payload, "node-bytes");

  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok() && *got);
  EXPECT_EQ(frame.type, WalRecordType::kCommit);

  // Fully drained: consumed() sits on the frame boundary that the
  // follower may ack, and empty() licenses a segment switch.
  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  EXPECT_EQ(decoder.consumed(), bytes.size());
  EXPECT_TRUE(decoder.empty());
}

TEST(FrameDecoderTest, ReassemblesByteAtATimeFeeds) {
  // The shipper chunks on flushed-byte counts, not frame boundaries, so
  // the decoder must tolerate any split — including one byte at a time.
  const std::string bytes = ThreeFrameTxn(42, std::string(300, 'x'));
  FrameDecoder decoder;
  FrameDecoder::Frame frame;
  size_t decoded = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    decoder.Feed(std::string_view(bytes).substr(i, 1));
    auto got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got) ++decoded;
  }
  EXPECT_EQ(decoded, 3u);
  EXPECT_EQ(decoder.consumed(), bytes.size());
  EXPECT_TRUE(decoder.empty());
}

TEST(FrameDecoderTest, CrcMismatchIsCorruption) {
  std::string bytes = ThreeFrameTxn(9, "payload-to-corrupt");
  bytes[bytes.size() / 2] ^= 0x40;  // flip one mid-stream bit
  FrameDecoder decoder;
  decoder.Feed(bytes);
  FrameDecoder::Frame frame;
  // Frames before the corruption may decode; the corrupted one must
  // surface Corruption rather than garbage.
  util::Status status = util::Status::Ok();
  while (status.ok()) {
    auto got = decoder.Next(&frame);
    if (!got.ok()) {
      status = got.status();
      break;
    }
    ASSERT_TRUE(*got) << "decoder ran dry without noticing corruption";
  }
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(FrameDecoderTest, ImpossibleTypeIsCorruptionNamingTheType) {
  // A CRC-valid frame of a type no current writer produces — unknown
  // (0, 6) or the kBegin that earlier revisions logged (1) — is
  // Corruption, never a frame for the replicator to ack.
  for (int type : {0, 1, 6}) {
    std::string bytes;
    storage::AppendWalFrame(&bytes, WalRecordType::kUpdate, 5, "ok");
    storage::AppendWalFrame(&bytes, static_cast<WalRecordType>(type), 5, "");
    FrameDecoder decoder;
    decoder.Feed(bytes);
    FrameDecoder::Frame frame;
    auto got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok() && *got) << type;
    got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok()) << type;
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    EXPECT_NE(got.status().message().find("type " + std::to_string(type)),
              std::string::npos)
        << got.status().ToString();
  }
}

TEST(FrameDecoderTest, ResetForgetsPartialState) {
  const std::string bytes = ThreeFrameTxn(3, "abc");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(bytes).substr(0, bytes.size() - 2));
  FrameDecoder::Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok() && *got);
  decoder.Reset();
  EXPECT_TRUE(decoder.empty());
  EXPECT_EQ(decoder.consumed(), 0u);
  // A fresh, whole stream decodes cleanly after the reset.
  decoder.Feed(bytes);
  for (int i = 0; i < 3; ++i) {
    got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok() && *got);
  }
}

// --- WalShipper ------------------------------------------------------

class WalShipperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/hm_shipper_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    storage::SegmentedWalOptions options;
    options.segment_bytes = 2 * FrameBytes(100);  // two frames/segment
    ASSERT_TRUE(wal_.Open(dir_ + "/wal.log", options).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static uint64_t FrameBytes(size_t n) {
    return storage::kWalFrameHeaderSize + storage::kWalRecordPrefixSize + n;
  }

  void AppendFrames(int n) {
    std::string body(100, 'w');
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(wal_.Append(WalRecordType::kUpdate, 1, body).ok());
    }
    ASSERT_TRUE(wal_.Sync().ok());
  }

  std::string dir_;
  SegmentedWal wal_;
};

TEST_F(WalShipperTest, SubscribeReportsChainAndServesBytes) {
  AppendFrames(3);  // segments 1 (sealed) and 2
  WalShipper shipper(&wal_, /*chain_complete=*/true);

  uint64_t next_lsn = 0, oldest_seq = 0;
  ASSERT_TRUE(shipper.Subscribe(11, 0, &next_lsn, &oldest_seq).ok());
  EXPECT_EQ(next_lsn, wal_.NextLsn());
  EXPECT_EQ(oldest_seq, 1u);
  EXPECT_EQ(shipper.follower_count(), 1u);

  std::string chunk;
  bool sealed = false;
  uint64_t flushed = 0;
  ASSERT_TRUE(shipper.Serve(1, 0, 1 << 20, &chunk, &sealed, &flushed).ok());
  EXPECT_TRUE(sealed);
  EXPECT_EQ(flushed, 2 * FrameBytes(100));
  EXPECT_EQ(chunk.size(), flushed);

  ASSERT_TRUE(shipper.Serve(2, 0, 1 << 20, &chunk, &sealed, &flushed).ok());
  EXPECT_FALSE(sealed);
  EXPECT_EQ(chunk.size(), FrameBytes(100));

  // Nonzero follower ids only; zero keys nothing.
  EXPECT_EQ(shipper.Subscribe(0, 0, &next_lsn, &oldest_seq).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(WalShipperTest, FreshSubscriberRefusedOnIncompleteChain) {
  // A promoted node's chain is not replayable from empty: fresh
  // subscribers must be refused, resumers (who hold the prefix in
  // their mirror) admitted.
  AppendFrames(1);
  WalShipper shipper(&wal_, /*chain_complete=*/false);
  uint64_t next_lsn = 0, oldest_seq = 0;
  auto status = shipper.Subscribe(5, 0, &next_lsn, &oldest_seq);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("re-seed"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(shipper.Subscribe(5, 1, &next_lsn, &oldest_seq).ok());
}

TEST_F(WalShipperTest, RetentionFloorIsMinOverFollowers) {
  AppendFrames(8);  // segments 1..4
  ASSERT_EQ(wal_.OldestSeq(), 1u);
  WalShipper shipper(&wal_, true);
  uint64_t next_lsn = 0, oldest_seq = 0;
  ASSERT_TRUE(shipper.Subscribe(1, 0, &next_lsn, &oldest_seq).ok());
  ASSERT_TRUE(shipper.Subscribe(2, 0, &next_lsn, &oldest_seq).ok());

  // Follower 1 replays everything, follower 2 sticks at segment 2: the
  // floor is follower 2's position, so a full checkpoint may prune
  // segment 1 only.
  const uint64_t head = wal_.NextLsn();
  shipper.Ack(1, head);
  shipper.Ack(2, SegmentedWal::MakeLsn(2, 0));
  ASSERT_TRUE(wal_.Checkpoint().ok());
  EXPECT_EQ(wal_.OldestSeq(), 2u);

  // Acks are monotonic: a stale (smaller) ack cannot drag the floor
  // back down.
  shipper.Ack(2, SegmentedWal::MakeLsn(1, 0));
  EXPECT_EQ(shipper.max_acked_lsn(), head);

  // A resume below the retained range is typed NotFound: the follower
  // must re-seed, not silently skip a gap.
  auto status = shipper.Subscribe(3, 1, &next_lsn, &oldest_seq);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

TEST_F(WalShipperTest, WaitAckedBlocksUntilAckOrTimeout) {
  AppendFrames(2);
  WalShipper shipper(&wal_, true);
  uint64_t next_lsn = 0, oldest_seq = 0;
  ASSERT_TRUE(shipper.Subscribe(1, 0, &next_lsn, &oldest_seq).ok());

  const uint64_t target = wal_.NextLsn();
  EXPECT_FALSE(shipper.WaitAcked(target, 30));  // nothing acked yet

  std::thread acker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    shipper.Ack(1, target);
  });
  EXPECT_TRUE(shipper.WaitAcked(target, 5000));
  acker.join();
  EXPECT_EQ(shipper.max_acked_lsn(), target);
  // Already-acked LSNs return without blocking.
  EXPECT_TRUE(shipper.WaitAcked(target, 0));
}

// --- Replaying a log offline: crash recovery and the follower mirror

/// uid -> hundred for every uid in [1, max_uid] that LookupUnique finds.
std::map<int64_t, int64_t> HundredByUid(HyperStore* store, int64_t max_uid) {
  std::map<int64_t, int64_t> out;
  for (int64_t uid = 1; uid <= max_uid; ++uid) {
    auto node = store->LookupUnique(uid);
    if (!node.ok()) continue;
    auto hundred = store->GetAttr(*node, Attr::kHundred);
    EXPECT_TRUE(hundred.ok()) << hundred.status().ToString();
    if (hundred.ok()) out[uid] = *hundred;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// A live store's log and the state it reaches: three creating
/// transactions, an edit, an abort and a read-only transaction. The
/// tests feed the log's own bytes, or a damaged copy, to crash
/// recovery and to a follower replaying them as its mirror with no
/// primary listening, so the replicator stops at the mirror tail.
class OfflineReplayTest : public ::testing::Test {
 protected:
  static constexpr int64_t kMaxUid = 99;

  void SetUp() override {
    root_ = ::testing::TempDir() + "/hm_offline_replay_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);

    auto live = OodbStore::Open({}, root_ + "/live");
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    HyperStore* store = live->get();
    NodeRef first = kInvalidNode;
    for (int64_t uid = 1; uid <= 6; uid += 2) {
      ASSERT_TRUE(store->Begin().ok());
      auto a = store->CreateNode(MakeAttrs(uid), kInvalidNode);
      auto b = store->CreateNode(MakeAttrs(uid + 1), kInvalidNode);
      ASSERT_TRUE(a.ok() && b.ok());
      if (first == kInvalidNode) first = *a;
      ASSERT_TRUE(store->Commit().ok());
    }
    ASSERT_TRUE(store->Begin().ok());
    ASSERT_TRUE(store->SetAttr(first, Attr::kHundred, 42).ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Begin().ok());
    ASSERT_TRUE(store->CreateNode(MakeAttrs(kMaxUid), kInvalidNode).ok());
    ASSERT_TRUE(store->Abort().ok());
    ASSERT_TRUE(store->Begin().ok());
    ASSERT_TRUE(store->LookupUnique(3).ok());
    ASSERT_TRUE(store->Commit().ok());
    expected_ = HundredByUid(store, kMaxUid);
    ASSERT_EQ(expected_.size(), 6u);
    EXPECT_EQ(expected_.at(1), 42);

    // The crash image: the data file as of the open-time checkpoint,
    // plus the log, which the commits synced.
    std::filesystem::copy(root_ + "/live", root_ + "/crash",
                          std::filesystem::copy_options::recursive);
    SegmentedWal* wal = (*live)->object_store()->wal();
    ASSERT_EQ(wal->segment_count(), 1u);
    seq_ = wal->OldestSeq();
    crash_segment_ =
        root_ + "/crash/" +
        std::filesystem::path(wal->SegmentPaths().front()).filename().string();
    std::ifstream in(crash_segment_, std::ios::binary);
    log_.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    ASSERT_FALSE(log_.empty());
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Writes `bytes` as the follower's only mirror segment, under the
  /// live segment's sequence number, and starts its replicator.
  std::unique_ptr<Replicator> StartFollower(const std::string& bytes) {
    const std::string mirror = root_ + "/follower/repl_mirror";
    std::filesystem::create_directories(mirror);
    mirror_segment_ = SegmentedWal::SegmentPath(mirror + "/wal", seq_);
    EXPECT_TRUE(WriteFile(mirror_segment_, bytes));
    auto follower = OodbStore::Open({}, root_ + "/follower/oodb");
    EXPECT_TRUE(follower.ok()) << follower.status().ToString();
    follower_ = std::move(follower).value();
    ReplicatorOptions ropts;
    ropts.primary.host = "127.0.0.1";
    ropts.primary.port = 1;
    ropts.mirror_dir = mirror;
    ropts.follower_id = 1;
    auto replicator = std::make_unique<Replicator>(
        ropts, follower_.get(), [](const std::function<void()>& fn) { fn(); });
    EXPECT_TRUE(replicator->Start().ok());
    return replicator;
  }

  /// Waits for the replicator to stop on a fatal error, then joins it.
  static util::Status FatalStatus(Replicator* replicator) {
    EXPECT_TRUE(WaitFor([&] { return !replicator->fatal_status().ok(); },
                        5000));
    replicator->Stop();
    return replicator->fatal_status();
  }

  std::string root_;
  std::string crash_segment_;
  std::string mirror_segment_;
  uint64_t seq_ = 0;
  std::string log_;
  std::map<int64_t, int64_t> expected_;
  std::unique_ptr<OodbStore> follower_;
};

TEST_F(OfflineReplayTest, CrashImageAndMirrorReachLiveState) {
  {
    auto recovered = OodbStore::Open({}, root_ + "/crash");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GT((*recovered)->object_store()->recovered_records(), 0u);
    EXPECT_EQ(HundredByUid(recovered->get(), kMaxUid), expected_);
  }
  auto replicator = StartFollower(log_);
  // Acked through the abort's kAbort, the log's last frame.
  const uint64_t end = SegmentedWal::MakeLsn(seq_, log_.size());
  EXPECT_TRUE(
      WaitFor([&] { return replicator->replayed_lsn() >= end; }, 5000));
  replicator->Stop();
  EXPECT_EQ(replicator->replayed_lsn(), end);
  EXPECT_TRUE(replicator->fatal_status().ok())
      << replicator->fatal_status().ToString();
  EXPECT_EQ(HundredByUid(follower_.get(), kMaxUid), expected_);
}

TEST_F(OfflineReplayTest, SplicedBeginRecordIsCorruption) {
  // One kBegin frame, the type earlier revisions opened each
  // transaction with, spliced in after the log's first frame.
  storage::WalRecord first;
  size_t first_size = 0;
  auto decoded = storage::DecodeWalFrame(log_, &first, &first_size);
  ASSERT_TRUE(decoded.ok() && *decoded == storage::WalFrameStatus::kRecord);
  std::string spliced = log_.substr(0, first_size);
  storage::AppendWalFrame(&spliced, WalRecordType::kBegin, 1, "");
  spliced += log_.substr(first_size);

  ASSERT_TRUE(WriteFile(crash_segment_, spliced));
  auto recovered = OodbStore::Open({}, root_ + "/crash");
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
  EXPECT_NE(recovered.status().message().find("kBegin"), std::string::npos)
      << recovered.status().ToString();

  auto replicator = StartFollower(spliced);
  util::Status status = FatalStatus(replicator.get());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("kBegin"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(replicator->replayed_lsn(), 0u);
}

TEST_F(OfflineReplayTest, TornMirrorTailIsTruncated) {
  // A whole frame whose CRC fails at the mirror's tail is what a crash
  // mid-append leaves: truncated away, with everything before replayed.
  std::string torn = log_;
  storage::AppendWalFrame(&torn, WalRecordType::kCommit, 1, "");
  torn.back() ^= 0x40;
  auto replicator = StartFollower(torn);
  const uint64_t end = SegmentedWal::MakeLsn(seq_, log_.size());
  EXPECT_TRUE(
      WaitFor([&] { return replicator->replayed_lsn() >= end; }, 5000));
  replicator->Stop();
  EXPECT_EQ(replicator->replayed_lsn(), end);
  EXPECT_TRUE(replicator->fatal_status().ok())
      << replicator->fatal_status().ToString();
  EXPECT_EQ(std::filesystem::file_size(mirror_segment_), log_.size());
  EXPECT_EQ(HundredByUid(follower_.get(), kMaxUid), expected_);
}

TEST_F(OfflineReplayTest, ImpossibleMirrorTailFailsLoudly) {
  // A CRC-valid frame of an unknown type is corruption, not a crash
  // scar: the replay stops and the mirror is left as it was.
  std::string bad = log_;
  storage::AppendWalFrame(&bad, static_cast<WalRecordType>(6), 1, "");
  auto replicator = StartFollower(bad);
  util::Status status = FatalStatus(replicator.get());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("type 6"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(replicator->replayed_lsn(), 0u);
  EXPECT_EQ(std::filesystem::file_size(mirror_segment_), bad.size());
}

// --- Coordinator state file -------------------------------------------

// The role and epoch change only once `repl_epoch` holds them durably:
// when its sync fails, the fence reports IoError and leaves memory and
// disk as they were, so the same call can simply be repeated.
TEST(CoordinatorStateTest, FailedStateSyncLeavesEpochAndRoleUnchanged) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  const std::string dir = ::testing::TempDir() + "/hm_repl_state";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CoordinatorOptions options;
  options.state_dir = dir;
  auto coordinator = Coordinator::Open(options, /*as_replica=*/false);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  const std::string state = dir + "/repl_epoch";
  ASSERT_EQ(ReadWhole(state), "1 0\n");

  ASSERT_TRUE(
      util::Failpoint::Enable("repl/state/sync/error", "error,times=1").ok());
  auto failed = (*coordinator)->HandleFence(2);
  util::Failpoint::DisableAll();
  EXPECT_EQ(failed.status().code(), util::StatusCode::kIoError)
      << failed.status().ToString();
  EXPECT_EQ((*coordinator)->epoch(), 1u);
  EXPECT_EQ((*coordinator)->role(), Role::kPrimary);
  EXPECT_EQ(ReadWhole(state), "1 0\n");
  EXPECT_FALSE(std::filesystem::exists(state + ".tmp"));

  auto fenced = (*coordinator)->HandleFence(2);
  ASSERT_TRUE(fenced.ok()) << fenced.status().ToString();
  EXPECT_EQ(*fenced, 2u);
  EXPECT_EQ((*coordinator)->role(), Role::kFenced);
  EXPECT_EQ(ReadWhole(state), "2 1\n");
  std::filesystem::remove_all(dir);
}

// --- End-to-end fleets over loopback ---------------------------------

/// One replicated node: an OodbStore-backed server plus its
/// coordinator, on an ephemeral loopback port.
struct ReplNode {
  std::string dir;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<server::Server> server;

  uint16_t port() const { return server->port(); }

  /// Shutdown order matters: the replicator thread uses the server's
  /// exclusive hook, so it must stop before the server does.
  void Stop() {
    if (coordinator != nullptr) coordinator->Shutdown();
    if (server != nullptr) server->Stop();
  }
  /// Simulates a crash for failover tests: tears the node down
  /// (sockets close, clients see transport errors) while leaving its
  /// durable state on disk for a later resurrection.
  void Kill() {
    Stop();
    server.reset();
    coordinator.reset();
  }
};

class ReplicationE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/hm_repl_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    // StartNode hands out references into nodes_; a push_back
    // reallocation would invalidate every earlier one.
    nodes_.reserve(8);
  }
  void TearDown() override {
    for (auto& node : nodes_) node.Stop();
    nodes_.clear();
    std::filesystem::remove_all(root_);
  }

  /// Small segments so replication streams cross rollovers even in
  /// short tests.
  static backends::OodbOptions StoreOptions() {
    backends::OodbOptions options;
    options.cache_pages = 256;
    options.wal_segment_bytes = 1 << 16;
    options.checkpoint_interval_ms = 0;
    return options;
  }

  ReplNode& StartNode(const std::string& name, bool as_replica,
                      uint16_t primary_port) {
    ReplNode node;
    node.dir = root_ + "/" + name;
    std::filesystem::create_directories(node.dir);

    auto store = OodbStore::Open(StoreOptions(), node.dir + "/oodb");
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto* oodb = store->get();

    CoordinatorOptions copts;
    copts.state_dir = node.dir;
    copts.semisync_timeout_ms = 5000;
    auto coordinator = Coordinator::Open(copts, as_replica);
    EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    node.coordinator = std::move(*coordinator);

    if (!as_replica && node.coordinator->role() == Role::kPrimary) {
      // A fresh directory's chain replays from empty; a resurrected
      // one's does too (its own WAL is complete).
      EXPECT_TRUE(node.coordinator->ServePrimary(oodb, true).ok());
    }

    server::ServerOptions sopts;
    sopts.host = "127.0.0.1";
    sopts.port = 0;
    // Each worker owns one connection for its lifetime; a primary
    // serves two long-lived replicator connections plus test clients.
    sopts.workers = 8;
    sopts.replication = node.coordinator.get();
    auto srv = server::Server::Start(
        sopts, std::unique_ptr<HyperStore>(std::move(*store)));
    EXPECT_TRUE(srv.ok()) << srv.status().ToString();
    node.server = std::move(*srv);

    if (as_replica) {
      ReplicatorOptions ropts;
      ropts.primary.host = "127.0.0.1";
      ropts.primary.port = primary_port;
      ropts.mirror_dir = node.dir + "/repl_mirror";
      ropts.follower_id = node.port();
      ropts.poll_ms = 5;
      auto* raw_server = node.server.get();
      EXPECT_TRUE(node.coordinator
                      ->ServeReplica(ropts, oodb,
                                     [raw_server](
                                         const std::function<void()>& fn) {
                                       raw_server->WithExclusiveBackend(
                                           [&fn](HyperStore*) { fn(); });
                                     })
                      .ok());
    }

    nodes_.push_back(std::move(node));
    return nodes_.back();
  }

  static std::unique_ptr<RemoteStore> Client(uint16_t port) {
    backends::RemoteOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.max_retries = 1;
    auto store = RemoteStore::Connect(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  /// Writes nodes [first, first+n) as individually committed
  /// transactions; each commit is semi-sync acked by the fleet.
  static void WriteNodes(HyperStore* client, int64_t first, int64_t n) {
    for (int64_t uid = first; uid < first + n; ++uid) {
      ASSERT_TRUE(client->Begin().ok());
      auto node = client->CreateNode(MakeAttrs(uid), kInvalidNode);
      ASSERT_TRUE(node.ok()) << node.status().ToString();
      ASSERT_TRUE(client->Commit().ok());
    }
  }

  /// Waits until `port`'s replica has replayed through the primary's
  /// current durable LSN.
  static void AwaitCatchUp(RemoteStore* primary, RemoteStore* replica) {
    server::ReplPeer head;
    ASSERT_TRUE(primary->ReplReport(0, 0, &head).ok());
    ASSERT_TRUE(WaitFor([&] {
      server::ReplPeer peer;
      return replica->ReplReport(0, 0, &peer).ok() &&
             peer.durable_lsn >= head.durable_lsn;
    })) << "replica never caught up to primary LSN "
        << head.durable_lsn;
  }

  std::string root_;
  std::vector<ReplNode> nodes_;
};

TEST_F(ReplicationE2eTest, ReplicaReplaysAndRejectsWrites) {
  auto& primary = StartNode("primary", false, 0);
  auto& replica = StartNode("replica", true, primary.port());

  auto pc = Client(primary.port());
  auto rc = Client(replica.port());
  ASSERT_NE(pc, nullptr);
  ASSERT_NE(rc, nullptr);

  WriteNodes(pc.get(), 1, 40);
  AwaitCatchUp(pc.get(), rc.get());

  // The replica answers reads from replayed state. Reads go without a
  // transaction bracket: Begin is itself a gated mutation on a
  // replica (only the replica-aware client, which defers Begin
  // locally, can bracket reads).
  for (int64_t uid = 1; uid <= 40; ++uid) {
    auto node = rc->LookupUnique(uid);
    ASSERT_TRUE(node.ok()) << "uid " << uid << ": "
                           << node.status().ToString();
    auto value = rc->GetAttr(*node, Attr::kUniqueId);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, uid);
  }

  // Writes — Begin included — bounce with the typed read-only status.
  auto begin_denied = rc->Begin();
  ASSERT_FALSE(begin_denied.ok());
  EXPECT_TRUE(begin_denied.IsReadOnly()) << begin_denied.ToString();
  auto denied = rc->CreateNode(MakeAttrs(999), kInvalidNode);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsReadOnly()) << denied.status().ToString();

  // Roles and epoch as advertised over kReplStatus.
  server::ReplPeer peer;
  ASSERT_TRUE(pc->ReplReport(0, 0, &peer).ok());
  EXPECT_EQ(peer.role, static_cast<uint8_t>(Role::kPrimary));
  EXPECT_EQ(peer.epoch, 1u);
  ASSERT_TRUE(rc->ReplReport(0, 0, &peer).ok());
  EXPECT_EQ(peer.role, static_cast<uint8_t>(Role::kReplica));
  EXPECT_EQ(peer.epoch, 1u);
}

// A follower records the chain's epoch in `chain` before it mirrors a
// byte. While that write's sync fails, pulls fail and leave neither
// `chain` nor its temp file; once it succeeds, `chain` holds the
// primary's epoch and replication proceeds.
TEST_F(ReplicationE2eTest, FailedChainSyncLeavesNoChainFile) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  auto& primary = StartNode("primary", false, 0);
  ASSERT_TRUE(util::Failpoint::Enable("repl/chain/sync/error", "error").ok());
  StartNode("replica", true, primary.port());
  ASSERT_TRUE(WaitFor([] {
    return util::Failpoint::FireCount("repl/chain/sync/error") > 0;
  }));
  // Killing the node joins its pull thread, so no pull is mid-write.
  nodes_.back().Kill();
  util::Failpoint::DisableAll();
  const std::string chain = root_ + "/replica/repl_mirror/chain";
  EXPECT_FALSE(std::filesystem::exists(chain));
  EXPECT_FALSE(std::filesystem::exists(chain + ".tmp"));

  auto& replica = StartNode("replica", true, primary.port());
  auto pc = Client(primary.port());
  auto rc = Client(replica.port());
  ASSERT_NE(pc, nullptr);
  ASSERT_NE(rc, nullptr);
  WriteNodes(pc.get(), 1, 5);
  AwaitCatchUp(pc.get(), rc.get());
  server::ReplPeer head;
  ASSERT_TRUE(pc->ReplReport(0, 0, &head).ok());
  EXPECT_EQ(ReadWhole(chain), std::to_string(head.epoch) + "\n");
  EXPECT_FALSE(std::filesystem::exists(chain + ".tmp"));
}

TEST_F(ReplicationE2eTest, ReadOnlyCommitAfterCheckpointOrAbortIsAckedPromptly) {
  // A read-only commit appends nothing, so its semi-sync wait covers
  // whatever the primary appended last. After a full checkpoint that
  // is a kCheckpoint record, after an aborted edit a kAbort record; the
  // replica must count either as replayed or the commit would wait out
  // the whole semi-sync timeout.
  auto& primary = StartNode("primary", false, 0);
  auto& replica = StartNode("replica", true, primary.port());
  auto pc = Client(primary.port());
  auto rc = Client(replica.port());
  ASSERT_NE(pc, nullptr);
  ASSERT_NE(rc, nullptr);
  WriteNodes(pc.get(), 1, 5);
  AwaitCatchUp(pc.get(), rc.get());

  telemetry::Counter* timeouts = telemetry::Registry::Global().GetCounter(
      "replication.semisync_timeouts");
  auto expect_prompt_read_only_commit = [&](const char* after) {
    const uint64_t timeouts_before = timeouts->value();
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(pc->Begin().ok());
    ASSERT_TRUE(pc->LookupUnique(3).ok());
    util::Status committed = pc->Commit();
    ASSERT_TRUE(committed.ok()) << after << ": " << committed.ToString();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2))
        << after;
    EXPECT_EQ(timeouts->value(), timeouts_before) << after;
  };

  ASSERT_TRUE(pc->CloseReopen().ok());
  expect_prompt_read_only_commit("after a checkpoint");

  ASSERT_TRUE(pc->Begin().ok());
  auto node = pc->LookupUnique(3);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  ASSERT_TRUE(pc->SetAttr(*node, Attr::kHundred, 42).ok());
  ASSERT_TRUE(pc->Abort().ok());
  expect_prompt_read_only_commit("after an abort");
}

TEST_F(ReplicationE2eTest, PromotionServesEveryAckedWriteAndFencesOldPrimary) {
  auto& primary = StartNode("primary", false, 0);
  auto& r1 = StartNode("r1", true, primary.port());
  auto& r2 = StartNode("r2", true, primary.port());

  auto pc = Client(primary.port());
  ASSERT_NE(pc, nullptr);
  WriteNodes(pc.get(), 1, 30);
  {
    auto c1 = Client(r1.port());
    auto c2 = Client(r2.port());
    AwaitCatchUp(pc.get(), c1.get());
    AwaitCatchUp(pc.get(), c2.get());
  }
  pc.reset();
  nodes_[0].Kill();  // crash the primary; its directory survives

  // Client-driven failover: promote the most-replayed follower under
  // the next epoch.
  auto c1 = Client(r1.port());
  auto c2 = Client(r2.port());
  server::ReplPeer p1, p2;
  ASSERT_TRUE(c1->ReplReport(0, 0, &p1).ok());
  ASSERT_TRUE(c2->ReplReport(0, 0, &p2).ok());
  RemoteStore* winner = p1.durable_lsn >= p2.durable_lsn ? c1.get() : c2.get();
  RemoteStore* loser = winner == c1.get() ? c2.get() : c1.get();

  uint64_t epoch = 0;
  ASSERT_TRUE(winner->ReplPromote(2, &epoch).ok());
  EXPECT_EQ(epoch, 2u);
  // Repeat promotion is idempotent (a retry after a dropped reply).
  ASSERT_TRUE(winner->ReplPromote(2, &epoch).ok());
  // A stale proposal loses.
  uint64_t ignored = 0;
  auto stale = winner->ReplPromote(1, &ignored);
  EXPECT_EQ(stale.code(), util::StatusCode::kInvalidArgument);

  // The survivor adopts the epoch floor (so it can never accept the
  // dead chain again) but stays a replica.
  ASSERT_TRUE(loser->ReplFence(2, &epoch).ok());
  EXPECT_EQ(epoch, 2u);

  // Oracle: every primary-acked edit is readable on the promoted node,
  // and it takes new writes under the new epoch.
  ASSERT_TRUE(winner->Begin().ok());
  for (int64_t uid = 1; uid <= 30; ++uid) {
    auto node = winner->LookupUnique(uid);
    ASSERT_TRUE(node.ok()) << "acked uid " << uid << " lost in failover: "
                           << node.status().ToString();
  }
  ASSERT_TRUE(winner->Commit().ok());
  WriteNodes(winner, 1000, 5);

  server::ReplPeer promoted;
  ASSERT_TRUE(winner->ReplReport(0, 0, &promoted).ok());
  EXPECT_EQ(promoted.role, static_cast<uint8_t>(Role::kPrimary));
  EXPECT_EQ(promoted.epoch, 2u);

  // Resurrect the old primary in its original directory: it comes
  // back thinking it is a primary at epoch 1; first contact from an
  // epoch-2 client fences it, and the fence persists.
  auto store = OodbStore::Open(StoreOptions(), nodes_[0].dir + "/oodb");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CoordinatorOptions copts;
  copts.state_dir = nodes_[0].dir;
  auto coordinator = Coordinator::Open(copts, /*as_replica=*/false);
  ASSERT_TRUE(coordinator.ok());
  EXPECT_EQ((*coordinator)->role(), Role::kPrimary);  // still believes
  EXPECT_EQ((*coordinator)->epoch(), 1u);
  ASSERT_TRUE((*coordinator)->ServePrimary(store->get(), true).ok());
  server::ServerOptions sopts;
  sopts.host = "127.0.0.1";
  sopts.port = 0;
  sopts.replication = coordinator->get();
  auto srv = server::Server::Start(
      sopts, std::unique_ptr<HyperStore>(std::move(*store)));
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  auto zombie = Client((*srv)->port());
  uint64_t fenced_epoch = 0;
  ASSERT_TRUE(zombie->ReplFence(2, &fenced_epoch).ok());
  EXPECT_EQ(fenced_epoch, 2u);
  auto rejected = zombie->Begin();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.IsFencedOff()) << rejected.ToString();
  zombie.reset();
  (*coordinator)->Shutdown();
  (*srv)->Stop();
  srv->reset();
  coordinator->reset();

  // The fence survives a restart even when the node asks to be a
  // primary again: persisted state overrides the requested role.
  auto reopened = Coordinator::Open(copts, /*as_replica=*/false);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->role(), Role::kFenced);
  EXPECT_EQ((*reopened)->epoch(), 2u);
}

TEST_F(ReplicationE2eTest, ReplicatedStoreFailsOverAfterPrimaryCrash) {
  auto& primary = StartNode("primary", false, 0);
  auto& r1 = StartNode("r1", true, primary.port());
  auto& r2 = StartNode("r2", true, primary.port());

  backends::ReplicatedOptions options;
  for (uint16_t port : {primary.port(), r1.port(), r2.port()}) {
    backends::RemoteOptions peer;
    peer.host = "127.0.0.1";
    peer.port = port;
    peer.max_retries = 1;
    options.peers.push_back(peer);
  }
  auto client = ReplicatedStore::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WriteNodes(client->get(), 1, 25);
  {
    auto pc = Client(primary.port());
    auto c1 = Client(r1.port());
    auto c2 = Client(r2.port());
    AwaitCatchUp(pc.get(), c1.get());
    AwaitCatchUp(pc.get(), c2.get());
  }
  nodes_[0].Kill();

  // The crash surfaces exactly once as kUnavailable (an in-flight
  // write's fate is unknown and must not be silently re-sent); the
  // client's next write runs the failover sweep and lands on the
  // promoted follower.
  util::Status first = (*client)->Begin();
  if (first.ok()) {
    auto node = (*client)->CreateNode(MakeAttrs(100), kInvalidNode);
    first = node.ok() ? (*client)->Commit() : node.status();
    if (!first.ok()) (void)(*client)->Abort();
  }
  if (!first.ok()) {
    EXPECT_TRUE(first.IsUnavailable()) << first.ToString();
    ASSERT_TRUE(
        WaitFor([&] { return (*client)->Begin().ok(); }, 10000));
    auto node = (*client)->CreateNode(MakeAttrs(100), kInvalidNode);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    ASSERT_TRUE((*client)->Commit().ok());
  }
  EXPECT_GE((*client)->known_epoch(), 2u);
  EXPECT_NE((*client)->primary_index(), 0u);

  // Every pre-crash acked write reads back through the failed-over
  // client.
  ASSERT_TRUE((*client)->Begin().ok());
  for (int64_t uid = 1; uid <= 25; ++uid) {
    auto node = (*client)->LookupUnique(uid);
    ASSERT_TRUE(node.ok()) << "acked uid " << uid << " lost: "
                           << node.status().ToString();
  }
  ASSERT_TRUE((*client)->Commit().ok());
}

TEST_F(ReplicationE2eTest, ReplicatedStoreRoutesCleanReadsToReplicas) {
  auto& primary = StartNode("primary", false, 0);
  auto& r1 = StartNode("r1", true, primary.port());

  backends::ReplicatedOptions options;
  for (uint16_t port : {primary.port(), r1.port()}) {
    backends::RemoteOptions peer;
    peer.host = "127.0.0.1";
    peer.port = port;
    peer.max_retries = 1;
    options.peers.push_back(peer);
  }
  auto client = ReplicatedStore::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WriteNodes(client->get(), 1, 10);
  // The rounds below assert that the replica serves some read, so it
  // must have caught up with the writes before they start.
  {
    auto pc = Client(primary.port());
    auto rc = Client(r1.port());
    AwaitCatchUp(pc.get(), rc.get());
  }

  // Read-your-writes: a read issued right after the writes must see
  // them whether it lands on the replica (caught up past the
  // watermark) or falls back to the primary.
  auto* replica_reads =
      telemetry::Registry::Global().GetCounter("replicated.replica_reads");
  const uint64_t replica_reads_before = replica_reads->value();
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE((*client)->Begin().ok());
    for (int64_t uid = 1; uid <= 10; ++uid) {
      auto node = (*client)->LookupUnique(uid);
      ASSERT_TRUE(node.ok()) << node.status().ToString();
    }
    ASSERT_TRUE((*client)->Commit().ok());
  }
  // With a live, catching-up replica at zero allowed staleness, at
  // least some rounds land there once it passes the write watermark.
  EXPECT_GT(replica_reads->value(), replica_reads_before)
      << "no read was ever served by the replica";
}

TEST_F(ReplicationE2eTest, ReplicatedStoreRunsClosuresAsOneCall) {
  // The replicated client routes each §6.6 closure as one call: a
  // read-only kernel is pushed down to the peer that serves the read,
  // never walked with one kChildren round trip per node, and the
  // update kernel lands on the primary.
  auto& primary = StartNode("primary", false, 0);
  auto& r1 = StartNode("r1", true, primary.port());

  backends::ReplicatedOptions options;
  for (uint16_t port : {primary.port(), r1.port()}) {
    backends::RemoteOptions peer;
    peer.host = "127.0.0.1";
    peer.port = port;
    peer.max_retries = 1;
    options.peers.push_back(peer);
  }
  auto client = ReplicatedStore::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_NE(dynamic_cast<TraversalCapable*>(client->get()), nullptr);

  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  auto db = Generator(config).Build(client->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto direct = Client(primary.port());
  ASSERT_NE(direct, nullptr);

  auto& registry = telemetry::Registry::Global();
  telemetry::Snapshot before = registry.TakeSnapshot();
  std::vector<NodeRef> routed;
  ASSERT_TRUE((*client)->Begin().ok());
  ASSERT_TRUE(ops::Closure1N(client->get(), db->root, &routed).ok());
  ASSERT_TRUE((*client)->Commit().ok());
  telemetry::Snapshot diff = registry.TakeSnapshot().DiffSince(before);
  EXPECT_EQ(routed.size(), db->node_count());
  EXPECT_EQ(diff.counter("server.op.closure_1n.count"), 1u);
  EXPECT_EQ(diff.counter("server.op.children.count"), 0u);

  std::vector<NodeRef> expected;
  ASSERT_TRUE(ops::Closure1N(direct.get(), db->root, &expected).ok());
  EXPECT_EQ(routed, expected);
  ASSERT_TRUE(ops::ClosureMN(client->get(), db->root, &routed).ok());
  ASSERT_TRUE(ops::ClosureMN(direct.get(), db->root, &expected).ok());
  EXPECT_EQ(routed, expected);

  ASSERT_TRUE((*client)->Begin().ok());
  auto flipped = ops::Closure1NAttSet(client->get(), db->root);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  ASSERT_TRUE((*client)->Commit().ok());
  EXPECT_EQ(*flipped, db->node_count());
}

}  // namespace
}  // namespace hm::replication
