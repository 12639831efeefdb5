#include "replication/replicator.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/wal.h"

namespace hm::replication {

namespace {

/// Chunked sleep that bails early when `flag` flips.
void SleepUnless(int ms, const std::atomic<bool>& a,
                 const std::atomic<bool>& b) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (a.load(std::memory_order_relaxed) ||
        b.load(std::memory_order_relaxed)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Errors that no amount of reconnecting will fix: a diverged or
/// pruned chain, a refused handshake, corrupt mirror bytes. The pull
/// loop stops for these and the follower keeps serving stale reads.
bool IsFatalPullError(const util::Status& status) {
  return status.IsCorruption() || status.IsNotFound() ||
         status.code() == util::StatusCode::kInvalidArgument;
}

}  // namespace

// --- FrameDecoder ----------------------------------------------------

util::Result<bool> FrameDecoder::Next(Frame* frame) {
  storage::WalRecord record;
  size_t frame_size = 0;
  util::Result<storage::WalFrameStatus> status =
      storage::DecodeWalFrame(buffer_, &record, &frame_size);
  auto corruption = [&](const std::string& what) {
    return util::Status::Corruption("replication stream: " + what +
                                    " at consumed offset " +
                                    std::to_string(consumed_));
  };
  if (!status.ok()) return corruption(status.status().message());
  switch (*status) {
    case storage::WalFrameStatus::kNeedMore:
      // A stream cannot buffer forever on a garbage length.
      if (frame_size > storage::kWalFrameHeaderSize + (256u << 20)) {
        return corruption(
            "impossible frame length " +
            std::to_string(frame_size - storage::kWalFrameHeaderSize));
      }
      return false;
    case storage::WalFrameStatus::kTorn:
      return corruption("frame CRC mismatch");
    case storage::WalFrameStatus::kRecord:
      break;
  }
  frame->type = record.type;
  frame->txn_id = record.txn_id;
  frame->payload.assign(record.payload);
  buffer_.erase(0, frame_size);
  consumed_ += frame_size;
  return true;
}

// --- Replicator ------------------------------------------------------

Replicator::Replicator(ReplicatorOptions options, backends::OodbStore* store,
                       ExclusiveHook exclusive)
    : options_(std::move(options)),
      store_(store),
      exclusive_(std::move(exclusive)) {
  auto& reg = telemetry::Registry::Global();
  bytes_received_ = reg.GetCounter("replication.bytes_received");
  txns_applied_ = reg.GetCounter("replication.txns_applied");
  lag_bytes_ = reg.GetGauge("replication.lag_bytes");
  lag_lsn_ = reg.GetGauge("replication.lag_lsn");
  replayed_gauge_ = reg.GetGauge("replication.replayed_lsn");
}

Replicator::~Replicator() { Stop(); }

std::string Replicator::MirrorSegmentPath(uint64_t seq) const {
  return storage::SegmentedWal::SegmentPath(options_.mirror_dir + "/wal", seq);
}

uint64_t Replicator::ReadChainEpoch() const {
  FILE* f = std::fopen((options_.mirror_dir + "/" + kChainFileName).c_str(),
                       "r");
  if (f == nullptr) return 0;
  unsigned long long epoch = 0;
  if (std::fscanf(f, "%llu", &epoch) != 1) epoch = 0;
  std::fclose(f);
  return epoch;
}

util::Status Replicator::WriteChainEpoch(uint64_t epoch) {
  return storage::ReplaceFile(
      options_.mirror_dir, kChainFileName, std::to_string(epoch) + "\n",
      {nullptr, "repl/chain/write/error", "repl/chain/sync/error"});
}

util::Status Replicator::Start() {
  if (options_.follower_id == 0) {
    return util::Status::InvalidArgument(
        "replication: follower id must be nonzero");
  }
  if (::mkdir(options_.mirror_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::Status::IoError(
        storage::ErrnoMessage("mkdir", options_.mirror_dir));
  }
  thread_ = std::thread([this] { ThreadMain(); });
  return util::Status::Ok();
}

void Replicator::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

uint64_t Replicator::FinalizeForPromotion() {
  // Caller holds the exclusive dispatch lock, so the pull thread is
  // parked outside its apply hook and the ready queue is stable.
  std::vector<ReadyBatch> batches;
  {
    util::MutexLock lock(mu_);
    batches.swap(ready_);
  }
  util::Status status = ApplyBatches(&batches);
  if (!status.ok()) {
    // Promotion proceeds from what did apply; the divergence is loud.
    std::fprintf(stderr, "replication: promotion backlog apply failed: %s\n",
                 status.ToString().c_str());
  }
  // The pull thread notices on its next hook entry (or loop check) and
  // exits. Never join here: it may be blocked on the very lock the
  // caller holds.
  promoted_.store(true, std::memory_order_release);
  return replayed_lsn_.load(std::memory_order_relaxed);
}

util::Status Replicator::fatal_status() const {
  util::MutexLock lock(mu_);
  return fatal_status_;
}

void Replicator::ThreadMain() {
  util::Status status = ReplayMirror();
  if (!status.ok()) {
    std::fprintf(stderr, "replication: mirror replay failed: %s\n",
                 status.ToString().c_str());
    util::MutexLock lock(mu_);
    fatal_status_ = status;
    return;
  }
  while (!stop_.load(std::memory_order_relaxed) &&
         !promoted_.load(std::memory_order_relaxed)) {
    status = PullFromPrimary();
    if (stop_.load(std::memory_order_relaxed) ||
        promoted_.load(std::memory_order_relaxed)) {
      break;
    }
    if (!status.ok() && IsFatalPullError(status)) {
      std::fprintf(stderr,
                   "replication: stopping pull (serving stale reads): %s\n",
                   status.ToString().c_str());
      util::MutexLock lock(mu_);
      fatal_status_ = status;
      break;
    }
    // Transport trouble: the primary is down or unreachable. Keep
    // retrying forever — this is exactly the window in which a client
    // may promote us instead.
    SleepUnless(200, stop_, promoted_);
  }
  mirror_ = storage::File();
}

util::Status Replicator::ReplayMirror() {
  HM_ASSIGN_OR_RETURN(
      std::vector<uint64_t> seqs,
      storage::SegmentedWal::ListSegments(options_.mirror_dir + "/wal"));
  cursor_seq_ = 0;
  cursor_offset_ = 0;
  for (size_t i = 0; i < seqs.size(); ++i) {
    // The mirror obeys the primary chain's own rules (DESIGN.md §12):
    // only a torn tail on the final segment is a crash scar, left by a
    // crash mid chunk append; anything else is loud.
    cursor_seq_ = seqs[i];
    HM_ASSIGN_OR_RETURN(
        cursor_offset_,
        storage::SegmentedWal::ScanSegment(
            MirrorSegmentPath(cursor_seq_), cursor_seq_,
            i + 1 == seqs.size(),
            [this](const storage::SegmentedWal::ScannedRecord& rec) {
              Assemble(rec.type, rec.txn_id, std::string(rec.payload),
                       rec.end_lsn);
              return util::Status::Ok();
            }));
    if (!ApplyReady()) return util::Status::Ok();  // stopping
  }
  if (cursor_seq_ != 0) {
    // Truncates a torn tail back to the last whole frame; the resumed
    // fetch re-ships the rest.
    HM_RETURN_IF_ERROR(OpenMirrorSegment(cursor_seq_, true));
    replayed_gauge_->Set(
        static_cast<int64_t>(replayed_lsn_.load(std::memory_order_relaxed)));
  }
  return util::Status::Ok();
}

util::Status Replicator::OpenMirrorSegment(uint64_t seq,
                                           bool truncate_to_cursor) {
  mirror_ = storage::File();
  const std::string path = MirrorSegmentPath(seq);
  HM_ASSIGN_OR_RETURN(
      storage::File file,
      storage::File::Open(
          path, storage::FileMode::kAppendCreate,
          {nullptr, "repl/mirror/write/error", "repl/mirror/sync/error"}));
  if (truncate_to_cursor) HM_RETURN_IF_ERROR(file.Truncate(cursor_offset_));
  HM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  if (size != cursor_offset_) {
    return util::Status::Corruption(
        "replication mirror: " + path + " is " + std::to_string(size) +
        " bytes, cursor expects " + std::to_string(cursor_offset_));
  }
  mirror_ = std::move(file);
  return util::Status::Ok();
}

util::Status Replicator::DrainDecoder() {
  FrameDecoder::Frame frame;
  while (true) {
    HM_ASSIGN_OR_RETURN(bool got, decoder_.Next(&frame));
    if (!got) return util::Status::Ok();
    Assemble(frame.type, frame.txn_id, std::move(frame.payload),
             storage::SegmentedWal::MakeLsn(cursor_seq_, decoder_.consumed()));
  }
}

void Replicator::Assemble(storage::WalRecordType type, uint64_t txn_id,
                          std::string payload, uint64_t end_lsn) {
  ReadyBatch batch;
  switch (type) {
    case storage::WalRecordType::kUpdate:
      pending_[txn_id].push_back(std::move(payload));
      return;
    case storage::WalRecordType::kCommit: {
      auto it = pending_.find(txn_id);
      if (it != pending_.end()) {
        batch.payloads = std::move(it->second);
        pending_.erase(it);
      }
      break;
    }
    case storage::WalRecordType::kAbort:
      pending_.erase(txn_id);
      break;
    default:
      // kCheckpoint, the only other type the decoder passes, is about
      // the primary's recovery start; the follower's durable truth is
      // the mirror, start to tail.
      break;
  }
  // Every frame that closes a log position is an ack point. A
  // read-only commit appends nothing, so its semi-sync wait can end
  // just past a kAbort or kCheckpoint; an empty batch moves the ack
  // past those in order with the commits before them.
  batch.end_lsn = end_lsn;
  util::MutexLock lock(mu_);
  ready_.push_back(std::move(batch));
}

bool Replicator::ApplyReady() {
  {
    util::MutexLock lock(mu_);
    if (ready_.empty()) {
      return !stop_.load(std::memory_order_relaxed) &&
             !promoted_.load(std::memory_order_relaxed);
    }
  }
  bool alive = true;
  exclusive_([&] {
    if (stop_.load(std::memory_order_relaxed) ||
        promoted_.load(std::memory_order_relaxed)) {
      alive = false;
      return;
    }
    // Swap *inside* the exclusive section: promotion drains this queue
    // under the same lock, so a batch can never slip between its drain
    // and our stop check.
    std::vector<ReadyBatch> batches;
    {
      util::MutexLock lock(mu_);
      batches.swap(ready_);
    }
    util::Status status = ApplyBatches(&batches);
    if (!status.ok()) {
      std::fprintf(stderr, "replication: apply failed, stopping: %s\n",
                   status.ToString().c_str());
      stop_.store(true, std::memory_order_relaxed);
      alive = false;
    }
  });
  return alive;
}

util::Status Replicator::ApplyBatches(std::vector<ReadyBatch>* batches) {
  std::vector<std::string> payloads;
  uint64_t end = replayed_lsn_.load(std::memory_order_relaxed);
  uint64_t txns = 0;
  for (auto& batch : *batches) {
    if (!batch.payloads.empty()) ++txns;
    for (auto& payload : batch.payloads) {
      payloads.push_back(std::move(payload));
    }
    end = std::max(end, batch.end_lsn);
  }
  // A batch of aborts, checkpoints and empty commits only moves the
  // ack point: there is nothing to apply and no index to re-derive.
  if (!payloads.empty()) HM_RETURN_IF_ERROR(store_->ApplyReplicated(payloads));
  txns_applied_->Add(txns);
  replayed_lsn_.store(end, std::memory_order_release);
  replayed_gauge_->Set(static_cast<int64_t>(end));
  return util::Status::Ok();
}

util::Status Replicator::PullFromPrimary() {
  backends::RemoteOptions remote = options_.primary;
  remote.max_retries = 1;  // the outer loop owns retry policy
  if (remote.peer_label.empty()) {
    remote.peer_label = "replication primary at " + remote.host + ":" +
                        std::to_string(remote.port);
  }
  auto connected = backends::RemoteStore::Connect(remote);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<backends::RemoteStore> primary =
      std::move(connected).value();

  server::ReplChain chain;
  HM_RETURN_IF_ERROR(
      primary->ReplSubscribe(options_.follower_id, cursor_seq_, &chain));

  const uint64_t stored_epoch = ReadChainEpoch();
  if (stored_epoch != 0 && stored_epoch != chain.epoch) {
    return util::Status::Corruption(
        "replication: primary is now epoch " + std::to_string(chain.epoch) +
        " but this mirror belongs to chain epoch " +
        std::to_string(stored_epoch) +
        " — a failover replaced the chain; re-seed this follower");
  }
  if (stored_epoch == 0) HM_RETURN_IF_ERROR(WriteChainEpoch(chain.epoch));
  source_epoch_.store(chain.epoch, std::memory_order_relaxed);

  if (cursor_seq_ == 0) {
    cursor_seq_ = chain.oldest_seq;
    cursor_offset_ = 0;
    decoder_.Reset();
    HM_RETURN_IF_ERROR(OpenMirrorSegment(cursor_seq_, false));
  }

  while (!stop_.load(std::memory_order_relaxed) &&
         !promoted_.load(std::memory_order_relaxed)) {
    std::string chunk;
    bool sealed = false;
    uint64_t flushed = 0;
    HM_RETURN_IF_ERROR(primary->ReplFetch(cursor_seq_, cursor_offset_,
                                          options_.fetch_bytes, &chunk,
                                          &sealed, &flushed));
    if (!chunk.empty()) {
      // Mirror first, fsync, then apply: an acked LSN must already be
      // durable here, because the ack lets the primary prune it.
      HM_RETURN_IF_ERROR(mirror_.Append(chunk));
      HM_RETURN_IF_ERROR(mirror_.Sync());
      bytes_received_->Add(chunk.size());
      cursor_offset_ += chunk.size();
      decoder_.Feed(chunk);
      HM_RETURN_IF_ERROR(DrainDecoder());
      if (!ApplyReady()) return util::Status::Ok();
      lag_bytes_->Set(static_cast<int64_t>(flushed - cursor_offset_));
    } else if (sealed && cursor_offset_ == flushed) {
      // End of a sealed segment. Segments end on frame boundaries, so
      // leftover decoder bytes mean the stream is corrupt.
      if (!decoder_.empty()) {
        return util::Status::Corruption(
            "replication: sealed segment " + std::to_string(cursor_seq_) +
            " ended mid-frame");
      }
      if (!ApplyReady()) return util::Status::Ok();
      cursor_seq_ += 1;
      cursor_offset_ = 0;
      decoder_.Reset();
      HM_RETURN_IF_ERROR(OpenMirrorSegment(cursor_seq_, false));
      // Everything below the new segment is applied; advance the
      // replayed LSN across the boundary so a semi-sync primary whose
      // NextLsn rolled over does not wait out its timeout.
      const uint64_t boundary =
          storage::SegmentedWal::MakeLsn(cursor_seq_, 0);
      if (boundary > replayed_lsn_.load(std::memory_order_relaxed)) {
        bool ready_empty;
        {
          util::MutexLock lock(mu_);
          ready_empty = ready_.empty();
        }
        if (ready_empty) {
          replayed_lsn_.store(boundary, std::memory_order_release);
          replayed_gauge_->Set(static_cast<int64_t>(boundary));
        }
      }
    } else {
      // Caught up with the primary's flushed frontier.
      lag_bytes_->Set(0);
      SleepUnless(options_.poll_ms, stop_, promoted_);
    }

    server::ReplPeer peer;
    HM_RETURN_IF_ERROR(primary->ReplReport(
        options_.follower_id, replayed_lsn_.load(std::memory_order_relaxed),
        &peer));
    if (peer.epoch != chain.epoch) {
      // The primary changed identity under us (fenced or restarted
      // into a new epoch). Resubscribe and re-judge the chain.
      return util::Status::Unavailable(
          "replication: primary epoch changed from " +
          std::to_string(chain.epoch) + " to " + std::to_string(peer.epoch));
    }
    const uint64_t replayed = replayed_lsn_.load(std::memory_order_relaxed);
    lag_lsn_->Set(peer.durable_lsn > replayed
                      ? static_cast<int64_t>(peer.durable_lsn - replayed)
                      : 0);
  }
  return util::Status::Ok();
}

}  // namespace hm::replication
