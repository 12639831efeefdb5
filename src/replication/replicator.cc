#include "replication/replicator.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/wal.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace hm::replication {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

util::Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError(ErrnoMessage("write", path));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return util::Status::Ok();
}

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
  if (buffer_.size() < storage::kWalFrameHeaderSize) return false;
  util::Decoder header(buffer_);
  uint32_t len = 0;
  uint32_t masked_crc = 0;
  header.GetFixed32(&len);
  header.GetFixed32(&masked_crc);
  if (len < storage::kWalRecordPrefixSize || len > (256u << 20)) {
    return util::Status::Corruption(
        "replication stream: impossible frame length " + std::to_string(len));
  }
  const size_t total = storage::kWalFrameHeaderSize + len;
  if (buffer_.size() < total) return false;
  std::string_view body =
      std::string_view(buffer_).substr(storage::kWalFrameHeaderSize, len);
  if (util::MaskCrc(util::Crc32(body)) != masked_crc) {
    return util::Status::Corruption(
        "replication stream: frame CRC mismatch at consumed offset " +
        std::to_string(consumed_));
  }
  frame->type = static_cast<storage::WalRecordType>(body[0]);
  uint64_t txn_id = 0;
  util::Decoder prefix(body.substr(1));
  prefix.GetFixed64(&txn_id);
  frame->txn_id = txn_id;
  frame->payload.assign(body.substr(storage::kWalRecordPrefixSize));
  buffer_.erase(0, total);
  consumed_ += total;
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

std::string Replicator::ChainFilePath() const {
  return options_.mirror_dir + "/chain";
}

uint64_t Replicator::ReadChainEpoch() const {
  FILE* f = std::fopen(ChainFilePath().c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long epoch = 0;
  if (std::fscanf(f, "%llu", &epoch) != 1) epoch = 0;
  std::fclose(f);
  return epoch;
}

util::Status Replicator::WriteChainEpoch(uint64_t epoch) {
  const std::string path = ChainFilePath();
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", tmp));
  std::string text = std::to_string(epoch) + "\n";
  util::Status status = WriteAll(fd, text, tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = util::Status::IoError(ErrnoMessage("fsync", tmp));
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::Status::IoError(ErrnoMessage("rename", path));
  }
  return util::Status::Ok();
}

util::Status Replicator::Start() {
  if (options_.follower_id == 0) {
    return util::Status::InvalidArgument(
        "replication: follower id must be nonzero");
  }
  if (::mkdir(options_.mirror_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::Status::IoError(ErrnoMessage("mkdir", options_.mirror_dir));
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

void Replicator::ThreadMain() {
  util::Status status = ReplayMirror();
  if (!status.ok()) {
    std::fprintf(stderr, "replication: mirror replay failed: %s\n",
                 status.ToString().c_str());
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
      break;
    }
    // Transport trouble: the primary is down or unreachable. Keep
    // retrying forever — this is exactly the window in which a client
    // may promote us instead.
    SleepUnless(200, stop_, promoted_);
  }
  if (mirror_fd_ >= 0) {
    ::close(mirror_fd_);
    mirror_fd_ = -1;
  }
}

util::Status Replicator::ReplayMirror() {
  DIR* d = ::opendir(options_.mirror_dir.c_str());
  if (d == nullptr) {
    return util::Status::IoError(ErrnoMessage("opendir", options_.mirror_dir));
  }
  std::vector<uint64_t> seqs;
  while (struct dirent* ent = ::readdir(d)) {
    std::string_view name(ent->d_name);
    if (name.size() != 10 || name.substr(0, 4) != "wal.") continue;
    uint64_t seq = 0;
    bool digits = true;
    for (char c : name.substr(4)) {
      if (c < '0' || c > '9') {
        digits = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    if (digits && seq > 0) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i + 1 < seqs.size(); ++i) {
    if (seqs[i + 1] != seqs[i] + 1) {
      return util::Status::Corruption(
          "replication mirror: missing segment between " +
          MirrorSegmentPath(seqs[i]) + " and " +
          MirrorSegmentPath(seqs[i + 1]));
    }
  }

  for (size_t i = 0; i < seqs.size(); ++i) {
    const bool last = i + 1 == seqs.size();
    const std::string path = MirrorSegmentPath(seqs[i]);
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
    decoder_.Reset();
    cursor_seq_ = seqs[i];
    char buf[1 << 16];
    util::Status read_status;
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        read_status = util::Status::IoError(ErrnoMessage("read", path));
        break;
      }
      if (n == 0) break;
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      read_status = DrainDecoder();
      if (!read_status.ok()) break;
    }
    ::close(fd);
    if (!read_status.ok()) {
      if (!last || !read_status.IsCorruption()) return read_status;
      // Torn tail on the final mirror segment: the crash interrupted
      // the chunk append. Truncate back to the last whole frame; the
      // resumed fetch re-ships the rest.
      if (::truncate(path.c_str(), static_cast<off_t>(decoder_.consumed())) !=
          0) {
        return util::Status::IoError(ErrnoMessage("truncate", path));
      }
    } else if (!last && !decoder_.empty()) {
      return util::Status::Corruption(
          "replication mirror: sealed segment " + path +
          " ends mid-frame");
    }
    if (!ApplyReady()) return util::Status::Ok();  // stopping
  }

  if (!seqs.empty()) {
    cursor_seq_ = seqs.back();
    cursor_offset_ = decoder_.consumed();
    // Drop any torn bytes still buffered: the file was truncated to
    // the consumed offset above (or ended cleanly, leaving nothing).
    decoder_.Reset();
    HM_RETURN_IF_ERROR(OpenMirrorSegment(cursor_seq_, true));
    replayed_gauge_->Set(
        static_cast<int64_t>(replayed_lsn_.load(std::memory_order_relaxed)));
  } else {
    cursor_seq_ = 0;
    cursor_offset_ = 0;
  }
  return util::Status::Ok();
}

util::Status Replicator::OpenMirrorSegment(uint64_t seq,
                                           bool truncate_to_cursor) {
  if (mirror_fd_ >= 0) {
    ::close(mirror_fd_);
    mirror_fd_ = -1;
  }
  const std::string path = MirrorSegmentPath(seq);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
  if (truncate_to_cursor &&
      ::ftruncate(fd, static_cast<off_t>(cursor_offset_)) != 0) {
    ::close(fd);
    return util::Status::IoError(ErrnoMessage("ftruncate", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError(ErrnoMessage("fstat", path));
  }
  if (static_cast<uint64_t>(st.st_size) != cursor_offset_) {
    ::close(fd);
    return util::Status::Corruption(
        "replication mirror: " + path + " is " + std::to_string(st.st_size) +
        " bytes, cursor expects " + std::to_string(cursor_offset_));
  }
  mirror_fd_ = fd;
  return util::Status::Ok();
}

util::Status Replicator::DrainDecoder() {
  FrameDecoder::Frame frame;
  while (true) {
    util::Result<bool> got = decoder_.Next(&frame);
    if (!got.ok()) return got.status();
    if (!got.value()) return util::Status::Ok();
    ReadyBatch batch;
    switch (frame.type) {
      case storage::WalRecordType::kBegin:  // written only by older code
        pending_[frame.txn_id];
        continue;
      case storage::WalRecordType::kUpdate:
        pending_[frame.txn_id].push_back(std::move(frame.payload));
        continue;
      case storage::WalRecordType::kCommit: {
        auto it = pending_.find(frame.txn_id);
        if (it != pending_.end()) {
          batch.payloads = std::move(it->second);
          pending_.erase(it);
        }
        break;
      }
      case storage::WalRecordType::kAbort:
        pending_.erase(frame.txn_id);
        break;
      case storage::WalRecordType::kCheckpoint:
        // The primary's checkpoints are about *its* recovery start;
        // the follower's durable truth is the mirror, start to tail.
        break;
    }
    // Every frame that closes a log position is an ack point. A
    // read-only commit appends nothing, so its semi-sync wait can end
    // just past a kAbort or kCheckpoint; an empty batch moves the ack
    // past those in order with the commits before them.
    batch.end_lsn =
        storage::SegmentedWal::MakeLsn(cursor_seq_, decoder_.consumed());
    util::MutexLock lock(mu_);
    ready_.push_back(std::move(batch));
  }
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
      HM_RETURN_IF_ERROR(
          WriteAll(mirror_fd_, chunk, MirrorSegmentPath(cursor_seq_)));
      if (::fsync(mirror_fd_) != 0) {
        return util::Status::IoError(
            ErrnoMessage("fsync", MirrorSegmentPath(cursor_seq_)));
      }
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
