#include "storage/commit_pipeline/segmented_wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "telemetry/metrics.h"
#include "util/coding.h"
#include "util/failpoint.h"

namespace hm::storage {

namespace {

/// Scan read granularity. Large enough that a log of small records costs
/// one pread per 64 KiB, small enough that recovery memory stays flat.
constexpr size_t kReadChunk = 64 * 1024;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

void SplitPath(const std::string& path, std::string* dir, std::string* name) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *name = path;
  } else {
    *dir = slash == 0 ? "/" : path.substr(0, slash);
    *name = path.substr(slash + 1);
  }
}

/// Parses the numeric suffix of `<name>.<digits>`; 0 on no match
/// (sequence numbers start at 1, so 0 doubles as "not a segment").
uint64_t ParseSegmentSuffix(const std::string& entry,
                            const std::string& name) {
  if (entry.size() <= name.size() + 1) return 0;
  if (entry.compare(0, name.size(), name) != 0) return 0;
  if (entry[name.size()] != '.') return 0;
  uint64_t seq = 0;
  for (size_t i = name.size() + 1; i < entry.size(); ++i) {
    char c = entry[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
    if (seq > 0xffffffffull) return 0;
  }
  return seq;
}

}  // namespace

std::string SegmentedWal::SegmentPath(const std::string& base, uint64_t seq) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

SegmentedWal::~SegmentedWal() {
  // Best effort: a failed final sync has nowhere to report from a
  // destructor; callers that care close explicitly and check.
  (void)Close();
}

void SegmentedWal::UpdateSegmentsGauge() const {
  static telemetry::Gauge* segments =
      telemetry::Registry::Global().GetGauge("storage.wal.segments");
  segments->Set(static_cast<int64_t>(sealed_.size() + (fd_ >= 0 ? 1 : 0)));
}

util::Status SegmentedWal::SyncDir() {
  std::string dir, name;
  SplitPath(base_path_, &dir, &name);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return util::Status::IoError(ErrnoMessage("open dir", dir));
  int rc = ::fsync(dfd);
  int saved = errno;
  ::close(dfd);
  // Some filesystems refuse directory fsync; that is their durability
  // promise to keep, not a WAL error.
  if (rc != 0 && saved != EINVAL && saved != ENOTSUP) {
    errno = saved;
    return util::Status::IoError(ErrnoMessage("fsync dir", dir));
  }
  return util::Status::Ok();
}

util::Status SegmentedWal::Open(const std::string& base_path,
                                const SegmentedWalOptions& options) {
  util::MutexLock lock(mu_);
  if (IsOpenLocked()) return util::Status::InvalidArgument("WAL already open");
  if (options.segment_bytes == 0 || options.segment_bytes >= (1ull << 32)) {
    return util::Status::InvalidArgument(
        "WAL segment size must be in (0, 4 GiB): LSN offsets are 32-bit");
  }
  options_ = options;
  base_path_ = base_path;
  sync_pending_ = true;
  write_error_ = util::Status::Ok();

  HM_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(base_path_));
  if (::access(base_path_.c_str(), F_OK) == 0) {
    return util::Status::Corruption(
        "'" + base_path_ + "' is a single-file WAL, a format earlier "
        "revisions wrote, no longer read: logs are segment chains " +
        SegmentPath(base_path_, 1) + ", ...");
  }

  if (seqs.empty()) {
    std::string seg1 = SegmentPath(base_path_, 1);
    int fd = ::open(seg1.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return util::Status::IoError(ErrnoMessage("open", seg1));
    fd_ = fd;
    seq_ = 1;
    file_size_ = 0;
    HM_RETURN_IF_ERROR(SyncDir());
    UpdateSegmentsGauge();
    return util::Status::Ok();
  }

  sealed_.clear();
  sealed_bytes_ = 0;
  for (size_t i = 0; i < seqs.size(); ++i) {
    std::string path = SegmentPath(base_path_, seqs[i]);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return util::Status::IoError(ErrnoMessage("stat", path));
    }
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (i + 1 < seqs.size()) {
      sealed_.emplace_back(seqs[i], size);
      sealed_bytes_ += size;
    } else {
      int fd = ::open(path.c_str(), O_RDWR | O_APPEND);
      if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
      fd_ = fd;
      seq_ = seqs[i];
      file_size_ = size;
    }
  }
  UpdateSegmentsGauge();
  return util::Status::Ok();
}

util::Result<std::vector<uint64_t>> SegmentedWal::ListSegments(
    const std::string& base_path) {
  std::string dir, name;
  SplitPath(base_path, &dir, &name);
  std::vector<uint64_t> seqs;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return util::Status::IoError(ErrnoMessage("opendir", dir));
  }
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t seq = ParseSegmentSuffix(ent->d_name, name);
    if (seq > 0) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  for (size_t i = 0; i + 1 < seqs.size(); ++i) {
    if (seqs[i + 1] != seqs[i] + 1) {
      return util::Status::Corruption(
          "missing WAL segment: chain has " + SegmentPath(base_path, seqs[i]) +
          " then " + SegmentPath(base_path, seqs[i + 1]));
    }
  }
  return seqs;
}

util::Status SegmentedWal::Close() {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::Ok();
  util::Status s = SyncLocked();
  ::close(fd_);
  fd_ = -1;
  sealed_.clear();
  sealed_bytes_ = 0;
  return s;
}

util::Result<uint64_t> SegmentedWal::Append(WalRecordType type,
                                            uint64_t txn_id,
                                            std::string_view payload) {
  util::MutexLock lock(mu_);
  return AppendLocked(type, txn_id, payload);
}

util::Result<uint64_t> SegmentedWal::AppendLocked(WalRecordType type,
                                                  uint64_t txn_id,
                                                  std::string_view payload) {
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  HM_FAILPOINT("wal/append/error");
  HM_RETURN_IF_ERROR(write_error_);
  if (CurrentSizeLocked() >= options_.segment_bytes) {
    HM_RETURN_IF_ERROR(RollLocked());
  }
  uint64_t lsn = MakeLsn(seq_, CurrentSizeLocked());
  AppendWalFrame(&buffer_, type, txn_id, payload);
  ++records_appended_;
  sync_pending_ = true;
  static telemetry::Counter* appends =
      telemetry::Registry::Global().GetCounter("storage.wal.appends");
  appends->Add();
  return lsn;
}

util::Status SegmentedWal::RollLocked() {
  // Seal the old segment durably before the new one exists: a crash
  // between the two leaves a complete chain ending at the old tail.
  HM_RETURN_IF_ERROR(FlushBuffer());
  if (::fdatasync(fd_) != 0) {
    return util::Status::IoError(
        ErrnoMessage("fdatasync", SegmentPath(base_path_, seq_)));
  }
  HM_FAILPOINT("wal/rollover/error");
  uint64_t next_seq = seq_ + 1;
  std::string path = SegmentPath(base_path_, next_seq);
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
  util::Status dir_status = SyncDir();
  if (!dir_status.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return dir_status;
  }
  sealed_.emplace_back(seq_, file_size_);
  sealed_bytes_ += file_size_;
  ::close(fd_);
  fd_ = fd;
  seq_ = next_seq;
  file_size_ = 0;
  static telemetry::Counter* rollovers =
      telemetry::Registry::Global().GetCounter("storage.wal.rollovers");
  rollovers->Add();
  UpdateSegmentsGauge();
  return util::Status::Ok();
}

util::Status SegmentedWal::RollIfNonEmpty() {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  if (CurrentSizeLocked() == 0) return util::Status::Ok();
  return RollLocked();
}

util::Status SegmentedWal::Sync() {
  util::MutexLock lock(mu_);
  return SyncLocked();
}

util::Status SegmentedWal::SyncLocked() {
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  HM_FAILPOINT("wal/sync/error");
  if (!sync_pending_) return util::Status::Ok();
  HM_RETURN_IF_ERROR(FlushBuffer());
  if (::fdatasync(fd_) != 0) {
    return util::Status::IoError(
        ErrnoMessage("fdatasync", SegmentPath(base_path_, seq_)));
  }
  sync_pending_ = false;
  ++syncs_;
  static telemetry::Counter* syncs =
      telemetry::Registry::Global().GetCounter("storage.wal.syncs");
  syncs->Add();
  return util::Status::Ok();
}

util::Status SegmentedWal::FlushBuffer() {
  HM_RETURN_IF_ERROR(write_error_);
  if (buffer_.empty()) return util::Status::Ok();
  util::Status status = WriteBuffer();
  if (!status.ok()) write_error_ = status;
  return status;
}

util::Status SegmentedWal::WriteBuffer() {
  std::string path = SegmentPath(base_path_, seq_);
  if (HM_FAILPOINT_FIRED("wal/append/short_write")) {
    // Torn tail: persist all but the final bytes of the buffered
    // frames, exactly the state a power cut mid-write() leaves on
    // disk. Recovery must detect the truncated last record and stop
    // there without losing anything before it.
    size_t keep = buffer_.size() - std::min<size_t>(buffer_.size(), 5);
    size_t torn_off = 0;
    while (torn_off < keep) {
      ssize_t n = ::write(fd_, buffer_.data() + torn_off, keep - torn_off);
      if (n < 0) return util::Status::IoError(ErrnoMessage("write", path));
      torn_off += static_cast<size_t>(n);
    }
    file_size_ += keep;
    buffer_.clear();
    return util::Status::IoError(
        "injected torn tail at failpoint wal/append/short_write");
  }
  size_t off = 0;
  while (off < buffer_.size()) {
    ssize_t n = ::write(fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) return util::Status::IoError(ErrnoMessage("write", path));
    off += static_cast<size_t>(n);
  }
  file_size_ += buffer_.size();
  buffer_.clear();
  return util::Status::Ok();
}

uint64_t SegmentedWal::NextLsn() const {
  util::MutexLock lock(mu_);
  return MakeLsn(seq_, CurrentSizeLocked());
}

uint64_t SegmentedWal::SizeBytes() const {
  util::MutexLock lock(mu_);
  return sealed_bytes_ + CurrentSizeLocked();
}

std::vector<std::string> SegmentedWal::SegmentPaths() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> paths;
  for (const auto& [seq, size] : sealed_) {
    paths.push_back(SegmentPath(base_path_, seq));
  }
  if (IsOpenLocked()) paths.push_back(SegmentPath(base_path_, seq_));
  return paths;
}

uint64_t SegmentedWal::segment_count() const {
  util::MutexLock lock(mu_);
  return sealed_.size() + (IsOpenLocked() ? 1 : 0);
}

uint64_t SegmentedWal::records_appended() const {
  util::MutexLock lock(mu_);
  return records_appended_;
}

uint64_t SegmentedWal::syncs() const {
  util::MutexLock lock(mu_);
  return syncs_;
}

util::Status SegmentedWal::Scan(
    const std::function<util::Status(const ScannedRecord&)>& visit) {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  return ScanLocked(visit);
}

util::Status SegmentedWal::ScanLocked(
    const std::function<util::Status(const ScannedRecord&)>& visit) {
  HM_RETURN_IF_ERROR(FlushBuffer());
  for (const auto& [seq, size] : sealed_) {
    HM_RETURN_IF_ERROR(
        ScanSegment(SegmentPath(base_path_, seq), seq, false, visit).status());
  }
  const std::string path = SegmentPath(base_path_, seq_);
  HM_ASSIGN_OR_RETURN(uint64_t end, ScanSegment(path, seq_, true, visit));
  if (end < file_size_) {
    // Drop the torn tail so subsequent O_APPEND writes land right
    // after the intact prefix. Without the truncate, new records
    // would sit beyond the garbage and never replay.
    if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
      return util::Status::IoError(ErrnoMessage("ftruncate", path));
    }
    file_size_ = end;
  }
  return util::Status::Ok();
}

util::Result<uint64_t> SegmentedWal::ScanSegment(
    const std::string& path, uint64_t seq, bool last,
    const std::function<util::Status(const ScannedRecord&)>& visit) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError(ErrnoMessage("fstat", path));
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  // Frames decode from a window holding at most one read chunk beyond
  // the frame at window[pos], so a segment of any size scans in
  // O(largest record) memory.
  std::string window;
  size_t pos = 0;
  uint64_t offset = 0;  // file offset of window[pos], a frame boundary
  util::Status status = util::Status::Ok();
  while (status.ok() && offset < size) {
    WalRecord rec;
    size_t frame_size = 0;
    util::Result<WalFrameStatus> decoded = DecodeWalFrame(
        std::string_view(window).substr(pos), &rec, &frame_size);
    if (!decoded.ok()) {
      status = util::Status::Corruption(decoded.status().message() + " in '" +
                                        path + "' at offset " +
                                        std::to_string(offset));
    } else if (*decoded == WalFrameStatus::kRecord) {
      status = visit({MakeLsn(seq, offset), MakeLsn(seq, offset + frame_size),
                      rec.type, rec.txn_id, rec.payload});
      pos += frame_size;
      offset += frame_size;
    } else if (*decoded == WalFrameStatus::kNeedMore &&
               offset + frame_size <= size) {
      // Keep the partial frame and read at least the rest of it.
      window.erase(0, pos);
      pos = 0;
      const size_t have = window.size();
      const size_t want = static_cast<size_t>(std::min<uint64_t>(
          std::max(frame_size, have + kReadChunk), size - offset));
      window.resize(want);
      ssize_t n = ::pread(fd, window.data() + have, want - have,
                          static_cast<off_t>(offset + have));
      if (n < 0) status = util::Status::IoError(ErrnoMessage("pread", path));
      window.resize(have + static_cast<size_t>(std::max<ssize_t>(n, 0)));
      if (n == 0) size = offset + have;  // the file shrank: a torn end
    } else {
      // A torn frame: cut short by the end of the file or failing its
      // CRC. Only the chain's very last segment may end this way; a
      // torn frame earlier means a whole suffix of the log vanished.
      if (!last) {
        status = util::Status::Corruption(
            "torn WAL frame in non-last segment '" + path + "' at offset " +
            std::to_string(offset));
      }
      break;
    }
  }
  ::close(fd);
  HM_RETURN_IF_ERROR(status);
  return offset;
}

util::Status SegmentedWal::Recover(const UpdateFn& redo,
                                   const UpdateFn& loser) {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");

  uint64_t start = 0;
  std::unordered_set<uint64_t> committed;
  std::unordered_set<uint64_t> aborted;
  HM_RETURN_IF_ERROR(ScanLocked([&](const ScannedRecord& rec) {
    if (rec.type == WalRecordType::kCheckpoint) {
      // DecodeWalFrame admits only an 8-byte checkpoint payload.
      start = util::DecodeFixed64(rec.payload.data());
    } else if (rec.type == WalRecordType::kCommit) {
      committed.insert(rec.txn_id);
    } else if (rec.type == WalRecordType::kAbort) {
      aborted.insert(rec.txn_id);
    }
    return util::Status::Ok();
  }));

  return ScanLocked([&](const ScannedRecord& rec) {
    if (rec.type != WalRecordType::kUpdate || rec.lsn < start) {
      return util::Status::Ok();
    }
    if (committed.contains(rec.txn_id)) return redo(rec.txn_id, rec.payload);
    if (loser && !aborted.contains(rec.txn_id)) {
      return loser(rec.txn_id, rec.payload);
    }
    return util::Status::Ok();
  });
}

void SegmentedWal::SetRetainLsn(uint64_t lsn) {
  util::MutexLock lock(mu_);
  retain_lsn_ = lsn;
}

uint64_t SegmentedWal::OldestSeq() const {
  util::MutexLock lock(mu_);
  if (!sealed_.empty()) return sealed_.front().first;
  return seq_;
}

util::Status SegmentedWal::ReadSegment(uint64_t seq, uint64_t offset,
                                       uint64_t max_bytes, std::string* chunk,
                                       bool* sealed,
                                       uint64_t* flushed_size) const {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  chunk->clear();
  int fd = -1;
  bool close_fd = false;
  if (seq == seq_) {
    *sealed = false;
    *flushed_size = file_size_;
    fd = fd_;
  } else {
    auto it = std::find_if(sealed_.begin(), sealed_.end(),
                           [seq](const auto& entry) {
                             return entry.first == seq;
                           });
    if (it == sealed_.end()) {
      return util::Status::NotFound(
          seq > seq_ ? "WAL segment " + std::to_string(seq) +
                           " does not exist yet (current is " +
                           std::to_string(seq_) + ")"
                     : "WAL segment " + std::to_string(seq) +
                           " was pruned by a checkpoint; the follower "
                           "must re-bootstrap from segment " +
                           std::to_string(sealed_.empty()
                                              ? seq_
                                              : sealed_.front().first));
    }
    *sealed = true;
    *flushed_size = it->second;
    std::string path = SegmentPath(base_path_, seq);
    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
    close_fd = true;
  }
  if (offset < *flushed_size && max_bytes > 0) {
    uint64_t want = std::min(max_bytes, *flushed_size - offset);
    chunk->resize(want);
    size_t got = 0;
    while (got < want) {
      ssize_t n = ::pread(fd, chunk->data() + got, want - got,
                          static_cast<off_t>(offset + got));
      if (n < 0) {
        if (errno == EINTR) continue;
        util::Status err = util::Status::IoError(
            ErrnoMessage("pread", SegmentPath(base_path_, seq)));
        if (close_fd) ::close(fd);
        return err;
      }
      if (n == 0) break;  // raced a concurrent size change; serve less
      got += static_cast<size_t>(n);
    }
    chunk->resize(got);
  }
  if (close_fd) ::close(fd);
  return util::Status::Ok();
}

util::Status SegmentedWal::PruneBelowLocked(uint64_t lsn) {
  uint64_t min_seq = std::min(LsnSegment(lsn), LsnSegment(retain_lsn_));
  bool removed = false;
  while (!sealed_.empty() && sealed_.front().first < min_seq) {
    std::string path = SegmentPath(base_path_, sealed_.front().first);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return util::Status::IoError(ErrnoMessage("unlink", path));
    }
    sealed_bytes_ -= sealed_.front().second;
    sealed_.erase(sealed_.begin());
    removed = true;
  }
  if (removed) {
    HM_RETURN_IF_ERROR(SyncDir());
    UpdateSegmentsGauge();
  }
  return util::Status::Ok();
}

util::Status SegmentedWal::Checkpoint(uint64_t recovery_start_lsn) {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  std::string payload;
  util::PutFixed64(&payload, recovery_start_lsn);
  HM_ASSIGN_OR_RETURN(
      uint64_t lsn, AppendLocked(WalRecordType::kCheckpoint, 0, payload));
  (void)lsn;
  HM_RETURN_IF_ERROR(SyncLocked());
  return PruneBelowLocked(recovery_start_lsn);
}

util::Status SegmentedWal::Checkpoint() {
  util::MutexLock lock(mu_);
  if (!IsOpenLocked()) return util::Status::InvalidArgument("WAL not open");
  if (CurrentSizeLocked() > 0) {
    HM_RETURN_IF_ERROR(RollLocked());
  }
  uint64_t start = MakeLsn(seq_, CurrentSizeLocked());
  std::string payload;
  util::PutFixed64(&payload, start);
  HM_ASSIGN_OR_RETURN(
      uint64_t lsn, AppendLocked(WalRecordType::kCheckpoint, 0, payload));
  (void)lsn;
  HM_RETURN_IF_ERROR(SyncLocked());
  return PruneBelowLocked(start);
}

}  // namespace hm::storage
