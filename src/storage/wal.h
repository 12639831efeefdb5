#ifndef HM_STORAGE_WAL_H_
#define HM_STORAGE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace hm::storage {

/// WAL record kinds. Update payloads are opaque to the log — the
/// owning store defines their meaning and replays them on recovery.
/// kCheckpoint carries a fixed64 recovery-start LSN (empty payload on
/// logs written before segmented checkpoints: start at the record).
/// kBegin is read but no longer written: the object store opens a
/// transaction without logging, but older logs contain it.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kUpdate = 2,
  kCommit = 3,
  kAbort = 4,
  kCheckpoint = 5,
};

/// On-disk frame layout: [len:4][masked-crc:4] then `len` bytes of
/// body [type:1][txn:8][payload]. The CRC covers the body only, masked
/// so a frame of zero bytes never checks out.
inline constexpr size_t kWalFrameHeaderSize = 8;
inline constexpr size_t kWalRecordPrefixSize = 9;

/// Appends the framed encoding of one record to `*out`.
void AppendWalFrame(std::string* out, WalRecordType type, uint64_t txn_id,
                    std::string_view payload);

/// One decoded WAL record. `payload` aliases the reader's internal
/// buffer and is invalidated by the next call to Next().
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t txn_id = 0;
  std::string_view payload;
};

/// Streaming frame decoder over an open file descriptor. Reads through
/// a bounded buffer that grows only to the largest single record, so
/// recovering a multi-gigabyte log takes O(largest record) memory, not
/// O(log size). The reader does not own the fd.
class WalRecordReader {
 public:
  WalRecordReader(int fd, uint64_t file_size)
      : fd_(fd), file_size_(file_size) {}

  WalRecordReader(const WalRecordReader&) = delete;
  WalRecordReader& operator=(const WalRecordReader&) = delete;

  enum class Outcome {
    kRecord,  // *record holds the next record
    kEnd,     // clean end of file, exactly at a frame boundary
    kTorn,    // partial or CRC-failing frame: valid data ends at offset()
  };

  /// Decodes the next frame. On kTorn, offset() is the byte offset of
  /// the first bad frame — everything before it parsed cleanly. A
  /// structurally impossible frame (valid CRC but body shorter than
  /// the record prefix) is Corruption, not a torn tail.
  util::Result<Outcome> Next(WalRecord* record);

  /// File offset of the next frame Next() will attempt (equals the end
  /// of the last good frame after kEnd/kTorn).
  uint64_t offset() const { return next_offset_; }

 private:
  /// Ensures at least `need` unconsumed bytes are buffered (or as many
  /// as the file has). Discards consumed bytes first, so the buffer
  /// never holds more than one chunk beyond the frame being decoded.
  util::Status Refill(size_t need);
  size_t Available() const { return buffer_.size() - pos_; }

  int fd_;
  uint64_t file_size_;
  uint64_t next_offset_ = 0;  // file offset of the next frame
  std::string buffer_;        // window starting at buffer_start_
  uint64_t buffer_start_ = 0;
  size_t pos_ = 0;  // consumed prefix of buffer_
};

}  // namespace hm::storage

#endif  // HM_STORAGE_WAL_H_
