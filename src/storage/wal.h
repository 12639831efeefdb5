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
/// kCheckpoint carries a fixed64 recovery-start LSN. kBegin is a type
/// earlier revisions logged; it keeps its value so no type is
/// renumbered, and DecodeWalFrame rejects it.
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

/// One decoded WAL record. `payload` aliases the decoded bytes.
struct WalRecord {
  WalRecordType type = WalRecordType::kUpdate;
  uint64_t txn_id = 0;
  std::string_view payload;
};

enum class WalFrameStatus {
  kRecord,    // *record holds the frame; *frame_size is its length
  kNeedMore,  // input ends inside the frame; *frame_size bytes decide it
  kTorn,      // the CRC fails: a torn write or bytes never written
};

/// Decodes the frame at the front of `bytes`. This is the one parser
/// of the WAL format: SegmentedWal::ScanSegment and the replication
/// stream both call it. The CRC is checked before anything in the body, so a
/// torn tail always reads as kTorn. A frame whose CRC holds but whose
/// body is impossible is Corruption: a body shorter than the record
/// prefix, a type other than kUpdate/kCommit/kAbort/kCheckpoint, or a
/// kCheckpoint payload that is not 8 bytes.
util::Result<WalFrameStatus> DecodeWalFrame(std::string_view bytes,
                                            WalRecord* record,
                                            size_t* frame_size);

}  // namespace hm::storage

#endif  // HM_STORAGE_WAL_H_
