#include "storage/wal.h"

#include <string>

#include "util/coding.h"
#include "util/crc32.h"

namespace hm::storage {

void AppendWalFrame(std::string* out, WalRecordType type, uint64_t txn_id,
                    std::string_view payload) {
  std::string body;
  body.reserve(kWalRecordPrefixSize + payload.size());
  body.push_back(static_cast<char>(type));
  util::PutFixed64(&body, txn_id);
  body.append(payload);
  util::PutFixed32(out, static_cast<uint32_t>(body.size()));
  util::PutFixed32(out, util::MaskCrc(util::Crc32(body)));
  out->append(body);
}

util::Result<WalFrameStatus> DecodeWalFrame(std::string_view bytes,
                                            WalRecord* record,
                                            size_t* frame_size) {
  *frame_size = kWalFrameHeaderSize;
  if (bytes.size() < kWalFrameHeaderSize) return WalFrameStatus::kNeedMore;
  uint32_t len = util::DecodeFixed32(bytes.data());
  *frame_size += len;
  if (bytes.size() < *frame_size) return WalFrameStatus::kNeedMore;
  std::string_view body = bytes.substr(kWalFrameHeaderSize, len);
  const uint32_t masked_crc = util::DecodeFixed32(bytes.data() + 4);
  if (util::MaskCrc(util::Crc32(body)) != masked_crc) {
    return WalFrameStatus::kTorn;
  }
  if (len < kWalRecordPrefixSize) {
    return util::Status::Corruption("WAL record body is " +
                                    std::to_string(len) + " bytes, shorter "
                                    "than the record prefix");
  }
  const auto type = static_cast<WalRecordType>(body[0]);
  std::string_view payload = body.substr(kWalRecordPrefixSize);
  switch (type) {
    case WalRecordType::kUpdate:
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kCheckpoint:
      if (payload.size() == 8) break;
      return util::Status::Corruption(
          "WAL kCheckpoint payload is " + std::to_string(payload.size()) +
          " bytes, not an 8-byte recovery-start LSN (an empty payload is "
          "the pre-segmentation format, no longer read)");
    case WalRecordType::kBegin:
      return util::Status::Corruption(
          "WAL record type 1 (kBegin) is a format earlier revisions "
          "wrote, no longer read");
    default:
      return util::Status::Corruption(
          "unknown WAL record type " +
          std::to_string(static_cast<unsigned>(body[0] & 0xff)));
  }
  record->type = type;
  record->txn_id = util::DecodeFixed64(body.data() + 1);
  record->payload = payload;
  return WalFrameStatus::kRecord;
}

}  // namespace hm::storage
