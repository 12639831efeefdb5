#include "server/wire.h"

#include "server/wire_calls.h"
#include "util/crc32.h"

namespace hm::server {

std::string_view FrameResultName(FrameResult result) {
  switch (result) {
    case FrameResult::kOk:
      return "Ok";
    case FrameResult::kIncomplete:
      return "Incomplete";
    case FrameResult::kCorrupt:
      return "Corrupt";
    case FrameResult::kTooLarge:
      return "TooLarge";
  }
  return "?";
}

void AppendFrame(std::string* dst, std::string_view payload) {
  util::PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  util::PutFixed32(dst, util::MaskCrc(util::Crc32(payload)));
  dst->append(payload.data(), payload.size());
}

FrameResult DecodeFrame(std::string_view buf, std::string_view* payload,
                        size_t* frame_len, uint32_t max_payload) {
  if (buf.size() < kFrameHeaderBytes) return FrameResult::kIncomplete;
  uint32_t length = util::DecodeFixed32(buf.data());
  if (length > max_payload) return FrameResult::kTooLarge;
  uint32_t masked_crc = util::DecodeFixed32(buf.data() + 4);
  if (buf.size() < kFrameHeaderBytes + length) return FrameResult::kIncomplete;
  std::string_view body = buf.substr(kFrameHeaderBytes, length);
  if (util::UnmaskCrc(masked_crc) != util::Crc32(body)) {
    return FrameResult::kCorrupt;
  }
  *payload = body;
  *frame_len = kFrameHeaderBytes + length;
  return FrameResult::kOk;
}

OpClass ClassOf(OpCode op) {
  return calls::Table::kByByte[static_cast<uint8_t>(op)].op_class;
}

std::string_view OpCodeName(OpCode op) {
  return calls::Table::kByByte[static_cast<uint8_t>(op)].name;
}

bool IsReadOnlyOp(OpCode op) {
  return ClassOf(op) == OpClass::kRead || ClassOf(op) == OpClass::kReplPull;
}

util::Status StatusFromCode(util::StatusCode code, std::string msg) {
  switch (code) {
    case util::StatusCode::kOk:
      return util::Status::Ok();
    case util::StatusCode::kNotFound:
      return util::Status::NotFound(std::move(msg));
    case util::StatusCode::kCorruption:
      return util::Status::Corruption(std::move(msg));
    case util::StatusCode::kInvalidArgument:
      return util::Status::InvalidArgument(std::move(msg));
    case util::StatusCode::kIoError:
      return util::Status::IoError(std::move(msg));
    case util::StatusCode::kAlreadyExists:
      return util::Status::AlreadyExists(std::move(msg));
    case util::StatusCode::kOutOfRange:
      return util::Status::OutOfRange(std::move(msg));
    case util::StatusCode::kConflict:
      return util::Status::Conflict(std::move(msg));
    case util::StatusCode::kPermissionDenied:
      return util::Status::PermissionDenied(std::move(msg));
    case util::StatusCode::kNotSupported:
      return util::Status::NotSupported(std::move(msg));
    case util::StatusCode::kInternal:
      return util::Status::Internal(std::move(msg));
    case util::StatusCode::kUnavailable:
      return util::Status::Unavailable(std::move(msg));
    case util::StatusCode::kDeadlineExceeded:
      return util::Status::DeadlineExceeded(std::move(msg));
    case util::StatusCode::kOverloaded:
      return util::Status::Overloaded(std::move(msg));
    case util::StatusCode::kReadOnly:
      return util::Status::ReadOnly(std::move(msg));
    case util::StatusCode::kFencedOff:
      return util::Status::FencedOff(std::move(msg));
    case util::StatusCode::kVersionMismatch:
      return util::Status::VersionMismatch(std::move(msg));
    case util::StatusCode::kFailedPrecondition:
      return util::Status::FailedPrecondition(std::move(msg));
  }
  return util::Status::Internal("unknown wire status code: " +
                                std::move(msg));
}

void PutStatus(std::string* dst, const util::Status& status) {
  dst->push_back(static_cast<char>(status.code()));
  if (!status.ok()) util::PutLengthPrefixed(dst, status.message());
}

bool SplitResponse(std::string_view payload, util::Status* status,
                   std::string_view* body) {
  if (payload.empty()) return false;
  auto code = static_cast<util::StatusCode>(payload[0]);
  payload.remove_prefix(1);
  if (code == util::StatusCode::kOk) {
    *status = util::Status::Ok();
    *body = payload;
    return true;
  }
  util::Decoder decoder(payload);
  std::string_view message;
  if (!decoder.GetLengthPrefixed(&message)) return false;
  *status = StatusFromCode(code, std::string(message));
  *body = std::string_view();
  return true;
}

}  // namespace hm::server
