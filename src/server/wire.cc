#include "server/wire.h"

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

bool IsReadOnlyOp(OpCode op) {
  switch (op) {
    case OpCode::kHello:
    case OpCode::kGetAttr:
    case OpCode::kGetKind:
    case OpCode::kGetText:
    case OpCode::kGetForm:
    case OpCode::kGetContents:
    case OpCode::kLookupUnique:
    case OpCode::kRangeHundred:
    case OpCode::kRangeMillion:
    case OpCode::kChildren:
    case OpCode::kParent:
    case OpCode::kParts:
    case OpCode::kPartOf:
    case OpCode::kRefsTo:
    case OpCode::kRefsFrom:
    case OpCode::kStorageBytes:
    case OpCode::kChildrenMulti:
    case OpCode::kGetAttrsMulti:
    case OpCode::kClosure1N:
    case OpCode::kClosureMN:
    case OpCode::kClosureMNAtt:
    case OpCode::kClosure1NAttSum:
    case OpCode::kClosure1NPred:
    case OpCode::kClosureMNAttLinkSum:
    case OpCode::kStats:
    case OpCode::kPing:
    case OpCode::kShardInfo:
    case OpCode::kReplSubscribe:
    case OpCode::kReplSegment:
    case OpCode::kReplStatus:
      return true;
    default:
      return false;
  }
}

std::string_view OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kHello: return "hello";
    case OpCode::kReset: return "reset";
    case OpCode::kBegin: return "begin";
    case OpCode::kCommit: return "commit";
    case OpCode::kAbort: return "abort";
    case OpCode::kCloseReopen: return "close_reopen";
    case OpCode::kCreateNode: return "create_node";
    case OpCode::kSetText: return "set_text";
    case OpCode::kSetForm: return "set_form";
    case OpCode::kAddChild: return "add_child";
    case OpCode::kAddPart: return "add_part";
    case OpCode::kAddRef: return "add_ref";
    case OpCode::kGetAttr: return "get_attr";
    case OpCode::kSetAttr: return "set_attr";
    case OpCode::kGetKind: return "get_kind";
    case OpCode::kGetText: return "get_text";
    case OpCode::kGetForm: return "get_form";
    case OpCode::kSetContents: return "set_contents";
    case OpCode::kGetContents: return "get_contents";
    case OpCode::kLookupUnique: return "lookup_unique";
    case OpCode::kRangeHundred: return "range_hundred";
    case OpCode::kRangeMillion: return "range_million";
    case OpCode::kChildren: return "children";
    case OpCode::kParent: return "parent";
    case OpCode::kParts: return "parts";
    case OpCode::kPartOf: return "part_of";
    case OpCode::kRefsTo: return "refs_to";
    case OpCode::kRefsFrom: return "refs_from";
    case OpCode::kStorageBytes: return "storage_bytes";
    case OpCode::kBatch: return "batch";
    case OpCode::kChildrenMulti: return "children_multi";
    case OpCode::kGetAttrsMulti: return "get_attrs_multi";
    case OpCode::kClosure1N: return "closure_1n";
    case OpCode::kClosureMN: return "closure_mn";
    case OpCode::kClosureMNAtt: return "closure_mn_att";
    case OpCode::kClosure1NAttSum: return "closure_1n_att_sum";
    case OpCode::kClosure1NAttSet: return "closure_1n_att_set";
    case OpCode::kClosure1NPred: return "closure_1n_pred";
    case OpCode::kClosureMNAttLinkSum: return "closure_mn_att_link_sum";
    case OpCode::kStats: return "stats";
    case OpCode::kPing: return "ping";
    case OpCode::kShardInfo: return "shard_info";
    case OpCode::kReplSubscribe: return "repl_subscribe";
    case OpCode::kReplSegment: return "repl_segment";
    case OpCode::kReplStatus: return "repl_status";
    case OpCode::kReplPromote: return "repl_promote";
    case OpCode::kReplFence: return "repl_fence";
  }
  return "unknown";
}

void EncodeBatch(std::span<const std::string> entries, std::string* dst) {
  util::PutVarint64(dst, entries.size());
  for (const std::string& entry : entries) {
    util::PutLengthPrefixed(dst, entry);
  }
}

bool DecodeBatch(std::string_view body, std::vector<std::string_view>* entries,
                 uint64_t max_entries) {
  entries->clear();
  util::Decoder decoder(body);
  uint64_t count = 0;
  if (!decoder.GetVarint64(&count)) return false;
  if (count > max_entries) return false;
  entries->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view entry;
    if (!decoder.GetLengthPrefixed(&entry)) return false;
    entries->push_back(entry);
  }
  return decoder.Empty();
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
