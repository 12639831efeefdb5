#include "server/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <thread>

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

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

Received RecvSome(int fd, char* buf, size_t cap,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline) {
  using Clock = std::chrono::steady_clock;
  auto got = [](ssize_t n, bool spun) {
    return n > 0 ? Received{RecvOutcome::kData, static_cast<size_t>(n), spun}
                 : Received{RecvOutcome::kClosed, 0, spun};
  };
  Clock::time_point spin_end = Clock::now() + kRecvSpinBudget;
  if (deadline.has_value() && *deadline < spin_end) spin_end = *deadline;
  // Spin: non-blocking tries until bytes, a close, or the budget ends.
  // Each miss yields the CPU: when the peer thread was woken onto this
  // CPU, a spin that kept it would hold off the very reply it waits
  // for until the budget ran out, on every hop.
  for (;;) {
    ssize_t n = ::recv(fd, buf, cap, MSG_DONTWAIT);
    if (n >= 0) return got(n, true);
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return {RecvOutcome::kError, 0, true};
    }
    if (Clock::now() >= spin_end) break;
    std::this_thread::yield();
  }
  // Block. With a deadline, poll for the time left first (rounded up,
  // so the wait never ends before its deadline) and recv once readable.
  for (;;) {
    if (deadline.has_value()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - Clock::now());
      if (left.count() <= 0) return {RecvOutcome::kTimedOut, 0, false};
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno != EINTR) {
        return {RecvOutcome::kError, 0, false};
      }
      if (ready <= 0) continue;
    }
    ssize_t n = ::recv(fd, buf, cap, 0);
    if (n >= 0) return got(n, false);
    if (errno != EINTR) return {RecvOutcome::kError, 0, false};
  }
}

}  // namespace hm::server
