#include "hypermodel/backends/remote_store.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/coding.h"
#include "util/failpoint.h"

namespace hm::backends {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError("remote: " + what + ": " +
                               std::strerror(errno));
}

void PutNode(std::string* dst, NodeRef node) {
  util::PutVarint64(dst, node);
}

/// Nodes per fused-multi request: keeps any one frame far below the
/// 16 MB ceiling and under the server's kMaxBatchEntries.
constexpr size_t kMultiChunk = 8192;

/// Opcodes safe to re-issue after a transport failure whose progress
/// is unknown (the request may or may not have executed). Read-only
/// opcodes trivially qualify; kReset is epoch-idempotent and
/// kCloseReopen only drops caches, so running either twice is
/// indistinguishable from once. Everything else mutates, and a
/// duplicated mutation is corruption — those surface kUnavailable.
bool RetrySafeOp(server::OpCode op) {
  switch (op) {
    case server::OpCode::kPing:
    case server::OpCode::kReset:
    case server::OpCode::kCloseReopen:
    // Promote and Fence are epoch-idempotent by construction: the
    // handler answers Ok when the requested epoch is already in
    // force, so re-sending after a lost response converges instead
    // of erroring — exactly what a failover client needs.
    case server::OpCode::kReplPromote:
    case server::OpCode::kReplFence:
      return true;
    default:
      return server::IsReadOnlyOp(op);
  }
}

/// Decodes one varint-counted ref list from `decoder`, appending.
util::Status GetRefList(util::Decoder* decoder, std::vector<NodeRef>* out) {
  uint64_t count = 0;
  if (!decoder->GetVarint64(&count)) {
    return util::Status::Corruption("remote: short node-list response");
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t ref = 0;
    if (!decoder->GetVarint64(&ref)) {
      return util::Status::Corruption("remote: short node-list response");
    }
    out->push_back(ref);
  }
  return util::Status::Ok();
}

util::Status GetEdgeList(util::Decoder* decoder, std::vector<RefEdge>* out) {
  uint64_t count = 0;
  if (!decoder->GetVarint64(&count)) {
    return util::Status::Corruption("remote: short edge-list response");
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    RefEdge edge;
    uint64_t ref = 0;
    if (!decoder->GetVarint64(&ref) ||
        !decoder->GetVarSigned64(&edge.offset_from) ||
        !decoder->GetVarSigned64(&edge.offset_to)) {
      return util::Status::Corruption("remote: short edge-list response");
    }
    edge.node = ref;
    out->push_back(edge);
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<RemoteMode> ParseRemoteMode(const std::string& name) {
  if (name == "percall") return RemoteMode::kPerCall;
  if (name == "batched") return RemoteMode::kBatched;
  if (name == "pushdown") return RemoteMode::kPushdown;
  return util::Status::InvalidArgument(
      "bad remote mode '" + name + "' (expected percall|batched|pushdown)");
}

std::string_view RemoteModeName(RemoteMode mode) {
  switch (mode) {
    case RemoteMode::kPerCall:
      return "percall";
    case RemoteMode::kBatched:
      return "batched";
    case RemoteMode::kPushdown:
      return "pushdown";
  }
  return "?";
}

util::Result<RemoteOptions> ParseRemoteAddr(const std::string& addr) {
  RemoteOptions options;
  std::string port = addr;
  size_t colon = addr.rfind(':');
  if (colon != std::string::npos) {
    if (colon == 0) {
      return util::Status::InvalidArgument("bad remote address '" + addr +
                                           "' (expected host:port)");
    }
    options.host = addr.substr(0, colon);
    port = addr.substr(colon + 1);
  }
  char* end = nullptr;
  long value = std::strtol(port.c_str(), &end, 10);
  if (port.empty() || *end != '\0' || value <= 0 || value > 65535) {
    return util::Status::InvalidArgument("bad remote port '" + port + "'");
  }
  options.port = static_cast<uint16_t>(value);
  return options;
}

util::Result<std::unique_ptr<RemoteStore>> RemoteStore::Connect(
    const RemoteOptions& options) {
  std::unique_ptr<RemoteStore> store(new RemoteStore());
  store->options_ = options;
  store->mode_ = options.mode;
  HM_RETURN_IF_ERROR(store->ConnectSocket());
  HM_RETURN_IF_ERROR(store->Hello());
  return store;
}

util::Status RemoteStore::ConnectSocket() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("remote: bad address: " +
                                         options_.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    util::Status status = Errno("connect " + options_.host + ":" +
                                std::to_string(options_.port));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.deadline_ms > 0) {
    // Receives are bounded by poll() in ReadResponse; bound sends the
    // cheap way so a peer that stops draining its socket cannot park
    // us in send() forever either.
    timeval tv{};
    tv.tv_sec = options_.deadline_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((options_.deadline_ms % 1000) *
                                          1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  rx_.clear();
  fd_ = fd;
  return util::Status::Ok();
}

util::Status RemoteStore::Reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  HM_RETURN_IF_ERROR(ConnectSocket());
  static telemetry::Counter* reconnects =
      telemetry::Registry::Global().GetCounter("remote.reconnects");
  reconnects->Add();
  // Re-handshake: checks the version again and re-adopts the
  // server's current reset epoch, so a reset that happened while we
  // were away surfaces as fresh state, not phantom Conflicts.
  return Hello();
}

util::Status RemoteStore::EnsureConnected() {
  if (fd_ >= 0 || in_recovery_) return util::Status::Ok();
  if (options_.max_retries <= 0) {
    return util::Status::IoError("remote: connection is closed");
  }
  // The previous call's failure already surfaced to the caller, so
  // nothing of unknown fate is outstanding — reconnecting here is safe
  // for any opcode, mutations included.
  in_recovery_ = true;
  util::Status last;
  for (int attempt = 1; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 1) Backoff(attempt - 1);
    last = Reconnect();
    if (last.ok()) {
      in_recovery_ = false;
      return last;
    }
    if (fd_ >= 0) {  // connected but the handshake failed: not usable
      ::close(fd_);
      fd_ = -1;
    }
  }
  in_recovery_ = false;
  return util::Status::Unavailable(
      PeerTag() + ": reconnect failed after " +
      std::to_string(options_.max_retries) + " attempts: " +
      last.message());
}

void RemoteStore::Backoff(int attempt) {
  if (options_.backoff_base_ms <= 0) return;
  const int64_t cap = std::max(1, options_.backoff_cap_ms);
  const int shift = std::min(attempt - 1, 20);
  const int64_t ceiling =
      std::min<int64_t>(cap, static_cast<int64_t>(options_.backoff_base_ms)
                                 << shift);
  // Full jitter (sleep uniform[0, ceiling]) decorrelates clients that
  // all lost the same server at the same moment.
  const int64_t ms = static_cast<int64_t>(
      backoff_rng_.NextBounded(static_cast<uint64_t>(ceiling) + 1));
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

util::Status RemoteStore::RetryTransport(
    const char* what, util::Status first,
    const std::function<util::Status()>& once) {
  static telemetry::Counter* retries =
      telemetry::Registry::Global().GetCounter("remote.retries");
  in_recovery_ = true;
  util::Status last = std::move(first);
  for (int attempt = 1; attempt <= options_.max_retries; ++attempt) {
    Backoff(attempt);
    util::Status reconnected = Reconnect();
    if (!reconnected.ok()) {
      if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
      }
      last = std::move(reconnected);
      continue;
    }
    retries->Add();
    last = once();
    if (last.ok() || fd_ >= 0) {
      // The server answered — success or a genuine op-level error;
      // either way recovery is over.
      in_recovery_ = false;
      return last;
    }
  }
  in_recovery_ = false;
  return util::Status::Unavailable(
      PeerTag() + ": " + std::string(what) + " still failing after " +
      std::to_string(options_.max_retries) + " reconnect attempts: " +
      last.message());
}

util::Result<std::unique_ptr<RemoteStore>> RemoteStore::Loopback(
    std::unique_ptr<HyperStore> backend,
    server::ServerOptions server_options, RemoteMode mode,
    RemoteOptions client_options) {
  server_options.host = "127.0.0.1";
  server_options.port = 0;  // ephemeral: never collides with a real one
  auto srv = server::Server::Start(server_options, std::move(backend));
  HM_RETURN_IF_ERROR(srv.status());

  RemoteOptions options = client_options;  // deadline/retry/backoff knobs
  options.host = (*srv)->host();
  options.port = (*srv)->port();
  options.mode = mode;
  auto store = Connect(options);
  HM_RETURN_IF_ERROR(store.status());
  (*store)->owned_server_ = std::move(*srv);
  return std::move(*store);
}

RemoteStore::~RemoteStore() {
  if (fd_ >= 0) ::close(fd_);
  // owned_server_ (if any) stops and joins in its destructor, after
  // the socket above has already signalled EOF to its worker.
}

util::Status RemoteStore::SendPayload(std::string_view payload) {
  if (fd_ < 0) {
    return util::Status::IoError("remote: connection is closed");
  }
  if (HM_FAILPOINT_FIRED("remote/send/error")) {
    ::close(fd_);
    fd_ = -1;
    return util::Status::IoError(
        "remote: injected failure at failpoint remote/send/error");
  }
  std::string frame;
  server::AppendFrame(&frame, payload);
  if (!server::WriteAll(fd_, frame)) {
    ::close(fd_);
    fd_ = -1;
    return Errno("send");
  }
  return util::Status::Ok();
}

util::Status RemoteStore::ReadResponse(util::Status* op_status,
                                       std::string* result) {
  if (fd_ < 0) {
    return util::Status::IoError("remote: connection is closed");
  }
  auto poison = [&](util::Status status) {
    ::close(fd_);
    fd_ = -1;
    return status;
  };
  const bool bounded = options_.deadline_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(bounded ? options_.deadline_ms : 0);
  char chunk[64 * 1024];
  for (;;) {
    std::string_view response;
    size_t frame_len = 0;
    server::FrameResult decoded =
        server::DecodeFrame(rx_, &response, &frame_len);
    if (decoded == server::FrameResult::kOk) {
      std::string_view result_body;
      if (!server::SplitResponse(response, op_status, &result_body)) {
        return poison(
            util::Status::Corruption("remote: malformed response"));
      }
      if (result != nullptr) result->assign(result_body);
      rx_.erase(0, frame_len);
      return util::Status::Ok();
    }
    if (decoded != server::FrameResult::kIncomplete) {
      return poison(util::Status::Corruption(
          "remote: bad response frame (" +
          std::string(server::FrameResultName(decoded)) + ")"));
    }
    if (HM_FAILPOINT_FIRED("remote/recv/error")) {
      return poison(util::Status::IoError(
          "remote: injected failure at failpoint remote/recv/error"));
    }
    if (bounded) {
      // The deadline covers the whole call, not each recv: poll for at
      // most the time remaining, so a server trickling partial frames
      // cannot stretch one call indefinitely. This is the fix for the
      // half-open-socket hang — a dead server now costs deadline_ms,
      // not forever.
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      int ready = 0;
      if (remaining > 0) {
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        ready = ::poll(&pfd, 1, static_cast<int>(remaining));
        if (ready < 0) {
          if (errno == EINTR) continue;
          return poison(Errno("poll"));
        }
      }
      if (ready == 0) {
        static telemetry::Counter* deadline_exceeded =
            telemetry::Registry::Global().GetCounter(
                "remote.deadline_exceeded");
        deadline_exceeded->Add();
        return poison(util::Status::DeadlineExceeded(
            "remote: no response within " +
            std::to_string(options_.deadline_ms) + " ms"));
      }
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return poison(
          util::Status::IoError("remote: server closed the connection"));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return poison(Errno("recv"));
    }
    rx_.append(chunk, static_cast<size_t>(n));
  }
}

telemetry::Counter* RemoteStore::RoundTrips() {
  if (roundtrips_ == nullptr) {
    roundtrips_ = telemetry::Registry::Global().GetCounter(
        "remote." + std::string(RemoteModeName(mode_)) + ".roundtrips");
  }
  return roundtrips_;
}

util::Status RemoteStore::CallOnce(server::OpCode op,
                                   std::string_view body,
                                   std::string* result) {
  RoundTrips()->Add();
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(static_cast<char>(op));
  payload.append(body);
  HM_RETURN_IF_ERROR(SendPayload(payload));
  util::Status op_status;
  HM_RETURN_IF_ERROR(ReadResponse(&op_status, result));
  return op_status;
}

util::Status RemoteStore::Call(server::OpCode op, std::string_view body,
                               std::string* result) {
  HM_RETURN_IF_ERROR(EnsureConnected());
  util::Status status = CallOnce(op, body, result);
  // fd_ still open means the server answered (an op-level error is the
  // caller's business, not a transport fault); fd_ poisoned means the
  // call's fate is unknown and recovery policy kicks in.
  if (status.ok() || fd_ >= 0 || in_recovery_ ||
      options_.max_retries <= 0) {
    return status;
  }
  if (!RetrySafeOp(op)) {
    return util::Status::Unavailable(
        PeerTag() + ": " + std::string(server::OpCodeName(op)) +
        " failed in transit and is not safe to re-send: " +
        status.message());
  }
  return RetryTransport(server::OpCodeName(op).data(), std::move(status),
                        [&] { return CallOnce(op, body, result); });
}

util::Status RemoteStore::CallMany(
    std::span<const std::string> payloads,
    std::vector<std::pair<util::Status, std::string>>* out) {
  HM_RETURN_IF_ERROR(EnsureConnected());
  util::Status status = CallManyOnce(payloads, out);
  if (status.ok() || fd_ >= 0 || in_recovery_ ||
      options_.max_retries <= 0) {
    return status;
  }
  for (const std::string& payload : payloads) {
    if (payload.empty() ||
        !RetrySafeOp(static_cast<server::OpCode>(payload[0]))) {
      return util::Status::Unavailable(
          PeerTag() + ": batched request failed in transit and "
          "contains ops that are not safe to re-send: " +
          status.message());
    }
  }
  // Rerunning the whole call is safe (all retry-safe) and simpler
  // than tracking which responses already arrived: CallManyOnce
  // restarts `out` from scratch.
  return RetryTransport("batched request", std::move(status),
                        [&] { return CallManyOnce(payloads, out); });
}

util::Status RemoteStore::CallManyOnce(
    std::span<const std::string> payloads,
    std::vector<std::pair<util::Status, std::string>>* out) {
  out->clear();
  out->reserve(payloads.size());
  // Chunked so one kBatch frame never brushes the entry or frame-size
  // ceilings regardless of how large a fan-out the caller hands us.
  for (size_t begin = 0; begin < payloads.size(); begin += kMultiChunk) {
    std::span<const std::string> chunk =
        payloads.subspan(begin, std::min(kMultiChunk,
                                         payloads.size() - begin));
    std::string body;
    util::PutVarint64(&body, chunk.size());
    for (const std::string& payload : chunk) {
      util::PutLengthPrefixed(&body, payload);
    }
    std::string result;
    HM_RETURN_IF_ERROR(Call(server::OpCode::kBatch, body, &result));
    std::vector<std::string_view> subs;
    if (!server::DecodeBatch(result, &subs, chunk.size()) ||
        subs.size() != chunk.size()) {
      return util::Status::Corruption("remote: bad batch response");
    }
    for (std::string_view sub : subs) {
      util::Status sub_status;
      std::string_view sub_body;
      if (!server::SplitResponse(sub, &sub_status, &sub_body)) {
        return util::Status::Corruption("remote: bad batch response");
      }
      out->emplace_back(std::move(sub_status), std::string(sub_body));
    }
  }
  return util::Status::Ok();
}

util::Status RemoteStore::Hello() {
  std::string hello_body;
  util::PutVarint64(&hello_body, server::kWireVersion);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kHello, hello_body, &result));
  util::Decoder decoder(result);
  std::string_view name;
  if (!decoder.Skip(1) || !decoder.GetLengthPrefixed(&name)) {
    return util::Status::Corruption("remote: short Hello response");
  }
  const auto version = static_cast<uint8_t>(result[0]);
  if (version != server::kWireVersion) {
    return util::Status::VersionMismatch(
        PeerTag() + ": server speaks wire v" + std::to_string(version) +
        ", client speaks v" + std::to_string(server::kWireVersion));
  }
  server_backend_ = std::string(name);
  return util::Status::Ok();
}

util::Status RemoteStore::ResetServer() {
  return Call(server::OpCode::kReset, {}, nullptr);
}

util::Status RemoteStore::Ping() {
  return Call(server::OpCode::kPing, {}, nullptr);
}

util::Status RemoteStore::ServerStats(telemetry::Snapshot* out) {
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kStats, {}, &result));
  auto snapshot = telemetry::Snapshot::Deserialize(result);
  HM_RETURN_IF_ERROR(snapshot.status());
  *out = std::move(*snapshot);
  return util::Status::Ok();
}

util::Status RemoteStore::Begin() {
  return Call(server::OpCode::kBegin, {}, nullptr);
}

util::Status RemoteStore::Commit() {
  return Call(server::OpCode::kCommit, {}, nullptr);
}

util::Status RemoteStore::Abort() {
  return Call(server::OpCode::kAbort, {}, nullptr);
}

util::Status RemoteStore::CloseReopen() {
  return Call(server::OpCode::kCloseReopen, {}, nullptr);
}

util::Result<NodeRef> RemoteStore::CreateNode(const NodeAttrs& attrs,
                                              NodeRef near) {
  std::string body;
  util::PutVarSigned64(&body, attrs.unique_id);
  util::PutVarSigned64(&body, attrs.ten);
  util::PutVarSigned64(&body, attrs.hundred);
  util::PutVarSigned64(&body, attrs.thousand);
  util::PutVarSigned64(&body, attrs.million);
  util::PutVarint64(&body, static_cast<uint64_t>(attrs.kind));
  PutNode(&body, near);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kCreateNode, body, &result));
  util::Decoder decoder(result);
  uint64_t ref = 0;
  if (!decoder.GetVarint64(&ref)) {
    return util::Status::Corruption("remote: short CreateNode response");
  }
  return NodeRef{ref};
}

util::Status RemoteStore::SetText(NodeRef node, std::string_view text) {
  std::string body;
  PutNode(&body, node);
  util::PutLengthPrefixed(&body, text);
  return Call(server::OpCode::kSetText, body, nullptr);
}

util::Status RemoteStore::SetForm(NodeRef node, const util::Bitmap& form) {
  std::string body;
  PutNode(&body, node);
  util::PutLengthPrefixed(&body, form.Serialize());
  return Call(server::OpCode::kSetForm, body, nullptr);
}

util::Status RemoteStore::AddChild(NodeRef parent, NodeRef child) {
  std::string body;
  PutNode(&body, parent);
  PutNode(&body, child);
  return Call(server::OpCode::kAddChild, body, nullptr);
}

util::Status RemoteStore::AddPart(NodeRef owner, NodeRef part) {
  std::string body;
  PutNode(&body, owner);
  PutNode(&body, part);
  return Call(server::OpCode::kAddPart, body, nullptr);
}

util::Status RemoteStore::AddRef(NodeRef from, NodeRef to,
                                 int64_t offset_from, int64_t offset_to) {
  std::string body;
  PutNode(&body, from);
  PutNode(&body, to);
  util::PutVarSigned64(&body, offset_from);
  util::PutVarSigned64(&body, offset_to);
  return Call(server::OpCode::kAddRef, body, nullptr);
}

util::Result<int64_t> RemoteStore::GetAttr(NodeRef node, Attr attr) {
  std::string body;
  PutNode(&body, node);
  util::PutVarint64(&body, static_cast<uint64_t>(attr));
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kGetAttr, body, &result));
  util::Decoder decoder(result);
  int64_t value = 0;
  if (!decoder.GetVarSigned64(&value)) {
    return util::Status::Corruption("remote: short GetAttr response");
  }
  return value;
}

util::Status RemoteStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  std::string body;
  PutNode(&body, node);
  util::PutVarint64(&body, static_cast<uint64_t>(attr));
  util::PutVarSigned64(&body, value);
  return Call(server::OpCode::kSetAttr, body, nullptr);
}

util::Result<NodeKind> RemoteStore::GetKind(NodeRef node) {
  std::string body;
  PutNode(&body, node);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kGetKind, body, &result));
  if (result.size() != 1 || static_cast<uint8_t>(result[0]) > 3) {
    return util::Status::Corruption("remote: bad GetKind response");
  }
  return static_cast<NodeKind>(result[0]);
}

util::Result<std::string> RemoteStore::StringCall(server::OpCode op,
                                                  NodeRef node) {
  std::string body;
  PutNode(&body, node);
  std::string result;
  HM_RETURN_IF_ERROR(Call(op, body, &result));
  util::Decoder decoder(result);
  std::string_view text;
  if (!decoder.GetLengthPrefixed(&text)) {
    return util::Status::Corruption("remote: short string response");
  }
  return std::string(text);
}

util::Result<std::string> RemoteStore::GetText(NodeRef node) {
  return StringCall(server::OpCode::kGetText, node);
}

util::Result<util::Bitmap> RemoteStore::GetForm(NodeRef node) {
  auto serialized = StringCall(server::OpCode::kGetForm, node);
  HM_RETURN_IF_ERROR(serialized.status());
  return util::Bitmap::Deserialize(*serialized);
}

util::Status RemoteStore::SetContents(NodeRef node,
                                      std::string_view data) {
  std::string body;
  PutNode(&body, node);
  util::PutLengthPrefixed(&body, data);
  return Call(server::OpCode::kSetContents, body, nullptr);
}

util::Result<std::string> RemoteStore::GetContents(NodeRef node) {
  return StringCall(server::OpCode::kGetContents, node);
}

util::Result<NodeRef> RemoteStore::LookupUnique(int64_t unique_id) {
  std::string body;
  util::PutVarSigned64(&body, unique_id);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kLookupUnique, body, &result));
  util::Decoder decoder(result);
  uint64_t ref = 0;
  if (!decoder.GetVarint64(&ref)) {
    return util::Status::Corruption("remote: short LookupUnique response");
  }
  return NodeRef{ref};
}

util::Status RemoteStore::RefListCall(server::OpCode op,
                                      std::string_view body,
                                      std::vector<NodeRef>* out) {
  std::string result;
  HM_RETURN_IF_ERROR(Call(op, body, &result));
  util::Decoder decoder(result);
  return GetRefList(&decoder, out);
}

util::Status RemoteStore::RangeHundred(int64_t lo, int64_t hi,
                                       std::vector<NodeRef>* out) {
  std::string body;
  util::PutVarSigned64(&body, lo);
  util::PutVarSigned64(&body, hi);
  return RefListCall(server::OpCode::kRangeHundred, body, out);
}

util::Status RemoteStore::RangeMillion(int64_t lo, int64_t hi,
                                       std::vector<NodeRef>* out) {
  std::string body;
  util::PutVarSigned64(&body, lo);
  util::PutVarSigned64(&body, hi);
  return RefListCall(server::OpCode::kRangeMillion, body, out);
}

util::Status RemoteStore::Children(NodeRef node,
                                   std::vector<NodeRef>* out) {
  std::string body;
  PutNode(&body, node);
  return RefListCall(server::OpCode::kChildren, body, out);
}

util::Result<NodeRef> RemoteStore::Parent(NodeRef node) {
  std::string body;
  PutNode(&body, node);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kParent, body, &result));
  util::Decoder decoder(result);
  uint64_t parent = 0;
  if (!decoder.GetVarint64(&parent)) {
    return util::Status::Corruption("remote: short Parent response");
  }
  return NodeRef{parent};
}

util::Status RemoteStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  std::string body;
  PutNode(&body, node);
  return RefListCall(server::OpCode::kParts, body, out);
}

util::Status RemoteStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  std::string body;
  PutNode(&body, node);
  return RefListCall(server::OpCode::kPartOf, body, out);
}

util::Status RemoteStore::EdgeListCall(server::OpCode op, NodeRef node,
                                       std::vector<RefEdge>* out) {
  std::string body;
  PutNode(&body, node);
  std::string result;
  HM_RETURN_IF_ERROR(Call(op, body, &result));
  util::Decoder decoder(result);
  return GetEdgeList(&decoder, out);
}

util::Status RemoteStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  return EdgeListCall(server::OpCode::kRefsTo, node, out);
}

util::Status RemoteStore::RefsFrom(NodeRef node,
                                   std::vector<RefEdge>* out) {
  return EdgeListCall(server::OpCode::kRefsFrom, node, out);
}

util::Result<uint64_t> RemoteStore::StorageBytes() {
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kStorageBytes, {}, &result));
  util::Decoder decoder(result);
  uint64_t bytes = 0;
  if (!decoder.GetVarint64(&bytes)) {
    return util::Status::Corruption("remote: short StorageBytes response");
  }
  return bytes;
}

util::Status RemoteStore::ShardInfo(uint32_t* shard_id,
                                    uint32_t* shard_count) {
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kShardInfo, "", &result));
  util::Decoder decoder(result);
  uint64_t id = 0;
  uint64_t count = 0;
  if (!decoder.GetVarint64(&id) || !decoder.GetVarint64(&count)) {
    return util::Status::Corruption("remote: short ShardInfo response");
  }
  *shard_id = static_cast<uint32_t>(id);
  *shard_count = static_cast<uint32_t>(count);
  return util::Status::Ok();
}

util::Status RemoteStore::ReplSubscribe(uint64_t follower_id,
                                        uint64_t resume_seq,
                                        ReplChain* out) {
  std::string body;
  util::PutVarint64(&body, server::kWireVersion);
  util::PutVarint64(&body, follower_id);
  util::PutVarint64(&body, resume_seq);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kReplSubscribe, body, &result));
  util::Decoder decoder(result);
  if (!decoder.GetVarint64(&out->epoch) ||
      !decoder.GetVarint64(&out->next_lsn) ||
      !decoder.GetVarint64(&out->oldest_seq)) {
    return util::Status::Corruption("remote: short ReplSubscribe response");
  }
  return util::Status::Ok();
}

util::Status RemoteStore::ReplFetch(uint64_t seq, uint64_t offset,
                                    uint64_t max_bytes, std::string* chunk,
                                    bool* sealed, uint64_t* flushed_size) {
  std::string body;
  util::PutVarint64(&body, seq);
  util::PutVarint64(&body, offset);
  util::PutVarint64(&body, max_bytes);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kReplSegment, body, &result));
  if (result.empty()) {
    return util::Status::Corruption("remote: short ReplSegment response");
  }
  *sealed = (static_cast<uint8_t>(result[0]) & 1) != 0;
  util::Decoder decoder(std::string_view(result).substr(1));
  std::string_view bytes;
  if (!decoder.GetVarint64(flushed_size) ||
      !decoder.GetLengthPrefixed(&bytes)) {
    return util::Status::Corruption("remote: short ReplSegment response");
  }
  chunk->assign(bytes);
  return util::Status::Ok();
}

util::Status RemoteStore::ReplReport(uint64_t follower_id,
                                     uint64_t replayed_lsn, ReplPeer* out) {
  std::string body;
  util::PutVarint64(&body, follower_id);
  util::PutVarint64(&body, replayed_lsn);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kReplStatus, body, &result));
  if (result.empty()) {
    return util::Status::Corruption("remote: short ReplStatus response");
  }
  out->role = static_cast<uint8_t>(result[0]);
  util::Decoder decoder(std::string_view(result).substr(1));
  if (!decoder.GetVarint64(&out->epoch) ||
      !decoder.GetVarint64(&out->durable_lsn)) {
    return util::Status::Corruption("remote: short ReplStatus response");
  }
  return util::Status::Ok();
}

util::Status RemoteStore::ReplPromote(uint64_t proposed_epoch,
                                      uint64_t* epoch) {
  std::string body;
  util::PutVarint64(&body, proposed_epoch);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kReplPromote, body, &result));
  util::Decoder decoder(result);
  if (!decoder.GetVarint64(epoch)) {
    return util::Status::Corruption("remote: short ReplPromote response");
  }
  return util::Status::Ok();
}

util::Status RemoteStore::ReplFence(uint64_t fencing_epoch,
                                    uint64_t* epoch) {
  std::string body;
  util::PutVarint64(&body, fencing_epoch);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kReplFence, body, &result));
  util::Decoder decoder(result);
  if (!decoder.GetVarint64(epoch)) {
    return util::Status::Corruption("remote: short ReplFence response");
  }
  return util::Status::Ok();
}

// --- FrontierFetch ----------------------------------------------------

util::Status RemoteStore::CallPerNode(
    server::OpCode op, std::span<const NodeRef> nodes,
    const std::function<util::Status(util::Decoder*)>& decode) {
  std::vector<std::string> payloads;
  payloads.reserve(nodes.size());
  for (NodeRef node : nodes) {
    std::string payload(1, static_cast<char>(op));
    PutNode(&payload, node);
    payloads.push_back(std::move(payload));
  }
  std::vector<std::pair<util::Status, std::string>> results;
  HM_RETURN_IF_ERROR(CallMany(payloads, &results));
  for (auto& [status, body] : results) {
    HM_RETURN_IF_ERROR(status);
    util::Decoder decoder(body);
    HM_RETURN_IF_ERROR(decode(&decoder));
  }
  return util::Status::Ok();
}

util::Status RemoteStore::CallFused(
    server::OpCode op, std::string_view prefix,
    std::span<const NodeRef> nodes,
    const std::function<util::Status(util::Decoder*)>& decode) {
  for (size_t begin = 0; begin < nodes.size(); begin += kMultiChunk) {
    std::span<const NodeRef> chunk =
        nodes.subspan(begin, std::min(kMultiChunk, nodes.size() - begin));
    std::string body(prefix);
    util::PutVarint64(&body, chunk.size());
    for (NodeRef node : chunk) PutNode(&body, node);
    std::string result;
    HM_RETURN_IF_ERROR(Call(op, body, &result));
    util::Decoder decoder(result);
    uint64_t count = 0;
    if (!decoder.GetVarint64(&count) || count != chunk.size()) {
      return util::Status::Corruption("remote: bad " +
                                      std::string(server::OpCodeName(op)) +
                                      " response");
    }
    for (uint64_t i = 0; i < count; ++i) {
      HM_RETURN_IF_ERROR(decode(&decoder));
    }
  }
  return util::Status::Ok();
}

util::Status RemoteStore::ChildrenMulti(std::span<const NodeRef> nodes,
                                        RefLists* out) {
  if (mode_ == RemoteMode::kPerCall) {
    return StoreFetch(this).ChildrenMulti(nodes, out);
  }
  out->clear();
  return CallFused(server::OpCode::kChildrenMulti, {}, nodes,
                   [out](util::Decoder* decoder) {
                     HM_RETURN_IF_ERROR(GetRefList(decoder, &out->items));
                     out->Close();
                     return util::Status::Ok();
                   });
}

util::Status RemoteStore::GetAttrsMulti(std::span<const NodeRef> nodes,
                                        Attr attr,
                                        std::vector<int64_t>* values) {
  if (mode_ == RemoteMode::kPerCall) {
    return StoreFetch(this).GetAttrsMulti(nodes, attr, values);
  }
  values->clear();
  values->reserve(nodes.size());
  std::string prefix;
  util::PutVarint64(&prefix, static_cast<uint64_t>(attr));
  return CallFused(server::OpCode::kGetAttrsMulti, prefix, nodes,
                   [values](util::Decoder* decoder) {
                     int64_t value = 0;
                     if (!decoder->GetVarSigned64(&value)) {
                       return util::Status::Corruption(
                           "remote: short get_attrs_multi response");
                     }
                     values->push_back(value);
                     return util::Status::Ok();
                   });
}

util::Status RemoteStore::PartsMulti(std::span<const NodeRef> nodes,
                                     RefLists* out) {
  if (mode_ == RemoteMode::kPerCall) {
    return StoreFetch(this).PartsMulti(nodes, out);
  }
  out->clear();
  return CallPerNode(server::OpCode::kParts, nodes,
                     [out](util::Decoder* decoder) {
                       HM_RETURN_IF_ERROR(GetRefList(decoder, &out->items));
                       out->Close();
                       return util::Status::Ok();
                     });
}

util::Status RemoteStore::RefsToMulti(std::span<const NodeRef> nodes,
                                      EdgeLists* out) {
  if (mode_ == RemoteMode::kPerCall) {
    return StoreFetch(this).RefsToMulti(nodes, out);
  }
  out->clear();
  return CallPerNode(server::OpCode::kRefsTo, nodes,
                     [out](util::Decoder* decoder) {
                       HM_RETURN_IF_ERROR(GetEdgeList(decoder, &out->items));
                       out->Close();
                       return util::Status::Ok();
                     });
}

util::Status RemoteStore::SetAttrsMulti(std::span<const NodeRef> nodes,
                                        Attr attr,
                                        std::span<const int64_t> values) {
  if (mode_ == RemoteMode::kPerCall) {
    return StoreFetch(this).SetAttrsMulti(nodes, attr, values);
  }
  if (nodes.size() != values.size()) {
    return util::Status::InvalidArgument(
        "SetAttrsMulti: nodes/values size mismatch");
  }
  std::vector<std::string> payloads;
  payloads.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::string payload(1, static_cast<char>(server::OpCode::kSetAttr));
    PutNode(&payload, nodes[i]);
    util::PutVarint64(&payload, static_cast<uint64_t>(attr));
    util::PutVarSigned64(&payload, values[i]);
    payloads.push_back(std::move(payload));
  }
  std::vector<std::pair<util::Status, std::string>> results;
  HM_RETURN_IF_ERROR(CallMany(payloads, &results));
  for (auto& [status, body] : results) {
    HM_RETURN_IF_ERROR(status);
  }
  return util::Status::Ok();
}

// --- TraversalCapable -------------------------------------------------
//
// In pushdown mode each kernel is one opcode the server runs over its
// backend; otherwise the client runs the same engine over this store's
// own frontier fetches.

util::Status RemoteStore::BulkGetAttr(std::span<const NodeRef> nodes,
                                      Attr attr,
                                      std::vector<int64_t>* values) {
  return GetAttrsMulti(nodes, attr, values);
}

util::Status RemoteStore::TravClosure1N(NodeRef start,
                                        std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1N(this, start, out);
  }
  std::string body;
  PutNode(&body, start);
  out->clear();
  return RefListCall(server::OpCode::kClosure1N, body, out);
}

util::Result<int64_t> RemoteStore::TravClosure1NAttSum(NodeRef start,
                                                       uint64_t* visited) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NAttSum(this, start, visited);
  }
  std::string body;
  PutNode(&body, start);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kClosure1NAttSum, body, &result));
  util::Decoder decoder(result);
  uint64_t count = 0;
  int64_t sum = 0;
  if (!decoder.GetVarint64(&count) || !decoder.GetVarSigned64(&sum)) {
    return util::Status::Corruption("remote: short Closure1NAttSum response");
  }
  if (visited != nullptr) *visited = count;
  return sum;
}

util::Result<uint64_t> RemoteStore::TravClosure1NAttSet(NodeRef start) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NAttSet(this, start);
  }
  std::string body;
  PutNode(&body, start);
  std::string result;
  HM_RETURN_IF_ERROR(Call(server::OpCode::kClosure1NAttSet, body, &result));
  util::Decoder decoder(result);
  uint64_t count = 0;
  if (!decoder.GetVarint64(&count)) {
    return util::Status::Corruption("remote: short Closure1NAttSet response");
  }
  return count;
}

util::Status RemoteStore::TravClosure1NPred(NodeRef start, int64_t lo,
                                            int64_t hi,
                                            std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NPred(this, start, lo, hi, out);
  }
  std::string body;
  PutNode(&body, start);
  util::PutVarSigned64(&body, lo);
  util::PutVarSigned64(&body, hi);
  out->clear();
  return RefListCall(server::OpCode::kClosure1NPred, body, out);
}

util::Status RemoteStore::TravClosureMN(NodeRef start,
                                        std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMN(this, start, out);
  }
  std::string body;
  PutNode(&body, start);
  out->clear();
  return RefListCall(server::OpCode::kClosureMN, body, out);
}

util::Status RemoteStore::TravClosureMNAtt(NodeRef start, int depth,
                                           std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMNAtt(this, start, depth, out);
  }
  std::string body;
  PutNode(&body, start);
  util::PutVarint64(&body, static_cast<uint64_t>(depth));
  out->clear();
  return RefListCall(server::OpCode::kClosureMNAtt, body, out);
}

util::Status RemoteStore::TravClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMNAttLinkSum(this, start, depth, out);
  }
  std::string body;
  PutNode(&body, start);
  util::PutVarint64(&body, static_cast<uint64_t>(depth));
  std::string result;
  HM_RETURN_IF_ERROR(
      Call(server::OpCode::kClosureMNAttLinkSum, body, &result));
  util::Decoder decoder(result);
  uint64_t count = 0;
  if (!decoder.GetVarint64(&count)) {
    return util::Status::Corruption(
        "remote: short ClosureMNAttLinkSum response");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    NodeDistance d;
    uint64_t node = 0;
    if (!decoder.GetVarint64(&node) || !decoder.GetVarSigned64(&d.distance)) {
      return util::Status::Corruption(
          "remote: short ClosureMNAttLinkSum response");
    }
    d.node = node;
    out->push_back(d);
  }
  return util::Status::Ok();
}

}  // namespace hm::backends
