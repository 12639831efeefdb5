#include "hypermodel/backends/remote_store.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <type_traits>

#include "util/check.h"
#include "util/failpoint.h"

namespace hm::backends {

namespace calls = server::calls;

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError("remote: " + what + ": " +
                               std::strerror(errno));
}

/// Entries per fused-multi request: keeps any one frame far below the
/// 16 MB ceiling and under the server's kMaxBatchEntries.
constexpr size_t kMultiChunk = 8192;

/// Contents bytes per fused-multi request. With kMultiChunk entries of
/// at most ~80 fixed bytes each, a frame stays near 5 MiB, well under
/// the 16 MiB ceiling; a single entry larger than this travels alone.
constexpr size_t kMultiBytes = 4u << 20;

/// `arg` cut to the nodes [begin, begin + n) of one fused frame when it
/// holds a value per node (a span); other arguments go to every frame.
template <typename T>
const T& Chunk(const T& arg, size_t, size_t) {
  return arg;
}
template <typename T>
std::span<const T> Chunk(std::span<const T> arg, size_t begin, size_t n) {
  return arg.subspan(begin, n);
}

/// The variable-length bytes entry i adds to a fused frame: its
/// contents, when `arg` holds them; nothing for every other argument.
template <typename T>
size_t EntryBytes(const T&, size_t) {
  return 0;
}
size_t EntryBytes(std::span<const std::string_view> arg, size_t i) {
  return arg[i].size();
}

}  // namespace

util::Status MalformedReply(server::OpCode op) {
  return util::Status::Corruption("remote: malformed " +
                                  std::string(server::OpCodeName(op)) +
                                  " response");
}

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
    // Receives are bounded by RecvSome in ReadResponse; bound sends the
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

util::Status RemoteStore::Resend(std::string_view payload,
                                std::string* result, util::Status first) {
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
    last = CallOnce(payload, result);
    if (last.ok() || fd_ >= 0) {
      // The server answered — success or a genuine op-level error;
      // either way recovery is over.
      in_recovery_ = false;
      return last;
    }
  }
  in_recovery_ = false;
  return util::Status::Unavailable(
      PeerTag() + ": " +
      std::string(server::OpCodeName(
          static_cast<server::OpCode>(payload[0]))) +
      " still failing after " + std::to_string(options_.max_retries) +
      " reconnect attempts: " + last.message());
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
  static telemetry::Counter* recv_spun =
      telemetry::Registry::Global().GetCounter("remote.recv.spun");
  static telemetry::Counter* recv_blocked =
      telemetry::Registry::Global().GetCounter("remote.recv.blocked");
  static telemetry::Counter* deadline_exceeded =
      telemetry::Registry::Global().GetCounter("remote.deadline_exceeded");
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
    // The deadline covers the whole call, spin included, not each
    // receive: a server trickling partial frames cannot stretch one call
    // indefinitely, and a dead one costs deadline_ms, not forever.
    server::Received got = server::RecvSome(
        fd_, chunk, sizeof(chunk),
        bounded ? std::optional(deadline) : std::nullopt);
    (got.spun ? recv_spun : recv_blocked)->Add();
    switch (got.outcome) {
      case server::RecvOutcome::kData:
        rx_.append(chunk, got.bytes);
        break;
      case server::RecvOutcome::kClosed:
        return poison(
            util::Status::IoError("remote: server closed the connection"));
      case server::RecvOutcome::kTimedOut:
        deadline_exceeded->Add();
        return poison(util::Status::DeadlineExceeded(
            "remote: no response within " +
            std::to_string(options_.deadline_ms) + " ms"));
      case server::RecvOutcome::kError:
        return poison(Errno("recv"));
    }
  }
}

telemetry::Counter* RemoteStore::RoundTrips() {
  if (roundtrips_ == nullptr) {
    roundtrips_ = telemetry::Registry::Global().GetCounter(
        "remote." + std::string(RemoteModeName(mode_)) + ".roundtrips");
  }
  return roundtrips_;
}

util::Status RemoteStore::Receive(std::string* result) {
  util::Status op_status;
  HM_RETURN_IF_ERROR(ReadResponse(&op_status, result));
  return op_status;
}

util::Status RemoteStore::CallOnce(std::string_view payload,
                                   std::string* result) {
  RoundTrips()->Add();
  HM_RETURN_IF_ERROR(SendPayload(payload));
  return Receive(result);
}

util::Status RemoteStore::Post(std::string payload) {
  HM_CHECK(!posted_);  // one outstanding request per connection
  // A reconnect runs Hello through Call, which posts a request of its
  // own: connect before recording this one.
  HM_RETURN_IF_ERROR(EnsureConnected());
  pending_ = std::move(payload);
  posted_ = true;
  RoundTrips()->Add();
  sent_ = SendPayload(pending_);
  return util::Status::Ok();
}

util::Status RemoteStore::Await(std::string* result) {
  HM_CHECK(posted_);
  posted_ = false;
  util::Status status = sent_.ok() ? Receive(result) : std::move(sent_);
  // fd_ still open means the server answered (an op-level error is the
  // caller's business, not a transport fault); fd_ poisoned means the
  // request's fate is unknown and recovery policy kicks in.
  if (status.ok() || fd_ >= 0 || in_recovery_ ||
      options_.max_retries <= 0) {
    return status;
  }
  // Taken out before Resend reconnects: its Hello posts a request.
  const std::string payload = std::move(pending_);
  const auto op = static_cast<server::OpCode>(payload[0]);
  if (!server::IsRetrySafe(server::ClassOf(op))) {
    return util::Status::Unavailable(
        PeerTag() + ": " + std::string(server::OpCodeName(op)) +
        " failed in transit and is not safe to re-send: " +
        status.message());
  }
  return Resend(payload, result, std::move(status));
}

util::Status RemoteStore::Call(std::string payload, std::string* result) {
  HM_RETURN_IF_ERROR(Post(std::move(payload)));
  return Await(result);
}

util::Status RemoteStore::RunFrames(Frames frames) {
  std::string body;
  for (Frame& frame : frames) {
    HM_RETURN_IF_ERROR(Call(std::move(frame.request), &body));
    HM_RETURN_IF_ERROR(frame.decode(body));
  }
  return util::Status::Ok();
}

void FanOut(std::span<const std::unique_ptr<RemoteStore>> clients,
            std::span<Frame* const> frames,
            std::vector<util::Status>* statuses) {
  statuses->assign(clients.size(), util::Status::Ok());
  std::vector<bool> posted(clients.size(), false);
  for (size_t i = 0; i < clients.size(); ++i) {
    if (clients[i] == nullptr || frames[i] == nullptr) continue;
    (*statuses)[i] = clients[i]->Post(std::move(frames[i]->request));
    posted[i] = (*statuses)[i].ok();
  }
  std::string body;
  for (size_t i = 0; i < clients.size(); ++i) {
    if (!posted[i]) continue;
    util::Status status = clients[i]->Await(&body);
    (*statuses)[i] = status.ok() ? frames[i]->decode(body) : std::move(status);
  }
}

template <typename C, typename... A>
util::Status RemoteStore::InvokeInto(typename C::Reply* reply,
                                     const A&... args) {
  // DecodeReply appends a list reply; the list reads replace *reply,
  // and leave it empty when the call fails.
  constexpr bool kList = requires { reply->clear(); };
  if constexpr (kList) reply->clear();
  std::string result;
  HM_RETURN_IF_ERROR(Call(C::Request(args...), &result));
  if (!C::DecodeReply(result, reply)) {
    if constexpr (kList) reply->clear();
    return MalformedReply(C::kOpCode);
  }
  return util::Status::Ok();
}

template <typename C, typename... A>
auto RemoteStore::Invoke(const A&... args) {
  using Reply = typename C::Reply;
  Reply reply{};
  util::Status status = InvokeInto<C>(&reply, args...);
  if constexpr (std::is_same_v<Reply, server::Empty>) {
    return status;
  } else {
    if (!status.ok()) return util::Result<Reply>(std::move(status));
    return util::Result<Reply>(std::move(reply));
  }
}

template <typename C, typename... A>
Frames RemoteStore::FusedFrames(typename C::Reply* out, size_t count,
                                const A&... args) {
  const size_t chunk = mode_ == RemoteMode::kPerCall ? 1 : kMultiChunk;
  Frames frames;
  for (size_t begin = 0, n = 0; begin < count; begin += n) {
    size_t bytes = 0;
    for (n = 0; n < chunk && begin + n < count; ++n) {
      bytes += (EntryBytes(args, begin + n) + ... + size_t{0});
      if (n > 0 && bytes > kMultiBytes) break;
    }
    frames.push_back(
        {C::Request(Chunk(args, begin, n)...),
         [out, n](std::string_view body) {
           if constexpr (std::is_same_v<typename C::Reply, server::Empty>) {
             server::Empty none;
             if (C::DecodeReply(body, &none)) return util::Status::Ok();
           } else {
             const size_t before = out->size();
             if (C::DecodeReply(body, out) && out->size() - before == n) {
               return util::Status::Ok();
             }
           }
           return MalformedReply(C::kOpCode);
         }});
  }
  return frames;
}

util::Status RemoteStore::Hello() {
  server::HelloReply reply;
  HM_RETURN_IF_ERROR(
      InvokeInto<calls::Hello>(&reply, uint64_t{server::kWireVersion}));
  if (reply.version != server::kWireVersion) {
    return util::Status::VersionMismatch(
        PeerTag() + ": server speaks wire v" + std::to_string(reply.version) +
        ", client speaks v" + std::to_string(server::kWireVersion));
  }
  server_backend_ = std::move(reply.backend);
  return util::Status::Ok();
}

util::Status RemoteStore::ResetServer() { return Invoke<calls::Reset>(); }

util::Status RemoteStore::Ping() { return Invoke<calls::Ping>(); }

util::Status RemoteStore::ServerStats(telemetry::Snapshot* out) {
  return InvokeInto<calls::Stats>(out);
}

util::Status RemoteStore::Begin() { return Invoke<calls::Begin>(); }

util::Status RemoteStore::Commit() { return Invoke<calls::Commit>(); }

util::Status RemoteStore::Abort() { return Invoke<calls::Abort>(); }

util::Status RemoteStore::CloseReopen() {
  return Invoke<calls::CloseReopen>();
}

util::Result<NodeRef> RemoteStore::CreateNode(const NodeAttrs& attrs,
                                              NodeRef near) {
  return CreateOne(attrs, near);
}

util::Status RemoteStore::SetText(NodeRef node, std::string_view text) {
  return Invoke<calls::SetText>(node, text);
}

util::Status RemoteStore::SetForm(NodeRef node, const util::Bitmap& form) {
  return Invoke<calls::SetForm>(node, form);
}

util::Status RemoteStore::AddChild(NodeRef parent, NodeRef child) {
  return AddChildrenMulti({&parent, 1}, {&child, 1});
}

util::Status RemoteStore::AddPart(NodeRef owner, NodeRef part) {
  return AddPartsMulti({&owner, 1}, {&part, 1});
}

util::Status RemoteStore::AddRef(NodeRef from, NodeRef to,
                                 int64_t offset_from, int64_t offset_to) {
  return AddRefsMulti({&from, 1}, {&to, 1}, {&offset_from, 1},
                      {&offset_to, 1});
}

util::Result<int64_t> RemoteStore::GetAttr(NodeRef node, Attr attr) {
  return Invoke<calls::GetAttr>(node, attr);
}

util::Status RemoteStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  return Invoke<calls::SetAttr>(node, attr, value);
}

util::Result<NodeKind> RemoteStore::GetKind(NodeRef node) {
  return Invoke<calls::GetKind>(node);
}

util::Result<std::string> RemoteStore::GetText(NodeRef node) {
  return Invoke<calls::GetText>(node);
}

util::Result<util::Bitmap> RemoteStore::GetForm(NodeRef node) {
  return Invoke<calls::GetForm>(node);
}

util::Status RemoteStore::SetContents(NodeRef node,
                                      std::string_view data) {
  return Invoke<calls::SetContents>(node, data);
}

util::Result<std::string> RemoteStore::GetContents(NodeRef node) {
  return Invoke<calls::GetContents>(node);
}

util::Result<NodeRef> RemoteStore::LookupUnique(int64_t unique_id) {
  return Invoke<calls::LookupUnique>(unique_id);
}

util::Status RemoteStore::RangeHundred(int64_t lo, int64_t hi,
                                       std::vector<NodeRef>* out) {
  return InvokeInto<calls::RangeHundred>(out, lo, hi);
}

util::Status RemoteStore::RangeMillion(int64_t lo, int64_t hi,
                                       std::vector<NodeRef>* out) {
  return InvokeInto<calls::RangeMillion>(out, lo, hi);
}

util::Status RemoteStore::Children(NodeRef node,
                                   std::vector<NodeRef>* out) {
  return InvokeInto<calls::Children>(out, node);
}

util::Result<NodeRef> RemoteStore::Parent(NodeRef node) {
  return Invoke<calls::Parent>(node);
}

util::Status RemoteStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  return InvokeInto<calls::Parts>(out, node);
}

util::Status RemoteStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  return InvokeInto<calls::PartOf>(out, node);
}

util::Status RemoteStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  return InvokeInto<calls::RefsTo>(out, node);
}

util::Status RemoteStore::RefsFrom(NodeRef node,
                                   std::vector<RefEdge>* out) {
  return InvokeInto<calls::RefsFrom>(out, node);
}

util::Result<uint64_t> RemoteStore::StorageBytes() {
  return Invoke<calls::StorageBytes>();
}

util::Status RemoteStore::ShardInfo(uint32_t* shard_id,
                                    uint32_t* shard_count) {
  server::ShardPlacement placement;
  HM_RETURN_IF_ERROR(InvokeInto<calls::ShardInfo>(&placement));
  *shard_id = static_cast<uint32_t>(placement.shard_id);
  *shard_count = static_cast<uint32_t>(placement.shard_count);
  return util::Status::Ok();
}

util::Status RemoteStore::ReplSubscribe(uint64_t follower_id,
                                        uint64_t resume_seq,
                                        server::ReplChain* out) {
  return InvokeInto<calls::ReplSubscribe>(
      out, uint64_t{server::kWireVersion}, follower_id, resume_seq);
}

util::Status RemoteStore::ReplFetch(uint64_t seq, uint64_t offset,
                                    uint64_t max_bytes, std::string* chunk,
                                    bool* sealed, uint64_t* flushed_size) {
  server::ReplChunk reply;
  HM_RETURN_IF_ERROR(
      InvokeInto<calls::ReplSegment>(&reply, seq, offset, max_bytes));
  *chunk = std::move(reply.bytes);
  *sealed = reply.sealed;
  *flushed_size = reply.flushed_size;
  return util::Status::Ok();
}

util::Status RemoteStore::ReplReport(uint64_t follower_id,
                                     uint64_t replayed_lsn,
                                     server::ReplPeer* out) {
  return InvokeInto<calls::ReplStatus>(out, follower_id, replayed_lsn);
}

util::Status RemoteStore::ReplPromote(uint64_t proposed_epoch,
                                      uint64_t* epoch) {
  return InvokeInto<calls::ReplPromote>(epoch, proposed_epoch);
}

util::Status RemoteStore::ReplFence(uint64_t fencing_epoch,
                                    uint64_t* epoch) {
  return InvokeInto<calls::ReplFence>(epoch, fencing_epoch);
}

// --- FrontierFetch ----------------------------------------------------

Frames RemoteStore::ChildrenFrames(std::span<const NodeRef> nodes,
                                   RefLists* out) {
  return FusedFrames<calls::ChildrenMulti>(out, nodes.size(), nodes);
}

Frames RemoteStore::PartsFrames(std::span<const NodeRef> nodes,
                                RefLists* out) {
  return FusedFrames<calls::PartsMulti>(out, nodes.size(), nodes);
}

Frames RemoteStore::RefsToFrames(std::span<const NodeRef> nodes,
                                 EdgeLists* out) {
  return FusedFrames<calls::RefsToMulti>(out, nodes.size(), nodes);
}

Frames RemoteStore::ChildrenAttrsFrames(std::span<const NodeRef> nodes,
                                        Attr attr,
                                        server::ListsAndValues* out) {
  return FusedFrames<calls::ChildrenAttrsMulti>(out, nodes.size(), attr,
                                                nodes);
}

Frames RemoteStore::GetAttrsFrames(std::span<const NodeRef> nodes, Attr attr,
                                   std::vector<int64_t>* values) {
  return FusedFrames<calls::GetAttrsMulti>(values, nodes.size(), attr, nodes);
}

Frames RemoteStore::SetAttrsFrames(std::span<const NodeRef> nodes, Attr attr,
                                   std::span<const int64_t> values) {
  return FusedFrames<calls::SetAttrsMulti>(nullptr, nodes.size(), attr, nodes,
                                           values);
}

Frames RemoteStore::CreateNodesFrames(
    std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
    std::span<const std::string_view> contents, std::vector<NodeRef>* refs) {
  return FusedFrames<calls::CreateNodesMulti>(refs, attrs.size(), attrs, near,
                                              contents);
}

Frames RemoteStore::AddChildrenFrames(std::span<const NodeRef> parents,
                                      std::span<const NodeRef> children) {
  return FusedFrames<calls::AddChildrenMulti>(nullptr, parents.size(),
                                              parents, children);
}

Frames RemoteStore::AddPartsFrames(std::span<const NodeRef> owners,
                                   std::span<const NodeRef> parts) {
  return FusedFrames<calls::AddPartsMulti>(nullptr, owners.size(), owners,
                                           parts);
}

Frames RemoteStore::AddRefsFrames(std::span<const NodeRef> from,
                                  std::span<const NodeRef> to,
                                  std::span<const int64_t> offset_from,
                                  std::span<const int64_t> offset_to) {
  return FusedFrames<calls::AddRefsMulti>(nullptr, from.size(), from, to,
                                          offset_from, offset_to);
}

util::Status RemoteStore::ChildrenMulti(std::span<const NodeRef> nodes,
                                        RefLists* out) {
  out->clear();
  return RunFrames(ChildrenFrames(nodes, out));
}

util::Status RemoteStore::PartsMulti(std::span<const NodeRef> nodes,
                                     RefLists* out) {
  out->clear();
  return RunFrames(PartsFrames(nodes, out));
}

util::Status RemoteStore::RefsToMulti(std::span<const NodeRef> nodes,
                                      EdgeLists* out) {
  out->clear();
  return RunFrames(RefsToFrames(nodes, out));
}

util::Status RemoteStore::ChildrenAttrsMulti(std::span<const NodeRef> nodes,
                                             Attr attr, RefLists* children,
                                             std::vector<int64_t>* values) {
  server::ListsAndValues reply;
  HM_RETURN_IF_ERROR(RunFrames(ChildrenAttrsFrames(nodes, attr, &reply)));
  *children = std::move(reply.lists);
  *values = std::move(reply.values);
  return util::Status::Ok();
}

util::Status RemoteStore::GetAttrsMulti(std::span<const NodeRef> nodes,
                                        Attr attr,
                                        std::vector<int64_t>* values) {
  values->clear();
  values->reserve(nodes.size());
  return RunFrames(GetAttrsFrames(nodes, attr, values));
}

util::Status RemoteStore::SetAttrsMulti(std::span<const NodeRef> nodes,
                                        Attr attr,
                                        std::span<const int64_t> values) {
  HM_RETURN_IF_ERROR(
      CheckPositional("SetAttrsMulti", nodes.size(), {values.size()}));
  return RunFrames(SetAttrsFrames(nodes, attr, values));
}

util::Status RemoteStore::CreateNodesMulti(
    std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
    std::span<const std::string_view> contents, std::vector<NodeRef>* refs) {
  HM_RETURN_IF_ERROR(CheckPositional("CreateNodesMulti", attrs.size(),
                                     {near.size(), contents.size()}));
  refs->clear();
  refs->reserve(attrs.size());
  return RunFrames(CreateNodesFrames(attrs, near, contents, refs));
}

util::Status RemoteStore::AddChildrenMulti(std::span<const NodeRef> parents,
                                           std::span<const NodeRef> children) {
  HM_RETURN_IF_ERROR(CheckPositional("AddChildrenMulti", parents.size(),
                                     {children.size()}));
  return RunFrames(AddChildrenFrames(parents, children));
}

util::Status RemoteStore::AddPartsMulti(std::span<const NodeRef> owners,
                                        std::span<const NodeRef> parts) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddPartsMulti", owners.size(), {parts.size()}));
  return RunFrames(AddPartsFrames(owners, parts));
}

util::Status RemoteStore::AddRefsMulti(std::span<const NodeRef> from,
                                       std::span<const NodeRef> to,
                                       std::span<const int64_t> offset_from,
                                       std::span<const int64_t> offset_to) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddRefsMulti", from.size(),
                      {to.size(), offset_from.size(), offset_to.size()}));
  return RunFrames(AddRefsFrames(from, to, offset_from, offset_to));
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
  return InvokeInto<calls::Closure1N>(out, start);
}

util::Result<int64_t> RemoteStore::TravClosure1NAttSum(NodeRef start,
                                                       uint64_t* visited) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NAttSum(this, start, visited);
  }
  server::AttSum reply;
  HM_RETURN_IF_ERROR(InvokeInto<calls::Closure1NAttSum>(&reply, start));
  if (visited != nullptr) *visited = reply.visited;
  return reply.sum;
}

util::Result<uint64_t> RemoteStore::TravClosure1NAttSet(NodeRef start) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NAttSet(this, start);
  }
  return Invoke<calls::Closure1NAttSet>(start);
}

util::Status RemoteStore::TravClosure1NPred(NodeRef start, int64_t lo,
                                            int64_t hi,
                                            std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::Closure1NPred(this, start, lo, hi, out);
  }
  return InvokeInto<calls::Closure1NPred>(out, start, lo, hi);
}

util::Status RemoteStore::TravClosureMN(NodeRef start,
                                        std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMN(this, start, out);
  }
  return InvokeInto<calls::ClosureMN>(out, start);
}

util::Status RemoteStore::TravClosureMNAtt(NodeRef start, int depth,
                                           std::vector<NodeRef>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMNAtt(this, start, depth, out);
  }
  return InvokeInto<calls::ClosureMNAtt>(out, start, depth);
}

util::Status RemoteStore::TravClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  if (mode_ != RemoteMode::kPushdown) {
    return traversal::ClosureMNAttLinkSum(this, start, depth, out);
  }
  return InvokeInto<calls::ClosureMNAttLinkSum>(out, start, depth);
}

}  // namespace hm::backends
