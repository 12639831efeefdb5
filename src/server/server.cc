#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <type_traits>

#include "hypermodel/traversal.h"
#include "server/wire_calls.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace hm::server {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IoError(what + ": " + std::strerror(errno));
}

/// Per-opcode telemetry, resolved once for all 256 opcode bytes so the
/// dispatch fast path never touches the registry lock. Bytes outside
/// the OpCode enum share the "unknown" metrics.
struct OpMetrics {
  telemetry::Counter* count;
  telemetry::Counter* errors;
  telemetry::Histogram* latency_us;
};

const OpMetrics& MetricsFor(uint8_t op) {
  static const std::array<OpMetrics, 256>* table = [] {
    auto* t = new std::array<OpMetrics, 256>();
    auto& reg = telemetry::Registry::Global();
    for (size_t i = 0; i < t->size(); ++i) {
      std::string base = "server.op.";
      base += OpCodeName(static_cast<OpCode>(i));
      (*t)[i] = OpMetrics{reg.GetCounter(base + ".count"),
                          reg.GetCounter(base + ".errors"),
                          reg.GetHistogram(base + ".latency_us")};
    }
    return t;
  }();
  return (*table)[op];
}

void PutMalformed(std::string* response) {
  PutStatus(response, util::Status::InvalidArgument("malformed request body"));
}

/// What a call-table binding may touch: the backend, the traversal
/// engine's fetch over it, the replication role and the placement.
struct CallContext {
  HyperStore* store;
  FrontierFetch* fetch;
  ReplicationHandler* replication;
  const ServerOptions* options;
};

/// Whether Run<Fn> accepts arguments of types `A...`.
template <auto Fn, typename... A>
constexpr bool kRunnable =
    std::is_invocable_v<decltype(Fn), HyperStore*, A...> ||
    std::is_invocable_v<decltype(Fn), FrontierFetch*, A...> ||
    std::is_invocable_v<decltype(Fn), ReplicationHandler*, A...> ||
    std::is_invocable_v<decltype(Fn), CallContext&, A...>;

/// Runs `Fn` on the first target it accepts: a backend method, a
/// traversal kernel or FrontierFetch method, a replication handler
/// method, or a function of the whole context.
template <auto Fn, typename... A>
auto Run(CallContext& ctx, A&&... args) {
  using F = decltype(Fn);
  if constexpr (std::is_invocable_v<F, HyperStore*, A...>) {
    return std::invoke(Fn, ctx.store, std::forward<A>(args)...);
  } else if constexpr (std::is_invocable_v<F, FrontierFetch*, A...>) {
    return std::invoke(Fn, ctx.fetch, std::forward<A>(args)...);
  } else if constexpr (std::is_invocable_v<F, ReplicationHandler*, A...>) {
    return std::invoke(Fn, ctx.replication, std::forward<A>(args)...);
  } else {
    return std::invoke(Fn, ctx, std::forward<A>(args)...);
  }
}

/// Serves one call: decodes `C`'s arguments from `body`, runs `Fn` and
/// appends the status plus, on success, the encoded reply. `Fn` either
/// fills a trailing `Reply*` and returns Status, or returns
/// Result<Reply> (Status for an empty reply). False when the body was
/// malformed (already answered).
template <typename C, auto Fn>
bool Serve(CallContext& ctx, std::string_view body, std::string* response) {
  typename C::Args args;
  if (!C::DecodeArgs(body, &args)) {
    PutMalformed(response);
    return false;
  }
  typename C::Reply reply{};
  util::Status status = std::apply(
      [&](auto&... a) -> util::Status {
        if constexpr (kRunnable<Fn, decltype(a)..., decltype(&reply)>) {
          return Run<Fn>(ctx, a..., &reply);
        } else if constexpr (std::is_same_v<typename C::Reply, Empty>) {
          return Run<Fn>(ctx, a...);
        } else {
          auto result = Run<Fn>(ctx, a...);
          if (result.ok()) reply = std::move(*result);
          return result.status();
        }
      },
      args);
  PutStatus(response, status);
  if (status.ok()) C::EncodeReply(response, reply);
  return true;
}

/// One call-table entry: `serve` bound to a declaration.
struct Binding {
  OpCode op;
  bool (*serve)(CallContext&, std::string_view, std::string*);
};

template <typename C, auto Fn>
constexpr Binding Bind() {
  return Binding{C::kOpCode, &Serve<C, Fn>};
}

// The handler of every call in calls::Table. Hello and Reset carry
// session and server state and are served by hand in DispatchOneImpl;
// kNone opcodes have none.
constexpr Binding kBindings[] = {
    Bind<calls::Begin, &HyperStore::Begin>(),
    Bind<calls::Commit,
         [](CallContext& ctx) {
           util::Status committed = ctx.store->Commit();
           // Semi-sync barrier: the commit is locally durable; hold the
           // acknowledgement until a follower has replayed it (bounded —
           // the handler degrades to async on timeout and counts it).
           if (committed.ok() && ctx.replication != nullptr) {
             committed = ctx.replication->WaitCommitReplicated();
           }
           return committed;
         }>(),
    Bind<calls::Abort, &HyperStore::Abort>(),
    Bind<calls::CloseReopen, &HyperStore::CloseReopen>(),
    Bind<calls::SetText, &HyperStore::SetText>(),
    Bind<calls::SetForm, &HyperStore::SetForm>(),
    Bind<calls::GetAttr, &HyperStore::GetAttr>(),
    Bind<calls::SetAttr, &HyperStore::SetAttr>(),
    Bind<calls::GetKind, &HyperStore::GetKind>(),
    Bind<calls::GetText, &HyperStore::GetText>(),
    Bind<calls::GetForm, &HyperStore::GetForm>(),
    Bind<calls::SetContents, &HyperStore::SetContents>(),
    Bind<calls::GetContents, &HyperStore::GetContents>(),
    Bind<calls::LookupUnique, &HyperStore::LookupUnique>(),
    Bind<calls::RangeHundred, &HyperStore::RangeHundred>(),
    Bind<calls::RangeMillion, &HyperStore::RangeMillion>(),
    Bind<calls::Children, &HyperStore::Children>(),
    Bind<calls::Parent, &HyperStore::Parent>(),
    Bind<calls::Parts, &HyperStore::Parts>(),
    Bind<calls::PartOf, &HyperStore::PartOf>(),
    Bind<calls::RefsTo, &HyperStore::RefsTo>(),
    Bind<calls::RefsFrom, &HyperStore::RefsFrom>(),
    Bind<calls::StorageBytes, &HyperStore::StorageBytes>(),
    // The multi-node fetches and the pushdown closures run the traversal
    // engine against the local backend, one navigation call per node.
    Bind<calls::ChildrenMulti, &FrontierFetch::ChildrenMulti>(),
    Bind<calls::GetAttrsMulti,
         [](FrontierFetch* fetch, Attr attr, std::span<const NodeRef> nodes,
            std::vector<int64_t>* values) {
           return fetch->GetAttrsMulti(nodes, attr, values);
         }>(),
    Bind<calls::Closure1N, &traversal::Closure1N>(),
    Bind<calls::ClosureMN, &traversal::ClosureMN>(),
    Bind<calls::ClosureMNAtt, &traversal::ClosureMNAtt>(),
    Bind<calls::Closure1NAttSum,
         [](FrontierFetch* fetch, NodeRef start, AttSum* out) {
           auto sum = traversal::Closure1NAttSum(fetch, start, &out->visited);
           if (sum.ok()) out->sum = *sum;
           return sum.status();
         }>(),
    Bind<calls::Closure1NAttSet, &traversal::Closure1NAttSet>(),
    Bind<calls::Closure1NPred, &traversal::Closure1NPred>(),
    Bind<calls::ClosureMNAttLinkSum, &traversal::ClosureMNAttLinkSum>(),
    Bind<calls::Stats,
         [](CallContext&) -> util::Result<telemetry::Snapshot> {
           return telemetry::Registry::Global().TakeSnapshot();
         }>(),
    // Liveness probe: proves the whole request/response path (frame,
    // dispatch, lock) without touching the backend's data.
    Bind<calls::Ping, [](CallContext&) { return util::Status::Ok(); }>(),
    Bind<calls::ShardInfo,
         [](CallContext& ctx) -> util::Result<ShardPlacement> {
           return ShardPlacement{ctx.options->shard_id,
                                 ctx.options->shard_count};
         }>(),
    Bind<calls::ReplSubscribe, &ReplicationHandler::HandleSubscribe>(),
    Bind<calls::ReplSegment, &ReplicationHandler::HandleSegment>(),
    Bind<calls::ReplStatus, &ReplicationHandler::HandleStatus>(),
    Bind<calls::ReplPromote, &ReplicationHandler::HandlePromote>(),
    Bind<calls::ReplFence, &ReplicationHandler::HandleFence>(),
    Bind<calls::PartsMulti, &FrontierFetch::PartsMulti>(),
    Bind<calls::RefsToMulti, &FrontierFetch::RefsToMulti>(),
    Bind<calls::SetAttrsMulti,
         [](FrontierFetch* fetch, Attr attr, std::span<const NodeRef> nodes,
            std::span<const int64_t> values) {
           return fetch->SetAttrsMulti(nodes, attr, values);
         }>(),
    Bind<calls::ChildrenAttrsMulti,
         [](FrontierFetch* fetch, Attr attr, std::span<const NodeRef> nodes,
            ListsAndValues* out) {
           return fetch->ChildrenAttrsMulti(nodes, attr, &out->lists,
                                            &out->values);
         }>(),
    // The load writes make a serial build's per-item backend calls in
    // input order, the whole frame under the exclusive dispatch lock.
    Bind<calls::CreateNodesMulti, &FrontierFetch::CreateNodesMulti>(),
    Bind<calls::AddChildrenMulti, &FrontierFetch::AddChildrenMulti>(),
    Bind<calls::AddPartsMulti, &FrontierFetch::AddPartsMulti>(),
    Bind<calls::AddRefsMulti, &FrontierFetch::AddRefsMulti>(),
};

/// kBindings indexed by opcode byte; null for the hand-served opcodes
/// and bytes outside the table.
const Binding* BindingFor(uint8_t op) {
  static const std::array<const Binding*, 256>* table = [] {
    auto* t = new std::array<const Binding*, 256>();
    for (const Binding& binding : kBindings) {
      (*t)[static_cast<uint8_t>(binding.op)] = &binding;
    }
    return t;
  }();
  return (*table)[op];
}

}  // namespace

Server::Session::~Session() {
  if (fd >= 0) ::close(fd);
}

bool Server::SessionQueue::Push(std::unique_ptr<Session>& session) {
  util::MutexLock lock(mu_);
  if (closed_ || sessions_.size() >= capacity_) return false;
  sessions_.push_back(std::move(session));
  cv_.notify_one();
  return true;
}

std::unique_ptr<Server::Session> Server::SessionQueue::Pop() {
  util::MutexLock lock(mu_);
  while (!closed_ && sessions_.empty()) cv_.wait(lock);
  if (sessions_.empty()) return nullptr;  // closed and drained
  std::unique_ptr<Session> session = std::move(sessions_.front());
  sessions_.pop_front();
  return session;
}

void Server::SessionQueue::Close() {
  util::MutexLock lock(mu_);
  closed_ = true;
  sessions_.clear();  // unserved connections are simply closed
  cv_.notify_all();
}

util::Result<std::unique_ptr<Server>> Server::Start(
    const ServerOptions& options, std::unique_ptr<HyperStore> backend) {
  if (backend == nullptr) {
    return util::Status::InvalidArgument("server requires a backend");
  }
  if (options.workers <= 0) {
    return util::Status::InvalidArgument("server requires >= 1 worker");
  }
  std::unique_ptr<Server> server(
      new Server(options, std::move(backend)));
  server->concurrent_reads_ok_.store(
      server->backend_->SupportsConcurrentReads(), std::memory_order_relaxed);
  HM_RETURN_IF_ERROR(server->Listen());
  server->listener_ = std::thread([s = server.get()] { s->ListenLoop(); });
  for (int i = 0; i < options.workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

util::Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("bad bind address: " +
                                         options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  return util::Status::Ok();
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    util::MutexLock lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);
  // Unblock accept(); the listener exits its loop on the next return.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  queue_.Close();
  {
    // Drain phase: half-close the read side of every in-flight
    // connection. The worker's next recv() returns 0 (no further
    // requests) but the write side stays open, so responses to
    // requests already received are still delivered. See TrackFd()
    // for why this cannot hit a recycled descriptor.
    util::MutexLock lock(fds_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_ms);
  for (;;) {
    {
      util::MutexLock lock(fds_mu_);
      if (active_fds_.empty()) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        // Grace period exhausted: sever both directions so workers
        // blocked writing to unresponsive peers unblock too.
        for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void Server::WithExclusiveBackend(
    const std::function<void(HyperStore*)>& fn) {
  util::MutexLock lock(backend_mu_);
  // The only caller is the replication replay path, which mutates the
  // store outside the dispatch loop — so the reset-idempotence word
  // must flip here, or a replica promoted after replaying history
  // would answer kReset with a clean-database no-op.
  MarkDirty();
  fn(backend_.get());
}

void Server::TrackFd(int fd) {
  util::MutexLock lock(fds_mu_);
  active_fds_.insert(fd);
}

void Server::UntrackFd(int fd) {
  util::MutexLock lock(fds_mu_);
  active_fds_.erase(fd);
}

void Server::Dispatch(Session* session, std::string_view request,
                      std::string* response) {
  if (request.empty()) {
    PutStatus(response,
              util::Status::InvalidArgument("empty request payload"));
    return;
  }
  const auto op = static_cast<OpCode>(request[0]);

  // Load shedding: beyond the in-flight ceiling, answer kOverloaded
  // immediately instead of queueing behind backend_mu_ — a loaded
  // server stays responsive (with refusals) rather than building an
  // unbounded convoy of waiters.
  struct InflightSlot {
    std::atomic<int>* count = nullptr;
    ~InflightSlot() {
      if (count != nullptr) count->fetch_sub(1, std::memory_order_acq_rel);
    }
  } slot;
  if (options_.max_inflight > 0) {
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      shed_.fetch_add(1);
      static telemetry::Counter* shed_counter =
          telemetry::Registry::Global().GetCounter("server.shed_requests");
      shed_counter->Add();
      PutStatus(response,
                util::Status::Overloaded(
                    "server overloaded: in-flight ceiling of " +
                    std::to_string(options_.max_inflight) + " reached"));
      return;
    }
    slot.count = &inflight_;
  }
  // Artificial dispatch latency for deadline/drain tests; inside the
  // in-flight slot so a delayed request occupies capacity like a
  // genuinely slow one.
  HM_FAILPOINT_HIT("server/dispatch/delay");

  requests_.fetch_add(1);
  // The opcode's class picks the side of the lock (LockOf, wire.h).
  switch (LockOf(ClassOf(op))) {
    case DispatchLock::kNone:
      DispatchUnlocked(session, request, response);
      return;
    case DispatchLock::kShared:
      if (concurrent_reads_ok_.load(std::memory_order_relaxed)) {
        shared_reads_.fetch_add(1);
        util::SharedMutexLock lock(backend_mu_);
        DispatchLocked(session, op, request, response);
        return;
      }
      break;
    case DispatchLock::kExclusive:
      break;
  }
  util::MutexLock lock(backend_mu_);
  DispatchLocked(session, op, request, response);
}

void Server::DispatchLocked(Session* session, OpCode op,
                            std::string_view request,
                            std::string* response) {
  // A session adopts the server's reset epoch on first contact; a
  // mismatch later means another session rebuilt the database out from
  // under this one, and its NodeRefs point into a discarded store —
  // answer with a clean Conflict instead of serving garbage. Hello and
  // Reset re-synchronize the session. (Session state is only ever
  // touched by the one worker serving it.)
  if (!session->epoch_synced) {
    session->epoch = reset_epoch_;
    session->epoch_synced = true;
  }
  if (op != OpCode::kHello && op != OpCode::kReset &&
      session->epoch != reset_epoch_) {
    static telemetry::Counter* conflicts =
        telemetry::Registry::Global().GetCounter("server.conflicts");
    conflicts->Add();
    PutStatus(response,
              util::Status::Conflict(
                  "database was reset by another session; re-handshake "
                  "(Hello) to observe the new store"));
    return;
  }

  DispatchOne(session, request, response);
}

void Server::DispatchUnlocked(Session* session, std::string_view request,
                              std::string* response) {
  DispatchOne(session, request, response);
}

void Server::DispatchOne(Session* session, std::string_view request,
                         std::string* response) {
  // `response` arrives empty, so the first byte of what Impl wrote is
  // the status code. Dispatch has answered an empty request already.
  const OpMetrics& metrics = MetricsFor(static_cast<uint8_t>(request[0]));
  util::Timer timer;
  DispatchOneImpl(session, request, response);
  metrics.count->Add();
  if (response->empty() ||
      response->front() != static_cast<char>(util::StatusCode::kOk)) {
    metrics.errors->Add();
  }
  metrics.latency_us->Record(static_cast<uint64_t>(timer.ElapsedMicros()));
}

void Server::DispatchOneImpl(Session* session, std::string_view request,
                             std::string* response) {
  const auto op = static_cast<OpCode>(request[0]);
  const std::string_view body = request.substr(1);

  const OpClass op_class = ClassOf(op);

  // Replication gate: with a role installed, every gated class is
  // refused with a typed error before it can touch the backend — a
  // replica answers kReadOnly, a fenced old primary kFencedOff.
  if (options_.replication != nullptr && IsGated(op_class)) {
    util::Status gate = options_.replication->CheckMutation();
    if (!gate.ok()) {
      PutStatus(response, gate);
      return;
    }
  }
  if (NeedsRole(op_class) && options_.replication == nullptr) {
    PutStatus(response, util::Status::NotSupported(
                            "server has no replication role configured"));
    return;
  }

  switch (op) {
    case OpCode::kHello: {
      // One wire version: both ends are built from the same tree, so
      // anything but an exact match is a deployment error, answered
      // with a typed refusal. The oldest clients sent an empty body.
      calls::Hello::Args args{0};
      if (!body.empty() && !calls::Hello::DecodeArgs(body, &args)) {
        PutMalformed(response);
        return;
      }
      const uint64_t client_version = std::get<0>(args);
      if (client_version != kWireVersion) {
        PutStatus(response,
                  util::Status::VersionMismatch(
                      "client speaks wire v" + std::to_string(client_version) +
                      ", server speaks v" + std::to_string(kWireVersion)));
        return;
      }
      session->epoch = reset_epoch_;  // re-handshake adopts the current DB
      PutStatus(response, util::Status::Ok());
      calls::Hello::EncodeReply(response, {kWireVersion, backend_->name()});
      return;
    }
    case OpCode::kReset: {
      calls::Reset::Args args;
      if (!calls::Reset::DecodeArgs(body, &args)) {
        PutMalformed(response);
        return;
      }
      if (!dirty_) {
        // Nothing mutated since the last rebuild (or startup): Reset
        // is an idempotent no-op, so concurrent clients that each
        // reset-on-open don't invalidate one another — and no factory
        // is needed to "rebuild" an untouched store.
        session->epoch = reset_epoch_;
        PutStatus(response, util::Status::Ok());
        return;
      }
      if (!options_.reset_factory) {
        PutStatus(response, util::Status::NotSupported(
                                "server was started without a reset factory"));
        return;
      }
      auto fresh = options_.reset_factory();
      if (!fresh.ok()) {
        PutStatus(response, fresh.status());
        return;
      }
      ResetBackendExclusive(std::move(*fresh));
      session->epoch = reset_epoch_;
      PutStatus(response, util::Status::Ok());
      return;
    }
    default:
      break;
  }

  // A kNone opcode — a retired one, or a byte outside the table — has
  // no handler.
  const Binding* binding = BindingFor(static_cast<uint8_t>(op));
  if (binding == nullptr) {
    PutStatus(response, util::Status::InvalidArgument(
                            "no call for opcode " +
                            std::to_string(static_cast<uint8_t>(op)) + " (" +
                            std::string(OpCodeName(op)) + ")"));
    return;
  }
  FetchFor fetch(backend_.get());
  CallContext ctx{backend_.get(), fetch.get(), options_.replication,
                  &options_};
  if (binding->serve(ctx, body, response) && op_class == OpClass::kWrite) {
    MarkDirty();
  }
}

}  // namespace hm::server
