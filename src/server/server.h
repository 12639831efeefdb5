#ifndef HM_SERVER_SERVER_H_
#define HM_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "hypermodel/store.h"
#include "server/replication_handler.h"
#include "server/wire.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::server {

/// Configuration for a HyperStore server.
struct ServerOptions {
  /// Interface to bind. The benchmark protocol measures the loopback
  /// hop by default; bind 0.0.0.0 to serve other machines.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Fixed worker-pool size. Each worker owns one connection at a
  /// time; backend calls are serialized internally, so workers buy
  /// parallel I/O and framing, not parallel storage access.
  int workers = 4;
  /// Bound on connections accepted but not yet claimed by a worker.
  /// When full, new connections are closed immediately (backpressure
  /// at the door rather than unbounded memory growth).
  size_t queue_capacity = 64;
  /// Rebuilds the served database in place when a client sends
  /// kReset (the benchmark harness does, so repeated runs against a
  /// long-lived server start from an empty store). Unset => kReset is
  /// answered with NotSupported.
  std::function<util::Result<std::unique_ptr<HyperStore>>()> reset_factory;
  /// Ceiling on requests executing (or waiting on backend_mu_)
  /// concurrently; beyond it Dispatch sheds the request with a typed
  /// kOverloaded response instead of queueing it behind the lock.
  /// 0 disables shedding (the worker pool still bounds concurrency).
  int max_inflight = 0;
  /// Stop() grace period: how long to wait for in-flight requests to
  /// finish (their responses are still written) before severing the
  /// remaining connections. 0 reverts to immediate hard shutdown.
  int drain_ms = 2000;
  /// Placement this server reports via kShardInfo (wire v5) when it is
  /// one shard of a cluster fleet. A standalone server is shard 0 of
  /// 1. The server does not interpret these itself — ref translation
  /// happens in the cluster::ShardLocalStore wrapped around the
  /// backend — it only vouches for them in the handshake so a
  /// `shard://` client can catch a mis-wired fleet.
  uint32_t shard_id = 0;
  uint32_t shard_count = 1;
  /// Replication role hook (wire v6). When set, every mutating opcode
  /// is gated through it — a replica answers kReadOnly, a fenced old
  /// primary kFencedOff — and the five kRepl* opcodes are forwarded
  /// to it. Unset => this server has no replication role: mutations
  /// pass and kRepl* answer NotSupported. Not owned; must outlive the
  /// server.
  ReplicationHandler* replication = nullptr;
};

/// A TCP server exposing one HyperStore backend over the binary wire
/// protocol (server/wire.h). Architecture:
///
///   listener thread --accept--> bounded session queue --pop--> workers
///
/// The listener only accepts and enqueues; each worker serves one
/// connection to completion (read frame, dispatch, write response).
/// Dispatch takes the side of the backend lock the opcode's class
/// names (OpClass, wire.h): reads run under the shared side when the
/// backend declares SupportsConcurrentReads(), so the worker pool
/// serves concurrent readers; mutations, transactions and Reset take
/// the exclusive side, preserving the coarse isolation the §5
/// protocol assumes. Backends without concurrent-read support degrade
/// to exclusive-for-everything (PR-1 behavior).
///
/// Reset is epoch-stamped: each session adopts the server's reset
/// epoch on first contact, a Reset that actually rebuilds bumps it,
/// and requests from sessions holding a stale epoch are answered with
/// kConflict (their NodeRefs point into a discarded store). Resetting
/// an already-clean database is an idempotent no-op, so concurrent
/// benchmark clients that each Reset-on-open don't bounce each other.
///
/// Stop() (also run by the destructor) is a clean shutdown with a
/// drain phase: it stops accepting, discards queued-but-unserved
/// connections, half-closes in-flight sockets (SHUT_RD) so workers
/// take no further requests but still write the responses already in
/// flight, waits up to ServerOptions::drain_ms for those to finish,
/// then severs whatever remains and joins every thread.
class Server {
 public:
  /// Binds, listens and starts the listener + worker threads. Takes
  /// ownership of `backend`; it is destroyed after all threads stop.
  static util::Result<std::unique_ptr<Server>> Start(
      const ServerOptions& options, std::unique_ptr<HyperStore> backend);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Idempotent clean shutdown; blocks until all threads have joined.
  void Stop();

  const std::string& host() const { return options_.host; }
  /// Actual bound port (resolves port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  HyperStore* backend() { return backend_.get(); }

  /// Runs `fn` on the backend under the exclusive side of the
  /// dispatch lock, mutually excluding every in-flight request. The
  /// follower replayer applies shipped WAL batches through this hook,
  /// so replica reads (which ride the shared side) never observe a
  /// half-applied transaction. Do not call from inside a dispatch
  /// handler — the lock is not reentrant.
  void WithExclusiveBackend(const std::function<void(HyperStore*)>& fn);

  // --- Counters (diagnostics; monotone over the server's life) -------
  /// Requests dispatched: one per frame, shed ones excepted.
  uint64_t requests_served() const { return requests_.load(); }
  uint64_t connections_accepted() const { return accepted_.load(); }
  /// Connections closed at accept time because the queue was full.
  uint64_t connections_rejected() const { return rejected_.load(); }
  /// Requests answered kOverloaded (max_inflight ceiling) plus
  /// connections refused with an kOverloaded frame at the door.
  uint64_t requests_shed() const { return shed_.load(); }
  /// Dispatches that ran under the shared (reader) side of the lock.
  uint64_t shared_reads_served() const { return shared_reads_.load(); }

  /// Whether read-only opcodes currently dispatch under the shared
  /// side of backend_mu_ (the backend advertises concurrent-read
  /// safety). Re-cached whenever Reset swaps the backend.
  bool read_parallel() const {
    return concurrent_reads_ok_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection: the socket plus its peer label. Closing
  /// happens in the destructor so a session dropped anywhere (queue
  /// overflow, shutdown, serve completion) releases its socket.
  struct Session {
    explicit Session(int fd) : fd(fd) {}
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    int fd = -1;
    std::string buffer;  // bytes received but not yet framed
    /// Reset epoch this session last observed (only its worker thread
    /// touches these; see Dispatch for the staleness check).
    uint64_t epoch = 0;
    bool epoch_synced = false;
  };

  /// Bounded MPSC-ish handoff between the listener and the workers.
  class SessionQueue {
   public:
    explicit SessionQueue(size_t capacity) : capacity_(capacity) {}
    /// Takes ownership and returns true on success; when full or
    /// closed, returns false leaving `session` with the caller (the
    /// listener still owns the socket and can refuse it politely).
    bool Push(std::unique_ptr<Session>& session);
    /// Blocks; returns null once closed and drained.
    std::unique_ptr<Session> Pop();
    /// Wakes all poppers and discards any queued sessions.
    void Close();

   private:
    util::RankedMutex<util::LockRank::kListener> mu_;
    std::condition_variable_any cv_;
    std::deque<std::unique_ptr<Session>> sessions_ HM_GUARDED_BY(mu_);
    const size_t capacity_;
    bool closed_ HM_GUARDED_BY(mu_) = false;
  };

  explicit Server(const ServerOptions& options,
                  std::unique_ptr<HyperStore> backend)
      : options_(options), backend_(std::move(backend)),
        queue_(options.queue_capacity) {}

  util::Status Listen();

  // listener.cc
  void ListenLoop();

  // worker.cc
  void WorkerLoop();
  void ServeSession(Session* session);

  // server.cc — decodes one request payload, runs it against the
  // backend (under the side of backend_mu_ its class names, or none)
  // and appends the response payload.
  void Dispatch(Session* session, std::string_view request,
                std::string* response);
  /// The locked half of Dispatch: epoch bookkeeping, then DispatchOne.
  /// Declared with the *shared* requirement — the weakest side it ever
  /// runs under; mutating opcodes additionally hold the exclusive side
  /// (see MarkDirty / ResetBackendExclusive).
  void DispatchLocked(Session* session, OpCode op, std::string_view request,
                      std::string* response) HM_REQUIRES_SHARED(backend_mu_);
  /// One non-empty request; the caller holds backend_mu_ (or the class
  /// takes no lock, see DispatchUnlocked). Wraps DispatchOneImpl with
  /// the per-opcode telemetry (request count, error count, latency
  /// histogram).
  void DispatchOne(Session* session, std::string_view request,
                   std::string* response) HM_REQUIRES_SHARED(backend_mu_);
  void DispatchOneImpl(Session* session, std::string_view request,
                       std::string* response)
      HM_REQUIRES_SHARED(backend_mu_);
  /// Dispatches an opcode whose class takes no lock (DispatchLock::
  /// kNone) without backend_mu_: the replication pull path, a retired
  /// opcode or a byte outside the call table. Sound because those
  /// never touch backend_ or the epoch/dirty words — only the
  /// internally-synchronized ReplicationHandler, or nothing — and
  /// necessary so follower acks can land while a semi-sync kCommit
  /// holds the exclusive side (see LockOf). The analysis exemption
  /// mirrors MarkDirty(): a per-site argument the checker can't see.
  void DispatchUnlocked(Session* session, std::string_view request,
                        std::string* response) HM_NO_THREAD_SAFETY_ANALYSIS;

  /// Marks the store mutated. Every caller holds backend_mu_
  /// *exclusively* — the classes that dirty the store take the
  /// exclusive side (LockOf, wire.h) — but the analysis only sees
  /// DispatchOneImpl's shared requirement, so this write is exempted
  /// per-site here instead of weakening the annotations.
  void MarkDirty() HM_NO_THREAD_SAFETY_ANALYSIS { dirty_ = true; }
  /// Installs a freshly rebuilt backend and bumps the reset epoch.
  /// Same per-site exemption as MarkDirty(): kReset always dispatches
  /// on the exclusive side.
  void ResetBackendExclusive(std::unique_ptr<HyperStore> fresh)
      HM_NO_THREAD_SAFETY_ANALYSIS {
    backend_ = std::move(fresh);
    ++reset_epoch_;
    dirty_ = false;
    concurrent_reads_ok_.store(backend_->SupportsConcurrentReads(),
                               std::memory_order_relaxed);
  }

  /// Tracks sockets currently being served so Stop() can shut them
  /// down to unblock workers. Membership implies the fd is open:
  /// workers erase before closing, and Stop() only touches members
  /// while holding the same mutex, so a recycled descriptor is never
  /// shut down by mistake.
  void TrackFd(int fd);
  void UntrackFd(int fd);

  ServerOptions options_;
  /// Swapped only by ResetBackendExclusive (exclusive side held);
  /// dereferenced under either side of backend_mu_ and by the public
  /// backend() accessor, so it carries no HM_GUARDED_BY.
  std::unique_ptr<HyperStore> backend_;
  /// Shared for read-only opcodes (when the backend allows concurrent
  /// reads), exclusive for everything else. reset_epoch_ and dirty_
  /// are guarded by it: written only under the exclusive side, read
  /// under either side. Rank-checked: dispatch calls down into the
  /// WAL / buffer pool / telemetry registry, never the reverse.
  util::RankedSharedMutex<util::LockRank::kServerDispatch> backend_mu_;
  uint64_t reset_epoch_ HM_GUARDED_BY(backend_mu_) = 0;
  /// True once any mutating opcode ran; cleared by a rebuilding Reset.
  /// A Reset while clean is an idempotent no-op.
  bool dirty_ HM_GUARDED_BY(backend_mu_) = false;
  /// Cached backend_->SupportsConcurrentReads(), refreshed when Reset
  /// swaps the backend. Atomic because Dispatch reads it before
  /// deciding which side of backend_mu_ to take.
  std::atomic<bool> concurrent_reads_ok_{false};

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  SessionQueue queue_;
  std::thread listener_;
  std::vector<std::thread> workers_;

  util::RankedMutex<util::LockRank::kListener> fds_mu_;
  std::unordered_set<int> active_fds_ HM_GUARDED_BY(fds_mu_);

  std::atomic<bool> stopping_{false};
  util::RankedMutex<util::LockRank::kListener> stop_mu_;
  bool stopped_ HM_GUARDED_BY(stop_mu_) = false;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shared_reads_{0};
  /// Requests currently inside Dispatch (only maintained when
  /// max_inflight > 0).
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace hm::server

#endif  // HM_SERVER_SERVER_H_
