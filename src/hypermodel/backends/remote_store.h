#ifndef HM_HYPERMODEL_BACKENDS_REMOTE_STORE_H_
#define HM_HYPERMODEL_BACKENDS_REMOTE_STORE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "server/server.h"
#include "server/wire.h"
#include "server/wire_calls.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace hm::backends {

/// How the client fetches what a traversal needs. Exists so the
/// benchmarks can measure each rung of the latency ladder; normal
/// callers keep the default. Every mode runs the same closure engine
/// and returns identical results.
enum class RemoteMode {
  /// One round trip per HyperStore call, and per node of a multi-node
  /// fetch (the benchmark baseline).
  kPerCall,
  /// Frontier fetches travel as fused multi-node opcodes (one round
  /// trip per traversal level), but the closure engine runs
  /// client-side.
  kBatched,
  /// Whole closures run server-side in one round trip (default).
  kPushdown,
};

/// Parses "percall" / "batched" / "pushdown".
util::Result<RemoteMode> ParseRemoteMode(const std::string& name);

std::string_view RemoteModeName(RemoteMode mode);

/// Where to find the server. Distinct from `NetOptions`: `net` is the
/// CODASYL *network data model* backend (record rings, in-process);
/// `remote` is the client half of the client/server split.
struct RemoteOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 7433;
  RemoteMode mode = RemoteMode::kPushdown;

  // --- Fault tolerance (DESIGN.md §11) -------------------------------
  /// Per-call deadline: the longest any one call may block waiting for
  /// the server (covers every recv of the call, and bounds send via
  /// SO_SNDTIMEO). A miss surfaces kDeadlineExceeded and poisons the
  /// connection. 0 waits forever (the pre-v4 behavior).
  int64_t deadline_ms = 5000;
  /// Reconnect/retry budget after a transport failure. Read-only (and
  /// otherwise idempotent) opcodes are re-issued after reconnecting;
  /// mutations whose fate is unknown are never re-sent — they surface
  /// a typed kUnavailable instead. 0 disables reconnection entirely.
  int max_retries = 3;
  /// Capped exponential backoff between reconnect attempts, with full
  /// jitter: attempt k sleeps uniform[0, min(cap, base << k)] ms.
  int backoff_base_ms = 5;
  int backoff_cap_ms = 200;
  /// Label naming this peer in transport-failure messages, e.g.
  /// "shard 2 at 127.0.0.1:7435" — so a kUnavailable from a fleet
  /// names the member that failed instead of a bare "remote". Empty
  /// keeps the plain "remote" prefix.
  std::string peer_label;
};

/// Parses "host:port" (or just "port") into RemoteOptions.
util::Result<RemoteOptions> ParseRemoteAddr(const std::string& addr);

/// One request and the decoder of its reply. A fetch is a sequence of
/// frames: `RemoteStore` runs them one after another, `ShardedStore`
/// sends frame r of every shard in one round (DESIGN.md §14).
struct Frame {
  std::string request;  // opcode byte + body
  /// Folds an OK reply body into the fetch's output.
  std::function<util::Status(std::string_view body)> decode;
};
using Frames = std::vector<Frame>;

/// The Corruption a reply that does not decode as `op`'s answers.
util::Status MalformedReply(server::OpCode op);

/// A frame for the call-table call `C(args...)` (server/wire_calls.h)
/// whose reply decodes into `*reply` (list replies append).
template <typename C, typename... A>
Frame CallFrame(typename C::Reply* reply, const A&... args) {
  return {C::Request(args...), [reply](std::string_view body) {
            return C::DecodeReply(body, reply)
                       ? util::Status::Ok()
                       : MalformedReply(C::kOpCode);
          }};
}

/// `HyperStore` implemented as a wire-protocol client: every call is
/// encoded into one request frame, sent to an `hm_serve` server (see
/// server/server.h), and the response frame decoded back into the
/// `Status`/`Result` the caller expects. The driver, the generator and
/// all 20 benchmark operations run unmodified against it — which is
/// exactly the point: it exposes the client/server object-transfer
/// cost axis the in-process backends cannot measure.
///
/// The client amortizes round trips two ways: fused multi-node opcodes
/// (the FrontierFetch reads and writes, the generator's load included)
/// and — as a TraversalCapable — pushing whole §6.6 closures to the
/// server. RemoteMode picks the rung; every
/// rung runs the one traversal engine, so results are identical.
/// Every call is a Post (send) and an Await (receive), so a fleet
/// client can send to all its servers before it reads any reply.
///
/// Like every HyperStore, a RemoteStore is single-threaded; run one
/// client (connection) per benchmark thread. Transactions and caching
/// are entirely server-side: Begin/Commit/CloseReopen are forwarded,
/// so CloseReopen still makes the next access sequence cold — the
/// chill just happens at the far end of the socket.
class RemoteStore : public HyperStore,
                    public TraversalCapable,
                    public FrontierFetch {
 public:
  /// Connects to a running server and performs the Hello handshake,
  /// which fails with kVersionMismatch unless both ends speak
  /// server::kWireVersion.
  static util::Result<std::unique_ptr<RemoteStore>> Connect(
      const RemoteOptions& options);

  /// Self-contained loopback deployment: starts an in-process server
  /// (ephemeral port) owning `backend`, then connects to it. The
  /// returned store owns the server; destroying the store shuts it
  /// down. `server_options.reset_factory` may be left unset — Reset
  /// still succeeds while the database is untouched (idempotent
  /// no-op) and reports NotSupported only once it is dirty.
  static util::Result<std::unique_ptr<RemoteStore>> Loopback(
      std::unique_ptr<HyperStore> backend,
      server::ServerOptions server_options = {},
      RemoteMode mode = RemoteMode::kPushdown,
      RemoteOptions client_options = {});

  ~RemoteStore() override;

  std::string name() const override { return "remote"; }

  /// Backend tag reported by the server in the Hello handshake
  /// ("mem", "oodb", ...).
  const std::string& server_backend() const { return server_backend_; }

  RemoteMode mode() const { return mode_; }

  /// The in-process server when this store was created via Loopback()
  /// (null for Connect()); lets additional clients Connect() to it.
  server::Server* owned_server() { return owned_server_.get(); }

  /// Asks the server to rebuild its database from scratch (wire opcode
  /// kReset). The benchmark harness calls this when it opens a
  /// `remote` store so repeated runs against a long-lived server do
  /// not collide on uniqueIds. Server-side this is idempotent: a
  /// Reset while the database is untouched is a no-op, and sessions
  /// that lose their database to another session's Reset get a clean
  /// kConflict, never stale refs.
  util::Status ResetServer();

  /// Liveness probe (wire opcode kPing): one empty round trip through
  /// the full frame/dispatch path without touching the data.
  util::Status Ping();

  /// Fetches the server's telemetry registry (wire opcode kStats).
  util::Status ServerStats(telemetry::Snapshot* out);

  util::Status Begin() override;
  util::Status Commit() override;
  util::Status Abort() override;
  util::Status CloseReopen() override;

  /// The per-item creates and edge writes send the fused write of one
  /// entry (kCreateNodesMulti ... kAddRefsMulti); a create carries no
  /// contents.
  util::Result<NodeRef> CreateNode(const NodeAttrs& attrs,
                                   NodeRef near) override;
  util::Status SetText(NodeRef node, std::string_view text) override;
  util::Status SetForm(NodeRef node, const util::Bitmap& form) override;
  util::Status AddChild(NodeRef parent, NodeRef child) override;
  util::Status AddPart(NodeRef owner, NodeRef part) override;
  util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                      int64_t offset_to) override;

  util::Result<int64_t> GetAttr(NodeRef node, Attr attr) override;
  util::Status SetAttr(NodeRef node, Attr attr, int64_t value) override;
  util::Result<NodeKind> GetKind(NodeRef node) override;
  util::Result<std::string> GetText(NodeRef node) override;
  util::Result<util::Bitmap> GetForm(NodeRef node) override;
  util::Status SetContents(NodeRef node, std::string_view data) override;
  util::Result<std::string> GetContents(NodeRef node) override;

  util::Result<NodeRef> LookupUnique(int64_t unique_id) override;
  util::Status RangeHundred(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;
  util::Status RangeMillion(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;

  util::Status Children(NodeRef node, std::vector<NodeRef>* out) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

  // --- Send and receive halves ----------------------------------------
  /// Sends one request payload (opcode byte + body) without waiting for
  /// its reply. At most one request is outstanding per connection, so
  /// every Post is followed by its Await before the next Post. A failed
  /// (re)connect is returned here; a failed send surfaces from Await.
  util::Status Post(std::string payload);
  /// Reads the reply to the posted request: the server's status for
  /// the op and, on OK, the body in `*result`. A transport failure of a
  /// retry-safe request reconnects and re-sends it within the retry
  /// budget; a request of unknown fate that is not retry-safe (its
  /// class says, server::IsRetrySafe) surfaces kUnavailable and is never
  /// re-sent.
  util::Status Await(std::string* result);

  // --- FrontierFetch -------------------------------------------------
  // Each fetch is a sequence of fused-opcode frames, run one after
  // another: one entry per frame in kPerCall mode, otherwise up to
  // kMultiChunk entries and kMultiBytes of contents per frame. The
  // writes are not retry-safe: a transport failure mid-frame surfaces
  // kUnavailable without re-sending, so some writes may have landed.
  util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                             RefLists* out) override;
  util::Status PartsMulti(std::span<const NodeRef> nodes,
                          RefLists* out) override;
  util::Status RefsToMulti(std::span<const NodeRef> nodes,
                           EdgeLists* out) override;
  util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                                  RefLists* children,
                                  std::vector<int64_t>* values) override;
  util::Status GetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::vector<int64_t>* values) override;
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override;
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override;
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override;
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override;
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override;

  /// The frames of the fetches and writes above. Each frame's decoder
  /// appends to the output, so running them in order yields the call's
  /// positional result. Every span must hold one entry per node or
  /// edge (CheckPositional).
  Frames ChildrenFrames(std::span<const NodeRef> nodes, RefLists* out);
  Frames PartsFrames(std::span<const NodeRef> nodes, RefLists* out);
  Frames RefsToFrames(std::span<const NodeRef> nodes, EdgeLists* out);
  Frames ChildrenAttrsFrames(std::span<const NodeRef> nodes, Attr attr,
                             server::ListsAndValues* out);
  Frames GetAttrsFrames(std::span<const NodeRef> nodes, Attr attr,
                        std::vector<int64_t>* values);
  Frames SetAttrsFrames(std::span<const NodeRef> nodes, Attr attr,
                        std::span<const int64_t> values);
  Frames CreateNodesFrames(std::span<const NodeAttrs> attrs,
                           std::span<const NodeRef> near,
                           std::span<const std::string_view> contents,
                           std::vector<NodeRef>* refs);
  Frames AddChildrenFrames(std::span<const NodeRef> parents,
                           std::span<const NodeRef> children);
  Frames AddPartsFrames(std::span<const NodeRef> owners,
                        std::span<const NodeRef> parts);
  Frames AddRefsFrames(std::span<const NodeRef> from,
                       std::span<const NodeRef> to,
                       std::span<const int64_t> offset_from,
                       std::span<const int64_t> offset_to);

  // --- Replication ----------------------------------------------------
  /// Opens (or resumes, when `resume_seq` > 0) a WAL subscription as
  /// follower `follower_id` (nonzero, stable across reconnects — it
  /// keys the primary's retention floor).
  util::Status ReplSubscribe(uint64_t follower_id, uint64_t resume_seq,
                             server::ReplChain* out);
  /// Fetches up to `max_bytes` of segment `seq` starting at `offset`.
  /// `*sealed` reports whether the segment is closed; `*flushed_size`
  /// its currently durable size. An empty chunk at the flushed size
  /// of an unsealed segment means "caught up, poll again".
  util::Status ReplFetch(uint64_t seq, uint64_t offset, uint64_t max_bytes,
                         std::string* chunk, bool* sealed,
                         uint64_t* flushed_size);
  /// Reports this follower's replay progress (and id) to a primary —
  /// or, with both zero, just queries the peer's role/epoch/LSN (the
  /// failover client's probe).
  util::Status ReplReport(uint64_t follower_id, uint64_t replayed_lsn,
                          server::ReplPeer* out);
  /// Asks a replica to promote itself under `proposed_epoch`;
  /// `*epoch` receives the epoch now in force. Idempotent: a repeat
  /// with the epoch already in force succeeds.
  util::Status ReplPromote(uint64_t proposed_epoch, uint64_t* epoch);
  /// Fences the peer at `fencing_epoch` (it demotes itself and
  /// persists the fence if the epoch is newer); `*epoch` receives the
  /// epoch now in force. Idempotent the same way.
  util::Status ReplFence(uint64_t fencing_epoch, uint64_t* epoch);

  /// Fleet placement probe (wire opcode kShardInfo): which shard this
  /// server claims to be and how many the fleet has. A standalone
  /// server answers (0, 1).
  util::Status ShardInfo(uint32_t* shard_id, uint32_t* shard_count);

  // --- TraversalCapable ----------------------------------------------
  util::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                           std::vector<int64_t>* values) override;
  util::Status TravClosure1N(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                            uint64_t* visited) override;
  util::Result<uint64_t> TravClosure1NAttSet(NodeRef start) override;
  util::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                 std::vector<NodeRef>* out) override;
  util::Status TravClosureMN(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAtt(NodeRef start, int depth,
                                std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAttLinkSum(NodeRef start, int depth,
                                       std::vector<NodeDistance>* out) override;

 private:
  RemoteStore() = default;

  /// Prefix for transport-failure messages: the peer label when the
  /// caller set one (fleet members), else the plain "remote".
  std::string PeerTag() const {
    return options_.peer_label.empty() ? "remote" : options_.peer_label;
  }

  /// Opens and configures the socket to options_.host:port (TCP_NODELAY,
  /// SO_SNDTIMEO from the deadline), storing it in fd_.
  util::Status ConnectSocket();
  /// Drops any poisoned socket, reconnects and re-runs the Hello
  /// handshake (which also re-adopts the server's reset epoch). Counts
  /// `remote.reconnects`.
  util::Status Reconnect();
  /// When the connection is poisoned and no call is in flight (the
  /// previous failure already surfaced to the caller), reconnects
  /// within the retry budget — safe for any opcode, since nothing of
  /// unknown fate is outstanding.
  util::Status EnsureConnected();
  /// Capped-exponential-backoff sleep with full jitter, attempt >= 1.
  void Backoff(int attempt);
  /// The reconnect-and-resend loop behind Await: re-sends the
  /// (retry-safe) `payload` on a fresh connection until the server
  /// answers. Exhausting the budget surfaces kUnavailable.
  util::Status Resend(std::string_view payload, std::string* result,
                      util::Status first);

  /// Frames `payload` and sends it. Any transport failure poisons the
  /// connection: the socket is closed, making the failure recoverable
  /// (EnsureConnected / the retry loop) instead of sticky.
  util::Status SendPayload(std::string_view payload);
  /// Blocks for one response frame — at most options_.deadline_ms
  /// (poll before every recv); a miss poisons the connection and
  /// returns kDeadlineExceeded. `*op_status` receives the server's
  /// status, `*result` (may be null) the response body.
  util::Status ReadResponse(util::Status* op_status, std::string* result);
  /// ReadResponse folded into one status: the transport failure, else
  /// the server's status for the op.
  util::Status Receive(std::string* result);
  /// Post then Await: one round trip under the recovery policy.
  util::Status Call(std::string payload, std::string* result);
  /// One send and receive, no recovery (the retry loop's attempt).
  util::Status CallOnce(std::string_view payload, std::string* result);

  // Call-table requests (server/wire_calls.h). `C` is a declaration
  // from server::calls; a reply that does not decode is Corruption.

  /// Round-trips `C(args...)` and decodes the reply into `*reply`
  /// (list replies append).
  template <typename C, typename... A>
  util::Status InvokeInto(typename C::Reply* reply, const A&... args);
  /// InvokeInto returning the reply: a Status for an empty reply, else
  /// a Result.
  template <typename C, typename... A>
  auto Invoke(const A&... args);
  /// Frames of the fused multi-node `C(args...)` over `count` entries:
  /// up to kMultiChunk entries and kMultiBytes of contents each (one
  /// entry in kPerCall mode). A span argument holds one value per entry
  /// and is cut to the frame's entries. Each reply must append one
  /// value per entry to `*out` (null for an empty reply).
  template <typename C, typename... A>
  Frames FusedFrames(typename C::Reply* out, size_t count,
                     const A&... args);
  /// Runs `frames` in order, one round trip each.
  util::Status RunFrames(Frames frames);

  /// Handshake after connect: checks that the server speaks exactly
  /// server::kWireVersion and learns its backend tag.
  util::Status Hello();

  /// Lazily interned `remote.<mode>.roundtrips` counter (the mode is
  /// fixed before the first call, at Connect time).
  telemetry::Counter* RoundTrips();

  // Declared before fd_ so the in-process server (loopback mode) is
  // destroyed after the client socket closes: members destruct in
  // reverse order, and ~RemoteStore closes fd_ first anyway.
  std::unique_ptr<server::Server> owned_server_;

  RemoteOptions options_;
  int fd_ = -1;
  std::string rx_;  // bytes received but not yet framed
  /// The posted request awaiting its reply, kept for a re-send, and
  /// the outcome of sending it.
  std::string pending_;
  util::Status sent_;
  bool posted_ = false;
  /// True while Resend/EnsureConnected is reconnecting; stops
  /// the Hello inside Reconnect() from recursing into its own retry.
  bool in_recovery_ = false;
  /// Backoff jitter. Fixed seed: the jitter decorrelates concurrent
  /// clients via their differing attempt timings, and deterministic
  /// sleeps keep test runs reproducible.
  util::Rng backoff_rng_{0xFA117001};
  std::string server_backend_;
  RemoteMode mode_ = RemoteMode::kPushdown;
  telemetry::Counter* roundtrips_ = nullptr;
};

/// Sends `*frames[i]` on `clients[i]` for every i where both are set,
/// then awaits the posted replies in order and decodes the OK ones:
/// every request is on the wire before any reply is read.
/// `(*statuses)[i]` receives each outcome (Ok where nothing was sent).
/// Every posted reply is read, even after another has failed, so no
/// connection is left holding a stale reply.
void FanOut(std::span<const std::unique_ptr<RemoteStore>> clients,
            std::span<Frame* const> frames,
            std::vector<util::Status>* statuses);

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_REMOTE_STORE_H_
