#ifndef HM_SERVER_WIRE_H_
#define HM_SERVER_WIRE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/coding.h"
#include "util/status.h"

namespace hm::server {

/// Binary wire protocol between `RemoteStore` clients and `hm_serve`
/// servers. One request frame yields exactly one response frame, in
/// order, per connection.
///
/// Frame layout (little-endian, 8-byte header):
///
///   +----------------+----------------+====================+
///   | payload length | masked CRC-32  |      payload       |
///   |    fixed32     |    fixed32     |  `length` bytes    |
///   +----------------+----------------+====================+
///
/// The CRC covers the payload only and is masked with the same
/// rotation used by the WAL (util/crc32) so a frame embedding another
/// frame never checksums to itself. A request payload is one opcode
/// byte followed by the opcode-specific body; a response payload is a
/// status byte (`util::StatusCode`), then for failures a
/// length-prefixed message, or for success the result body.
///
/// Integers use the same fixed/varint encodings as the storage layer
/// (util/coding): NodeRefs travel as varint64, attribute values as
/// zig-zag varints, strings and serialized bitmaps length-prefixed.
/// server/wire_calls.h holds the codec for every value type and the
/// body layout of every opcode.

/// The one protocol version this build speaks. Clients and servers
/// always ship together from this tree and nothing persisted speaks
/// the wire, so there is no negotiation: the client sends this value
/// as the kHello body, and a server built at any other version answers
/// kVersionMismatch (a client that hears any other version back fails
/// the same way). Bump it whenever the frame, an opcode body or the
/// status-code set changes.
///
/// The `---- vN:` markers in OpCode record what each revision changed:
/// v2 the Batch frame, fused navigation and closure pushdown;
/// v3 kStats; v4 kPing and the kUnavailable / kDeadlineExceeded /
/// kOverloaded codes; v5 kShardInfo and shard-qualified NodeRefs
/// ((shard << 56) | local_ref, see cluster/shard_map.h — a single-node
/// server is shard 0 of 1, where both encodings coincide); v6 the
/// replication opcodes and the kReadOnly / kFencedOff codes
/// (DESIGN.md §16); v7 the exact-version Hello and kVersionMismatch;
/// v8 the fused kPartsMulti / kRefsToMulti / kSetAttrsMulti, the
/// retirement of kBatch, and status code 17 (kFailedPrecondition),
/// which shipped earlier without a bump; v9 kChildrenAttrsMulti; v10
/// the fused load writes kCreateNodesMulti, kAddChildrenMulti,
/// kAddPartsMulti and kAddRefsMulti; v11 the retirement of the
/// per-item writes kCreateNode, kAddChild, kAddPart and kAddRef, which
/// a client now sends as one-entry fused writes.
inline constexpr uint8_t kWireVersion = 11;

/// Bytes before the payload: fixed32 length + fixed32 masked CRC.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Default ceiling on payload size. Generous: the largest legitimate
/// payload is a level-6 form bitmap (~20 KB); anything near this limit
/// is a corrupt or hostile length field.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// One opcode per HyperStore method, plus session management. Values
/// are part of the wire format — append only, never renumber. Each
/// opcode's body layout, metric name and class are declared once, in
/// the call table (server/wire_calls.h), which the compiler checks
/// against this enum.
enum class OpCode : uint8_t {
  kHello = 1,
  kReset = 2,  // recreate the served database (benchmark setup)
  kBegin = 3,
  kCommit = 4,
  kAbort = 5,
  kCloseReopen = 6,
  kCreateNode = 7,  // retired in v11
  kSetText = 8,
  kSetForm = 9,
  kAddChild = 10,  // retired in v11
  kAddPart = 11,   // retired in v11
  kAddRef = 12,    // retired in v11
  kGetAttr = 13,
  kSetAttr = 14,
  kGetKind = 15,
  kGetText = 16,
  kGetForm = 17,
  kSetContents = 18,
  kGetContents = 19,
  kLookupUnique = 20,
  kRangeHundred = 21,
  kRangeMillion = 22,
  kChildren = 23,
  kParent = 24,
  kParts = 25,
  kPartOf = 26,
  kRefsTo = 27,
  kRefsFrom = 28,
  kStorageBytes = 29,

  // ---- v2: batching ----
  // Retired in v8 (the fused *Multi opcodes replaced it): the number
  // stays reserved and answers kInvalidArgument.
  kBatch = 30,
  kChildrenMulti = 31,
  kGetAttrsMulti = 32,

  // ---- v2: server-side traversal (closure pushdown, §6.6) ----
  // The server walks the backend locally and ships only the result,
  // turning O(visited-nodes) round-trips into one.
  kClosure1N = 33,
  kClosureMN = 34,
  kClosureMNAtt = 35,
  kClosure1NAttSum = 36,
  kClosure1NAttSet = 37,  // the one mutating kernel
  kClosure1NPred = 38,
  kClosureMNAttLinkSum = 39,

  // ---- v3: introspection ----
  kStats = 40,  // the server's telemetry registry

  // ---- v4: fault tolerance ----
  kPing = 41,  // liveness / reconnect probe

  // ---- v5: cluster ----
  // A server that is not part of a fleet answers (0, 1), which the
  // sharded client rejects at connect time as a mis-wired fleet.
  kShardInfo = 42,

  // ---- v6: replication ----
  // WAL shipping is pull-based: the follower drives, the primary only
  // answers — so replication rides the existing one-request-one-
  // response framing with no new stream machinery. A server with no
  // replication role configured answers all five with NotSupported.
  kReplSubscribe = 43,
  kReplSegment = 44,
  kReplStatus = 45,
  kReplPromote = 46,  // the follower replays its backlog, takes writes
  kReplFence = 47,    // an old primary demotes itself, persists the fence

  // ---- v7: no new opcodes. kHello requires an exact version match and
  // answers kVersionMismatch otherwise (see kWireVersion).

  // ---- v8: fused kPartsMulti / kRefsToMulti / kSetAttrsMulti; kBatch
  // retired; status code 17 (kFailedPrecondition), added without a bump.
  kPartsMulti = 48,
  kRefsToMulti = 49,
  kSetAttrsMulti = 50,

  // ---- v9: fused kChildrenAttrsMulti, each node's children list with
  // one attribute: the 1-N engine's one fetch per tier.
  kChildrenAttrsMulti = 51,

  // ---- v10: the fused load writes of the §5.2 generator, one entry per
  // node or edge: a whole level of nodes with their contents, or a whole
  // edge phase, per frame.
  kCreateNodesMulti = 52,
  kAddChildrenMulti = 53,
  kAddPartsMulti = 54,
  kAddRefsMulti = 55,

  // ---- v11: no new opcodes. kCreateNode, kAddChild, kAddPart and
  // kAddRef are retired: a client sends each per-item write as a
  // one-entry kCreateNodesMulti ... kAddRefsMulti. Their numbers stay
  // reserved and answer kInvalidArgument, as kBatch's does.
};

/// The one class each opcode declares in the call table
/// (server/wire_calls.h). The class alone decides how the server locks,
/// gates and accounts for a request and whether the client may re-send
/// it after a transport failure (the functions below).
enum class OpClass : uint8_t {
  kRead,      // never mutates the database
  kReplPull,  // the follower pull path: subscribe, segment fetch, status
  kWrite,     // mutates the database, so marks the store dirty
  kTxn,       // Begin, Commit, Abort
  kSession,   // Reset and CloseReopen, which are idempotent
  kRole,      // role changes: Promote, Fence (epoch-idempotent)
  kNone,      // no call: a retired opcode, and every byte outside the table
};

/// The side of the server's dispatch lock a class takes. The pull path
/// takes none: it never touches the backend, and a semi-sync kCommit
/// holds the exclusive side until a follower acks over kReplStatus.
enum class DispatchLock : uint8_t { kNone, kShared, kExclusive };
constexpr DispatchLock LockOf(OpClass c) {
  if (c == OpClass::kRead) return DispatchLock::kShared;
  return c == OpClass::kReplPull || c == OpClass::kNone
             ? DispatchLock::kNone
             : DispatchLock::kExclusive;
}

/// Whether a replica or a fenced primary refuses the class. Promote and
/// Fence are the role changes that gate enforces.
constexpr bool IsGated(OpClass c) {
  return c == OpClass::kWrite || c == OpClass::kTxn || c == OpClass::kSession;
}

/// Whether the client may re-send a request whose fate a transport
/// failure left unknown.
constexpr bool IsRetrySafe(OpClass c) {
  return c != OpClass::kWrite && c != OpClass::kTxn && c != OpClass::kNone;
}

/// Whether a server with no replication role answers NotSupported.
constexpr bool NeedsRole(OpClass c) {
  return c == OpClass::kReplPull || c == OpClass::kRole;
}

/// The class an opcode declares in the call table; kNone for a byte
/// outside it.
OpClass ClassOf(OpCode op);

/// Stable lower-snake-case opcode name ("get_attr", "closure_1n"), as
/// declared in the call table; "unknown" for a byte outside it. These
/// spell the per-opcode metric names (`server.op.<name>.count` etc.),
/// so they are part of the telemetry surface — extend, don't rename.
std::string_view OpCodeName(OpCode op);

/// True for the classes whose handlers never mutate the served
/// database (kRead, kReplPull).
bool IsReadOnlyOp(OpCode op);

/// Ceiling on nodes per multi-node request. Anything above this is a
/// malformed or hostile count field.
inline constexpr uint64_t kMaxBatchEntries = 65536;

/// Outcome of scanning a receive buffer for one frame.
enum class FrameResult : uint8_t {
  kOk = 0,          // a complete, CRC-valid frame was decoded
  kIncomplete = 1,  // need more bytes; read again and retry
  kCorrupt = 2,     // CRC mismatch — the stream is unrecoverable
  kTooLarge = 3,    // length field exceeds the frame-size ceiling
};

std::string_view FrameResultName(FrameResult result);

/// Appends a framed copy of `payload` (header + payload) to `dst`.
void AppendFrame(std::string* dst, std::string_view payload);

/// Tries to decode one frame from the front of `buf`. On kOk,
/// `*payload` views the payload bytes inside `buf` and `*frame_len` is
/// the total frame size to consume. On kIncomplete nothing is written.
/// kCorrupt / kTooLarge mean the connection must be dropped: framing
/// can't resynchronise after a bad header.
FrameResult DecodeFrame(std::string_view buf, std::string_view* payload,
                        size_t* frame_len,
                        uint32_t max_payload = kDefaultMaxFrameBytes);

/// Rebuilds a Status from its wire code; unknown codes map to
/// kInternal so a newer server can't crash an older client.
util::Status StatusFromCode(util::StatusCode code, std::string msg);

/// Appends the response header for `status`: the code byte, plus the
/// length-prefixed message when not OK. An OK header is followed by
/// the opcode-specific result body.
void PutStatus(std::string* dst, const util::Status& status);

/// Splits a response payload into its Status and (for OK) the result
/// body. Returns false if the payload is malformed.
bool SplitResponse(std::string_view payload, util::Status* status,
                   std::string_view* body);

// ---- Send and receive halves (DESIGN.md §8) ---------------------------

/// Writes all of `data` to `fd`, retrying on short writes and EINTR.
bool WriteAll(int fd, std::string_view data);

/// How long a receive polls its socket without blocking before it parks
/// the thread in the kernel. A loopback round trip answers well inside
/// this, so the waiting end never pays a sleep and a wake-up; a wait
/// that outlasts it costs at most this much CPU more than blocking at
/// once. Both ends of the wire use it: the client waiting for a reply,
/// and a server worker waiting for the next request.
inline constexpr std::chrono::microseconds kRecvSpinBudget{50};

/// How one RecvSome wait ended.
enum class RecvOutcome : uint8_t {
  kData,      // `bytes` bytes were received
  kClosed,    // the peer closed, or our read side was shut down
  kTimedOut,  // the deadline passed with nothing to read
  kError,     // errno holds the cause
};

struct Received {
  RecvOutcome outcome;
  size_t bytes;  // kData only
  bool spun;     // the wait ended inside kRecvSpinBudget, without blocking
};

/// Waits for bytes on `fd` and receives up to `cap` of them into `buf`.
/// It first retries a non-blocking recv for up to kRecvSpinBudget,
/// yielding the CPU between tries, then blocks. A close ends the wait
/// at once, spinning or not. With a `deadline` the spin stops at it
/// too, the block is a poll bounded by the time left, and the wait ends
/// kTimedOut once it has passed; without one it blocks in recv until
/// bytes or a close arrive. EINTR is retried.
Received RecvSome(
    int fd, char* buf, size_t cap,
    std::optional<std::chrono::steady_clock::time_point> deadline = {});

}  // namespace hm::server

#endif  // HM_SERVER_WIRE_H_
