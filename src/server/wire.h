#ifndef HM_SERVER_WIRE_H_
#define HM_SERVER_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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
/// The `---- vN:` markers in OpCode record which revision added each
/// opcode: v2 the Batch frame, fused navigation and closure pushdown;
/// v3 kStats; v4 kPing and the kUnavailable / kDeadlineExceeded /
/// kOverloaded codes; v5 kShardInfo and shard-qualified NodeRefs
/// ((shard << 56) | local_ref, see cluster/shard_map.h — a single-node
/// server is shard 0 of 1, where both encodings coincide); v6 the
/// replication opcodes and the kReadOnly / kFencedOff codes
/// (DESIGN.md §16); v7 the exact-version Hello and kVersionMismatch.
inline constexpr uint8_t kWireVersion = 7;

/// Bytes before the payload: fixed32 length + fixed32 masked CRC.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Default ceiling on payload size. Generous: the largest legitimate
/// payload is a level-6 form bitmap (~20 KB); anything near this limit
/// is a corrupt or hostile length field.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

/// One opcode per HyperStore method, plus session management. Values
/// are part of the wire format — append only, never renumber. Each
/// opcode's body layout is declared once, in the call table
/// (server/wire_calls.h).
enum class OpCode : uint8_t {
  kHello = 1,
  kReset = 2,  // recreate the served database (benchmark setup)
  kBegin = 3,
  kCommit = 4,
  kAbort = 5,
  kCloseReopen = 6,
  kCreateNode = 7,
  kSetText = 8,
  kSetForm = 9,
  kAddChild = 10,
  kAddPart = 11,
  kAddRef = 12,
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
  // N sub-requests in one frame, one reply frame with N sub-responses.
  // Body: varint count, then per entry a length-prefixed sub-payload.
  // A sub-request is a regular request payload (opcode + body); a
  // sub-response is a regular response payload (status + body). The
  // same shape encodes both directions; nesting is rejected.
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
};

/// Stable lower-snake-case opcode name ("get_attr", "closure_1n");
/// these spell the per-opcode metric names
/// (`server.op.<name>.count` etc.), so they are part of the telemetry
/// surface — extend, don't rename.
std::string_view OpCodeName(OpCode op);

/// True for opcodes whose handler never mutates the served database —
/// the server may dispatch these under a shared lock when the backend
/// supports concurrent reads. kBatch is classified by its contents;
/// kReset, transactions, every Set*/Add*/Create* and the attr-set
/// pushdown are exclusive.
bool IsReadOnlyOp(OpCode op);

/// Ceiling on sub-requests per Batch frame (and refs per Multi op).
/// Anything above this is a malformed or hostile count field.
inline constexpr uint64_t kMaxBatchEntries = 65536;

/// Appends the Batch body encoding of `entries` to `dst`: varint count
/// followed by each entry length-prefixed. Used for both the request
/// (sub-requests) and the response (sub-responses) directions.
void EncodeBatch(std::span<const std::string> entries, std::string* dst);

/// Decodes a Batch body into entry views into `body`. Strict: fails on
/// a count above `max_entries`, a truncated entry, or trailing bytes.
bool DecodeBatch(std::string_view body, std::vector<std::string_view>* entries,
                 uint64_t max_entries = kMaxBatchEntries);

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

}  // namespace hm::server

#endif  // HM_SERVER_WIRE_H_
