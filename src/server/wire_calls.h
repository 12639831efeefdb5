#ifndef HM_SERVER_WIRE_CALLS_H_
#define HM_SERVER_WIRE_CALLS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "hypermodel/traversal.h"
#include "hypermodel/types.h"
#include "server/replication_handler.h"
#include "server/wire.h"
#include "telemetry/metrics.h"
#include "util/bitmap.h"
#include "util/coding.h"

namespace hm::server {

/// The call table: the one place the body of every opcode is laid out.
/// `RemoteStore` encodes requests and decodes replies through it,
/// `Server` decodes requests and encodes replies through it, and the
/// replication handler receives already-decoded arguments.
///
/// Two layers:
///
///   * `Codec<T>` pairs `Put` and `Get` for one value type. `Get`
///     rejects out-of-range values (an attribute above 4, a kind above
///     3, a depth above kMaxTraversalDepth, a multi-node count above
///     kMaxBatchEntries), so a range check applies on both ends of the
///     wire and no handler repeats it.
///   * `Call<op, Reply, Args...>` declares one opcode: its argument
///     types in wire order and its reply type. Decoding is strict: a
///     body with missing or trailing bytes fails.

/// Ceiling on a client-supplied BFS depth; anything above it is a
/// malformed (or hostile) count, not a legitimate traversal bound.
inline constexpr uint64_t kMaxTraversalDepth = 1u << 20;

/// The reply of a call that answers with a bare status.
struct Empty {};

/// Traversal depth: a varint at most kMaxTraversalDepth, an int in C++.
struct Depth {};

/// The node list of a multi-node request: varint n <= kMaxBatchEntries,
/// then n refs.
struct NodeBatch {};

/// kHello reply.
struct HelloReply {
  uint8_t version = 0;
  std::string backend;  // backend tag ("mem", "oodb", ...)
};

/// kShardInfo reply.
struct ShardPlacement {
  uint64_t shard_id = 0;
  uint64_t shard_count = 0;
};

/// kClosure1NAttSum reply.
struct AttSum {
  uint64_t visited = 0;
  int64_t sum = 0;
};

template <typename T>
struct Codec;

template <typename M>
struct MemberOf;
template <typename S, typename F>
struct MemberOf<F S::*> {
  using type = S;
};

/// A struct as its fields in order, each with its own codec.
template <auto... kFields>
struct FieldsCodec {
  using Value = typename MemberOf<
      std::tuple_element_t<0, std::tuple<decltype(kFields)...>>>::type;
  static void Put(std::string* dst, const Value& v) {
    (Codec<std::remove_cvref_t<decltype(v.*kFields)>>::Put(dst, v.*kFields),
     ...);
  }
  static bool Get(util::Decoder* in, Value* v) {
    return (Codec<std::remove_cvref_t<decltype(v->*kFields)>>::Get(
                in, &(v->*kFields)) &&
            ...);
  }
};

template <>
struct Codec<Empty> {
  using Value = Empty;
  static void Put(std::string*, const Empty&) {}
  static bool Get(util::Decoder*, Empty*) { return true; }
};

/// Varint64; also every NodeRef.
template <>
struct Codec<uint64_t> {
  using Value = uint64_t;
  static void Put(std::string* dst, uint64_t value) {
    util::PutVarint64(dst, value);
  }
  static bool Get(util::Decoder* in, uint64_t* value) {
    return in->GetVarint64(value);
  }
};

/// Zig-zag varint.
template <>
struct Codec<int64_t> {
  using Value = int64_t;
  static void Put(std::string* dst, int64_t value) {
    util::PutVarSigned64(dst, value);
  }
  static bool Get(util::Decoder* in, int64_t* value) {
    return in->GetVarSigned64(value);
  }
};

/// One raw byte.
template <>
struct Codec<uint8_t> {
  using Value = uint8_t;
  static void Put(std::string* dst, uint8_t value) {
    dst->push_back(static_cast<char>(value));
  }
  static bool Get(util::Decoder* in, uint8_t* value) {
    return in->GetByte(value);
  }
};

/// One byte, 0 or 1.
template <>
struct Codec<bool> {
  using Value = bool;
  static void Put(std::string* dst, bool value) {
    dst->push_back(value ? '\x01' : '\x00');
  }
  static bool Get(util::Decoder* in, bool* value) {
    uint8_t byte = 0;
    if (!Codec<uint8_t>::Get(in, &byte) || byte > 1) return false;
    *value = byte == 1;
    return true;
  }
};

/// Varint at most the largest enumerator.
template <typename E, E kMax>
struct EnumCodec {
  using Value = E;
  static void Put(std::string* dst, E value) {
    util::PutVarint64(dst, static_cast<uint64_t>(value));
  }
  static bool Get(util::Decoder* in, E* value) {
    uint64_t raw = 0;
    if (!in->GetVarint64(&raw) || raw > static_cast<uint64_t>(kMax)) {
      return false;
    }
    *value = static_cast<E>(raw);
    return true;
  }
};
template <>
struct Codec<Attr> : EnumCodec<Attr, Attr::kMillion> {};
template <>
struct Codec<NodeKind> : EnumCodec<NodeKind, NodeKind::kDraw> {};

template <>
struct Codec<Depth> {
  using Value = int;
  static void Put(std::string* dst, int depth) {
    util::PutVarint64(dst, static_cast<uint64_t>(depth));
  }
  static bool Get(util::Decoder* in, int* depth) {
    uint64_t raw = 0;
    if (!in->GetVarint64(&raw) || raw > kMaxTraversalDepth) return false;
    *depth = static_cast<int>(raw);
    return true;
  }
};

/// Length-prefixed bytes, decoded as a view into the body.
template <>
struct Codec<std::string_view> {
  using Value = std::string_view;
  static void Put(std::string* dst, std::string_view value) {
    util::PutLengthPrefixed(dst, value);
  }
  static bool Get(util::Decoder* in, std::string_view* value) {
    return in->GetLengthPrefixed(value);
  }
};

/// Length-prefixed bytes, decoded as a copy.
template <>
struct Codec<std::string> {
  using Value = std::string;
  static void Put(std::string* dst, std::string_view value) {
    util::PutLengthPrefixed(dst, value);
  }
  static bool Get(util::Decoder* in, std::string* value) {
    std::string_view view;
    if (!in->GetLengthPrefixed(&view)) return false;
    value->assign(view);
    return true;
  }
};

/// Length-prefixed Bitmap::Serialize.
template <>
struct Codec<util::Bitmap> {
  using Value = util::Bitmap;
  static void Put(std::string* dst, const util::Bitmap& value) {
    util::PutLengthPrefixed(dst, value.Serialize());
  }
  static bool Get(util::Decoder* in, util::Bitmap* value) {
    std::string_view serialized;
    if (!in->GetLengthPrefixed(&serialized)) return false;
    auto bitmap = util::Bitmap::Deserialize(serialized);
    if (!bitmap.ok()) return false;
    *value = std::move(*bitmap);
    return true;
  }
};

/// The five attributes zig-zag, then the kind.
template <>
struct Codec<NodeAttrs>
    : FieldsCodec<&NodeAttrs::unique_id, &NodeAttrs::ten, &NodeAttrs::hundred,
                  &NodeAttrs::thousand, &NodeAttrs::million,
                  &NodeAttrs::kind> {};

/// Varint count (at most `kMax`), then each element. `Get` appends to
/// the vector and caps its up-front reservation by the bytes left, so a
/// hostile count costs no memory.
template <typename T, uint64_t kMax = UINT64_MAX>
struct ListCodec {
  using Value = std::vector<T>;
  static void Put(std::string* dst, std::span<const T> items) {
    util::PutVarint64(dst, items.size());
    for (const T& item : items) Codec<T>::Put(dst, item);
  }
  static bool Get(util::Decoder* in, std::vector<T>* items) {
    uint64_t count = 0;
    if (!in->GetVarint64(&count) || count > kMax) return false;
    items->reserve(items->size() +
                   std::min<uint64_t>(count, in->Remaining()));
    for (uint64_t i = 0; i < count; ++i) {
      T item{};
      if (!Codec<T>::Get(in, &item)) return false;
      items->push_back(item);
    }
    return true;
  }
};

/// Ref lists (varint count + varint refs).
template <>
struct Codec<std::vector<NodeRef>> : ListCodec<NodeRef> {};

/// A ref-to edge: varint node, zig-zag offsets.
template <>
struct Codec<RefEdge>
    : FieldsCodec<&RefEdge::node, &RefEdge::offset_from,
                  &RefEdge::offset_to> {};
template <>
struct Codec<std::vector<RefEdge>> : ListCodec<RefEdge> {};

/// A node and its link distance: varint node, zig-zag distance.
template <>
struct Codec<NodeDistance>
    : FieldsCodec<&NodeDistance::node, &NodeDistance::distance> {};
template <>
struct Codec<std::vector<NodeDistance>> : ListCodec<NodeDistance> {};

template <>
struct Codec<NodeBatch> : ListCodec<NodeRef, kMaxBatchEntries> {};

/// One value per node of a multi-node request: varint n <=
/// kMaxBatchEntries, then n zig-zag values.
template <>
struct Codec<std::vector<int64_t>> : ListCodec<int64_t, kMaxBatchEntries> {};

/// One ref list per node of a multi-node request: varint n <=
/// kMaxBatchEntries, then n ref lists. `Get` appends n lists.
template <>
struct Codec<RefLists> {
  using Value = RefLists;
  static void Put(std::string* dst, const RefLists& lists) {
    util::PutVarint64(dst, lists.size());
    for (size_t i = 0; i < lists.size(); ++i) {
      ListCodec<NodeRef>::Put(dst, lists[i]);
    }
  }
  static bool Get(util::Decoder* in, RefLists* lists) {
    uint64_t count = 0;
    if (!in->GetVarint64(&count) || count > kMaxBatchEntries) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!ListCodec<NodeRef>::Get(in, &lists->items)) return false;
      lists->Close();
    }
    return true;
  }
};

/// The serialized registry; it runs to the end of the body.
template <>
struct Codec<telemetry::Snapshot> {
  using Value = telemetry::Snapshot;
  static void Put(std::string* dst, const telemetry::Snapshot& snapshot) {
    snapshot.SerializeTo(dst);
  }
  static bool Get(util::Decoder* in, telemetry::Snapshot* snapshot) {
    auto decoded = telemetry::Snapshot::Deserialize(in->TakeRest());
    if (!decoded.ok()) return false;
    *snapshot = std::move(*decoded);
    return true;
  }
};

template <>
struct Codec<HelloReply>
    : FieldsCodec<&HelloReply::version, &HelloReply::backend> {};

template <>
struct Codec<ShardPlacement>
    : FieldsCodec<&ShardPlacement::shard_id, &ShardPlacement::shard_count> {};

template <>
struct Codec<AttSum> : FieldsCodec<&AttSum::visited, &AttSum::sum> {};

template <>
struct Codec<ReplChain>
    : FieldsCodec<&ReplChain::epoch, &ReplChain::next_lsn,
                  &ReplChain::oldest_seq> {};

/// Role byte, then varint epoch and durable LSN.
template <>
struct Codec<ReplPeer>
    : FieldsCodec<&ReplPeer::role, &ReplPeer::epoch, &ReplPeer::durable_lsn> {};

/// Sealed byte, varint flushed size, length-prefixed chunk.
template <>
struct Codec<ReplChunk>
    : FieldsCodec<&ReplChunk::sealed, &ReplChunk::flushed_size,
                  &ReplChunk::bytes> {};

/// One opcode: `ReplyT` and `ArgTs` name codecs, so a declaration reads
/// as the body layout, arguments in wire order.
template <OpCode kOp, typename ReplyT, typename... ArgTs>
struct Call {
  static constexpr OpCode kOpCode = kOp;
  using Reply = typename Codec<ReplyT>::Value;
  using Args = std::tuple<typename Codec<ArgTs>::Value...>;

  /// The request payload: opcode byte, then the arguments.
  template <typename... A>
  static std::string Request(const A&... args) {
    static_assert(sizeof...(A) == sizeof...(ArgTs));
    std::string payload(1, static_cast<char>(kOp));
    (Codec<ArgTs>::Put(&payload, args), ...);
    return payload;
  }
  static bool DecodeArgs(std::string_view body, Args* args) {
    util::Decoder in(body);
    auto get_all = [&in](auto&... a) {
      return (Codec<ArgTs>::Get(&in, &a) && ...);
    };
    return std::apply(get_all, *args) && in.Empty();
  }
  static void EncodeReply(std::string* dst, const Reply& reply) {
    Codec<ReplyT>::Put(dst, reply);
  }
  /// Decodes into `*reply`; list replies append.
  static bool DecodeReply(std::string_view body, Reply* reply) {
    util::Decoder in(body);
    return Codec<ReplyT>::Get(&in, reply) && in.Empty();
  }
};

/// One declaration per opcode, in opcode order. NodeRefs are uint64_t.
namespace calls {

// Version byte + backend tag. An empty body is the oldest clients'
// Hello; the server refuses it like any other version.
using Hello = Call<OpCode::kHello, HelloReply, uint64_t>;
using Reset = Call<OpCode::kReset, Empty>;
using Begin = Call<OpCode::kBegin, Empty>;
using Commit = Call<OpCode::kCommit, Empty>;
using Abort = Call<OpCode::kAbort, Empty>;
using CloseReopen = Call<OpCode::kCloseReopen, Empty>;
// attrs + near -> new node.
using CreateNode = Call<OpCode::kCreateNode, uint64_t, NodeAttrs, uint64_t>;
using SetText = Call<OpCode::kSetText, Empty, uint64_t, std::string_view>;
using SetForm = Call<OpCode::kSetForm, Empty, uint64_t, util::Bitmap>;
using AddChild = Call<OpCode::kAddChild, Empty, uint64_t, uint64_t>;
using AddPart = Call<OpCode::kAddPart, Empty, uint64_t, uint64_t>;
// from, to, offset_from, offset_to.
using AddRef =
    Call<OpCode::kAddRef, Empty, uint64_t, uint64_t, int64_t, int64_t>;
using GetAttr = Call<OpCode::kGetAttr, int64_t, uint64_t, Attr>;
using SetAttr = Call<OpCode::kSetAttr, Empty, uint64_t, Attr, int64_t>;
using GetKind = Call<OpCode::kGetKind, NodeKind, uint64_t>;
using GetText = Call<OpCode::kGetText, std::string, uint64_t>;
using GetForm = Call<OpCode::kGetForm, util::Bitmap, uint64_t>;
using SetContents =
    Call<OpCode::kSetContents, Empty, uint64_t, std::string_view>;
using GetContents = Call<OpCode::kGetContents, std::string, uint64_t>;
using LookupUnique = Call<OpCode::kLookupUnique, uint64_t, int64_t>;
// lo, hi -> refs.
using RangeHundred =
    Call<OpCode::kRangeHundred, std::vector<NodeRef>, int64_t, int64_t>;
using RangeMillion =
    Call<OpCode::kRangeMillion, std::vector<NodeRef>, int64_t, int64_t>;
using Children = Call<OpCode::kChildren, std::vector<NodeRef>, uint64_t>;
using Parent = Call<OpCode::kParent, uint64_t, uint64_t>;
using Parts = Call<OpCode::kParts, std::vector<NodeRef>, uint64_t>;
using PartOf = Call<OpCode::kPartOf, std::vector<NodeRef>, uint64_t>;
using RefsTo = Call<OpCode::kRefsTo, std::vector<RefEdge>, uint64_t>;
using RefsFrom = Call<OpCode::kRefsFrom, std::vector<RefEdge>, uint64_t>;
using StorageBytes = Call<OpCode::kStorageBytes, uint64_t>;
// kBatch is framed by EncodeBatch/DecodeBatch (wire.h).
using ChildrenMulti = Call<OpCode::kChildrenMulti, RefLists, NodeBatch>;
using GetAttrsMulti =
    Call<OpCode::kGetAttrsMulti, std::vector<int64_t>, Attr, NodeBatch>;
// Server-side traversal (closure pushdown, §6.6): start [+ bounds].
using Closure1N = Call<OpCode::kClosure1N, std::vector<NodeRef>, uint64_t>;
using ClosureMN = Call<OpCode::kClosureMN, std::vector<NodeRef>, uint64_t>;
using ClosureMNAtt =
    Call<OpCode::kClosureMNAtt, std::vector<NodeRef>, uint64_t, Depth>;
using Closure1NAttSum = Call<OpCode::kClosure1NAttSum, AttSum, uint64_t>;
using Closure1NAttSet = Call<OpCode::kClosure1NAttSet, uint64_t, uint64_t>;
using Closure1NPred = Call<OpCode::kClosure1NPred, std::vector<NodeRef>,
                           uint64_t, int64_t, int64_t>;
using ClosureMNAttLinkSum = Call<OpCode::kClosureMNAttLinkSum,
                                 std::vector<NodeDistance>, uint64_t, Depth>;
using Stats = Call<OpCode::kStats, telemetry::Snapshot>;
using Ping = Call<OpCode::kPing, Empty>;
using ShardInfo = Call<OpCode::kShardInfo, ShardPlacement>;
// Wire version, follower id, resume segment seq (0 = fresh).
using ReplSubscribe =
    Call<OpCode::kReplSubscribe, ReplChain, uint64_t, uint64_t, uint64_t>;
// Segment seq, offset, max bytes.
using ReplSegment =
    Call<OpCode::kReplSegment, ReplChunk, uint64_t, uint64_t, uint64_t>;
// Follower id, replayed LSN (both 0 = pure query).
using ReplStatus = Call<OpCode::kReplStatus, ReplPeer, uint64_t, uint64_t>;
// Proposed epoch -> epoch in force.
using ReplPromote = Call<OpCode::kReplPromote, uint64_t, uint64_t>;
// Fencing epoch -> epoch in force.
using ReplFence = Call<OpCode::kReplFence, uint64_t, uint64_t>;

}  // namespace calls

}  // namespace hm::server

#endif  // HM_SERVER_WIRE_CALLS_H_
