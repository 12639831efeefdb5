#ifndef HM_SERVER_WIRE_CALLS_H_
#define HM_SERVER_WIRE_CALLS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
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
#include "util/enumerators.h"

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
///   * `Call<op, name, class, Reply, Args...>` declares one opcode: its
///     metric name, its class (OpClass, wire.h), its reply type and its
///     argument types in wire order. Decoding is strict: a body with
///     missing or trailing bytes fails.
///
/// `calls::Table` lists every declaration; OpCodeName and ClassOf
/// (wire.h) read it, and CallTable's static_asserts check it.

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

/// The attributes of a kCreateNodesMulti request, one per node: varint
/// n <= kMaxBatchEntries, then n attribute records.
template <>
struct Codec<std::vector<NodeAttrs>>
    : ListCodec<NodeAttrs, kMaxBatchEntries> {};

/// The contents of a kCreateNodesMulti request, one per node: varint
/// n <= kMaxBatchEntries, then n length-prefixed byte strings, decoded
/// as views into the body.
template <>
struct Codec<std::vector<std::string_view>>
    : ListCodec<std::string_view, kMaxBatchEntries> {};

/// One list per node of a multi-node request: varint n <=
/// kMaxBatchEntries, then n lists. `Get` appends n lists.
template <typename T>
struct Codec<FlatLists<T>> {
  using Value = FlatLists<T>;
  static void Put(std::string* dst, const FlatLists<T>& lists) {
    util::PutVarint64(dst, lists.size());
    for (size_t i = 0; i < lists.size(); ++i) {
      ListCodec<T>::Put(dst, lists[i]);
    }
  }
  static bool Get(util::Decoder* in, FlatLists<T>* lists) {
    uint64_t count = 0;
    if (!in->GetVarint64(&count) || count > kMaxBatchEntries) return false;
    for (uint64_t i = 0; i < count; ++i) {
      if (!ListCodec<T>::Get(in, &lists->items)) return false;
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

/// kChildrenAttrsMulti reply: node i's children list and attribute
/// value, at position i of each.
struct ListsAndValues {
  RefLists lists;
  std::vector<int64_t> values;

  /// Nodes answered: a fused reply must grow by one per node.
  size_t size() const { return lists.size(); }
};

/// The lists as a multi-node list reply, then the values as a
/// multi-node value reply. `Get` appends both and fails unless it
/// appended as many values as lists.
template <>
struct Codec<ListsAndValues> {
  using Value = ListsAndValues;
  static void Put(std::string* dst, const ListsAndValues& reply) {
    Codec<RefLists>::Put(dst, reply.lists);
    Codec<std::vector<int64_t>>::Put(dst, reply.values);
  }
  static bool Get(util::Decoder* in, ListsAndValues* reply) {
    const size_t lists = reply->lists.size();
    const size_t values = reply->values.size();
    return Codec<RefLists>::Get(in, &reply->lists) &&
           Codec<std::vector<int64_t>>::Get(in, &reply->values) &&
           reply->lists.size() - lists == reply->values.size() - values;
  }
};

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

/// A string literal as a template argument: an opcode's metric name.
template <size_t N>
struct OpName {
  constexpr OpName(const char (&name)[N]) { std::copy_n(name, N, chars); }
  char chars[N];
};

/// Lower snake case: [a-z][a-z0-9]*(_[a-z0-9]+)*.
constexpr bool IsSnakeName(std::string_view name) {
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') ||
                    (i > 0 && ((c >= '0' && c <= '9') ||
                               (c == '_' && i + 1 < name.size() &&
                                name[i + 1] != '_')));
    if (!ok) return false;
  }
  return !name.empty();
}

/// The follower pull path takes no dispatch lock (a semi-sync commit
/// holds the exclusive side until the ack kReplStatus carries arrives),
/// and the role changes run exclusive and pass the gate they enforce.
constexpr bool KeepsReplLockDiscipline(OpCode op, OpClass c) {
  const bool pull = op == OpCode::kReplSubscribe ||
                    op == OpCode::kReplSegment || op == OpCode::kReplStatus;
  const bool role = op == OpCode::kReplPromote || op == OpCode::kReplFence;
  return (!pull || LockOf(c) == DispatchLock::kNone) &&
         (!role || (LockOf(c) == DispatchLock::kExclusive && !IsGated(c)));
}

/// One opcode: `ReplyT` and `ArgTs` name codecs, so a declaration reads
/// as the body layout, arguments in wire order.
template <OpCode kOp, OpName kOpName, OpClass kOpClass, typename ReplyT,
          typename... ArgTs>
struct Call {
  static constexpr OpCode kOpCode = kOp;
  static constexpr std::string_view kName{kOpName.chars,
                                          sizeof(kOpName.chars) - 1};
  static constexpr OpClass kClass = kOpClass;
  static_assert(KeepsReplLockDiscipline(kOp, kOpClass),
                "a replication pull opcode must take no dispatch lock, and "
                "Promote/Fence must be exclusive and not gated");
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
  /// Decodes into `*reply`; list replies append (a multi-frame reply
  /// is decoded chunk after chunk into one list).
  static bool DecodeReply(std::string_view body, Reply* reply) {
    util::Decoder in(body);
    return Codec<ReplyT>::Get(&in, reply) && in.Empty();
  }
};

/// An opcode's name and class, by opcode byte.
struct OpInfo {
  std::string_view name = "unknown";
  OpClass op_class = OpClass::kNone;
};

/// Every call, in opcode order.
template <typename... Cs>
struct CallTable {
  static constexpr OpCode kOps[] = {Cs::kOpCode...};
  static constexpr std::string_view kNames[] = {Cs::kName...};

  static constexpr bool NumberedOneThroughLast() {
    for (size_t i = 0; i < std::size(kOps); ++i) {
      if (static_cast<size_t>(kOps[i]) != i + 1) return false;
    }
    return std::size(kOps) == util::LastEnumerator<OpCode>();
  }
  static constexpr bool UniqueSnakeNames() {
    for (size_t i = 0; i < std::size(kNames); ++i) {
      if (!IsSnakeName(kNames[i])) return false;
      for (size_t j = 0; j < i; ++j) {
        if (kNames[i] == kNames[j]) return false;
      }
    }
    return true;
  }
  // Opcode values are the wire format: append only, never renumber.
  static_assert(NumberedOneThroughLast(),
                "the call table must declare opcodes 1, 2, 3, ... in order, "
                "through the last OpCode enumerator");
  // The names spell the per-opcode metrics; a duplicate merges two.
  static_assert(UniqueSnakeNames(),
                "opcode names must be unique and lower_snake_case");

  static constexpr std::array<OpInfo, 256> kByByte = [] {
    std::array<OpInfo, 256> by_byte{};
    ((by_byte[static_cast<uint8_t>(Cs::kOpCode)] = {Cs::kName, Cs::kClass}),
     ...);
    return by_byte;
  }();
};

/// One declaration per opcode, in opcode order: opcode, metric name,
/// class, reply, arguments. NodeRefs are uint64_t.
namespace calls {

using enum OpClass;
using enum OpCode;

// Version byte + backend tag. An empty body is the oldest clients'
// Hello; the server refuses it like any other version.
using Hello = Call<kHello, "hello", kRead, HelloReply, uint64_t>;
using Reset = Call<kReset, "reset", kSession, Empty>;
using Begin = Call<kBegin, "begin", kTxn, Empty>;
using Commit = Call<kCommit, "commit", kTxn, Empty>;
using Abort = Call<kAbort, "abort", kTxn, Empty>;
using CloseReopen = Call<kCloseReopen, "close_reopen", kSession, Empty>;
// Retired in v11 (a per-item write is a one-entry fused write): the
// numbers and names stay reserved, and the server answers
// InvalidArgument.
using CreateNode = Call<kCreateNode, "create_node", kNone, Empty>;
using SetText =
    Call<kSetText, "set_text", kWrite, Empty, uint64_t, std::string_view>;
using SetForm =
    Call<kSetForm, "set_form", kWrite, Empty, uint64_t, util::Bitmap>;
using AddChild = Call<kAddChild, "add_child", kNone, Empty>;
using AddPart = Call<kAddPart, "add_part", kNone, Empty>;
using AddRef = Call<kAddRef, "add_ref", kNone, Empty>;
using GetAttr = Call<kGetAttr, "get_attr", kRead, int64_t, uint64_t, Attr>;
using SetAttr =
    Call<kSetAttr, "set_attr", kWrite, Empty, uint64_t, Attr, int64_t>;
using GetKind = Call<kGetKind, "get_kind", kRead, NodeKind, uint64_t>;
using GetText = Call<kGetText, "get_text", kRead, std::string, uint64_t>;
using GetForm = Call<kGetForm, "get_form", kRead, util::Bitmap, uint64_t>;
using SetContents = Call<kSetContents, "set_contents", kWrite, Empty, uint64_t,
                         std::string_view>;
using GetContents =
    Call<kGetContents, "get_contents", kRead, std::string, uint64_t>;
using LookupUnique =
    Call<kLookupUnique, "lookup_unique", kRead, uint64_t, int64_t>;
// lo, hi -> refs.
using RangeHundred = Call<kRangeHundred, "range_hundred", kRead,
                          std::vector<NodeRef>, int64_t, int64_t>;
using RangeMillion = Call<kRangeMillion, "range_million", kRead,
                          std::vector<NodeRef>, int64_t, int64_t>;
using Children =
    Call<kChildren, "children", kRead, std::vector<NodeRef>, uint64_t>;
using Parent = Call<kParent, "parent", kRead, uint64_t, uint64_t>;
using Parts = Call<kParts, "parts", kRead, std::vector<NodeRef>, uint64_t>;
using PartOf = Call<kPartOf, "part_of", kRead, std::vector<NodeRef>, uint64_t>;
using RefsTo = Call<kRefsTo, "refs_to", kRead, std::vector<RefEdge>, uint64_t>;
using RefsFrom =
    Call<kRefsFrom, "refs_from", kRead, std::vector<RefEdge>, uint64_t>;
using StorageBytes = Call<kStorageBytes, "storage_bytes", kRead, uint64_t>;
// Retired in v8: the number and name stay reserved, and the server
// answers InvalidArgument.
using Batch = Call<kBatch, "batch", kNone, Empty>;
using ChildrenMulti =
    Call<kChildrenMulti, "children_multi", kRead, RefLists, NodeBatch>;
using GetAttrsMulti = Call<kGetAttrsMulti, "get_attrs_multi", kRead,
                           std::vector<int64_t>, Attr, NodeBatch>;
// Server-side traversal (closure pushdown, §6.6): start [+ bounds].
using Closure1N =
    Call<kClosure1N, "closure_1n", kRead, std::vector<NodeRef>, uint64_t>;
using ClosureMN =
    Call<kClosureMN, "closure_mn", kRead, std::vector<NodeRef>, uint64_t>;
using ClosureMNAtt = Call<kClosureMNAtt, "closure_mn_att", kRead,
                          std::vector<NodeRef>, uint64_t, Depth>;
using Closure1NAttSum =
    Call<kClosure1NAttSum, "closure_1n_att_sum", kRead, AttSum, uint64_t>;
using Closure1NAttSet =
    Call<kClosure1NAttSet, "closure_1n_att_set", kWrite, uint64_t, uint64_t>;
using Closure1NPred = Call<kClosure1NPred, "closure_1n_pred", kRead,
                           std::vector<NodeRef>, uint64_t, int64_t, int64_t>;
using ClosureMNAttLinkSum = Call<kClosureMNAttLinkSum,
                                 "closure_mn_att_link_sum", kRead,
                                 std::vector<NodeDistance>, uint64_t, Depth>;
using Stats = Call<kStats, "stats", kRead, telemetry::Snapshot>;
using Ping = Call<kPing, "ping", kRead, Empty>;
using ShardInfo = Call<kShardInfo, "shard_info", kRead, ShardPlacement>;
// Wire version, follower id, resume segment seq (0 = fresh).
using ReplSubscribe = Call<kReplSubscribe, "repl_subscribe", kReplPull,
                           ReplChain, uint64_t, uint64_t, uint64_t>;
// Segment seq, offset, max bytes.
using ReplSegment = Call<kReplSegment, "repl_segment", kReplPull, ReplChunk,
                         uint64_t, uint64_t, uint64_t>;
// Follower id, replayed LSN (both 0 = pure query).
using ReplStatus =
    Call<kReplStatus, "repl_status", kReplPull, ReplPeer, uint64_t, uint64_t>;
// Proposed epoch -> epoch in force.
using ReplPromote =
    Call<kReplPromote, "repl_promote", kRole, uint64_t, uint64_t>;
// Fencing epoch -> epoch in force.
using ReplFence = Call<kReplFence, "repl_fence", kRole, uint64_t, uint64_t>;
// Fused frontier fetches and writes (v8), shaped like ChildrenMulti:
// list i (value i) belongs to node i.
using PartsMulti = Call<kPartsMulti, "parts_multi", kRead, RefLists, NodeBatch>;
using RefsToMulti =
    Call<kRefsToMulti, "refs_to_multi", kRead, EdgeLists, NodeBatch>;
using SetAttrsMulti = Call<kSetAttrsMulti, "set_attrs_multi", kWrite, Empty,
                           Attr, NodeBatch, std::vector<int64_t>>;
// The 1-N engine's tier fetch (v9): node i's children and attribute.
using ChildrenAttrsMulti = Call<kChildrenAttrsMulti, "children_attrs_multi",
                                kRead, ListsAndValues, Attr, NodeBatch>;
// The fused writes (v10), entry i of every list belonging together:
// the generator's load, and every per-item write as one entry.
// attrs, near, contents -> one new node per entry.
using CreateNodesMulti =
    Call<kCreateNodesMulti, "create_nodes_multi", kWrite, NodeBatch,
         std::vector<NodeAttrs>, NodeBatch, std::vector<std::string_view>>;
// parents, children.
using AddChildrenMulti = Call<kAddChildrenMulti, "add_children_multi",
                              kWrite, Empty, NodeBatch, NodeBatch>;
// owners, parts.
using AddPartsMulti =
    Call<kAddPartsMulti, "add_parts_multi", kWrite, Empty, NodeBatch,
         NodeBatch>;
// from, to, offset_from, offset_to.
using AddRefsMulti =
    Call<kAddRefsMulti, "add_refs_multi", kWrite, Empty, NodeBatch, NodeBatch,
         std::vector<int64_t>, std::vector<int64_t>>;

using Table = CallTable<
    Hello, Reset, Begin, Commit, Abort, CloseReopen, CreateNode, SetText,
    SetForm, AddChild, AddPart, AddRef, GetAttr, SetAttr, GetKind, GetText,
    GetForm, SetContents, GetContents, LookupUnique, RangeHundred,
    RangeMillion, Children, Parent, Parts, PartOf, RefsTo, RefsFrom,
    StorageBytes, Batch, ChildrenMulti, GetAttrsMulti, Closure1N, ClosureMN,
    ClosureMNAtt, Closure1NAttSum, Closure1NAttSet, Closure1NPred,
    ClosureMNAttLinkSum, Stats, Ping, ShardInfo, ReplSubscribe, ReplSegment,
    ReplStatus, ReplPromote, ReplFence, PartsMulti, RefsToMulti,
    SetAttrsMulti, ChildrenAttrsMulti, CreateNodesMulti, AddChildrenMulti,
    AddPartsMulti, AddRefsMulti>;

}  // namespace calls

}  // namespace hm::server

#endif  // HM_SERVER_WIRE_CALLS_H_
