#include "timed_store.h"

#include <array>
#include <utility>

#include "hypermodel/traversal.h"

namespace hm::perfbench {

namespace {

struct MethodInfo {
  std::string_view name;
  MethodClass cls;
};

constexpr std::array<MethodInfo, static_cast<size_t>(Method::kCount)>
    kMethods = {{
        {"Begin", MethodClass::kTxn},
        {"Commit", MethodClass::kTxn},
        {"Abort", MethodClass::kTxn},
        {"CloseReopen", MethodClass::kTxn},
        {"CommitBegin", MethodClass::kTxn},
        {"CommitWait", MethodClass::kTxn},
        {"CreateNode", MethodClass::kCreate},
        {"SetText", MethodClass::kContents},
        {"SetForm", MethodClass::kContents},
        {"AddChild", MethodClass::kCreate},
        {"AddPart", MethodClass::kCreate},
        {"AddRef", MethodClass::kCreate},
        {"GetAttr", MethodClass::kAttr},
        {"SetAttr", MethodClass::kAttr},
        {"GetKind", MethodClass::kAttr},
        {"GetText", MethodClass::kContents},
        {"GetForm", MethodClass::kContents},
        {"SetContents", MethodClass::kContents},
        {"GetContents", MethodClass::kContents},
        {"LookupUnique", MethodClass::kIndex},
        {"RangeHundred", MethodClass::kIndex},
        {"RangeMillion", MethodClass::kIndex},
        {"Children", MethodClass::kNav},
        {"Parent", MethodClass::kNav},
        {"Parts", MethodClass::kNav},
        {"PartOf", MethodClass::kNav},
        {"RefsTo", MethodClass::kNav},
        {"RefsFrom", MethodClass::kNav},
        {"StorageBytes", MethodClass::kOther},
        {"BulkGetAttr", MethodClass::kTraversal},
        {"TravClosure1N", MethodClass::kTraversal},
        {"TravClosure1NAttSum", MethodClass::kTraversal},
        {"TravClosure1NAttSet", MethodClass::kTraversal},
        {"TravClosure1NPred", MethodClass::kTraversal},
        {"TravClosureMN", MethodClass::kTraversal},
        {"TravClosureMNAtt", MethodClass::kTraversal},
        {"TravClosureMNAttLinkSum", MethodClass::kTraversal},
    }};

/// Forwards every HyperStore method to `base_`, recording a span per
/// call while the tracer is enabled.
class TimedStore : public HyperStore {
 public:
  TimedStore(HyperStore* base, std::unique_ptr<HyperStore> owned,
             Tracer* tracer, Layer layer)
      : base_(base), owned_(std::move(owned)), tracer_(tracer),
        layer_(layer) {}

  std::string name() const override { return base_->name(); }
  bool SupportsConcurrentReads() const override {
    return base_->SupportsConcurrentReads();
  }

  util::Status Begin() override {
    return Timed(Method::kBegin, [&] { return base_->Begin(); });
  }
  util::Status Commit() override {
    return Timed(Method::kCommit, [&] { return base_->Commit(); });
  }
  util::Status Abort() override {
    return Timed(Method::kAbort, [&] { return base_->Abort(); });
  }
  util::Status CloseReopen() override {
    return Timed(Method::kCloseReopen, [&] { return base_->CloseReopen(); });
  }

  util::Result<NodeRef> CreateNode(const NodeAttrs& attrs,
                                   NodeRef near) override {
    return Timed(Method::kCreateNode,
                 [&] { return base_->CreateNode(attrs, near); });
  }
  util::Status SetText(NodeRef node, std::string_view text) override {
    return Timed(Method::kSetText, [&] { return base_->SetText(node, text); });
  }
  util::Status SetForm(NodeRef node, const util::Bitmap& form) override {
    return Timed(Method::kSetForm, [&] { return base_->SetForm(node, form); });
  }
  util::Status AddChild(NodeRef parent, NodeRef child) override {
    return Timed(Method::kAddChild,
                 [&] { return base_->AddChild(parent, child); });
  }
  util::Status AddPart(NodeRef owner, NodeRef part) override {
    return Timed(Method::kAddPart, [&] { return base_->AddPart(owner, part); });
  }
  util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                      int64_t offset_to) override {
    return Timed(Method::kAddRef, [&] {
      return base_->AddRef(from, to, offset_from, offset_to);
    });
  }

  util::Result<int64_t> GetAttr(NodeRef node, Attr attr) override {
    return Timed(Method::kGetAttr, [&] { return base_->GetAttr(node, attr); });
  }
  util::Status SetAttr(NodeRef node, Attr attr, int64_t value) override {
    return Timed(Method::kSetAttr,
                 [&] { return base_->SetAttr(node, attr, value); });
  }
  util::Result<NodeKind> GetKind(NodeRef node) override {
    return Timed(Method::kGetKind, [&] { return base_->GetKind(node); });
  }
  util::Result<std::string> GetText(NodeRef node) override {
    return Timed(Method::kGetText, [&] { return base_->GetText(node); });
  }
  util::Result<util::Bitmap> GetForm(NodeRef node) override {
    return Timed(Method::kGetForm, [&] { return base_->GetForm(node); });
  }
  util::Status SetContents(NodeRef node, std::string_view data) override {
    return Timed(Method::kSetContents,
                 [&] { return base_->SetContents(node, data); });
  }
  util::Result<std::string> GetContents(NodeRef node) override {
    return Timed(Method::kGetContents,
                 [&] { return base_->GetContents(node); });
  }

  util::Result<NodeRef> LookupUnique(int64_t unique_id) override {
    return Timed(Method::kLookupUnique,
                 [&] { return base_->LookupUnique(unique_id); });
  }
  util::Status RangeHundred(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override {
    return Timed(Method::kRangeHundred,
                 [&] { return base_->RangeHundred(lo, hi, out); });
  }
  util::Status RangeMillion(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override {
    return Timed(Method::kRangeMillion,
                 [&] { return base_->RangeMillion(lo, hi, out); });
  }

  util::Status Children(NodeRef node, std::vector<NodeRef>* out) override {
    return Timed(Method::kChildren, [&] { return base_->Children(node, out); });
  }
  util::Result<NodeRef> Parent(NodeRef node) override {
    return Timed(Method::kParent, [&] { return base_->Parent(node); });
  }
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override {
    return Timed(Method::kParts, [&] { return base_->Parts(node, out); });
  }
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override {
    return Timed(Method::kPartOf, [&] { return base_->PartOf(node, out); });
  }
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override {
    return Timed(Method::kRefsTo, [&] { return base_->RefsTo(node, out); });
  }
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override {
    return Timed(Method::kRefsFrom, [&] { return base_->RefsFrom(node, out); });
  }

  util::Result<uint64_t> StorageBytes() override {
    return Timed(Method::kStorageBytes, [&] { return base_->StorageBytes(); });
  }

 protected:
  template <typename F>
  auto Timed(Method method, F&& call) -> decltype(call()) {
    if (!tracer_->enabled()) return call();
    int64_t start = Tracer::NowNs();
    auto result = call();
    tracer_->Record({start, Tracer::NowNs(), static_cast<uint16_t>(method),
                     layer_, kNoParent});
    return result;
  }

  HyperStore* base_;

 private:
  std::unique_ptr<HyperStore> owned_;  // null when the caller owns base_
  Tracer* tracer_;
  Layer layer_;
};

/// Adds the TraversalCapable surface of a base that has it.
class TimedTraversalStore : public TimedStore, public TraversalCapable {
 public:
  TimedTraversalStore(HyperStore* base, std::unique_ptr<HyperStore> owned,
                      Tracer* tracer, Layer layer)
      : TimedStore(base, std::move(owned), tracer, layer),
        trav_(dynamic_cast<TraversalCapable*>(base)) {}

  util::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                           std::vector<int64_t>* values) override {
    return Timed(Method::kBulkGetAttr,
                 [&] { return trav_->BulkGetAttr(nodes, attr, values); });
  }
  util::Status TravClosure1N(NodeRef start,
                             std::vector<NodeRef>* out) override {
    return Timed(Method::kTravClosure1N,
                 [&] { return trav_->TravClosure1N(start, out); });
  }
  util::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                            uint64_t* visited) override {
    return Timed(Method::kTravClosure1NAttSum,
                 [&] { return trav_->TravClosure1NAttSum(start, visited); });
  }
  util::Result<uint64_t> TravClosure1NAttSet(NodeRef start) override {
    return Timed(Method::kTravClosure1NAttSet,
                 [&] { return trav_->TravClosure1NAttSet(start); });
  }
  util::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                 std::vector<NodeRef>* out) override {
    return Timed(Method::kTravClosure1NPred,
                 [&] { return trav_->TravClosure1NPred(start, lo, hi, out); });
  }
  util::Status TravClosureMN(NodeRef start,
                             std::vector<NodeRef>* out) override {
    return Timed(Method::kTravClosureMN,
                 [&] { return trav_->TravClosureMN(start, out); });
  }
  util::Status TravClosureMNAtt(NodeRef start, int depth,
                                std::vector<NodeRef>* out) override {
    return Timed(Method::kTravClosureMNAtt,
                 [&] { return trav_->TravClosureMNAtt(start, depth, out); });
  }
  util::Status TravClosureMNAttLinkSum(
      NodeRef start, int depth, std::vector<NodeDistance>* out) override {
    return Timed(Method::kTravClosureMNAttLinkSum, [&] {
      return trav_->TravClosureMNAttLinkSum(start, depth, out);
    });
  }

 private:
  TraversalCapable* trav_;
};

/// Adds the PipelinedCommitCapable surface of a base that has it.
template <typename Base>
class WithPipelinedCommit : public Base, public PipelinedCommitCapable {
 public:
  WithPipelinedCommit(HyperStore* base, std::unique_ptr<HyperStore> owned,
                      Tracer* tracer, Layer layer)
      : Base(base, std::move(owned), tracer, layer),
        pipelined_(dynamic_cast<PipelinedCommitCapable*>(base)) {}

  util::Result<uint64_t> CommitBegin() override {
    return this->Timed(Method::kCommitBegin,
                       [&] { return pipelined_->CommitBegin(); });
  }
  util::Status CommitWait(uint64_t ticket) override {
    return this->Timed(Method::kCommitWait,
                       [&] { return pipelined_->CommitWait(ticket); });
  }

 private:
  PipelinedCommitCapable* pipelined_;
};

std::unique_ptr<HyperStore> Make(HyperStore* base,
                                 std::unique_ptr<HyperStore> owned,
                                 Tracer* tracer, Layer layer) {
  bool traversal = dynamic_cast<TraversalCapable*>(base) != nullptr;
  bool pipelined = dynamic_cast<PipelinedCommitCapable*>(base) != nullptr;
  if (traversal && pipelined) {
    return std::make_unique<WithPipelinedCommit<TimedTraversalStore>>(
        base, std::move(owned), tracer, layer);
  }
  if (traversal) {
    return std::make_unique<TimedTraversalStore>(base, std::move(owned),
                                                 tracer, layer);
  }
  if (pipelined) {
    return std::make_unique<WithPipelinedCommit<TimedStore>>(
        base, std::move(owned), tracer, layer);
  }
  return std::make_unique<TimedStore>(base, std::move(owned), tracer, layer);
}

}  // namespace

std::string_view MethodName(Method method) {
  return kMethods[static_cast<size_t>(method)].name;
}

MethodClass ClassOf(Method method) {
  return kMethods[static_cast<size_t>(method)].cls;
}

std::unique_ptr<HyperStore> MakeTimedStore(std::unique_ptr<HyperStore> base,
                                           Tracer* tracer, Layer layer) {
  HyperStore* raw = base.get();
  return Make(raw, std::move(base), tracer, layer);
}

std::unique_ptr<HyperStore> MakeTimedStore(HyperStore* base, Tracer* tracer,
                                           Layer layer) {
  return Make(base, nullptr, tracer, layer);
}

}  // namespace hm::perfbench
