#ifndef HM_PERFBENCH_TIMED_STORE_H_
#define HM_PERFBENCH_TIMED_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "hypermodel/store.h"
#include "tracer.h"

namespace hm::perfbench {

/// Every decorated HyperStore / capability method, in span-name order.
enum class Method : uint16_t {
  kBegin, kCommit, kAbort, kCloseReopen, kCommitBegin, kCommitWait,
  kCreateNode, kSetText, kSetForm, kAddChild, kAddPart, kAddRef,
  kGetAttr, kSetAttr, kGetKind, kGetText, kGetForm, kSetContents,
  kGetContents, kLookupUnique, kRangeHundred, kRangeMillion, kChildren,
  kParent, kParts, kPartOf, kRefsTo, kRefsFrom, kStorageBytes,
  kBulkGetAttr, kTravClosure1N, kTravClosure1NAttSum, kTravClosure1NAttSet,
  kTravClosure1NPred, kTravClosureMN, kTravClosureMNAtt,
  kTravClosureMNAttLinkSum,
  kCount,
};

/// The layer-metric class of a method: the per-layer report sums span
/// time per class (store.index_us_per_call, store.nav_us_per_call, ...).
enum class MethodClass : uint8_t {
  kTxn, kCreate, kAttr, kContents, kIndex, kNav, kTraversal, kOther,
  kCount,
};

std::string_view MethodName(Method method);
MethodClass ClassOf(Method method);

/// Wraps `base` in a timing decorator that records one span per call
/// into `tracer` (at `layer`) while the tracer is enabled, and
/// otherwise only forwards. The decorator implements exactly the
/// optional capabilities `base` implements — TraversalCapable and
/// PipelinedCommitCapable — and forwards SupportsConcurrentReads(), so
/// `ops::` and the server take the same code paths through it as
/// through `base`. The decorator owns `base`.
std::unique_ptr<HyperStore> MakeTimedStore(std::unique_ptr<HyperStore> base,
                                           Tracer* tracer, Layer layer);

/// As above for a store the caller keeps owning; it must outlive the
/// decorator.
std::unique_ptr<HyperStore> MakeTimedStore(HyperStore* base, Tracer* tracer,
                                           Layer layer);

}  // namespace hm::perfbench

#endif  // HM_PERFBENCH_TIMED_STORE_H_
