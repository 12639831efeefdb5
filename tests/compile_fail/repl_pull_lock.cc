// Negative-compile fixture: a replication pull opcode must take no
// dispatch lock — a semi-sync commit holds the exclusive side until the
// ack kReplStatus carries arrives — so declaring one with an exclusive
// class must not compile. Driven by compile_fail.cmake: red with
// -DHM_EXPECT_VIOLATION, green without.

#include "server/wire_calls.h"

namespace hm::server {
namespace {

#ifdef HM_EXPECT_VIOLATION
constexpr OpClass kSegmentClass = OpClass::kTxn;
#else
constexpr OpClass kSegmentClass = OpClass::kReplPull;
#endif

using Segment = Call<OpCode::kReplSegment, "repl_segment", kSegmentClass,
                     ReplChunk, uint64_t, uint64_t, uint64_t>;
static_assert(Segment::kClass == kSegmentClass);

}  // namespace
}  // namespace hm::server
