// Negative-compile fixture: opcode names must be unique and
// lower_snake_case, since they spell the per-opcode metric names and a
// duplicate would merge two opcodes' metrics. Driven by
// compile_fail.cmake: red with -DHM_EXPECT_VIOLATION, green without.

#include "call_table_fixture.h"

namespace hm::server::fixture {

#ifdef HM_EXPECT_VIOLATION
using Entry = Call<OpCode::kAbort, "begin", OpClass::kTxn, Empty>;
#else
using Entry = Call<OpCode::kAbort, "abort", OpClass::kTxn, Empty>;
#endif

using Table = Replace<kAbortIndex, Entry, calls::Table>::type;
static_assert(Table::kByByte[5].op_class == OpClass::kTxn);

}  // namespace hm::server::fixture
