// Negative-compile fixture: the call table must declare opcodes 1, 2,
// 3, ... in order through the last OpCode enumerator (opcode values
// are the wire format: append only, never renumber). Driven by
// compile_fail.cmake: red with -DHM_EXPECT_VIOLATION, green without.

#include "call_table_fixture.h"

namespace hm::server::fixture {

#ifdef HM_EXPECT_VIOLATION
// Opcode 6 in kAbort's slot: 5 is missing and 6 appears twice.
using Entry = Call<OpCode::kCloseReopen, "abort", OpClass::kTxn, Empty>;
#else
using Entry = Call<OpCode::kAbort, "abort", OpClass::kTxn, Empty>;
#endif

using Table = Replace<kAbortIndex, Entry, calls::Table>::type;
static_assert(Table::kByByte[5].name == "abort");

}  // namespace hm::server::fixture
