// Shared by the call-table fixtures: the real call table with one
// entry swapped, so a fixture states a single violation and the rest
// of the table stays valid.

#ifndef HM_TESTS_COMPILE_FAIL_CALL_TABLE_FIXTURE_H_
#define HM_TESTS_COMPILE_FAIL_CALL_TABLE_FIXTURE_H_

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

#include "server/wire_calls.h"

namespace hm::server::fixture {

/// `Table` with entry `kIndex` replaced by `C`.
template <size_t kIndex, typename C, typename Table>
struct Replace;
template <size_t kIndex, typename C, typename... Cs>
struct Replace<kIndex, C, CallTable<Cs...>> {
  template <size_t... kI>
  static auto Build(std::index_sequence<kI...>)
      -> CallTable<std::conditional_t<
          kI == kIndex, C, std::tuple_element_t<kI, std::tuple<Cs...>>>...>;
  using type = decltype(Build(std::index_sequence_for<Cs...>{}));
};

/// kAbort's slot in calls::Table.
inline constexpr size_t kAbortIndex = 4;

}  // namespace hm::server::fixture

#endif  // HM_TESTS_COMPILE_FAIL_CALL_TABLE_FIXTURE_H_
