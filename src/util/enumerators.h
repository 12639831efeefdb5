#ifndef HM_UTIL_ENUMERATORS_H_
#define HM_UTIL_ENUMERATORS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace hm::util {

/// Whether the value `V` is a named enumerator of its enum type, as
/// opposed to some other value of the underlying type. Read off the
/// compiler's spelling of the template argument: GCC and Clang print a
/// named enumerator as its qualified name and any other value as a
/// cast, "(E)48".
template <auto V>
constexpr bool IsEnumerator() {
  constexpr std::string_view kSignature = __PRETTY_FUNCTION__;
  constexpr size_t kAt = kSignature.rfind("= ");
  return kAt != std::string_view::npos && kSignature[kAt + 2] != '(';
}

/// The largest enumerator of the one-byte enum `E` (0 when it has none
/// above 0), so a check or a loop over an append-only enum needs no
/// hand-kept bound.
template <typename E>
constexpr uint8_t LastEnumerator() {
  static_assert(sizeof(E) == 1, "LastEnumerator scans one-byte enums");
  return []<size_t... kValues>(std::index_sequence<kValues...>) {
    uint8_t last = 0;
    ((last = IsEnumerator<static_cast<E>(kValues)>()
                 ? static_cast<uint8_t>(kValues)
                 : last),
     ...);
    return last;
  }(std::make_index_sequence<256>{});
}

namespace enumerators_internal {
enum class Probe : uint8_t { kOne = 1, kTwo2 = 2 };
static_assert(IsEnumerator<Probe::kOne>() && IsEnumerator<Probe::kTwo2>() &&
                  !IsEnumerator<static_cast<Probe>(3)>(),
              "this compiler spells enum template arguments differently; "
              "IsEnumerator needs porting");
static_assert(LastEnumerator<Probe>() == 2);
}  // namespace enumerators_internal

}  // namespace hm::util

#endif  // HM_UTIL_ENUMERATORS_H_
