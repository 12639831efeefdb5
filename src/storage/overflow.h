#ifndef HM_STORAGE_OVERFLOW_H_
#define HM_STORAGE_OVERFLOW_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"

namespace hm::storage {

// An overflow chain holds a byte string too long for one page: a singly
// linked list of PageType::kOverflow pages, each payload
// [next:4][len:4][bytes], the last page's next kInvalidPageId. The
// object store keeps its big records this way, the network backend its
// contents.
inline constexpr size_t kOverflowHeader = 8;
inline constexpr size_t kOverflowCapacity = kPagePayloadSize - kOverflowHeader;

/// Writes `data` as a new chain, built back to front so each page knows
/// its successor, and returns the head page. Empty data takes one page.
util::Result<PageId> WriteOverflowChain(BufferPool* pool,
                                        std::string_view data);

/// The one chain walk: calls `visit(page, bytes)` for each page of the
/// chain at `head`, in order, holding one shared page latch at a time.
/// Corruption if a chain page is not an overflow page, holds an
/// out-of-range length, or the chain runs longer than the file has
/// pages (a loop).
util::Status WalkOverflowChain(
    BufferPool* pool, PageId head,
    const std::function<util::Status(PageId, std::string_view)>& visit);

/// Appends the bytes of the chain at `head` to `*out`
/// (WalkOverflowChain's checks apply).
util::Status ReadOverflowChain(BufferPool* pool, PageId head,
                               std::string* out);

}  // namespace hm::storage

#endif  // HM_STORAGE_OVERFLOW_H_
