#include "storage/overflow.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/coding.h"

namespace hm::storage {

util::Result<PageId> WriteOverflowChain(BufferPool* pool,
                                        std::string_view data) {
  const size_t total = data.size();
  const size_t num_pages = std::max<size_t>(
      1, (total + kOverflowCapacity - 1) / kOverflowCapacity);
  PageId next = kInvalidPageId;
  for (size_t i = num_pages; i-- > 0;) {
    const size_t begin = i * kOverflowCapacity;
    const size_t len = std::min(kOverflowCapacity, total - begin);
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool->New(PageType::kOverflow));
    char* p = guard.page()->payload();
    util::EncodeFixed32(p, next);
    util::EncodeFixed32(p + 4, static_cast<uint32_t>(len));
    std::memcpy(p + kOverflowHeader, data.data() + begin, len);
    guard.MarkDirty();
    next = guard.id();
  }
  return next;
}

util::Status WalkOverflowChain(
    BufferPool* pool, PageId head,
    const std::function<util::Status(PageId, std::string_view)>& visit) {
  // Each hop visits a distinct page of a well-formed chain, so a chain
  // longer than the file loops.
  const uint64_t max_hops = pool->page_count();
  uint64_t hops = 0;
  PageId current = head;
  while (current != kInvalidPageId) {
    if (++hops > max_hops) {
      return util::Status::Corruption("overflow chain loops");
    }
    // Latch-crawl: one shared latch at a time down the chain.
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool->Fetch(current, PinMode::kRead));
    if (guard.page()->type() != PageType::kOverflow) {
      return util::Status::Corruption("overflow chain reaches page " +
                                      std::to_string(current) +
                                      " that is not an overflow page");
    }
    const char* p = guard.page()->payload();
    const PageId next = util::DecodeFixed32(p);
    const uint32_t len = util::DecodeFixed32(p + 4);
    if (len > kOverflowCapacity) {
      return util::Status::Corruption("overflow page length out of range");
    }
    HM_RETURN_IF_ERROR(
        visit(current, std::string_view(p + kOverflowHeader, len)));
    current = next;
  }
  return util::Status::Ok();
}

util::Status ReadOverflowChain(BufferPool* pool, PageId head,
                               std::string* out) {
  return WalkOverflowChain(pool, head, [out](PageId, std::string_view bytes) {
    out->append(bytes);
    return util::Status::Ok();
  });
}

}  // namespace hm::storage
