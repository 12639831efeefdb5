#ifndef HM_STORAGE_PAGE_H_
#define HM_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "util/coding.h"
#include "util/crc32.h"

namespace hm::storage {

/// Fixed page size for all database files. 8 KiB balances the paper's
/// object sizes (~80 B nodes, ~380 B text nodes) against bitmap
/// overflow chains (FormNode bitmaps reach ~20 KiB).
inline constexpr uint32_t kPageSize = 8192;

/// Identifies a page inside one database file. Page 0 is the file's
/// meta page.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = 0xFFFFFFFFU;

/// Page type tags stored in the header; purely diagnostic, used by
/// integrity checks and the corruption tests.
enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,
  kSlotted = 2,     // objstore data page
  kDirectory = 3,   // objstore OID directory page
  kOverflow = 4,    // objstore big-object continuation
  kBTreeLeaf = 5,
  kBTreeInternal = 6,
  kHeap = 7,        // relstore tuple page
};

/// On-page header layout (bytes):
///   [0..4)   checksum — masked CRC32 of bytes [4..kPageSize)
///   [4..8)   page id
///   [8..10)  page type
///   [10..12) flags (unused)
///   [12..20) LSN of the last WAL record touching the page
///   [20..24) reserved
inline constexpr uint32_t kPageHeaderSize = 24;
/// Usable payload bytes per page.
inline constexpr uint32_t kPagePayloadSize = kPageSize - kPageHeaderSize;

/// A page-sized buffer with typed header accessors. `Page` is the unit
/// the buffer pool caches and the file manager transfers.
class Page {
 public:
  Page() { std::memset(data_, 0, kPageSize); }

  char* raw() { return data_; }
  const char* raw() const { return data_; }

  /// Payload area (after the header).
  char* payload() { return data_ + kPageHeaderSize; }
  const char* payload() const { return data_ + kPageHeaderSize; }

  PageId page_id() const { return util::DecodeFixed32(data_ + 4); }
  void set_page_id(PageId id) { util::EncodeFixed32(data_ + 4, id); }

  PageType type() const {
    return static_cast<PageType>(util::DecodeFixed16(data_ + 8));
  }
  void set_type(PageType type) {
    util::EncodeFixed16(data_ + 8, static_cast<uint16_t>(type));
  }

  uint64_t lsn() const { return util::DecodeFixed64(data_ + 12); }
  void set_lsn(uint64_t lsn) { util::EncodeFixed64(data_ + 12, lsn); }

  /// Free-use header word (bytes [20..24)); the relational heap files
  /// chain their pages through it.
  uint32_t aux() const { return util::DecodeFixed32(data_ + 20); }
  void set_aux(uint32_t value) { util::EncodeFixed32(data_ + 20, value); }

  /// Recomputes and stores the header checksum. Called by the buffer
  /// pool just before a page is written to disk.
  void UpdateChecksum() {
    uint32_t crc = util::Crc32(std::string_view(data_ + 4, kPageSize - 4));
    util::EncodeFixed32(data_, util::MaskCrc(crc));
  }

  /// Verifies the stored checksum. A page of all zeroes (never
  /// written) also verifies, so freshly allocated pages pass. A zero
  /// checksum word over any other bytes must match like any other, so
  /// a torn or stray write that zeroed only the header is caught.
  bool ChecksumOk() const {
    uint32_t stored = util::DecodeFixed32(data_);
    if (stored == 0 && IsAllZero()) return true;  // never checksummed
    uint32_t crc = util::Crc32(std::string_view(data_ + 4, kPageSize - 4));
    return util::UnmaskCrc(stored) == crc;
  }

  void Zero() { std::memset(data_, 0, kPageSize); }

 private:
  bool IsAllZero() const {
    return data_[0] == 0 && std::memcmp(data_, data_ + 1, kPageSize - 1) == 0;
  }

  alignas(8) char data_[kPageSize];
};

static_assert(sizeof(Page) == kPageSize);

}  // namespace hm::storage

#endif  // HM_STORAGE_PAGE_H_
