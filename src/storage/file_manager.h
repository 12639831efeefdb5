#ifndef HM_STORAGE_FILE_MANAGER_H_
#define HM_STORAGE_FILE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "storage/file.h"
#include "storage/page.h"
#include "util/status.h"

namespace hm::storage {

/// The page and checksum layer over one database file: positional,
/// page-granular reads and writes through a storage::File, which also
/// carries the file's failpoint sites (`file/read/error`,
/// `file/write/error`, `file/sync/error`). Page allocation only ever
/// extends the file; reuse of freed pages is the storage layers'
/// concern. Sync() may run concurrently with page I/O.
class FileManager {
 public:
  FileManager() = default;
  ~FileManager();

  FileManager(const FileManager&) = delete;
  FileManager& operator=(const FileManager&) = delete;

  /// Opens (creating if necessary) the file at `path`. The file size
  /// must be a whole number of pages.
  util::Status Open(const std::string& path);

  /// Flushes and closes the file. Safe to call when not open.
  util::Status Close();

  bool is_open() const { return file_.is_open(); }

  /// Number of pages currently in the file.
  PageId page_count() const {
    return page_count_.load(std::memory_order_relaxed);
  }

  /// Extends the file by one zeroed page and returns its id.
  util::Result<PageId> AllocatePage();

  /// Reads page `id` into `*page` and verifies its checksum.
  util::Status ReadPage(PageId id, Page* page);

  /// Writes `page` (checksumming it) at position `id`.
  util::Status WritePage(PageId id, Page* page);

  /// fdatasync()s the file.
  util::Status Sync();

 private:
  File file_;
  /// Grows only under the (externally serialized) allocation path, but
  /// is read from concurrent reader threads' bounds checks — atomic.
  std::atomic<PageId> page_count_{0};
};

}  // namespace hm::storage

#endif  // HM_STORAGE_FILE_MANAGER_H_
