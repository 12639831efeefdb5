#include "storage/file_manager.h"

#include "util/failpoint.h"

namespace hm::storage {

namespace {

constexpr FileSites kDataFileSites{"file/read/error", "file/write/error",
                                   "file/sync/error"};

uint64_t PageOffset(PageId id) { return static_cast<uint64_t>(id) * kPageSize; }

}  // namespace

// Best-effort: a failed close in a destructor has no caller to tell.
FileManager::~FileManager() { (void)Close(); }

util::Status FileManager::Open(const std::string& path) {
  if (is_open()) {
    return util::Status::InvalidArgument("FileManager already open");
  }
  HM_ASSIGN_OR_RETURN(
      File file, File::Open(path, FileMode::kReadWriteCreate, kDataFileSites));
  HM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  if (size % kPageSize != 0) {
    return util::Status::Corruption("file size is not page-aligned: " + path);
  }
  file_ = std::move(file);
  page_count_.store(static_cast<PageId>(size / kPageSize),
                    std::memory_order_relaxed);
  return util::Status::Ok();
}

util::Status FileManager::Close() {
  if (!is_open()) return util::Status::Ok();
  util::Status s = Sync();
  file_ = File();
  page_count_.store(0, std::memory_order_relaxed);
  return s;
}

util::Result<PageId> FileManager::AllocatePage() {
  if (!is_open()) return util::Status::InvalidArgument("file not open");
  PageId id = page_count_.load(std::memory_order_relaxed);
  Page zero;
  zero.set_page_id(id);
  HM_RETURN_IF_ERROR(WritePage(id, &zero));
  return id;
}

util::Status FileManager::ReadPage(PageId id, Page* page) {
  if (!is_open()) return util::Status::InvalidArgument("file not open");
  if (id >= page_count_.load(std::memory_order_relaxed)) {
    return util::Status::OutOfRange("read past end of file, page " +
                                    std::to_string(id));
  }
  HM_ASSIGN_OR_RETURN(size_t got,
                      file_.ReadAt(PageOffset(id), page->raw(), kPageSize));
  if (got != kPageSize) {
    return util::Status::IoError("short read of page " + std::to_string(id) +
                                 " of " + file_.path());
  }
  if (!page->ChecksumOk()) {
    return util::Status::Corruption("checksum mismatch on page " +
                                    std::to_string(id) + " of " +
                                    file_.path());
  }
  return util::Status::Ok();
}

util::Status FileManager::WritePage(PageId id, Page* page) {
  if (!is_open()) return util::Status::InvalidArgument("file not open");
  if (id > page_count_.load(std::memory_order_relaxed)) {
    return util::Status::OutOfRange("write would leave a hole, page " +
                                    std::to_string(id));
  }
  page->UpdateChecksum();
  if (HM_FAILPOINT_FIRED("file/write/short")) {
    // Short write: half the page lands on disk, so the stored checksum
    // no longer matches and the next ReadPage must report Corruption.
    (void)file_.WriteAt(PageOffset(id),
                        std::string_view(page->raw(), kPageSize / 2));
    if (id == page_count_.load(std::memory_order_relaxed)) {
      page_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return util::Status::IoError(
        "injected short write at failpoint file/write/short");
  }
  HM_RETURN_IF_ERROR(
      file_.WriteAt(PageOffset(id), std::string_view(page->raw(), kPageSize)));
  if (id == page_count_.load(std::memory_order_relaxed)) {
    page_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return util::Status::Ok();
}

util::Status FileManager::Sync() {
  if (!is_open()) return util::Status::InvalidArgument("file not open");
  return file_.Sync();
}

}  // namespace hm::storage
