#ifndef HM_STORAGE_FILE_H_
#define HM_STORAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace hm::storage {

/// "<what> '<path>': <strerror(errno)>".
std::string ErrnoMessage(std::string_view what, std::string_view path);

enum class FileMode {
  kRead,                   // O_RDONLY
  kReadWriteCreate,        // O_RDWR | O_CREAT
  kAppendCreate,           // O_RDWR | O_CREAT | O_APPEND
  kCreateExclusiveAppend,  // O_RDWR | O_CREAT | O_EXCL | O_APPEND
};

/// Failpoint sites (DESIGN.md §11) evaluated before each read, write
/// and sync of a File: string literals, or null for none.
struct FileSites {
  const char* read = nullptr;
  const char* write = nullptr;
  const char* sync = nullptr;
};

/// An open file descriptor, closed on destruction: the one place under
/// src/ that reads, writes, syncs or truncates a durable file. Reads
/// and writes loop over short counts and EINTR. Sync() may run
/// concurrently with reads and writes.
class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  static util::Result<File> Open(const std::string& path, FileMode mode,
                                 FileSites sites = {});

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Reads `n` bytes at `offset` into `buf`, fewer only at the end of
  /// the file, and returns the count read.
  util::Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) const;
  util::Status WriteAt(uint64_t offset, std::string_view data);
  /// Writes at the end of a file opened in an append mode.
  util::Status Append(std::string_view data);
  /// fdatasync()s the file.
  util::Status Sync();
  util::Status Truncate(uint64_t size);
  util::Result<uint64_t> Size() const;

 private:
  int fd_ = -1;
  std::string path_;
  FileSites sites_;
};

/// fsync()s directory `dir`, making entries created, renamed or
/// removed in it durable. EINVAL and ENOTSUP are not errors: a
/// filesystem that refuses directory fsync keeps that promise itself.
util::Status SyncDir(const std::string& dir);

/// Replaces `dir/name` with `bytes` atomically and durably: writes and
/// syncs `dir/name.tmp`, renames it over `dir/name`, then syncs `dir`.
/// On a failure before the rename the temp file is removed and
/// `dir/name` is unchanged. `sites` apply to the temp file.
util::Status ReplaceFile(const std::string& dir, const std::string& name,
                         std::string_view bytes, FileSites sites = {});

}  // namespace hm::storage

#endif  // HM_STORAGE_FILE_H_
