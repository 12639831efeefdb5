#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/failpoint.h"

namespace hm::storage {

std::string ErrnoMessage(std::string_view what, std::string_view path) {
  return std::string(what) + " '" + std::string(path) +
         "': " + std::strerror(errno);
}

File::~File() {
  // Nothing to report: durability comes from Sync(), never from close.
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& other) noexcept { *this = std::move(other); }

// Swapping hands this file's old descriptor to `other`, which closes it.
File& File::operator=(File&& other) noexcept {
  std::swap(fd_, other.fd_);
  std::swap(path_, other.path_);
  std::swap(sites_, other.sites_);
  return *this;
}

util::Result<File> File::Open(const std::string& path, FileMode mode,
                              FileSites sites) {
  static constexpr int kFlags[] = {O_RDONLY, O_RDWR | O_CREAT,
                                   O_RDWR | O_CREAT | O_APPEND,
                                   O_RDWR | O_CREAT | O_EXCL | O_APPEND};
  int fd = ::open(path.c_str(), kFlags[static_cast<int>(mode)], 0644);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path));
  File file;
  file.fd_ = fd;
  file.path_ = path;
  file.sites_ = sites;
  return file;
}

util::Result<size_t> File::ReadAt(uint64_t offset, char* buf,
                                  size_t n) const {
  if (sites_.read != nullptr) HM_FAILPOINT(sites_.read);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd_, buf + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r == 0) break;
    if (r > 0) {
      got += static_cast<size_t>(r);
    } else if (errno != EINTR) {
      return util::Status::IoError(ErrnoMessage("pread", path_));
    }
  }
  return got;
}

util::Status File::WriteAt(uint64_t offset, std::string_view data) {
  if (sites_.write != nullptr) HM_FAILPOINT(sites_.write);
  while (!data.empty()) {
    ssize_t r =
        ::pwrite(fd_, data.data(), data.size(), static_cast<off_t>(offset));
    if (r >= 0) {
      data.remove_prefix(static_cast<size_t>(r));
      offset += static_cast<uint64_t>(r);
    } else if (errno != EINTR) {
      return util::Status::IoError(ErrnoMessage("pwrite", path_));
    }
  }
  return util::Status::Ok();
}

util::Status File::Append(std::string_view data) {
  if (sites_.write != nullptr) HM_FAILPOINT(sites_.write);
  while (!data.empty()) {
    ssize_t r = ::write(fd_, data.data(), data.size());
    if (r >= 0) {
      data.remove_prefix(static_cast<size_t>(r));
    } else if (errno != EINTR) {
      return util::Status::IoError(ErrnoMessage("write", path_));
    }
  }
  return util::Status::Ok();
}

util::Status File::Sync() {
  if (sites_.sync != nullptr) HM_FAILPOINT(sites_.sync);
  if (::fdatasync(fd_) != 0) {
    return util::Status::IoError(ErrnoMessage("fdatasync", path_));
  }
  return util::Status::Ok();
}

util::Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return util::Status::IoError(ErrnoMessage("ftruncate", path_));
  }
  return util::Status::Ok();
}

util::Result<uint64_t> File::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return util::Status::IoError(ErrnoMessage("fstat", path_));
  }
  return static_cast<uint64_t>(st.st_size);
}

util::Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open dir", dir));
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0 && saved != EINVAL && saved != ENOTSUP) {
    errno = saved;
    return util::Status::IoError(ErrnoMessage("fsync dir", dir));
  }
  return util::Status::Ok();
}

util::Status ReplaceFile(const std::string& dir, const std::string& name,
                         std::string_view bytes, FileSites sites) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  ::unlink(tmp.c_str());  // a crash's leftover would fail the O_EXCL open
  util::Result<File> file =
      File::Open(tmp, FileMode::kCreateExclusiveAppend, sites);
  util::Status status = file.status();
  if (status.ok()) status = file->Append(bytes);
  if (status.ok()) status = file->Sync();
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = util::Status::IoError(ErrnoMessage("rename", path));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncDir(dir);
}

}  // namespace hm::storage
