// Fixture for check_raw_io.py: a page write that bypasses
// storage::File. The lint must reject this file.

#include <sys/types.h>
#include <unistd.h>

ssize_t WritePageDirectly(int fd, const char* page, size_t size) {
  return ::pwrite(fd, page, size, 0);
}
