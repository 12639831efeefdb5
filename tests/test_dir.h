#ifndef HM_TESTS_TEST_DIR_H_
#define HM_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace hm::test {

/// A fresh directory no other process shares: made by mkdtemp under
/// ::testing::TempDir() as `<prefix>_XXXXXX`, removed with everything
/// in it on destruction. Two test runs at once (two build trees, or a
/// case and its Release twin) therefore never delete each other's
/// files, as fixed names under TempDir() did.
class TestDir {
 public:
  explicit TestDir(const std::string& prefix = "hm") {
    std::string pattern = ::testing::TempDir() + "/" + prefix + "_XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    path_ = pattern;
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace hm::test

#endif  // HM_TESTS_TEST_DIR_H_
