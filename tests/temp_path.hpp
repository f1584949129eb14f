// Scratch paths for tests. ctest runs every test in its own process, and
// the sanitizer suites (asan_mem_suite, tsan_ft_suite, ubsan_arith_suite)
// run many of the same tests again in another process that may run at the
// same time. A fixed name under ::testing::TempDir() would be written and
// deleted by both; a name that carries the process id keeps them apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace gc::test {

/// A file or directory path under ::testing::TempDir() unique to this
/// process. Whatever is at the path is removed when the guard is made
/// and again when it goes out of scope; the test creates the file or
/// directory itself.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
              name) {
    std::filesystem::remove_all(path_);
  }
  ~TempPath() {
    std::error_code ec;  // never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace gc::test
