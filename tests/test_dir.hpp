// A scratch directory private to this test process. ctest runs every
// TEST in its own process, often several at once (`ctest -j`), so tests
// that write files must never share a fixed path under TempDir(): one
// process would truncate or delete a file another has open or mapped.
// Naming by process id is not enough either: `ctest --repeat` reuses
// ids, and a later process would inherit an earlier one's files.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace fluxtrace::test {

/// Created once per process (mkdtemp), so no other process, concurrent
/// or earlier, has touched it; removed when the process exits.
inline const std::string& private_dir() {
  // Never destroyed: the exit handler below still reads it.
  static const std::string* const dir = [] {
    std::string path = ::testing::TempDir() + "/fluxtrace_XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed under " << ::testing::TempDir();
      return new std::string(::testing::TempDir());
    }
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(private_dir(), ec);
    });
    return new std::string(path);
  }();
  return *dir;
}

} // namespace fluxtrace::test
