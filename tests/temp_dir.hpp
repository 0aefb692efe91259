// Per-process scratch directory for the test binaries.
//
// Every path a test writes goes through temp_path(), which places it in a
// directory unique to this process (mkdtemp under the system temp
// directory). The directory and everything left in it — snapshot files,
// `.tmp` staging files, `.sketch` sidecars, checkpoint directories — is
// removed recursively when the process exits. Two copies of one test
// binary therefore never share a file, and a run leaves nothing behind.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace opcua_study {

class ProcessTempDir {
 public:
  ProcessTempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "opcua_test_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a test temp directory from " + pattern);
    }
    dir_ = pattern;
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

/// `name` inside this process's scratch directory (created on first use).
inline std::string temp_path(const std::string& name) {
  static const ProcessTempDir dir;
  return (dir.dir() / name).string();
}

}  // namespace opcua_study
