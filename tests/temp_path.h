#pragma once

/// \file temp_path.h
/// Per-process scratch paths for tests that write files. Every name
/// carries the process id, so two test processes running at once (one
/// suite at two kernel levels, or a sanitizer build beside a release
/// build) never read, overwrite or delete each other's files.

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace rfp::test {

/// \p name under gtest's temporary directory, prefixed with this
/// process's id.
inline std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "/rfp-" + std::to_string(::getpid()) + "-" +
         name;
}

}  // namespace rfp::test
