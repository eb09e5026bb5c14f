// Per-process scratch paths for the test suites. Every path lies under one
// directory of the system temp dir named after the process id, so two builds
// running the same suite at once never share (or delete) each other's files.
// That directory is removed when the test process exits normally.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace hep::test_util {

/// <temp dir>/hep-test-<pid>/<name>. The parent exists; `name` itself is
/// left for the caller to create (as a file or a directory).
inline std::filesystem::path scratch_path(std::string_view name) {
    struct Root {
        std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("hep-test-" + std::to_string(::getpid()));
        Root() { std::filesystem::create_directories(path); }
        Root(const Root&) = delete;
        Root& operator=(const Root&) = delete;
        ~Root() {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const Root root;
    return root.path / name;
}

}  // namespace hep::test_util
