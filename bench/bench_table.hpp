// Small helpers for the figure-reproduction benches: aligned table printing
// plus a standard main() that prints the reproduction tables and then runs
// any registered google-benchmark micro-benchmarks.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace hep::bench {

inline void print_header(const std::string& title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
    for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string fmt(double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string fmt_throughput(double slices_per_s) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fM", slices_per_s / 1e6);
    return buf;
}

/// Run a bench's print_reproduction(): its verdict if it returns bool,
/// otherwise true.
template <typename PrintFn>
bool reproduce(PrintFn&& print_fn) {
    if constexpr (std::is_same_v<std::invoke_result_t<PrintFn>, bool>) {
        return print_fn();
    } else {
        print_fn();
        return true;
    }
}

}  // namespace hep::bench

/// Each figure bench defines `print_reproduction()` and uses this main. A
/// bench whose print_reproduction() returns bool reports whether every bar it
/// printed passed: the process then exits 1 on a FAIL.
#define HEP_BENCH_MAIN(print_fn)                                  \
    int main(int argc, char** argv) {                            \
        const bool pass = ::hep::bench::reproduce(print_fn);      \
        ::benchmark::Initialize(&argc, argv);                     \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
            return 1;                                             \
        ::benchmark::RunSpecifiedBenchmarks();                    \
        return pass ? 0 : 1;                                      \
    }
