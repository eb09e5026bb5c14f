// The varint-length counting kernel behind compress::compressed_size.
//
// Codec choice (compress_auto, the SSTable block envelope) sizes every
// candidate codec by summing LEB128 lengths, so this loop runs over every
// element of every block a table build writes. It sums whole chunks without
// a per-element exit test, which lets the compiler vectorize it, and it is
// compiled twice — for the x86-64 baseline and for x86-64-v4 (vplzcntq over
// eight lanes) — with v4 picked once at first use when the CPU supports it.
// Both builds compute the same sum. The pick is a plain function pointer
// rather than target_clones: an ifunc resolver runs before
// ThreadSanitizer's runtime is up and crashes it.
#include "common/compression.hpp"

#include <algorithm>

namespace hep::compress::detail {

namespace {

constexpr std::size_t kCountChunk = 64;

/// Varint bytes of elements [begin, end) of a kVarint (Delta = false) or
/// kDelta (Delta = true, begin >= 1) stream.
template <std::size_t W, bool Delta>
[[gnu::always_inline]] inline std::size_t count_chunk(const unsigned char* p, std::size_t begin,
                                                      std::size_t end) noexcept {
    std::size_t n = 0;
    for (std::size_t i = begin; i < end; ++i) {
        std::uint64_t u = load_le<W>(p + i * W);
        if constexpr (Delta) u = zigzag_encode(u - load_le<W>(p + (i - 1) * W));
        n += varint_size(u);
    }
    return n;
}

template <std::size_t W, bool Delta>
[[gnu::always_inline]] inline std::size_t count_stream(const unsigned char* p, std::size_t count,
                                                       std::size_t stop_at) noexcept {
    std::size_t n = 0, i = 0;
    if constexpr (Delta) {  // the first element is written as-is
        if (count == 0) return 0;
        n = varint_size(load_le<W>(p));
        i = 1;
    }
    while (i < count && n < stop_at) {
        const std::size_t end = std::min(count, i + kCountChunk);
        n += count_chunk<W, Delta>(p, i, end);
        i = end;
    }
    return n;
}

// A switch rather than detail::with_width: a lambda's body would not inherit
// the target attribute of the kernel it is called from.
[[gnu::always_inline]] inline std::size_t count_any(Codec codec, const unsigned char* p,
                                                    std::size_t count, std::size_t width,
                                                    std::size_t stop_at) noexcept {
    const bool delta = codec == Codec::kDelta;
    switch (width) {
        case 1:
            return delta ? count_stream<1, true>(p, count, stop_at)
                         : count_stream<1, false>(p, count, stop_at);
        case 4:
            return delta ? count_stream<4, true>(p, count, stop_at)
                         : count_stream<4, false>(p, count, stop_at);
        default:
            return delta ? count_stream<8, true>(p, count, stop_at)
                         : count_stream<8, false>(p, count, stop_at);
    }
}

std::size_t count_baseline(Codec codec, const unsigned char* p, std::size_t count,
                           std::size_t width, std::size_t stop_at) noexcept {
    return count_any(codec, p, count, width, stop_at);
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("arch=x86-64-v4"))) std::size_t count_v4(
    Codec codec, const unsigned char* p, std::size_t count, std::size_t width,
    std::size_t stop_at) noexcept {
    return count_any(codec, p, count, width, stop_at);
}
#endif

}  // namespace

CountKernel count_kernel_baseline() noexcept { return count_baseline; }

CountKernel count_kernel_v4() noexcept {
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) return count_v4;
#endif
    return nullptr;
}

std::size_t count_varint_bytes(Codec codec, const unsigned char* p, std::size_t count,
                               std::size_t width, std::size_t stop_at) noexcept {
    static const CountKernel kernel = [] {
        const CountKernel v4 = count_kernel_v4();
        return v4 ? v4 : count_baseline;
    }();
    return kernel(codec, p, count, width, stop_at);
}

}  // namespace hep::compress::detail
