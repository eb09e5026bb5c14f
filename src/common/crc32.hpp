// CRC32 (IEEE polynomial, reflected) for WAL/SSTable/manifest integrity checks.
//
// Three implementations, one value:
//   - PCLMULQDQ folding (x86-64, picked at run time when the CPU has
//     PCLMULQDQ and SSE4.1) for the 16-byte multiple of inputs of 64 bytes
//     or more: the Intel "Fast CRC Computation for Generic Polynomials Using
//     PCLMULQDQ" scheme, as in zlib/Chromium's crc32_simd. It folds four
//     16-byte lanes per step and Barrett-reduces at the end — ~10x the
//     table path on 4 KiB blocks, which every block read and table build
//     checksums.
//   - slicing-by-8: eight precomputed tables fold eight bytes per step. It
//     finishes the PCLMUL path's tail and is the fallback everywhere else.
//   - the classic byte-at-a-time loop, for constant evaluation and
//     big-endian hosts.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HEP_CRC32_PCLMUL 1
#else
#define HEP_CRC32_PCLMUL 0
#endif

namespace hep {

namespace detail {
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
        for (std::uint32_t i = 0; i < 256; ++i) {
            t[s][i] = t[0][t[s - 1][i] & 0xFF] ^ (t[s - 1][i] >> 8);
        }
    }
    return t;
}
inline constexpr auto kCrc32Slices = make_crc32_slices();
// Single-table view kept for the byte-at-a-time tail/fallback loop.
inline constexpr const std::array<std::uint32_t, 256>& kCrc32Table = kCrc32Slices[0];

/// Slicing-by-8 over the pre-inverted running state `crc`.
inline std::uint32_t crc32_sliced(const char* p, std::size_t n, std::uint32_t crc) noexcept {
    const auto& t = kCrc32Slices;
    while (n >= 8) {
        std::uint32_t lo = 0, hi = 0;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
              t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n--) {
        crc = kCrc32Table[(crc ^ static_cast<std::uint8_t>(*p++)) & 0xFF] ^ (crc >> 8);
    }
    return crc;
}

#if HEP_CRC32_PCLMUL
#define HEP_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

/// Folds `acc` forward by the distance `k` encodes and adds `next`.
HEP_CRC32_TARGET inline __m128i crc32_fold(__m128i acc, __m128i k, __m128i next) noexcept {
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

HEP_CRC32_TARGET inline __m128i crc32_load(const char* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// PCLMULQDQ folding over the pre-inverted running state `crc`; `n` must be
/// at least 64 and a multiple of 16. The constants are x^k mod P for the
/// bit-reflected polynomial (k1..k5) and the Barrett pair (P, mu).
HEP_CRC32_TARGET inline std::uint32_t crc32_pclmul(const char* p, std::size_t n,
                                                   std::uint32_t crc) noexcept {
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 512-bit fold
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 128-bit fold
    const __m128i k5k0 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(crc32_load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = crc32_load(p + 16);
    __m128i x3 = crc32_load(p + 32);
    __m128i x4 = crc32_load(p + 48);
    p += 64;
    n -= 64;
    for (; n >= 64; p += 64, n -= 64) {  // four lanes, 64 bytes per step
        x1 = crc32_fold(x1, k1k2, crc32_load(p));
        x2 = crc32_fold(x2, k1k2, crc32_load(p + 16));
        x3 = crc32_fold(x3, k1k2, crc32_load(p + 32));
        x4 = crc32_fold(x4, k1k2, crc32_load(p + 48));
    }
    x1 = crc32_fold(x1, k3k4, x2);  // four lanes into one
    x1 = crc32_fold(x1, k3k4, x3);
    x1 = crc32_fold(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16) x1 = crc32_fold(x1, k3k4, crc32_load(p));

    // 128 -> 64 bits.
    __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5k0, 0x00), t);
    // Barrett reduction to 32 bits.
    t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
    return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#undef HEP_CRC32_TARGET

inline bool cpu_has_pclmul() noexcept {
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return has;
}
#endif

/// The table-driven value of crc32() (no PCLMUL dispatch), for tests that
/// hold the dispatched path to it.
inline std::uint32_t crc32_portable(std::string_view data, std::uint32_t crc = 0) noexcept {
    return ~crc32_sliced(data.data(), data.size(), ~crc);
}
}  // namespace detail

/// Incremental CRC32; start with crc=0, feed chunks, read the result.
constexpr std::uint32_t crc32(std::string_view data, std::uint32_t crc = 0) noexcept {
    crc = ~crc;
    if (!std::is_constant_evaluated() && std::endian::native == std::endian::little) {
        const char* p = data.data();
        std::size_t n = data.size();
#if HEP_CRC32_PCLMUL
        if (n >= 64 && detail::cpu_has_pclmul()) {
            const std::size_t folded = n & ~std::size_t(15);
            crc = detail::crc32_pclmul(p, folded, crc);
            p += folded;
            n -= folded;
        }
#endif
        return ~detail::crc32_sliced(p, n, crc);
    }
    for (char ch : data) {
        crc = detail::kCrc32Table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
    }
    return ~crc;
}

}  // namespace hep
