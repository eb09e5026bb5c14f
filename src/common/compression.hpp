// Lightweight per-column compression for the columnar chunk codec
// (src/columnar). Self-contained — no external compression library.
//
// Three codecs over arrays of fixed-width unsigned elements (1, 4 or 8
// bytes; floats travel as their bit patterns):
//   kRaw    — elements packed flat, little-endian. Always valid; the upper
//             bound every auto-pick falls back to.
//   kVarint — LEB128 per element. Wins on small-magnitude integer columns
//             (hit counts, flags, sparse scores whose float bits are 0).
//   kDelta  — first element varint-encoded as-is, then zigzag(v[i]-v[i-1])
//             varints. Wins on sorted/sequential columns (slice index, event
//             numbers, offset arrays).
//
// Every decode is bounded and total: a truncated or corrupt payload yields
// Status::Corruption, never a crash or an out-of-bounds read, and a decode
// only succeeds if it consumes the payload exactly and every decoded value
// fits the element width. compress() output is exact-size (no padding), and
// max_compressed_size() gives the tight worst-case bound callers can use to
// pre-validate payload lengths. compressed_size() gives a codec's exact size
// by counting varint lengths, so compress_auto (and the SSTable block
// envelope, src/yokan/lsm/block.cpp) encode only the codec that wins, and
// compress_to() writes it straight into the caller's buffer.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.hpp"

namespace hep::compress {

enum class Codec : std::uint8_t {
    kRaw = 0,
    kVarint = 1,
    kDelta = 2,
};

inline std::string_view to_string(Codec c) noexcept {
    switch (c) {
        case Codec::kRaw: return "raw";
        case Codec::kVarint: return "varint";
        case Codec::kDelta: return "delta";
    }
    return "?";
}

inline bool valid_codec(std::uint8_t c) noexcept {
    return c <= static_cast<std::uint8_t>(Codec::kDelta);
}

inline bool valid_width(std::size_t width) noexcept {
    return width == 1 || width == 4 || width == 8;
}

/// Longest LEB128 encoding of a value that fits `width` bytes.
inline constexpr std::size_t max_varint_bytes(std::size_t width) noexcept {
    return width == 1 ? 2 : width == 4 ? 5 : 10;  // ceil(8*width / 7)
}

/// Tight worst-case payload size for `count` elements of `width` bytes.
inline constexpr std::size_t max_compressed_size(Codec codec, std::size_t count,
                                                 std::size_t width) noexcept {
    switch (codec) {
        case Codec::kRaw: return count * width;
        case Codec::kVarint: return count * max_varint_bytes(width);
        case Codec::kDelta:
            // The first element encodes as-is; deltas zigzag to at most one
            // bit more than the width, which still fits the same varint
            // bound for w=1/4 and one extra byte for w=8.
            return count == 0 ? 0
                              : max_varint_bytes(width) +
                                    (count - 1) * (width == 8 ? 10 : max_varint_bytes(width) + 1);
    }
    return count * width;
}

// ---- primitives ------------------------------------------------------------

/// LEB128-encode `v` at `dst`, which must have room for the encoding (at
/// most 10 bytes); returns its end.
inline unsigned char* put_varint(unsigned char* dst, std::uint64_t v) noexcept {
    while (v >= 0x80) {
        *dst++ = static_cast<unsigned char>(v | 0x80);
        v >>= 7;
    }
    *dst++ = static_cast<unsigned char>(v);
    return dst;
}

inline void put_varint(std::string& out, std::uint64_t v) {
    unsigned char buf[10];
    out.append(reinterpret_cast<const char*>(buf), put_varint(buf, v) - buf);
}

/// Bounded LEB128 decode; advances `pos`. False on truncation, a >10-byte
/// encoding, or bits beyond 64. One-byte values (most lengths) take the
/// first branch.
inline bool get_varint(std::string_view in, std::size_t& pos, std::uint64_t& out) noexcept {
    if (pos < in.size() && static_cast<std::uint8_t>(in[pos]) < 0x80) {
        out = static_cast<std::uint8_t>(in[pos++]);
        return true;
    }
    std::uint64_t v = 0;
    for (std::size_t shift = 0; shift < 64; shift += 7) {
        if (pos >= in.size()) return false;  // truncated mid-value
        const auto byte = static_cast<std::uint8_t>(in[pos++]);
        if (shift == 63 && (byte & 0x7E) != 0) return false;  // overflows 64 bits
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
    }
    return false;  // 10 continuation bytes — not a valid u64
}

inline std::uint64_t zigzag_encode(std::uint64_t delta) noexcept {
    const auto s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^ static_cast<std::uint64_t>(s >> 63);
}

inline std::uint64_t zigzag_decode(std::uint64_t z) noexcept {
    return (z >> 1) ^ (~(z & 1) + 1);
}

namespace detail {

/// Little-endian element load with the width fixed at compile time (so the
/// codecs are byte-order stable): one plain load on a little-endian host,
/// the portable byte loop elsewhere.
template <std::size_t W>
inline std::uint64_t load_le(const unsigned char* p) noexcept {
    if constexpr (std::endian::native == std::endian::little) {
        using U = std::conditional_t<W == 1, std::uint8_t,
                                     std::conditional_t<W == 4, std::uint32_t, std::uint64_t>>;
        U v;
        std::memcpy(&v, p, W);
        return v;
    } else {
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < W; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
        return v;
    }
}

/// Calls `fn` with the valid width (1, 4 or 8) as a compile-time constant.
template <typename Fn>
inline auto with_width(std::size_t width, Fn&& fn) {
    switch (width) {
        case 1: return fn(std::integral_constant<std::size_t, 1>{});
        case 4: return fn(std::integral_constant<std::size_t, 4>{});
        default: return fn(std::integral_constant<std::size_t, 8>{});
    }
}

inline std::uint64_t load_elem(const void* data, std::size_t index, std::size_t width) noexcept {
    const auto* p = static_cast<const unsigned char*>(data) + index * width;
    return with_width(width, [p](auto w) { return load_le<decltype(w)::value>(p); });
}

inline void store_elem(void* data, std::size_t index, std::size_t width,
                       std::uint64_t v) noexcept {
    auto* p = static_cast<unsigned char*>(data) + index * width;
    for (std::size_t b = 0; b < width; ++b) p[b] = static_cast<unsigned char>(v >> (8 * b));
}

inline bool fits_width(std::uint64_t v, std::size_t width) noexcept {
    return width >= 8 || (v >> (8 * width)) == 0;
}

}  // namespace detail

// ---- encode ----------------------------------------------------------------

namespace detail {

/// LEB128 length of `v`: one byte per started group of 7 bits. The
/// multiply-shift is (bit_width + 6) / 7, exact for every width 0..64, in a
/// form the counting kernel vectorizes.
inline std::size_t varint_size(std::uint64_t v) noexcept {
    return (static_cast<std::uint32_t>(std::bit_width(v | 1)) * 147u + 882u) >> 10;
}

/// Calls `emit(u)` with the unsigned value each element varint-encodes as:
/// the element itself (kVarint), or the first element and then zigzagged
/// deltas (kDelta).
template <std::size_t W, typename Emit>
inline void for_each_coded(Codec codec, const unsigned char* p, std::size_t count,
                           Emit&& emit) noexcept {
    if (codec == Codec::kVarint) {
        for (std::size_t i = 0; i < count; ++i) emit(load_le<W>(p + i * W));
        return;
    }
    if (count == 0) return;
    std::uint64_t prev = load_le<W>(p);
    emit(prev);
    for (std::size_t i = 1; i < count; ++i) {
        const std::uint64_t v = load_le<W>(p + i * W);
        emit(zigzag_encode(v - prev));
        prev = v;
    }
}

/// Summed varint lengths of what `codec` (kVarint or kDelta) writes for
/// `count` elements of `width` (1, 4 or 8) bytes at `p`. Counts in fixed
/// chunks and tests `stop_at` once per chunk; the kernel is built for the
/// x86-64 baseline and for x86-64-v4, picked at first use (compression.cpp).
std::size_t count_varint_bytes(Codec codec, const unsigned char* p, std::size_t count,
                               std::size_t width, std::size_t stop_at) noexcept;

/// The builds count_varint_bytes picks from, for tests: the baseline one,
/// and the x86-64-v4 one (nullptr when it is not compiled in or the CPU
/// lacks it). count_varint_bytes calls v4 when there is one.
using CountKernel = std::size_t (*)(Codec, const unsigned char*, std::size_t, std::size_t,
                                    std::size_t) noexcept;
CountKernel count_kernel_baseline() noexcept;
CountKernel count_kernel_v4() noexcept;

}  // namespace detail

/// Payload size compress(codec, ...) produces, counted without writing a
/// byte. Counting stops as soon as the size reaches `stop_at`: a result
/// below `stop_at` is exact, any other only says "at least stop_at". An
/// unsupported codec or width counts as the largest size_t (compress() would
/// fail).
inline std::size_t compressed_size(
    Codec codec, const void* data, std::size_t count, std::size_t width,
    std::size_t stop_at = std::numeric_limits<std::size_t>::max()) noexcept {
    if (!valid_codec(static_cast<std::uint8_t>(codec)) || !valid_width(width)) {
        return std::numeric_limits<std::size_t>::max();
    }
    if (codec == Codec::kRaw) return count * width;
    return detail::count_varint_bytes(codec, static_cast<const unsigned char*>(data), count,
                                      width, stop_at);
}

/// Write compress(codec, ...)'s payload to `dst`, which must have room for
/// compressed_size(codec, ...) bytes; returns its end. `codec` and `width`
/// must be valid.
inline char* compress_to(Codec codec, const void* data, std::size_t count, std::size_t width,
                         char* dst) noexcept {
    if (codec == Codec::kRaw) {
        if (count > 0) std::memcpy(dst, data, count * width);
        return dst + count * width;
    }
    const auto* p = static_cast<const unsigned char*>(data);
    auto* out = reinterpret_cast<unsigned char*>(dst);
    detail::with_width(width, [&](auto w) {
        detail::for_each_coded<decltype(w)::value>(codec, p, count,
                                                   [&](std::uint64_t u) { out = put_varint(out, u); });
    });
    return reinterpret_cast<char*>(out);
}

/// Compress `count` elements of `width` bytes with one codec. The output is
/// the payload only — callers record (codec, count, width) themselves.
inline Result<std::string> compress(Codec codec, const void* data, std::size_t count,
                                    std::size_t width) {
    if (!valid_width(width)) {
        return Status::InvalidArgument("unsupported element width " + std::to_string(width));
    }
    if (!valid_codec(static_cast<std::uint8_t>(codec))) {
        return Status::InvalidArgument("unknown codec " +
                                       std::to_string(static_cast<unsigned>(codec)));
    }
    // Sized by counting first, then written in place: no per-byte growth.
    std::string out(compressed_size(codec, data, count, width), '\0');
    compress_to(codec, data, count, width, out.data());
    return out;
}

// ---- codec choice ----------------------------------------------------------

/// The codec compress_auto keeps and its payload size, decided by counting:
/// the smallest payload strictly below `beat` (ties go to the cheaper
/// decode: varint before delta), else kRaw with `beat`.
inline std::pair<Codec, std::size_t> pick_codec(const void* data, std::size_t count,
                                                std::size_t width, std::size_t beat) noexcept {
    std::pair<Codec, std::size_t> best{Codec::kRaw, beat};
    for (Codec c : {Codec::kVarint, Codec::kDelta}) {
        const std::size_t n = compressed_size(c, data, count, width, best.second);
        if (n < best.second) best = {c, n};
    }
    return best;
}

/// The smallest payload over every codec (ties go to the cheaper decode:
/// raw, then varint, then delta). Only the winner is encoded.
inline std::pair<Codec, std::string> compress_auto(const void* data, std::size_t count,
                                                   std::size_t width) {
    if (count == 0) return {Codec::kRaw, std::string()};
    const Codec best = pick_codec(data, count, width, count * width).first;
    if (best == Codec::kRaw) {
        return {best, std::string(static_cast<const char*>(data), count * width)};
    }
    return {best, std::move(*compress(best, data, count, width))};
}

// ---- decode ----------------------------------------------------------------

/// Decompress exactly `count` elements of `width` bytes into `out` (which
/// must hold count*width bytes). Corruption if the payload is truncated,
/// over-long, encodes a value that does not fit the width, or is not
/// consumed exactly.
inline Status decompress(Codec codec, std::string_view payload, std::size_t count,
                         std::size_t width, void* out) noexcept {
    if (!valid_width(width)) {
        return Status::InvalidArgument("unsupported element width " + std::to_string(width));
    }
    if (payload.size() > max_compressed_size(codec, count, width)) {
        return Status::Corruption("column payload exceeds the codec's size bound");
    }
    switch (codec) {
        case Codec::kRaw: {
            if (payload.size() != count * width) {
                return Status::Corruption("raw column payload has wrong size");
            }
            if (count > 0) std::memcpy(out, payload.data(), payload.size());
            return Status::OK();
        }
        case Codec::kVarint: {
            std::size_t pos = 0;
            for (std::size_t i = 0; i < count; ++i) {
                std::uint64_t v = 0;
                if (!get_varint(payload, pos, v) || !detail::fits_width(v, width)) {
                    return Status::Corruption("varint column payload is corrupt");
                }
                detail::store_elem(out, i, width, v);
            }
            if (pos != payload.size()) {
                return Status::Corruption("varint column payload has trailing bytes");
            }
            return Status::OK();
        }
        case Codec::kDelta: {
            std::size_t pos = 0;
            std::uint64_t prev = 0;
            for (std::size_t i = 0; i < count; ++i) {
                std::uint64_t raw = 0;
                if (!get_varint(payload, pos, raw)) {
                    return Status::Corruption("delta column payload is corrupt");
                }
                const std::uint64_t v = i == 0 ? raw : prev + zigzag_decode(raw);
                // Deltas wrap modulo 2^64; the reconstructed value must still
                // fit the element width or the stream is not a valid encode.
                if (!detail::fits_width(v, width)) {
                    return Status::Corruption("delta column decodes out of range");
                }
                detail::store_elem(out, i, width, v);
                prev = v;
            }
            if (pos != payload.size()) {
                return Status::Corruption("delta column payload has trailing bytes");
            }
            return Status::OK();
        }
    }
    return Status::Corruption("unknown column codec " +
                              std::to_string(static_cast<unsigned>(codec)));
}

}  // namespace hep::compress
