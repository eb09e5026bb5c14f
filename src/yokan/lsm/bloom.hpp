// Bloom filter used by SSTables to skip files that cannot contain a key —
// the standard LSM read-amplification mitigation (RocksDB does the same).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace hep::yokan::lsm {

class BloomFilter {
  public:
    /// Build an empty filter sized for `expected_keys` at ~1% FPR.
    explicit BloomFilter(std::size_t expected_keys = 0) { reset(expected_keys); }

    /// Clear and resize for `expected_keys` (keeps the word storage).
    void reset(std::size_t expected_keys) {
        bits_.assign(words_for(expected_keys), 0);
        set_divisor();
    }

    /// The one hash a key is filtered by; both probe sequences derive from
    /// it, so a caller can hash a key once and feed several filters. Word at
    /// a time: each 16 bytes cost one 64x64->128 multiply folded to 64 bits
    /// (wyhash's structure), against fnv1a64's multiply per byte. Table
    /// blooms store bits set from it, so it is part of the on-disk format.
    static std::uint64_t hash(std::string_view key) noexcept {
        constexpr std::uint64_t k0 = 0xa0761d6478bd642fULL;
        constexpr std::uint64_t k1 = 0xe7037ed1a0b428dbULL;
        const char* p = key.data();
        const std::size_t n = key.size();
        std::uint64_t seed = k0;
        std::uint64_t a = 0, b = 0;
        if (n <= 16) {
            if (n >= 8) {
                a = load64(p);
                b = load64(p + n - 8);
            } else if (n >= 4) {
                a = load32(p);
                b = load32(p + n - 4);
            } else if (n > 0) {
                a = (std::uint64_t{static_cast<std::uint8_t>(p[0])} << 16) |
                    (std::uint64_t{static_cast<std::uint8_t>(p[n / 2])} << 8) |
                    static_cast<std::uint8_t>(p[n - 1]);
            }
        } else {
            std::size_t left = n;
            for (; left > 16; left -= 16, p += 16) {
                seed = fold_mul(load64(p) ^ k1, load64(p + 8) ^ seed);
            }
            a = load64(p + left - 16);  // the last 16 bytes, overlapping
            b = load64(p + left - 8);
        }
        return fold_mul(k1 ^ n, fold_mul(a ^ k1, b ^ seed));
    }

    void insert_hash(std::uint64_t h) {
        const std::uint64_t h2 = mix64(h) | 1;  // odd second hash avoids cycling
        for (std::uint32_t i = 0; i < kHashes; ++i) set_bit(bit_of(h + i * h2));
    }

    [[nodiscard]] bool may_contain_hash(std::uint64_t h) const {
        if (bits_.empty()) return false;
        const std::uint64_t h2 = mix64(h) | 1;
        for (std::uint32_t i = 0; i < kHashes; ++i) {
            if (!get_bit(bit_of(h + i * h2))) return false;
        }
        return true;
    }

    /// Serialize to bytes (u64 word count + words) / restore from bytes.
    void append_to(std::string& out) const;
    [[nodiscard]] std::size_t encoded_size() const noexcept { return 8 + bits_.size() * 8; }
    /// encoded_size() of a filter sized for `expected_keys`.
    static std::size_t encoded_size_for(std::size_t expected_keys) noexcept {
        return 8 + words_for(expected_keys) * 8;
    }
    static BloomFilter decode(std::string_view bytes);

    [[nodiscard]] std::size_t bit_count() const noexcept { return bits_.size() * 64; }

  private:
    static constexpr std::uint32_t kHashes = 7;

    /// ~10 bits/key, 7 hashes gives ~0.8% FPR.
    static std::size_t words_for(std::size_t expected_keys) noexcept {
        return (std::max<std::size_t>(64, expected_keys * 10) + 63) / 64;
    }

    static std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) noexcept {
        const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
        return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
    }
    static std::uint64_t load64(const char* p) noexcept {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
    }
    static std::uint64_t load32(const char* p) noexcept {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
    }

    /// x % bit_count() without a divide: Lemire, Kaser & Kurz, "Faster
    /// Remainder by Direct Computation" (fastmod_u64), exact for every
    /// 64-bit x with the 128-bit reciprocal set_divisor() precomputes.
    [[nodiscard]] std::uint64_t bit_of(std::uint64_t x) const noexcept {
        using u128 = unsigned __int128;
        const u128 low = recip_ * x;  // fractional part of x / bit_count()
        const u128 d = bit_count();
        const u128 bottom = ((low & ~std::uint64_t{0}) * d) >> 64;
        return static_cast<std::uint64_t>((bottom + (low >> 64) * d) >> 64);
    }
    void set_divisor() noexcept {
        const unsigned __int128 all_ones = ~static_cast<unsigned __int128>(0);
        recip_ = bits_.empty() ? 0 : all_ones / bit_count() + 1;
    }

    void set_bit(std::size_t i) { bits_[i / 64] |= (1ULL << (i % 64)); }
    [[nodiscard]] bool get_bit(std::size_t i) const {
        return (bits_[i / 64] >> (i % 64)) & 1ULL;
    }

    std::vector<std::uint64_t> bits_;
    unsigned __int128 recip_ = 0;
};

}  // namespace hep::yokan::lsm
