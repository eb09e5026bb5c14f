// Bloom filter used by SSTables to skip files that cannot contain a key —
// the standard LSM read-amplification mitigation (RocksDB does the same).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"

namespace hep::yokan::lsm {

class BloomFilter {
  public:
    /// Build an empty filter sized for `expected_keys` at ~1% FPR.
    explicit BloomFilter(std::size_t expected_keys = 0) {
        // ~10 bits/key, 7 hashes gives ~0.8% FPR.
        const std::size_t bits = std::max<std::size_t>(64, expected_keys * 10);
        bits_.assign((bits + 63) / 64, 0);
    }

    /// The one hash a key is filtered by; both probe sequences derive from
    /// it, so a caller can hash a key once and feed several filters.
    static std::uint64_t hash(std::string_view key) noexcept { return fnv1a64(key); }

    void insert_hash(std::uint64_t h) {
        const std::uint64_t h2 = mix64(h) | 1;  // odd second hash avoids cycling
        for (std::uint32_t i = 0; i < kHashes; ++i) set_bit((h + i * h2) % bit_count());
    }

    [[nodiscard]] bool may_contain_hash(std::uint64_t h) const {
        if (bits_.empty()) return false;
        const std::uint64_t h2 = mix64(h) | 1;
        for (std::uint32_t i = 0; i < kHashes; ++i) {
            if (!get_bit((h + i * h2) % bit_count())) return false;
        }
        return true;
    }

    /// Serialize to bytes (u64 word count + words) / restore from bytes.
    [[nodiscard]] std::string encode() const;
    static BloomFilter decode(std::string_view bytes);

    [[nodiscard]] std::size_t bit_count() const noexcept { return bits_.size() * 64; }

  private:
    static constexpr std::uint32_t kHashes = 7;

    void set_bit(std::size_t i) { bits_[i / 64] |= (1ULL << (i % 64)); }
    [[nodiscard]] bool get_bit(std::size_t i) const {
        return (bits_[i / 64] >> (i % 64)) & 1ULL;
    }

    std::vector<std::uint64_t> bits_;
};

}  // namespace hep::yokan::lsm
