// SSTable block envelope codec and the two-tier block cache.
//
// Every data block is stored as an envelope:
//
//   [codec u8][pad u8][raw_len u32 LE][payload...]
//
// The raw block is a run of shared-prefix table records (format v3, see
// sstable.hpp); the envelope does not look inside it. The payload is the
// raw block either verbatim (codec = kRaw, pad = 0) or
// compressed with one of the common/compression.hpp codecs over the block
// bytes zero-padded to a multiple of 8 and treated as u64 elements — width 8
// is the only width where kDelta/kVarint can beat raw on byte streams, and
// `pad` (0..7) records how much padding to strip after decode. encode_block
// keeps whichever is smaller, so a block never grows by more than the 6-byte
// header; it sizes each codec by counting varint lengths, pads the block in
// place, and writes only the winner, straight into the table buffer. The
// per-block crc32 stored in the table index covers the whole envelope, so
// corruption is caught before any decode runs; the record decoder bounds
// every read by the block on its own. A raw envelope decodes to a view of
// its own payload: no copy.
//
// The BlockCache holds two independently byte-bounded LRU tiers:
//   kDecoded     raw (decompressed) blocks — cheapest to serve;
//   kCompressed  on-disk envelopes — denser, one decode away from useful.
// A read probes decoded, then compressed (decode + promote), then disk
// (insert into both). Entries are charged at their actual byte size.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/status.hpp"

namespace hep::yokan::lsm {

inline constexpr std::size_t kBlockEnvelopeHeader = 6;

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a time:
/// how many key bytes a table or WAL record shares with its predecessor.
inline std::size_t shared_prefix(std::string_view a, std::string_view b) noexcept {
    static_assert(std::endian::native == std::endian::little);
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a.data() + i, 8);
        std::memcpy(&y, b.data() + i, 8);
        if (x != y) return i + static_cast<std::size_t>(std::countr_zero(x ^ y) / 8);
    }
    while (i < n && a[i] == b[i]) ++i;
    return i;
}

/// Append the envelope of raw block `block` to `out`, compressed when
/// `try_compress` and a codec beats the raw bytes. `block` is zero-padded in
/// place to whole u64 elements while the codecs read it, and trimmed back
/// before return.
void encode_block(std::string& block, bool try_compress, std::string& out);

/// Growable uninitialized byte buffer: block reads and decodes overwrite
/// what they use, so it is never zero-filled. Its bytes stay put when the
/// owner moves.
class BlockBuffer {
  public:
    char* reserve(std::size_t n) {
        if (n > capacity_) {
            bytes_ = std::make_unique_for_overwrite<char[]>(n);
            capacity_ = n;
        }
        return bytes_.get();
    }

  private:
    std::unique_ptr<char[]> bytes_;
    std::size_t capacity_ = 0;
};

namespace detail {
/// decode_block's body: `room(ctx, n)` returns the n bytes to decode into.
Result<std::string_view> decode_block(std::string_view stored, void* ctx,
                                      char* (*room)(void*, std::size_t));
}  // namespace detail

/// The raw block envelope `stored` holds: a view of the payload in place
/// when it is stored raw, else of the block decompressed into `room(n)`,
/// n bytes of the caller's storage (they need not be initialized).
template <typename Room>
Result<std::string_view> decode_block(std::string_view stored, Room&& room) {
    return detail::decode_block(stored, &room, [](void* ctx, std::size_t n) -> char* {
        return (*static_cast<std::remove_reference_t<Room>*>(ctx))(n);
    });
}

/// decode_block into `scratch`.
inline Result<std::string_view> decode_block(std::string_view stored, BlockBuffer& scratch) {
    return decode_block(stored, [&scratch](std::size_t n) { return scratch.reserve(n); });
}

/// True when the envelope's payload is compressed (needs a real decode).
[[nodiscard]] bool block_is_compressed(std::string_view stored) noexcept;

struct BlockCacheStats {
    std::uint64_t decoded_hits = 0;
    std::uint64_t compressed_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t decompressions = 0;
    std::uint64_t disk_reads = 0;
    std::uint64_t disk_bytes_read = 0;
    std::uint64_t evictions = 0;
    std::uint64_t decoded_used_bytes = 0;     // snapshot
    std::uint64_t compressed_used_bytes = 0;  // snapshot
};

/// Two-tier shared LRU cache keyed by (file_number, block index).
class BlockCache {
  public:
    enum Tier : int { kDecoded = 0, kCompressed = 1 };

    BlockCache(std::size_t decoded_capacity_bytes, std::size_t compressed_capacity_bytes);
    /// Single-budget convenience: same byte bound for both tiers.
    explicit BlockCache(std::size_t capacity_bytes)
        : BlockCache(capacity_bytes, capacity_bytes) {}

    std::shared_ptr<const std::string> lookup(Tier tier, std::uint64_t file_number,
                                              std::uint64_t block);
    void insert(Tier tier, std::uint64_t file_number, std::uint64_t block,
                std::shared_ptr<const std::string> data);

    /// Reader-side accounting (the cache is where all counters live so every
    /// SstReader sharing it aggregates into one symbio source).
    void note_miss() noexcept { misses_.fetch_add(1, std::memory_order_relaxed); }
    void note_disk_read(std::size_t bytes) noexcept {
        disk_reads_.fetch_add(1, std::memory_order_relaxed);
        disk_bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    }
    void note_decompression() noexcept {
        decompressions_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Legacy aggregate view (hits across both tiers).
    [[nodiscard]] std::uint64_t hits() const noexcept;
    [[nodiscard]] std::uint64_t misses() const noexcept {
        return misses_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] BlockCacheStats stats() const;

  private:
    struct Entry {
        std::uint64_t key;
        std::shared_ptr<const std::string> data;
    };
    struct Shard {
        mutable std::mutex mutex;
        std::size_t capacity = 0;
        std::size_t used = 0;
        std::list<Entry> lru;  // front = most recent
        std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
        std::uint64_t hits = 0;
    };

    Shard tiers_[2];
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> decompressions_{0};
    std::atomic<std::uint64_t> disk_reads_{0};
    std::atomic<std::uint64_t> disk_bytes_read_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hep::yokan::lsm
