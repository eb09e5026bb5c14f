// Immutable sorted-string tables for rockslite.
//
// Format v3, the only one written or read:
//   [block envelope]* [index] [bloom] [footer]
//   block envelope: [codec u8][pad u8][raw_len u32][payload] (see block.hpp);
//                   the raw block is a sequence of records, cut at
//                   ~block_bytes of raw data:
//                     varint shared       key bytes shared with the previous
//                                         record's key (0 at a restart)
//                     varint non_shared   key suffix length
//                     varint value_len << 1 | tombstone
//                     key suffix
//                     varint seq, varint epoch   the MVCC stamp
//                     value (value_len bytes; 0 for a tombstone)
//                   Every kRestartInterval-th record is a restart point and
//                   stores its full key. §II-C keys (UUID, three BE64
//                   numbers, `label#type`) share most of their bytes with
//                   their sorted neighbour, so a key costs its suffix.
//   index:          count u64, then per block:
//                     last_klen u32, last_key,
//                     offset u64, size u64 (stored envelope bytes),
//                     crc32 u32 (over the envelope), raw_len u32,
//                     bloom_len u32, bloom bytes (per-block filter),
//                     restart_count u32, restart offsets (u32 each, into
//                     the raw block)
//   bloom:          whole-table BloomFilter over every key, sized for the
//                   table's own entry count
//   footer (56 B):  index_off u64, index_size u64, bloom_off u64,
//                   bloom_size u64, entry_count u64, flags u64, magic u64
//
// Point-get path: table bloom -> block binary search -> per-block bloom
// (skips the decode entirely on a miss) -> one envelope fetched via the
// two-tier BlockCache -> restart-array binary search -> short linear scan
// that compares each record against the target through the shared-prefix
// lengths, without rebuilding keys. At most ONE block is ever decompressed
// per get. A record that runs past its block, shares more than its
// predecessor's key or sits at a restart with a shared prefix reads as
// Corruption, never as the end of the block.
//
// Compaction reads a table once, front to back, just before deleting it, so
// its iterator (make_compaction_iterator) bypasses the cache: each envelope
// is pread into the iterator's own uninitialized buffer, crc-checked, and a
// raw block is served in place. Nothing is inserted into either tier.
//
// The writer builds the whole table in one buffer, reserved up front from
// the caller's size estimate: blocks are encoded straight into it and the
// index entries are serialized as each block is cut.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "yokan/backend.hpp"
#include "yokan/lsm/block.hpp"
#include "yokan/lsm/bloom.hpp"

namespace hep::yokan::lsm {

inline constexpr std::uint64_t kSstMagic = 0x524F434B534C5433ULL;  // "ROCKSLT3"
inline constexpr std::size_t kRestartInterval = 16;

/// Metadata tracked per table in the manifest.
struct TableMeta {
    std::uint64_t file_number = 0;
    std::string min_key;
    std::string max_key;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    /// The table holds no tombstone, so moving it to a level with nothing
    /// below reclaims as much as merging it would. Set by SstWriter.
    bool tombstone_free = false;
};

/// A point lookup's hit: the value (nullopt for a tombstone) and its stamp.
struct TableHit {
    std::optional<std::string> value;
    Stamp stamp;
};

/// Streaming writer; add() must be called in strictly increasing key order.
/// Each key is hashed once: the per-block and whole-table blooms are both
/// built from the same hashes, the table bloom in finish() once the entry
/// count is known. `expected_bytes` (the table's encoded size or a bound on
/// it, if known) sizes the table buffer up front, so building the table does
/// not regrow it.
class SstWriter {
  public:
    SstWriter(std::string path, std::uint64_t file_number, std::size_t block_bytes,
              bool compress_blocks = false, std::size_t expected_bytes = 0);

    /// Append one entry: `value` under its MVCC `stamp`, or a tombstone
    /// (value ignored).
    Status add(std::string_view key, const Stamp& stamp, std::string_view value,
               bool tombstone = false);

    /// Bytes the table would take if finished now: blocks, pending block,
    /// index, table bloom and footer. Compaction cuts its outputs on it.
    [[nodiscard]] std::size_t encoded_bytes() const noexcept;

    /// Finish the table; returns its metadata.
    Result<TableMeta> finish();

  private:
    void cut_block();

    std::string path_;
    TableMeta meta_;
    std::size_t block_bytes_;
    bool compress_blocks_;
    std::string current_block_;
    std::size_t block_entries_ = 0;
    std::vector<std::uint64_t> key_hashes_;  // BloomFilter::hash of every key so far
    std::vector<std::uint32_t> restarts_;
    BloomFilter block_bloom_;
    std::string file_contents_;  // envelopes; index, bloom and footer in finish()
    std::string index_;          // u64 block count (set in finish()), then entries
    std::uint64_t blocks_ = 0;
    std::string last_key_;
    bool have_last_ = false;
};

/// Reader with point lookups and ordered iteration. Index, per-block blooms
/// and restart arrays are memory-resident; data blocks go through the shared
/// two-tier BlockCache (block.hpp).
class SstReader {
  public:
    static Result<std::shared_ptr<SstReader>> open(const std::string& path,
                                                   std::uint64_t file_number,
                                                   std::shared_ptr<BlockCache> cache);
    ~SstReader();

    /// Point lookup of `key`, whose BloomFilter::hash is `hash` (a caller
    /// probing several tables hashes once). NotFound => key absent.
    Result<TableHit> get(std::string_view key, std::uint64_t hash);
    Result<TableHit> get(std::string_view key) { return get(key, BloomFilter::hash(key)); }

    [[nodiscard]] std::uint64_t entries() const noexcept { return entry_count_; }
    [[nodiscard]] std::uint64_t file_number() const noexcept { return file_number_; }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

    /// Forward iterator over (key, stamp, value, tombstone) entries. key()
    /// views a buffer the iterator owns and value() the current block; both
    /// stay valid until the next move.
    class Iterator {
      public:
        Iterator(std::shared_ptr<SstReader> reader, bool cached)
            : reader_(std::move(reader)), cached_(cached) {}

        /// Position at the first key strictly greater than `after`.
        Status seek_after(std::string_view after) { return seek(after, /*inclusive=*/false); }
        /// Position at the first key greater than or equal to `bound`.
        Status seek_geq(std::string_view bound) { return seek(bound, /*inclusive=*/true); }
        [[nodiscard]] bool valid() const noexcept { return valid_; }
        [[nodiscard]] std::string_view key() const noexcept { return {key_.data(), key_len_}; }
        [[nodiscard]] std::string_view value() const noexcept { return value_; }
        [[nodiscard]] const Stamp& stamp() const noexcept { return stamp_; }
        [[nodiscard]] bool is_tombstone() const noexcept { return tombstone_; }
        Status next();

      private:
        Status seek(std::string_view bound, bool inclusive);
        Status load_block(std::size_t block_idx);
        /// Decode the record at pos_ into the current entry; `got` false at
        /// the end of the block.
        Status parse_next(bool& got);

        std::shared_ptr<SstReader> reader_;
        bool cached_;                                // read through the block cache
        std::shared_ptr<const std::string> pinned_;  // cached: the block in use
        BlockBuffer stored_, decoded_;               // cache-free: envelope, decode
        std::string_view block_;                     // the current raw block
        std::size_t block_idx_ = 0;
        std::size_t pos_ = 0;
        bool valid_ = false;
        std::string key_;  // storage: the key is its first key_len_ bytes
        std::size_t key_len_ = 0;
        std::string_view value_;
        Stamp stamp_;
        bool tombstone_ = false;
    };

    /// Iterator for gets and scans: blocks come through the block cache.
    Iterator make_iterator() { return Iterator(shared_from_this_(), /*cached=*/true); }
    /// One front-to-back pass that leaves the cache alone (compaction input).
    Iterator make_compaction_iterator() {
        return Iterator(shared_from_this_(), /*cached=*/false);
    }

  private:
    friend class Iterator;
    SstReader() = default;

    std::shared_ptr<SstReader> shared_from_this_() { return self_.lock(); }

    struct IndexEntry {
        std::string last_key;
        std::uint64_t offset;
        std::uint64_t size;     // stored envelope bytes on disk
        std::uint32_t crc;      // over the stored bytes
        std::uint32_t raw_len;  // decoded block bytes
        bool has_bloom = false;
        BloomFilter bloom{0};
        std::vector<std::uint32_t> restarts;
    };

    /// Raw (decoded) data block `idx`, through the two-tier cache.
    Result<std::shared_ptr<const std::string>> read_block(std::size_t idx);
    /// Block `idx`'s stored bytes into `dst` (index size bytes), crc-checked.
    Status read_stored(std::size_t idx, char* dst) const;
    Status pread_exact(char* dst, std::size_t n, std::uint64_t offset) const;
    /// Offset in `block` (block `e`'s raw bytes) of the last restart whose
    /// key is <= `key` (the first restart when none is).
    Result<std::size_t> seek_restart(const IndexEntry& e, std::string_view block,
                                     std::string_view key) const;

    /// Index of the first block whose last_key >= key, or npos.
    [[nodiscard]] std::size_t find_block(std::string_view key) const;

    std::string path_;
    std::uint64_t file_number_ = 0;
    int fd_ = -1;  // read with pread only, so concurrent readers share it
    std::shared_ptr<BlockCache> cache_;
    std::vector<IndexEntry> index_;
    BloomFilter bloom_{0};
    std::uint64_t entry_count_ = 0;
    std::weak_ptr<SstReader> self_;
};

}  // namespace hep::yokan::lsm
