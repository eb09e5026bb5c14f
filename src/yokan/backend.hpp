// Yokan database backend interface (paper §II-B).
//
// Yokan is Mochi's single-node KV component; it supports "a number of
// persistent backends such as RocksDB, BerkeleyDB, LevelDB, etc., as well as
// in-memory ones (based on C++ standard library containers such as
// std::map)". We provide two:
//   - "map":  std::map guarded by a shared mutex (the paper's in-memory mode)
//   - "lsm":  rockslite, a log-structured merge tree on local storage
//             (the paper's RocksDB-on-SSD mode)
// Both iterate keys in lexicographic order — the property HEPnOS's key
// crafting depends on (§II-C).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abt/pool.hpp"
#include "common/buffer.hpp"
#include "common/json.hpp"
#include "common/status.hpp"

namespace hep::yokan {

/// One listed or scanned pair, with owned strings (list/scan responses).
struct KeyValue {
    std::string key;
    std::string value;

    template <typename A>
    void serialize(A& ar, unsigned /*version*/) {
        ar & key & value;
    }
    bool operator==(const KeyValue&) const = default;
};

/// One put_multi entry: the value is a refcounted Buffer so building,
/// shipping and storing a batch share the product bytes instead of copying
/// them.
struct BatchItem {
    std::string key;
    hep::Buffer value;

    template <typename A>
    void serialize(A& ar, unsigned /*version*/) {
        ar & key & value;
    }
};

/// Counters every backend maintains.
struct BackendStats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t scans = 0;
    std::uint64_t erases = 0;
};

/// Per-value MVCC metadata: the database-local sequence number the write
/// committed at, plus the ingest epoch it belongs to. Epoch 0 means "published
/// on write" — the default for every non-batched mutation.
struct Stamp {
    std::uint64_t seq = 0;
    std::uint32_t epoch = 0;
};

/// One monotonic mutation counter per database — the single sequence
/// authority. The lease-cache probe, the replica version watermark, the lsm
/// write sequence and MVCC stamps all draw from it (they used to be three
/// independent counters that could not be compared).
class SeqSource {
  public:
    /// The counter starts at 1 (not 0) so "current" of a never-written
    /// database is a valid *pin*: ReadPin/ReadView reserve seq 0 for "read
    /// latest", and the first write stamps at 2 > 1 — a snapshot taken of an
    /// empty database correctly excludes every later write.
    std::uint64_t next() noexcept {
        return counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    [[nodiscard]] std::uint64_t current() const noexcept {
        return counter_.load(std::memory_order_relaxed);
    }
    /// Raise the counter to at least `seq` (recovery replay, reseeds).
    void advance_to(std::uint64_t seq) noexcept {
        std::uint64_t cur = counter_.load(std::memory_order_relaxed);
        while (cur < seq &&
               !counter_.compare_exchange_weak(cur, seq, std::memory_order_relaxed)) {
        }
    }

  private:
    std::atomic<std::uint64_t> counter_{1};
};

/// The set of published ingest epochs a read may observe: every epoch
/// <= floor plus the sorted extras above it. Epoch 0 is always visible.
struct EpochFilter {
    std::uint32_t floor = 0;
    std::vector<std::uint32_t> extras;

    [[nodiscard]] bool visible(std::uint32_t epoch) const {
        if (epoch <= floor) return true;
        return std::binary_search(extras.begin(), extras.end(), epoch);
    }
    template <typename A>
    void serialize(A& ar, unsigned /*version*/) {
        ar & floor & extras;
    }
};

/// A pinned read position. Values stamped after `seq`, or belonging to an
/// epoch outside the filter, are invisible. seq == 0 means "latest": no
/// sequence bound, epochs resolved against the database's own published set
/// at read time.
struct ReadView {
    std::uint64_t seq = 0;
    EpochFilter epochs;
    [[nodiscard]] bool pinned() const noexcept { return seq != 0; }
};

/// Internal keys live under this prefix. Visibility-filtered scans hide them
/// unless the caller's prefix explicitly reaches into the internal range;
/// the raw scan() stays unfiltered (replica state streaming must see them).
inline constexpr char kInternalKeyPrefix = '\x01';
/// Publish marker: kPublishMarkerPrefix + BE32(epoch), value ignored. Written
/// through the ordinary (replicated, WAL-logged) put path, so publish records
/// inherit replication, recovery and failover repair for free.
inline constexpr std::string_view kPublishMarkerPrefix = "\x01\xff" "HEPNOS.pub" "\xff";
/// Epoch allocation counter (decimal string), lives on the registry database.
inline constexpr std::string_view kEpochCounterKey = "\x01\xff" "HEPNOS.epoch-counter";

std::string publish_marker_key(std::uint32_t epoch);
/// Epoch of a well-formed publish marker key; 0 for anything else.
std::uint32_t parse_publish_marker(std::string_view key);

class Database {
  public:
    virtual ~Database() = default;

    // ---- the stamped core: every backend implements exactly these ---------

    /// Store `value` tagged with an ingest epoch (0 = visible immediately);
    /// the backend stamps it with the next database sequence number. With
    /// overwrite=false an existing key is AlreadyExists ("create" semantics).
    /// A borrowed `value` is copied into backend-owned storage; an owning one
    /// may be parked by reference.
    virtual Status put_stamped(std::string_view key, hep::BufferView value, bool overwrite,
                               std::uint32_t epoch) = 0;

    /// Newest version of the key together with its stamp. No visibility
    /// filtering — that is get_view_at()'s job.
    virtual Result<std::pair<hep::BufferView, Stamp>> get_stamped(std::string_view key) = 0;

    /// Ordered scan with each key's stamp: visit keys strictly greater than
    /// `after` that start with `prefix`, in lexicographic order, until `fn`
    /// returns false or the key space is exhausted. `value` is only
    /// materialized if `with_values`.
    using StampedScanFn =
        std::function<bool(std::string_view key, std::string_view value, const Stamp& stamp)>;
    virtual Status scan_stamped(std::string_view after, std::string_view prefix,
                                bool with_values, const StampedScanFn& fn) = 0;

    virtual Status erase(std::string_view key) = 0;

    /// Approximate number of live keys.
    virtual std::uint64_t size() const = 0;

    /// Persist buffered state (no-op for in-memory backends).
    virtual Status flush() = 0;

    [[nodiscard]] virtual std::string_view type() const noexcept = 0;
    [[nodiscard]] virtual BackendStats stats() const = 0;

    // ---- unfiltered helpers over the core ----------------------------------

    /// Contiguous put: the backend copies the borrowed bytes.
    Status put(std::string_view key, std::string_view value, bool overwrite = true) {
        return put_stamped(key, hep::BufferView(value), overwrite, 0);
    }
    /// Put an owned view by reference (no value copy).
    Status put_view(std::string_view key, hep::BufferView value, bool overwrite = true) {
        return put_stamped(key, std::move(value), overwrite, 0);
    }
    /// Copying get (the copy is counted in the buffer counters).
    Result<std::string> get(std::string_view key);
    /// The stored value as a refcounted view, without copying.
    Result<hep::BufferView> get_view(std::string_view key);
    Result<bool> exists(std::string_view key);
    /// Value size without copying the value.
    Result<std::uint64_t> length(std::string_view key);

    using ScanFn = std::function<bool(std::string_view key, std::string_view value)>;
    /// scan_stamped() without the stamps.
    Status scan(std::string_view after, std::string_view prefix, bool with_values,
                const ScanFn& fn) {
        return scan_stamped(after, prefix, with_values,
                            [&fn](std::string_view key, std::string_view value, const Stamp&) {
                                return fn(key, value);
                            });
    }

    /// Convenience wrappers over scan().
    Result<std::vector<std::string>> list_keys(std::string_view after, std::string_view prefix,
                                               std::size_t max);
    Result<std::vector<KeyValue>> list_keyvals(std::string_view after, std::string_view prefix,
                                               std::size_t max);

    /// Outcome of one bounded scan chunk (see scan_chunk()).
    struct ScanChunk {
        std::string last_key;        // last key examined ("" if none) — resume
                                     // with after=last_key to continue
        bool exhausted = true;       // the key space ran out (vs. chunk limit
                                     // hit or callee stopped early)
        std::uint64_t examined = 0;  // keys handed to `fn`
    };

    /// Bounded, resumable scan: like scan(), but examines at most `max_keys`
    /// keys and reports where it stopped. This is the iterate hook the
    /// query-pushdown cursors (src/query) and the paged list RPCs build on:
    /// repeated chunks with after=last_key walk the whole prefix without
    /// holding the backend's scan lock across pauses, at the cost of
    /// observing keys inserted between chunks (the documented ListReq
    /// resume-after contract).
    Result<ScanChunk> scan_chunk(std::string_view after, std::string_view prefix,
                                 std::uint64_t max_keys, bool with_values, const ScanFn& fn);

    // ---- MVCC: sequence, snapshots, published epochs ----------------------

    /// This database's sequence authority.
    [[nodiscard]] SeqSource& seq_source() noexcept { return seq_; }
    [[nodiscard]] std::uint64_t seq() const noexcept { return seq_.current(); }

    /// Pin a snapshot at `seq` (0 = "now"). The returned view is a plain
    /// value: cheap to copy, never expires — reads through it are filtered,
    /// nothing is locked or retained.
    [[nodiscard]] ReadView snapshot_at(std::uint64_t seq) const;

    /// Published-epoch bookkeeping. Backends call observe_marker() when a
    /// publish-marker put commits (including replicated and replayed ones).
    void observe_marker(std::uint32_t epoch);
    [[nodiscard]] bool epoch_visible(std::uint32_t epoch) const;
    [[nodiscard]] EpochFilter published() const;

    /// Stamp visibility under a view. "Latest" consults the local published
    /// set; a pinned view only its own filter (captured at the epoch
    /// registry, so backend-local marker lag cannot unpublish a pinned epoch).
    [[nodiscard]] bool visible(const Stamp& stamp, const ReadView& view) const;

    // ---- visibility-filtered reads (what the RPC handlers serve from) -----
    Result<hep::BufferView> get_view_at(std::string_view key, const ReadView& view);
    Result<std::string> get_at(std::string_view key, const ReadView& view);
    Result<bool> exists_at(std::string_view key, const ReadView& view);
    Result<std::uint64_t> length_at(std::string_view key, const ReadView& view);
    Status scan_at(std::string_view after, std::string_view prefix, bool with_values,
                   const ReadView& view, const ScanFn& fn);
    Result<ScanChunk> scan_chunk_at(std::string_view after, std::string_view prefix,
                                    std::uint64_t max_keys, bool with_values,
                                    const ReadView& view, const ScanFn& fn);
    Result<std::vector<std::string>> list_keys_at(std::string_view after, std::string_view prefix,
                                                  std::size_t max, const ReadView& view);
    Result<std::vector<KeyValue>> list_keyvals_at(std::string_view after, std::string_view prefix,
                                                  std::size_t max, const ReadView& view);

  private:
    SeqSource seq_;
    mutable std::mutex pub_mu_;
    std::uint32_t pub_floor_ = 0;
    std::vector<std::uint32_t> pub_extra_;  // sorted, all > pub_floor_
};

/// Backend factory. `config` is the database's JSON description, e.g.
///   {"type": "map"} or
///   {"type": "lsm", "path": "/tmp/db1", "memtable_bytes": 4194304}
/// Relative lsm paths resolve under `base_dir`. `compaction_pool`, when set,
/// hosts the lsm backend's background flush/compaction ULT (shared across a
/// provider's databases); without it each lsm db runs its own xstream.
Result<std::unique_ptr<Database>> create_database(const json::Value& config,
                                                  const std::string& base_dir = ".",
                                                  std::shared_ptr<abt::Pool> compaction_pool = nullptr);

}  // namespace hep::yokan
