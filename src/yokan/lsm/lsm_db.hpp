// rockslite: a log-structured merge-tree backend (RocksDB substitute).
//
// Write path: WAL append -> memtable insert, both under a short writer lock;
// when the active memtable exceeds its budget it is SEALED — swapped onto an
// immutable queue and the WAL rotated to a fresh segment — and the put
// returns immediately. A background compaction worker (an argolite ULT,
// optionally scheduled on a pool shared across a provider's databases) drains
// sealed memtables into L0 SSTables and runs level compactions off the
// critical path, exactly like RocksDB's background flush/compaction threads.
// Writers are throttled only through explicit backpressure (slowdown/stop
// thresholds on the immutable queue and L0), never by riding a compaction
// inline. `background_compaction=false` restores the legacy inline mode for
// ablation.
//
// Read path: versioned and LOCK-FREE against writers. The active memtable is
// a concurrent skiplist (memtable.hpp) published through an atomic
// shared_ptr: gets and scans probe it without taking any lock. Every
// flush/compaction publishes a new immutable `Version` (refs to sealed
// memtables + per-level table lists) under a brief mutex; readers grab a
// shared_ptr snapshot and never contend with compaction. Seal ordering makes
// the two probes consistent: the Version carrying the outgoing memtable on
// its imm queue is published BEFORE the active pointer is swapped, so a
// reader that misses in the new active always finds the old one in the
// version it snapshots afterwards.
//
// Durability: the WAL is segmented; each sealed memtable owns the segments
// holding its records, retired through the manifest's wal_floor once its
// SSTable is durable (version_set.hpp) — recovery never replays a flushed
// segment, which keeps re-derived MVCC stamps exact. Under
// `wal_sync_every_put`, concurrent writers group-commit: one leader flushes
// the log for every append batched so far while followers wait on an
// abt::Eventual.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "abt/abt.hpp"
#include "yokan/backend.hpp"
#include "yokan/lsm/memtable.hpp"
#include "yokan/lsm/sstable.hpp"
#include "yokan/lsm/version_set.hpp"
#include "yokan/lsm/wal.hpp"

namespace hep::yokan::lsm {

struct LsmOptions {
    std::string path;                               // directory for this DB
    std::size_t memtable_bytes = 4 * 1024 * 1024;   // seal threshold
    std::size_t block_bytes = 4096;                 // sstable block size
    std::size_t l0_compaction_trigger = 4;          // #L0 files before L0->L1
    std::size_t level_base_bytes = 8 * 1024 * 1024; // L1 budget; 10x per level
    std::size_t level_multiplier = 10;
    std::size_t max_levels = 5;
    std::size_t block_cache_bytes = 8 * 1024 * 1024;      // decoded-block tier
    std::size_t compressed_cache_bytes = 8 * 1024 * 1024; // compressed tier
    std::size_t target_file_bytes = 2 * 1024 * 1024;  // compaction output split
    bool wal_sync_every_put = false;                  // fflush per put

    // Memtable representation (memtable.hpp): "skiplist" (lock-free reads,
    // arena-allocated) or "map" (legacy, for ablation).
    std::string memtable = "skiplist";
    std::size_t arena_block_bytes = 256 * 1024;
    std::size_t skiplist_max_height = 12;
    /// SSTable block compression: "auto" (per-block compress_auto with raw
    /// fallback) or "none".
    std::string block_compression = "auto";

    // Concurrency model (see file header).
    bool background_compaction = true;   // false = legacy inline flush/compact
    bool group_commit = true;            // batch wal_sync_every_put fsyncs
    std::size_t max_immutable_memtables = 2;  // stop writes when queue is full
    std::size_t l0_slowdown_trigger = 8;      // writers yield above this
    std::size_t l0_stop_trigger = 16;         // writers block above this
    /// Worker pool for the compaction ULT; typically shared across all of a
    /// provider's databases. When null the db spins up its own pool+xstream.
    std::shared_ptr<abt::Pool> compaction_pool;

    /// Torture-test hook: invoked with a label at every durability boundary
    /// (manifest saves, SST writes, WAL retirement). Production leaves it
    /// unset.
    std::function<void(std::string_view)> crash_hook;
};

/// Extra observability for tests, symbio and the ablation benches.
struct LsmStats {
    std::uint64_t flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compactions_background = 0;
    std::uint64_t compactions_inline = 0;
    std::uint64_t trivial_moves = 0;  // compactions done as a manifest edit only
    std::uint64_t sst_files_written = 0;
    // Bytes written per source (a trivial move writes none): the parts of
    // the store's write amplification.
    std::uint64_t wal_bytes_written = 0;
    std::uint64_t flush_bytes_written = 0;       // L0 tables from memtables
    std::uint64_t compaction_bytes_written = 0;  // tables from merge compactions
    std::uint64_t cache_hits = 0;            // decoded + compressed tier hits
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_compressed_hits = 0; // served by the compressed tier
    std::uint64_t cache_decompressions = 0;
    std::uint64_t cache_disk_reads = 0;
    std::uint64_t cache_disk_bytes_read = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t write_stalls = 0;        // hard stops at the stop trigger
    std::uint64_t write_stall_micros = 0;  // time writers spent blocked
    std::uint64_t write_slowdowns = 0;     // soft yields at the slowdown trigger
    std::uint64_t group_commit_syncs = 0;    // leader fsyncs
    std::uint64_t group_commit_records = 0;  // records covered by those fsyncs
    std::uint64_t reads_during_compaction = 0;  // overlap proof for tests
    std::uint64_t immutable_queue_depth = 0;    // snapshot
    std::uint64_t compaction_backlog_bytes = 0; // snapshot: imm + L0 bytes
    std::vector<std::size_t> files_per_level;
};

class LsmDb final : public Database {
  public:
    /// Open (or create) a database in options.path. Replays the WAL segments
    /// and loads the manifest; starts the compaction worker if backgrounded.
    static Result<std::unique_ptr<LsmDb>> open(LsmOptions options);
    ~LsmDb() override;

    Status put_stamped(std::string_view key, hep::BufferView value, bool overwrite,
                       std::uint32_t epoch) override;
    Result<std::pair<hep::BufferView, Stamp>> get_stamped(std::string_view key) override;
    Status scan_stamped(std::string_view after, std::string_view prefix, bool with_values,
                        const StampedScanFn& fn) override;
    Status erase(std::string_view key) override;
    std::uint64_t size() const override;
    Status flush() override;  // seal + drain every memtable and compaction
    std::string_view type() const noexcept override { return "lsm"; }
    BackendStats stats() const override;

    [[nodiscard]] LsmStats lsm_stats() const;
    /// Snapshot for symbio's "lsm/<db>" source.
    [[nodiscard]] json::Value stats_json() const;

  private:
    /// A memtable: mutable while active (single writer, lock-free readers —
    /// see memtable.hpp), frozen once sealed. `wal_segments` lists the log
    /// files holding its records; they are retired through the manifest
    /// wal_floor after the memtable reaches an SSTable. `anchor_tag` exists
    /// so BufferViews escaping a read can alias the memtable's shared_ptr
    /// and keep the arena alive.
    struct MemTable {
        std::unique_ptr<MemTableRep> rep;
        std::atomic<std::size_t> bytes{0};
        std::vector<std::string> wal_segments;
        std::uint64_t max_wal_segment = 0;
        mutable std::string anchor_tag;
    };
    struct TableHandle {
        TableMeta meta;
        std::shared_ptr<SstReader> reader;
    };
    /// Copy-on-write snapshot of everything a read needs beyond the active
    /// memtable. Published atomically; readers pin it with a shared_ptr.
    struct Version {
        std::vector<std::shared_ptr<const MemTable>> imm;  // newest first
        std::vector<std::vector<TableHandle>> levels;  // L0 newest last;
                                                       // L1+ sorted by min_key
        [[nodiscard]] std::uint64_t level_bytes(std::size_t li) const;
    };

    explicit LsmDb(LsmOptions options);

    [[nodiscard]] std::shared_ptr<MemTable> make_memtable() const;
    Status load_manifest();
    Status recover_wal();
    Status remove_orphan_tables();
    Status open_wal_segment();

    [[nodiscard]] std::shared_ptr<const Version> snapshot_version() const;
    /// View over memtable bytes, anchored to the memtable that owns them.
    static hep::BufferView anchor_entry(const std::shared_ptr<const MemTable>& mem,
                                        std::string_view bytes);

    // ---- write path
    Status write_impl(std::string_view key, std::optional<hep::BufferView> value,
                      bool overwrite, bool is_erase, std::uint32_t epoch);
    /// Requires write_mutex_. Rotates the WAL, publishes a Version with the
    /// active memtable on the immutable queue, THEN swaps the active pointer
    /// (ordering contract of the lock-free read path).
    Status seal_active();
    Status group_sync(std::uint64_t my_seq);

    /// Newest version of `key`: active memtable, then the immutable queue
    /// (newest first), then the tables. Memtable hits are views anchored to
    /// their memtable; tombstones are NotFound. Takes no lock.
    Result<std::pair<hep::BufferView, Stamp>> lookup(std::string_view key) const;
    void maybe_stall();

    // ---- background machinery
    void start_worker();
    void worker_loop();
    void signal_work();
    void notify_installed();
    Status drain_work(bool background);
    Status flush_oldest_imm();
    Status compact_level(std::size_t level);
    /// compact_level's trivial move: the oldest table of `level` (>= 1),
    /// which overlaps nothing in level+1, re-filed there by one manifest
    /// edit. `levels` is the caller's working copy of the level lists.
    Status move_table(std::size_t level, std::vector<std::vector<TableHandle>> levels);
    /// Publish a Version with compaction's new level lists (imm queue as now).
    void install_levels(std::vector<std::vector<TableHandle>> levels);
    /// Level needing compaction in `v`, or npos.
    [[nodiscard]] std::size_t compaction_candidate(const Version& v) const;
    void set_background_error(const Status& st);
    [[nodiscard]] Status background_error() const;
    void hook(std::string_view label) const {
        if (options_.crash_hook) options_.crash_hook(label);
    }

    /// `key`'s newest table version: nullopt value = tombstone. Hashes the
    /// key at most once for every table's blooms.
    Result<TableHit> table_lookup(const Version& v, std::string_view key) const;
    Result<std::shared_ptr<SstReader>> open_table(const TableMeta& meta) const;
    [[nodiscard]] std::string table_path(std::uint64_t file_number) const;
    [[nodiscard]] std::string wal_segment_path(std::uint64_t seq) const;
    [[nodiscard]] bool compress_blocks() const noexcept {
        return options_.block_compression != "none";
    }

    LsmOptions options_;

    // Write path. write_mutex_ serializes WAL append + memtable insert (so
    // recovery replays in apply order); it is held only for the O(log n)
    // insert, never across a flush, compaction or fsync. Readers never take
    // it — they copy active_ through active() and probe the skiplist
    // lock-free. active_ changes only in seal_active(), under write_mutex_
    // and active_mutex_, so the writer reads it under write_mutex_ alone.
    // (libstdc++'s std::atomic<std::shared_ptr> releases load() with a
    // relaxed unlock, which does not order the load before a later store.)
    std::mutex write_mutex_;
    mutable std::mutex active_mutex_;
    std::shared_ptr<MemTable> active_;
    [[nodiscard]] std::shared_ptr<MemTable> active() const {
        std::lock_guard g(active_mutex_);
        return active_;
    }
    Wal wal_;
    std::uint64_t wal_seq_ = 0;                 // current segment number
    std::atomic<std::uint64_t> append_seq_{0};  // WAL records ever appended

    // Group commit (leader/follower over an abt::Eventual).
    std::mutex sync_mutex_;
    std::uint64_t synced_seq_ = 0;
    bool sync_leader_active_ = false;
    Status last_sync_status_;
    std::shared_ptr<abt::Eventual<bool>> pending_batch_;

    // Version publication.
    mutable std::mutex version_mutex_;
    std::shared_ptr<const Version> current_;
    std::atomic<std::uint64_t> next_file_number_{1};
    /// Highest MVCC seq reaching an SSTable. Flushed data is always a
    /// contiguous seq prefix (memtables seal and flush in order), so the
    /// manifest's last_seq plus a deterministic WAL replay re-derives every
    /// unflushed stamp after a crash.
    std::atomic<std::uint64_t> last_flushed_seq_{0};

    /// Durable manifest (A/B edit logs + CURRENT). Structural mutations are
    /// serialized by work_serial_, so log_and_apply needs no extra lock.
    std::unique_ptr<VersionSet> versions_;

    // Worker coordination. coord_mutex_ is ULT-aware: a stalled writer or a
    // waiting worker suspends its ULT instead of blocking the xstream.
    abt::Mutex coord_mutex_;
    abt::CondVar work_cv_;  // worker waits for work
    abt::CondVar idle_cv_;  // stalled writers / flush() wait for installs
    bool work_pending_ = false;
    bool worker_busy_ = false;
    bool stop_ = false;
    abt::Mutex work_serial_;  // one structural mutator (flush/compact) at a time
    std::shared_ptr<abt::Pool> worker_pool_;
    std::unique_ptr<abt::Xstream> own_xstream_;
    std::shared_ptr<abt::Ult> worker_;
    std::atomic<bool> compaction_running_{false};

    mutable std::mutex err_mutex_;
    Status bg_error_;
    // Fast-path flag so the per-put health check is one relaxed load instead
    // of a mutex acquire + Status copy (background errors are terminal, so a
    // reader that races the flag just sees the error one put later).
    std::atomic<bool> bg_error_set_{false};

    std::shared_ptr<BlockCache> cache_;
    mutable std::mutex stats_mutex_;
    BackendStats stats_;
    LsmStats lsm_stats_;
};

}  // namespace hep::yokan::lsm
