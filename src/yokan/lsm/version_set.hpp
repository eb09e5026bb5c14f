// VersionSet: the durable manifest of an LSM database.
//
// Replaces the whole-file MANIFEST.json rewrite with a leveldb-style
// append-only edit log. Every structural change (flush, compaction, WAL
// retirement) is one VersionEdit record appended — and fsync'd — to the
// active manifest log; recovery replays the log from its leading snapshot
// and applies edits in order. Any prefix of the log is a consistent state,
// so a crash between any two syscalls recovers deterministically.
//
// Durability protocol (the A/B atomic save):
//   * two log files, MANIFEST-A.log / MANIFEST-B.log; the CURRENT file names
//     the live one ("A\n" or "B\n");
//   * appends go to the live log: write record, fflush, fsync(file);
//   * when the log outgrows its threshold, the full state is written as the
//     first record of the OTHER file, that file is fsync'd, the directory is
//     fsync'd, and only then is CURRENT flipped (write CURRENT.tmp, fsync,
//     rename, fsync dir). A crash before the flip leaves the old log
//     authoritative; after the flip the new one is — never neither.
//   * records are CRC-framed ([crc32 u32][len u32][payload]); replay stops at
//     the first torn or corrupt record, which by construction only ever
//     truncates un-acknowledged tail edits.
//
// A directory with no CURRENT is a fresh database: recover() persists the
// empty state, so CURRENT exists from then on.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "yokan/lsm/sstable.hpp"

namespace hep::yokan::lsm {

/// One atomic batch of manifest changes.
struct VersionEdit {
    std::optional<std::uint64_t> next_file_number;
    std::optional<std::uint64_t> last_seq;
    /// Lowest WAL segment number whose records are NOT yet in an SSTable;
    /// segments below it are retired and must not be replayed again.
    std::optional<std::uint64_t> wal_floor;
    std::vector<std::pair<std::uint32_t, TableMeta>> added;     // (level, meta)
    std::vector<std::pair<std::uint32_t, std::uint64_t>> deleted;  // (level, file#)

    [[nodiscard]] bool empty() const noexcept {
        return !next_file_number && !last_seq && !wal_floor && added.empty() && deleted.empty();
    }

    [[nodiscard]] std::string encode() const;
    static Result<VersionEdit> decode(std::string_view payload);
};

/// The cumulative manifest state a recovery produces.
struct ManifestState {
    std::uint64_t next_file_number = 1;
    std::uint64_t last_seq = 0;
    std::uint64_t wal_floor = 0;
    std::vector<std::vector<TableMeta>> levels;

    void apply(const VersionEdit& edit);
};

class VersionSet {
  public:
    /// `crash_hook` (optional, for torture tests) is invoked with a label at
    /// every durability boundary; throwing from it simulates a crash there.
    VersionSet(std::string dir, std::size_t max_levels,
               std::function<void(std::string_view)> crash_hook = nullptr);
    ~VersionSet();
    VersionSet(const VersionSet&) = delete;
    VersionSet& operator=(const VersionSet&) = delete;

    /// Load the manifest via CURRENT if present, else start (and persist) a
    /// fresh empty state.
    Status recover();

    /// Durably append one edit (fsync'd before returning) and fold it into
    /// state(). Rotates to the other log file with a fresh snapshot when the
    /// live log exceeds `rotate_threshold_bytes`.
    Status log_and_apply(const VersionEdit& edit);

    [[nodiscard]] const ManifestState& state() const noexcept { return state_; }

    /// Manifest log size knob, mostly for tests (default 1 MB).
    void set_rotate_threshold(std::size_t bytes) noexcept { rotate_threshold_bytes_ = bytes; }

  private:
    Status load_log(const std::string& path);
    Status write_snapshot_and_flip(char target);
    Status append_record(std::string_view payload);
    Status open_live_log(bool truncate);
    [[nodiscard]] std::string log_path(char which) const;
    void hook(std::string_view label) const {
        if (crash_hook_) crash_hook_(label);
    }

    std::string dir_;
    std::size_t max_levels_;
    std::function<void(std::string_view)> crash_hook_;
    ManifestState state_;
    char live_ = 'A';
    std::FILE* log_ = nullptr;
    std::size_t log_bytes_ = 0;
    std::size_t rotate_threshold_bytes_ = 1024 * 1024;
};

}  // namespace hep::yokan::lsm
