#include "yokan/lsm/version_set.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/compression.hpp"
#include "common/crc32.hpp"

namespace fs = std::filesystem;

namespace hep::yokan::lsm {

namespace {

constexpr const char* kCurrentName = "CURRENT";

// VersionEdit payload tags.
constexpr std::uint64_t kTagNextFile = 1;
constexpr std::uint64_t kTagLastSeq = 2;
constexpr std::uint64_t kTagWalFloor = 3;
constexpr std::uint64_t kTagAddTable = 4;
constexpr std::uint64_t kTagDeleteTable = 5;

// Bits of an added table's flags varint.
constexpr std::uint64_t kTableTombstoneFree = 1;

void put_string(std::string& out, std::string_view s) {
    compress::put_varint(out, s.size());
    out.append(s);
}

bool get_string(std::string_view in, std::size_t& pos, std::string& out) {
    std::uint64_t len = 0;
    if (!compress::get_varint(in, pos, len)) return false;
    if (len > in.size() - pos) return false;
    out.assign(in.data() + pos, len);
    pos += len;
    return true;
}

Status sync_file(std::FILE* f, const char* what) {
    if (std::fflush(f) != 0) return Status::IOError(std::string("cannot flush ") + what);
    if (::fsync(::fileno(f)) != 0) return Status::IOError(std::string("cannot fsync ") + what);
    return Status::OK();
}

Status sync_dir(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Status::IOError("cannot open directory for fsync: " + dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::IOError("cannot fsync directory: " + dir);
    return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- VersionEdit

std::string VersionEdit::encode() const {
    std::string out;
    if (next_file_number) {
        compress::put_varint(out, kTagNextFile);
        compress::put_varint(out, *next_file_number);
    }
    if (last_seq) {
        compress::put_varint(out, kTagLastSeq);
        compress::put_varint(out, *last_seq);
    }
    if (wal_floor) {
        compress::put_varint(out, kTagWalFloor);
        compress::put_varint(out, *wal_floor);
    }
    for (const auto& [level, meta] : added) {
        compress::put_varint(out, kTagAddTable);
        compress::put_varint(out, level);
        compress::put_varint(out, meta.file_number);
        compress::put_varint(out, meta.entries);
        compress::put_varint(out, meta.bytes);
        compress::put_varint(out, meta.tombstone_free ? kTableTombstoneFree : 0);
        put_string(out, meta.min_key);
        put_string(out, meta.max_key);
    }
    for (const auto& [level, file_number] : deleted) {
        compress::put_varint(out, kTagDeleteTable);
        compress::put_varint(out, level);
        compress::put_varint(out, file_number);
    }
    return out;
}

Result<VersionEdit> VersionEdit::decode(std::string_view payload) {
    VersionEdit edit;
    std::size_t pos = 0;
    while (pos < payload.size()) {
        std::uint64_t tag = 0, v = 0;
        if (!compress::get_varint(payload, pos, tag)) {
            return Status::Corruption("manifest edit tag truncated");
        }
        switch (tag) {
            case kTagNextFile:
                if (!compress::get_varint(payload, pos, v)) break;
                edit.next_file_number = v;
                continue;
            case kTagLastSeq:
                if (!compress::get_varint(payload, pos, v)) break;
                edit.last_seq = v;
                continue;
            case kTagWalFloor:
                if (!compress::get_varint(payload, pos, v)) break;
                edit.wal_floor = v;
                continue;
            case kTagAddTable: {
                std::uint64_t level = 0, flags = 0;
                TableMeta meta;
                if (!compress::get_varint(payload, pos, level) ||
                    !compress::get_varint(payload, pos, meta.file_number) ||
                    !compress::get_varint(payload, pos, meta.entries) ||
                    !compress::get_varint(payload, pos, meta.bytes) ||
                    !compress::get_varint(payload, pos, flags) ||
                    !get_string(payload, pos, meta.min_key) ||
                    !get_string(payload, pos, meta.max_key)) {
                    break;
                }
                meta.tombstone_free = (flags & kTableTombstoneFree) != 0;
                edit.added.emplace_back(static_cast<std::uint32_t>(level), std::move(meta));
                continue;
            }
            case kTagDeleteTable: {
                std::uint64_t level = 0, file_number = 0;
                if (!compress::get_varint(payload, pos, level) ||
                    !compress::get_varint(payload, pos, file_number)) {
                    break;
                }
                edit.deleted.emplace_back(static_cast<std::uint32_t>(level), file_number);
                continue;
            }
            default:
                return Status::Corruption("unknown manifest edit tag " + std::to_string(tag));
        }
        return Status::Corruption("manifest edit truncated");
    }
    return edit;
}

void ManifestState::apply(const VersionEdit& edit) {
    if (edit.next_file_number) next_file_number = *edit.next_file_number;
    if (edit.last_seq) last_seq = *edit.last_seq;
    if (edit.wal_floor) wal_floor = *edit.wal_floor;
    for (const auto& [level, file_number] : edit.deleted) {
        if (level >= levels.size()) continue;
        auto& lvl = levels[level];
        lvl.erase(std::remove_if(lvl.begin(), lvl.end(),
                                 [fn = file_number](const TableMeta& m) {
                                     return m.file_number == fn;
                                 }),
                  lvl.end());
    }
    for (const auto& [level, meta] : edit.added) {
        if (level >= levels.size()) levels.resize(level + 1);
        levels[level].push_back(meta);
    }
}

// -------------------------------------------------------------- VersionSet

VersionSet::VersionSet(std::string dir, std::size_t max_levels,
                       std::function<void(std::string_view)> crash_hook)
    : dir_(std::move(dir)), max_levels_(max_levels), crash_hook_(std::move(crash_hook)) {
    state_.levels.resize(max_levels_);
}

VersionSet::~VersionSet() {
    if (log_) std::fclose(log_);
}

std::string VersionSet::log_path(char which) const {
    return dir_ + "/MANIFEST-" + which + ".log";
}

Status VersionSet::append_record(std::string_view payload) {
    std::string frame;
    frame.reserve(8 + payload.size());
    const std::uint32_t crc = crc32(payload);
    const auto len = static_cast<std::uint32_t>(payload.size());
    frame.append(reinterpret_cast<const char*>(&crc), 4);
    frame.append(reinterpret_cast<const char*>(&len), 4);
    frame.append(payload);
    if (std::fwrite(frame.data(), 1, frame.size(), log_) != frame.size()) {
        return Status::IOError("short manifest append in " + log_path(live_));
    }
    Status st = sync_file(log_, "manifest log");
    if (!st.ok()) return st;
    log_bytes_ += frame.size();
    return Status::OK();
}

Status VersionSet::open_live_log(bool truncate) {
    if (log_) {
        std::fclose(log_);
        log_ = nullptr;
    }
    const std::string path = log_path(live_);
    log_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (!log_) return Status::IOError("cannot open manifest log " + path);
    log_bytes_ = truncate ? 0 : static_cast<std::size_t>(fs::file_size(path));
    return Status::OK();
}

Status VersionSet::load_log(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return Status::IOError("cannot open manifest log " + path);
    std::string contents;
    {
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fseek(f, 0, SEEK_SET);
        contents.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
        const std::size_t got = contents.empty()
                                    ? 0
                                    : std::fread(contents.data(), 1, contents.size(), f);
        contents.resize(got);
        std::fclose(f);
    }
    state_ = ManifestState{};
    state_.levels.resize(max_levels_);
    // Replay every complete, checksum-valid record; a torn tail (crash mid
    // append) simply ends the log early — by construction nothing after it
    // was ever acknowledged.
    std::size_t pos = 0;
    while (pos + 8 <= contents.size()) {
        std::uint32_t crc = 0, len = 0;
        std::memcpy(&crc, contents.data() + pos, 4);
        std::memcpy(&len, contents.data() + pos + 4, 4);
        if (pos + 8 + len > contents.size()) break;  // torn tail
        const std::string_view payload(contents.data() + pos + 8, len);
        if (crc32(payload) != crc) break;  // corrupt tail
        auto edit = VersionEdit::decode(payload);
        if (!edit.ok()) break;
        state_.apply(*edit);
        pos += 8 + len;
    }
    if (state_.levels.size() < max_levels_) state_.levels.resize(max_levels_);
    // L1+ invariant: non-overlapping tables sorted by min_key. Edits append
    // in publish order, so restore the sort here (L0 keeps append order —
    // newest last — which the read path depends on).
    for (std::size_t li = 1; li < state_.levels.size(); ++li) {
        std::sort(state_.levels[li].begin(), state_.levels[li].end(),
                  [](const TableMeta& a, const TableMeta& b) { return a.min_key < b.min_key; });
    }
    return Status::OK();
}

Status VersionSet::recover() {
    const std::string current_path = dir_ + "/" + kCurrentName;
    if (fs::exists(current_path)) {
        std::string which;
        {
            std::FILE* f = std::fopen(current_path.c_str(), "rb");
            if (!f) return Status::IOError("cannot read " + current_path);
            char buf[8] = {};
            const std::size_t got = std::fread(buf, 1, sizeof buf, f);
            std::fclose(f);
            which.assign(buf, got);
        }
        char live = !which.empty() && (which[0] == 'A' || which[0] == 'B') ? which[0] : 'A';
        // CURRENT flips atomically, but a missing/unreadable log falls back
        // to the sibling — the flip protocol guarantees at least one of the
        // two holds a complete snapshot.
        Status st = fs::exists(log_path(live)) ? load_log(log_path(live))
                                               : Status::IOError("manifest log missing");
        if (!st.ok()) {
            const char other = live == 'A' ? 'B' : 'A';
            if (!fs::exists(log_path(other))) return st;
            st = load_log(log_path(other));
            if (!st.ok()) return st;
            live = other;
        }
        live_ = live;
        return open_live_log(/*truncate=*/false);
    }

    // Fresh database: persist the empty state so CURRENT exists from here on.
    live_ = 'B';  // write_snapshot_and_flip targets the other file: 'A'
    return write_snapshot_and_flip('A');
}

Status VersionSet::write_snapshot_and_flip(char target) {
    hook("manifest:before_snapshot");
    // Full state as a single edit — the leading record of the new log.
    VersionEdit snapshot;
    snapshot.next_file_number = state_.next_file_number;
    if (state_.last_seq > 0) snapshot.last_seq = state_.last_seq;
    if (state_.wal_floor > 0) snapshot.wal_floor = state_.wal_floor;
    for (std::size_t li = 0; li < state_.levels.size(); ++li) {
        for (const auto& meta : state_.levels[li]) {
            snapshot.added.emplace_back(static_cast<std::uint32_t>(li), meta);
        }
    }

    // Build the target log with its own handle; the live log (and live_)
    // stay authoritative until the CURRENT flip commits, so any failure on
    // this path leaves the old manifest fully intact.
    const std::string target_path = log_path(target);
    std::FILE* target_log = std::fopen(target_path.c_str(), "wb");
    if (!target_log) return Status::IOError("cannot open manifest log " + target_path);
    std::size_t target_bytes = 0;
    {
        const std::string payload = snapshot.encode();
        std::string frame;
        frame.reserve(8 + payload.size());
        const std::uint32_t crc = crc32(payload);
        const auto len = static_cast<std::uint32_t>(payload.size());
        frame.append(reinterpret_cast<const char*>(&crc), 4);
        frame.append(reinterpret_cast<const char*>(&len), 4);
        frame.append(payload);
        const bool ok = std::fwrite(frame.data(), 1, frame.size(), target_log) == frame.size() &&
                        sync_file(target_log, "manifest snapshot").ok();
        if (!ok) {
            std::fclose(target_log);
            return Status::IOError("cannot write manifest snapshot " + target_path);
        }
        target_bytes = frame.size();
    }
    Status st = sync_dir(dir_);
    if (!st.ok()) {
        std::fclose(target_log);
        return st;
    }
    hook("manifest:snapshot_synced");

    // Flip CURRENT: tmp + fsync + rename + dir fsync. The rename is the
    // atomic commit point of the whole save.
    const std::string tmp = dir_ + "/CURRENT.tmp";
    const std::string current_path = dir_ + "/" + kCurrentName;
    {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (!f) {
            std::fclose(target_log);
            return Status::IOError("cannot write " + tmp);
        }
        const char line[2] = {target, '\n'};
        const bool ok = std::fwrite(line, 1, 2, f) == 2 && sync_file(f, "CURRENT.tmp").ok();
        std::fclose(f);
        if (!ok) {
            std::fclose(target_log);
            return Status::IOError("cannot sync " + tmp);
        }
    }
    std::error_code ec;
    fs::rename(tmp, current_path, ec);
    if (ec) {
        std::fclose(target_log);
        return Status::IOError("CURRENT rename failed: " + ec.message());
    }
    st = sync_dir(dir_);
    if (!st.ok()) {
        std::fclose(target_log);
        return st;
    }
    // Committed: adopt the new log as the live one.
    if (log_) std::fclose(log_);
    log_ = target_log;
    log_bytes_ = target_bytes;
    live_ = target;
    hook("manifest:current_flipped");
    return Status::OK();
}

Status VersionSet::log_and_apply(const VersionEdit& edit) {
    hook("manifest:before_append");
    Status st = append_record(edit.encode());
    if (!st.ok()) return st;
    state_.apply(edit);
    hook("manifest:after_append");
    if (log_bytes_ > rotate_threshold_bytes_) {
        st = write_snapshot_and_flip(live_ == 'A' ? 'B' : 'A');
        if (!st.ok()) return st;
    }
    return Status::OK();
}

}  // namespace hep::yokan::lsm
