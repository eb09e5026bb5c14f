#include "yokan/lsm/lsm_db.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>

#include "common/logging.hpp"

namespace fs = std::filesystem;

namespace hep::yokan::lsm {

namespace {
constexpr std::size_t kNoLevel = std::numeric_limits<std::size_t>::max();
}  // namespace

std::uint64_t LsmDb::Version::level_bytes(std::size_t li) const {
    std::uint64_t b = 0;
    for (const auto& t : levels[li]) b += t.meta.bytes;
    return b;
}

LsmDb::LsmDb(LsmOptions options) : options_(std::move(options)) {
    cache_ = std::make_shared<BlockCache>(options_.block_cache_bytes,
                                          options_.compressed_cache_bytes);
    active_ = make_memtable();
    auto v = std::make_shared<Version>();
    v->levels.resize(options_.max_levels);
    current_ = std::move(v);
}

LsmDb::~LsmDb() {
    if (worker_) {
        {
            abt::LockGuard g(coord_mutex_);
            stop_ = true;
            work_cv_.notify_all();
            idle_cv_.notify_all();
        }
        worker_->join();
        worker_.reset();
    }
    own_xstream_.reset();
    // Best-effort durability on clean shutdown; unflushed memtables are
    // covered by their WAL segments.
    std::lock_guard wl(write_mutex_);
    (void)wal_.sync();
}

std::shared_ptr<LsmDb::MemTable> LsmDb::make_memtable() const {
    auto mt = std::make_shared<MemTable>();
    mt->rep = make_memtable_rep(options_.memtable, options_.arena_block_bytes,
                                static_cast<int>(options_.skiplist_max_height));
    return mt;
}

hep::BufferView LsmDb::anchor_entry(const std::shared_ptr<const MemTable>& mem,
                                    std::string_view bytes) {
    // Aliasing shared_ptr: the view's owner handle keeps the whole memtable
    // (and its arena, where `bytes` lives) alive for as long as the view does.
    return hep::BufferView(bytes.data(), bytes.size(),
                           std::shared_ptr<std::string>(mem, &mem->anchor_tag));
}

std::string LsmDb::table_path(std::uint64_t file_number) const {
    return options_.path + "/" + std::to_string(file_number) + ".sst";
}

std::string LsmDb::wal_segment_path(std::uint64_t seq) const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "wal.%06llu.log", static_cast<unsigned long long>(seq));
    return options_.path + "/" + buf;
}

Result<std::unique_ptr<LsmDb>> LsmDb::open(LsmOptions options) {
    std::error_code ec;
    fs::create_directories(options.path, ec);
    if (ec) return Status::IOError("cannot create " + options.path + ": " + ec.message());

    auto db = std::unique_ptr<LsmDb>(new LsmDb(std::move(options)));
    Status st = db->load_manifest();
    if (!st.ok()) return st;
    st = db->remove_orphan_tables();
    if (!st.ok()) return st;
    st = db->recover_wal();
    if (!st.ok()) return st;
    // Rebuild the published-epoch set from the durable publish markers
    // (tables and replayed WAL records alike).
    st = db->scan(std::string_view{}, kPublishMarkerPrefix, /*with_values=*/false,
                  [&](std::string_view key, std::string_view) {
                      if (const std::uint32_t epoch = parse_publish_marker(key)) {
                          db->observe_marker(epoch);
                      }
                      return true;
                  });
    if (!st.ok()) return st;
    db->start_worker();
    return db;
}

Status LsmDb::load_manifest() {
    versions_ = std::make_unique<VersionSet>(options_.path, options_.max_levels,
                                             options_.crash_hook);
    Status st = versions_->recover();
    if (!st.ok()) return st;
    const ManifestState& ms = versions_->state();
    next_file_number_.store(std::max<std::uint64_t>(1, ms.next_file_number));
    // The seq ceiling of flushed data. WAL replay re-stamps every unflushed
    // record deterministically from here.
    last_flushed_seq_.store(ms.last_seq, std::memory_order_relaxed);
    seq_source().advance_to(ms.last_seq);

    auto nv = std::make_shared<Version>();
    nv->levels.resize(options_.max_levels);
    for (std::size_t li = 0; li < ms.levels.size() && li < nv->levels.size(); ++li) {
        for (const TableMeta& meta : ms.levels[li]) {
            auto reader = open_table(meta);
            if (!reader.ok()) return reader.status();
            nv->levels[li].push_back({meta, std::move(reader.value())});
        }
    }
    std::lock_guard vl(version_mutex_);
    current_ = std::move(nv);
    return Status::OK();
}

Status LsmDb::remove_orphan_tables() {
    // SSTables on disk but absent from the manifest are leftovers of a flush
    // or compaction that crashed before its edit committed; the WAL (resp.
    // the input tables) still holds their data, so they are garbage.
    std::set<std::uint64_t> live;
    for (const auto& level : versions_->state().levels) {
        for (const TableMeta& meta : level) live.insert(meta.file_number);
    }
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(options_.path, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() <= 4 || name.compare(name.size() - 4, 4, ".sst") != 0) continue;
        const std::string digits = name.substr(0, name.size() - 4);
        if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        const std::uint64_t fn = std::strtoull(digits.c_str(), nullptr, 10);
        if (live.count(fn)) continue;
        HEP_LOG_INFO("lsm %s: removing orphan table %s", options_.path.c_str(), name.c_str());
        std::error_code rec;
        fs::remove(e.path(), rec);
    }
    return Status::OK();
}

Status LsmDb::open_wal_segment() {
    return wal_.open(wal_segment_path(wal_seq_));
}

Status LsmDb::recover_wal() {
    // Replay every wal.NNNNNN.log segment in sequence order: last writer
    // wins. Segments below the manifest's wal_floor are already in an
    // SSTable — they are skipped (and unlinked), so no record is ever
    // double-replayed and the re-derived stamps match the pre-crash ones
    // exactly.
    auto mem = active_;  // recovery runs inside open(), before any reader
    auto apply = [&](Wal::RecordType type, std::string_view key, std::string_view value,
                     std::uint32_t epoch) {
        const bool tombstone = type == Wal::RecordType::kDelete;
        mem->rep->insert(key, value, Stamp{seq_source().next(), epoch}, tombstone);
        mem->bytes.fetch_add(key.size() + value.size() + 32, std::memory_order_relaxed);
    };

    const std::uint64_t floor = versions_->state().wal_floor;
    std::uint64_t total = 0;
    std::vector<std::pair<std::uint64_t, std::string>> segments;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(options_.path, ec)) {
        const std::string name = e.path().filename().string();
        if (name.size() <= 8 || name.rfind("wal.", 0) != 0 ||
            name.compare(name.size() - 4, 4, ".log") != 0) {
            continue;
        }
        const std::string digits = name.substr(4, name.size() - 8);
        if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        segments.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), e.path().string());
    }
    std::sort(segments.begin(), segments.end());
    for (const auto& [seq, path] : segments) {
        wal_seq_ = std::max(wal_seq_, seq);
        if (seq < floor) {  // flushed before the crash; retirement unfinished
            std::error_code rec;
            fs::remove(path, rec);
            continue;
        }
        auto replayed = Wal::replay(path, apply);
        if (!replayed.ok()) return replayed.status();
        total += *replayed;
        mem->wal_segments.push_back(path);
        mem->max_wal_segment = std::max(mem->max_wal_segment, seq);
    }
    if (total > 0) {
        HEP_LOG_INFO("lsm %s: replayed %llu WAL records", options_.path.c_str(),
                     static_cast<unsigned long long>(total));
    }

    ++wal_seq_;
    Status st = open_wal_segment();
    if (!st.ok()) return st;

    // If replay overfilled the memtable, flush inline before serving traffic
    // (the worker is not running yet).
    if (mem->bytes.load(std::memory_order_relaxed) >= options_.memtable_bytes) {
        {
            std::lock_guard wl(write_mutex_);
            st = seal_active();
            if (!st.ok()) return st;
        }
        st = drain_work(/*background=*/false);
        if (!st.ok()) return st;
    }
    return Status::OK();
}

Result<std::shared_ptr<SstReader>> LsmDb::open_table(const TableMeta& meta) const {
    return SstReader::open(table_path(meta.file_number), meta.file_number, cache_);
}

std::shared_ptr<const LsmDb::Version> LsmDb::snapshot_version() const {
    std::lock_guard vl(version_mutex_);
    return current_;
}

// ------------------------------------------------------------ worker plumbing

void LsmDb::start_worker() {
    if (!options_.background_compaction) return;
    if (options_.compaction_pool) {
        worker_pool_ = options_.compaction_pool;
    } else {
        worker_pool_ = abt::Pool::create("lsm-compaction");
        own_xstream_ = abt::Xstream::create({worker_pool_}, "lsm-compaction");
    }
    worker_ = abt::Ult::create(worker_pool_, [this] { worker_loop(); });
}

void LsmDb::signal_work() {
    abt::LockGuard g(coord_mutex_);
    work_pending_ = true;
    work_cv_.notify_one();
}

void LsmDb::notify_installed() {
    abt::LockGuard g(coord_mutex_);
    idle_cv_.notify_all();
}

void LsmDb::worker_loop() {
    while (true) {
        {
            abt::LockGuard g(coord_mutex_);
            while (!work_pending_ && !stop_) work_cv_.wait(coord_mutex_);
            if (stop_) break;  // unflushed memtables stay WAL-covered
            work_pending_ = false;
            worker_busy_ = true;
        }
        Status st = drain_work(/*background=*/true);
        if (!st.ok()) set_background_error(st);
        {
            abt::LockGuard g(coord_mutex_);
            worker_busy_ = false;
            idle_cv_.notify_all();
        }
    }
}

void LsmDb::set_background_error(const Status& st) {
    std::lock_guard g(err_mutex_);
    if (bg_error_.ok()) bg_error_ = st;
    bg_error_set_.store(true, std::memory_order_release);
}

Status LsmDb::background_error() const {
    if (!bg_error_set_.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard g(err_mutex_);
    return bg_error_;
}

std::size_t LsmDb::compaction_candidate(const Version& v) const {
    if (!v.levels.empty() && v.levels[0].size() >= options_.l0_compaction_trigger) return 0;
    std::uint64_t budget = options_.level_base_bytes;
    for (std::size_t i = 1; i + 1 < v.levels.size(); ++i) {
        if (v.level_bytes(i) > budget) return i;
        budget *= options_.level_multiplier;
    }
    return kNoLevel;
}

Status LsmDb::drain_work(bool background) {
    abt::LockGuard serial(work_serial_);
    compaction_running_.store(true, std::memory_order_relaxed);
    Status st;
    while (st.ok()) {
        auto v = snapshot_version();
        if (!v->imm.empty()) {
            st = flush_oldest_imm();
            if (st.ok()) notify_installed();
            continue;
        }
        const std::size_t lvl = compaction_candidate(*v);
        if (lvl == kNoLevel) break;
        st = compact_level(lvl);
        if (st.ok()) {
            {
                std::lock_guard g(stats_mutex_);
                ++lsm_stats_.compactions;
                if (background) ++lsm_stats_.compactions_background;
                else ++lsm_stats_.compactions_inline;
            }
            notify_installed();
        }
    }
    compaction_running_.store(false, std::memory_order_relaxed);
    return st;
}

Status LsmDb::flush_oldest_imm() {
    auto v = snapshot_version();
    if (v->imm.empty()) return Status::OK();
    // seal prepends at the front; the worker (sole remover) drains the back.
    std::shared_ptr<const MemTable> victim = v->imm.back();

    std::optional<TableHandle> handle;
    std::uint64_t max_seq = last_flushed_seq_.load(std::memory_order_relaxed);
    if (victim->rep->count() > 0) {
        const std::uint64_t fn = next_file_number_.fetch_add(1);
        SstWriter writer(table_path(fn), fn, options_.block_bytes, compress_blocks(),
                         victim->bytes.load(std::memory_order_relaxed));
        auto cur = victim->rep->cursor();
        for (cur->seek_first(); cur->valid(); cur->next()) {
            const MemEntry e = cur->entry();
            max_seq = std::max(max_seq, e.stamp.seq);
            Status st = writer.add(cur->key(), e.stamp, e.value, e.tombstone);
            if (!st.ok()) return st;
        }
        auto meta = writer.finish();
        if (!meta.ok()) return meta.status();
        auto reader = open_table(*meta);
        if (!reader.ok()) return reader.status();
        handle.emplace(TableHandle{std::move(meta.value()), std::move(reader.value())});
    }
    last_flushed_seq_.store(max_seq, std::memory_order_relaxed);
    hook("flush:table_written");

    // One durable manifest edit makes the flush atomic: the table enters the
    // level set, last_seq rises, and the memtable's WAL segments retire (any
    // segment below wal_floor is never replayed again).
    VersionEdit edit;
    edit.next_file_number = next_file_number_.load();
    edit.last_seq = max_seq;
    edit.wal_floor = victim->max_wal_segment + 1;
    if (handle) edit.added.emplace_back(0u, handle->meta);
    Status st = versions_->log_and_apply(edit);
    if (!st.ok()) return st;
    hook("flush:manifest_logged");

    {
        std::lock_guard vl(version_mutex_);
        auto nv = std::make_shared<Version>(*current_);
        nv->imm.pop_back();
        if (handle) nv->levels[0].push_back(std::move(*handle));  // newest last
        current_ = std::move(nv);
    }
    {
        std::lock_guard g(stats_mutex_);
        ++lsm_stats_.flushes;
        if (handle) {
            ++lsm_stats_.sst_files_written;
            lsm_stats_.flush_bytes_written += handle->meta.bytes;
        }
    }
    // The memtable is on disk; its log segments are no longer needed.
    for (const auto& seg : victim->wal_segments) {
        std::error_code ec;
        fs::remove(seg, ec);
    }
    hook("flush:wal_retired");
    return Status::OK();
}

namespace {

/// Merge source over an SSTable iterator with a recency priority:
/// lower `prio` wins for equal keys.
struct MergeSource {
    SstReader::Iterator it;
    std::size_t prio;
};

bool ranges_overlap(const TableMeta& a, std::string_view min_key, std::string_view max_key) {
    return !(std::string_view(a.max_key) < min_key || max_key < std::string_view(a.min_key));
}

}  // namespace

Status LsmDb::compact_level(std::size_t level) {
    // Levels are only mutated under work_serial_, so this copy is the truth;
    // concurrent seals/flushes only touch the imm queue and L0 appends are
    // re-merged at publish time.
    auto base = snapshot_version();
    std::vector<std::vector<TableHandle>> levels = base->levels;
    const std::size_t target = level + 1;
    if (target >= levels.size()) return Status::OK();

    std::vector<std::size_t> src_idx;
    if (level == 0) {
        for (std::size_t i = 0; i < levels[0].size(); ++i) src_idx.push_back(i);
    } else if (!levels[level].empty()) {
        src_idx.push_back(0);  // oldest-first keeps levels rolling forward
    }
    if (src_idx.empty()) return Status::OK();

    std::string min_key = levels[level][src_idx[0]].meta.min_key;
    std::string max_key = levels[level][src_idx[0]].meta.max_key;
    for (std::size_t i : src_idx) {
        min_key = std::min(min_key, levels[level][i].meta.min_key);
        max_key = std::max(max_key, levels[level][i].meta.max_key);
    }

    std::vector<std::size_t> dst_idx;
    for (std::size_t i = 0; i < levels[target].size(); ++i) {
        if (ranges_overlap(levels[target][i].meta, min_key, max_key)) dst_idx.push_back(i);
    }
    // Tombstones may be dropped only if no key version can exist deeper.
    bool deeper_empty = true;
    for (std::size_t d = target + 1; d < levels.size(); ++d) {
        if (!levels[d].empty()) deeper_empty = false;
    }
    // A lone input that overlaps nothing below is re-filed, unless merging
    // it would drop tombstones that a move keeps.
    if (level > 0 && dst_idx.empty() &&
        (!deeper_empty || levels[level][src_idx[0]].meta.tombstone_free)) {
        return move_table(level, std::move(levels));
    }

    // Build merge sources; lower prio wins. L0 newest (highest index) is the
    // most recent version; target-level tables are oldest.
    std::vector<MergeSource> sources;
    auto add_source = [&](const TableHandle& t) {
        sources.push_back({t.reader->make_compaction_iterator(), sources.size()});
    };
    if (level == 0) {
        for (auto rit = src_idx.rbegin(); rit != src_idx.rend(); ++rit) add_source(levels[0][*rit]);
    } else {
        for (std::size_t i : src_idx) add_source(levels[level][i]);
    }
    for (std::size_t i : dst_idx) add_source(levels[target][i]);
    for (auto& s : sources) {
        Status st = s.it.seek_after(std::string_view{});  // from the beginning
        if (!st.ok()) return st;
    }

    // Merge into new target-level tables, each closed once its encoded size
    // reaches target_file_bytes. Each output's blooms are sized in
    // SstWriter::finish from the entries it really holds.
    std::vector<TableMeta> outputs;
    std::optional<SstWriter> writer;
    auto close_writer = [&]() -> Status {
        if (!writer) return Status::OK();
        auto meta = writer->finish();
        if (!meta.ok()) return meta.status();
        // Drop empty output tables.
        if (meta->entries > 0) outputs.push_back(std::move(meta.value()));
        else fs::remove(table_path(meta->file_number));
        writer.reset();
        return Status::OK();
    };

    while (true) {
        // Smallest current key across sources; ties won by lowest prio.
        MergeSource* best = nullptr;
        for (auto& s : sources) {
            if (!s.it.valid()) continue;
            if (!best || s.it.key() < best->it.key() ||
                (s.it.key() == best->it.key() && s.prio < best->prio)) {
                best = &s;
            }
        }
        if (!best) break;
        // The winner's key and value view its iterator and pinned block: hand
        // them to the writer before the winner moves.
        const std::string_view key = best->it.key();
        const bool tombstone = best->it.is_tombstone();
        if (!(tombstone && deeper_empty)) {  // else fully reclaim
            if (!writer) {
                const std::uint64_t fn = next_file_number_.fetch_add(1);
                writer.emplace(table_path(fn), fn, options_.block_bytes, compress_blocks(),
                               options_.target_file_bytes);
            }
            Status st = writer->add(key, best->it.stamp(), best->it.value(), tombstone);
            if (!st.ok()) return st;
            if (writer->encoded_bytes() >= options_.target_file_bytes) {
                st = close_writer();
                if (!st.ok()) return st;
            }
        }
        // Advance every other source positioned at this key, then the winner
        // (moving it ends the life of `key`).
        for (auto& s : sources) {
            if (&s == best) continue;
            while (s.it.valid() && s.it.key() == key) {
                Status st = s.it.next();
                if (!st.ok()) return st;
            }
        }
        Status st = best->it.next();
        if (!st.ok()) return st;
    }
    Status st = close_writer();
    if (!st.ok()) return st;
    hook("compact:tables_written");

    // Remove inputs from the working copy; their files are only unlinked
    // after the new version (without them) is published, so readers pinning
    // an old version keep valid open handles (POSIX unlink semantics).
    VersionEdit edit;
    edit.next_file_number = next_file_number_.load();
    std::vector<std::string> doomed;
    auto remove_tables = [&](std::size_t li, std::vector<TableHandle>& lvl,
                             const std::vector<std::size_t>& idx) {
        for (auto rit = idx.rbegin(); rit != idx.rend(); ++rit) {
            doomed.push_back(table_path(lvl[*rit].meta.file_number));
            edit.deleted.emplace_back(static_cast<std::uint32_t>(li),
                                      lvl[*rit].meta.file_number);
            lvl.erase(lvl.begin() + static_cast<std::ptrdiff_t>(*rit));
        }
    };
    remove_tables(level, levels[level], src_idx);
    remove_tables(target, levels[target], dst_idx);

    std::uint64_t bytes_written = 0;
    for (auto& meta : outputs) {
        bytes_written += meta.bytes;
        edit.added.emplace_back(static_cast<std::uint32_t>(target), meta);
        auto reader = open_table(meta);
        if (!reader.ok()) return reader.status();
        // Insert sorted by min_key (levels >= 1 are non-overlapping).
        auto pos = std::lower_bound(
            levels[target].begin(), levels[target].end(), meta,
            [](const TableHandle& a, const TableMeta& b) { return a.meta.min_key < b.min_key; });
        levels[target].insert(pos, {std::move(meta), std::move(reader.value())});
    }

    // The edit commits the whole compaction atomically: recovery sees either
    // the inputs or the outputs, never both.
    st = versions_->log_and_apply(edit);
    if (!st.ok()) return st;
    hook("compact:manifest_logged");

    install_levels(std::move(levels));
    {
        std::lock_guard g(stats_mutex_);
        lsm_stats_.sst_files_written += outputs.size();
        lsm_stats_.compaction_bytes_written += bytes_written;
    }
    for (const auto& p : doomed) {
        std::error_code ec;
        fs::remove(p, ec);
    }
    return Status::OK();
}

void LsmDb::install_levels(std::vector<std::vector<TableHandle>> levels) {
    std::lock_guard vl(version_mutex_);
    auto nv = std::make_shared<Version>(*current_);  // picks up fresh seals
    nv->levels = std::move(levels);
    current_ = std::move(nv);
}

Status LsmDb::move_table(std::size_t level, std::vector<std::vector<TableHandle>> levels) {
    // The oldest table of `level` overlaps nothing in level+1, and either
    // holds no tombstone or has levels below it (where a merge keeps
    // tombstones), so merging it alone would only copy its entries. Re-file
    // it instead: one manifest edit, no read, no write, no unlink. The
    // reader (and its cached blocks, keyed by file number) carries over
    // unchanged.
    const std::size_t target = level + 1;
    TableHandle moved = std::move(levels[level].front());
    levels[level].erase(levels[level].begin());
    hook("compact:tables_written");

    // ManifestState::apply runs deletes before adds, so the same file number
    // leaves one level and joins the next in a single atomic edit.
    VersionEdit edit;
    edit.next_file_number = next_file_number_.load();
    edit.deleted.emplace_back(static_cast<std::uint32_t>(level), moved.meta.file_number);
    edit.added.emplace_back(static_cast<std::uint32_t>(target), moved.meta);
    Status st = versions_->log_and_apply(edit);
    if (!st.ok()) return st;
    hook("compact:manifest_logged");

    auto pos = std::lower_bound(
        levels[target].begin(), levels[target].end(), moved.meta.min_key,
        [](const TableHandle& a, const std::string& k) { return a.meta.min_key < k; });
    levels[target].insert(pos, std::move(moved));
    install_levels(std::move(levels));
    {
        std::lock_guard g(stats_mutex_);
        ++lsm_stats_.trivial_moves;
    }
    return Status::OK();
}

// ------------------------------------------------------------------ writes

Status LsmDb::put_stamped(std::string_view key, hep::BufferView value, bool overwrite,
                          std::uint32_t epoch) {
    {
        std::lock_guard g(stats_mutex_);
        ++stats_.puts;
    }
    Status st = write_impl(key, std::move(value), overwrite, /*is_erase=*/false, epoch);
    if (st.ok()) {
        if (const std::uint32_t published = parse_publish_marker(key)) {
            observe_marker(published);
        }
    }
    return st;
}

Status LsmDb::erase(std::string_view key) {
    {
        std::lock_guard g(stats_mutex_);
        ++stats_.erases;
    }
    // Tombstones grow the memtable too: erase goes through the same seal /
    // backpressure path as put so delete-heavy workloads still flush.
    return write_impl(key, std::nullopt, /*overwrite=*/true, /*is_erase=*/true, 0);
}

void LsmDb::maybe_stall() {
    auto over_stop = [&](const Version& v) {
        return v.imm.size() >= options_.max_immutable_memtables ||
               (!v.levels.empty() && v.levels[0].size() >= options_.l0_stop_trigger);
    };
    auto v = snapshot_version();
    if (over_stop(*v)) {
        const auto t0 = std::chrono::steady_clock::now();
        {
            abt::LockGuard g(coord_mutex_);
            while (!stop_ && background_error().ok()) {
                auto cur = snapshot_version();
                if (!over_stop(*cur)) break;
                work_pending_ = true;
                work_cv_.notify_one();
                idle_cv_.wait(coord_mutex_);
            }
        }
        const auto dt = std::chrono::steady_clock::now() - t0;
        std::lock_guard g(stats_mutex_);
        ++lsm_stats_.write_stalls;
        lsm_stats_.write_stall_micros += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(dt).count());
    } else if (!v->levels.empty() && v->levels[0].size() >= options_.l0_slowdown_trigger) {
        {
            std::lock_guard g(stats_mutex_);
            ++lsm_stats_.write_slowdowns;
        }
        abt::yield();  // one scheduling quantum of grace for the worker
    }
}

Status LsmDb::write_impl(std::string_view key, std::optional<hep::BufferView> value,
                         bool overwrite, bool is_erase, std::uint32_t epoch) {
    Status bg = background_error();
    if (!bg.ok()) return bg;
    if (options_.background_compaction) maybe_stall();

    bool sealed = false;
    std::uint64_t my_seq = 0;
    {
        std::lock_guard wl(write_mutex_);
        if (is_erase || !overwrite) {
            // Lock-free probe; see the ordering note in seal_active().
            const bool present = lookup(key).ok();
            // Contract (matches the map backend): erasing a missing key is
            // NotFound; "create" semantics make an existing key AlreadyExists.
            if (is_erase && !present) return Status::NotFound(std::string(key));
            if (!is_erase && present) return Status::AlreadyExists(std::string(key));
        }
        Status st = is_erase ? wal_.append_delete(key) : wal_.append_put(key, value->sv(), epoch);
        if (!st.ok()) return st;
        my_seq = append_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        // MVCC seq drawn under write_mutex_: memtable stamp order equals WAL
        // append order, which is what recovery's re-stamping relies on.
        const Stamp stamp{seq_source().next(), is_erase ? 0 : epoch};
        auto mem = active_;  // writer-owned
        mem->bytes.fetch_add(key.size() + (value ? value->size() : 0) + 32,
                             std::memory_order_relaxed);
        mem->rep->insert(key, value ? value->sv() : std::string_view{}, stamp, is_erase);
        if (mem->bytes.load(std::memory_order_relaxed) >= options_.memtable_bytes) {
            st = seal_active();
            if (!st.ok()) return st;
            sealed = true;
        }
        if (options_.wal_sync_every_put && !options_.group_commit && !sealed) {
            st = wal_.sync();
            if (!st.ok()) return st;
        }
    }
    // The sync happens outside every lock the read/insert paths use; under
    // group commit a single leader flushes for the whole batch.
    if (options_.wal_sync_every_put && options_.group_commit) {
        Status st = group_sync(my_seq);
        if (!st.ok()) return st;
    }
    if (sealed) {
        if (options_.background_compaction) {
            signal_work();
        } else {
            Status st = drain_work(/*background=*/false);
            if (!st.ok()) return st;
        }
    }
    return Status::OK();
}

Status LsmDb::seal_active() {
    auto mem = active_;  // writer-owned
    // Rotate the WAL: closing the segment flushes the sealed memtable's
    // records, so this doubles as a group commit for everything appended.
    wal_.close();
    mem->wal_segments.push_back(wal_segment_path(wal_seq_));
    mem->max_wal_segment = std::max(mem->max_wal_segment, wal_seq_);
    {
        std::lock_guard sl(sync_mutex_);
        const std::uint64_t appended = append_seq_.load(std::memory_order_relaxed);
        if (appended > synced_seq_) synced_seq_ = appended;
    }
    ++wal_seq_;
    Status st = open_wal_segment();
    if (!st.ok()) return st;

    // Ordering contract with the lock-free read path: the Version carrying
    // this memtable on its imm queue is published BEFORE the active pointer
    // swaps, so a reader that misses in the new (empty) active always finds
    // the sealed one in the version it snapshots afterwards.
    {
        std::lock_guard vl(version_mutex_);
        auto nv = std::make_shared<Version>(*current_);
        nv->imm.insert(nv->imm.begin(), mem);  // newest first
        current_ = std::move(nv);
    }
    auto fresh = make_memtable();
    {
        std::lock_guard g(active_mutex_);
        active_.swap(fresh);
    }
    return Status::OK();
}

Status LsmDb::group_sync(std::uint64_t my_seq) {
    while (true) {
        std::shared_ptr<abt::Eventual<bool>> batch;
        {
            std::unique_lock sl(sync_mutex_);
            if (synced_seq_ >= my_seq) return last_sync_status_;
            if (!sync_leader_active_) {
                sync_leader_active_ = true;
                sl.unlock();
                // Leader: one flush covers every record appended so far.
                std::uint64_t target = 0;
                Status st;
                {
                    std::lock_guard wl(write_mutex_);
                    target = append_seq_.load(std::memory_order_relaxed);
                    st = wal_.sync();
                }
                std::shared_ptr<abt::Eventual<bool>> done;
                std::uint64_t covered = 0;
                {
                    std::lock_guard sl2(sync_mutex_);
                    sync_leader_active_ = false;
                    if (target > synced_seq_) {
                        covered = target - synced_seq_;
                        synced_seq_ = target;
                    }
                    last_sync_status_ = st;
                    done = std::move(pending_batch_);
                    pending_batch_.reset();
                }
                {
                    std::lock_guard g(stats_mutex_);
                    ++lsm_stats_.group_commit_syncs;
                    lsm_stats_.group_commit_records += covered;
                }
                if (done) done->set(true);
                continue;  // re-check: our own seq is covered now
            }
            // Follower: ride the next leader's flush.
            if (!pending_batch_) pending_batch_ = std::make_shared<abt::Eventual<bool>>();
            batch = pending_batch_;
        }
        batch->wait();
    }
}

Status LsmDb::flush() {
    Status bg = background_error();
    if (!bg.ok()) return bg;
    {
        std::lock_guard wl(write_mutex_);
        auto mem = active_;  // writer-owned
        if (mem->rep->count() > 0) {
            Status st = seal_active();
            if (!st.ok()) return st;
        }
    }
    if (!options_.background_compaction) return drain_work(/*background=*/false);

    signal_work();
    abt::LockGuard g(coord_mutex_);
    while (true) {
        bg = background_error();
        if (!bg.ok()) return bg;
        if (!worker_busy_ && !work_pending_) {
            auto v = snapshot_version();
            if (v->imm.empty() && compaction_candidate(*v) == kNoLevel) break;
            work_pending_ = true;  // worker missed it or new work arrived
            work_cv_.notify_one();
        }
        idle_cv_.wait(coord_mutex_);
    }
    return Status::OK();
}

// ------------------------------------------------------------------- reads

Result<TableHit> LsmDb::table_lookup(const Version& v, std::string_view key) const {
    // Hashed once, by the first table whose key range holds `key`.
    std::optional<std::uint64_t> hash;
    auto probe = [&](SstReader& reader) {
        if (!hash) hash = BloomFilter::hash(key);
        return reader.get(key, *hash);
    };
    // L0: newest to oldest (later files shadow earlier ones).
    const auto& l0 = v.levels[0];
    for (std::size_t i = l0.size(); i-- > 0;) {
        const TableMeta& t = l0[i].meta;
        if (key < std::string_view(t.min_key) || std::string_view(t.max_key) < key) continue;
        auto r = probe(*l0[i].reader);
        if (r.ok()) return r;  // value or tombstone
        if (r.status().code() != StatusCode::kNotFound) return r.status();
    }
    // Deeper levels: at most one candidate file per level.
    for (std::size_t li = 1; li < v.levels.size(); ++li) {
        const auto& lvl = v.levels[li];
        // First table with max_key >= key.
        std::size_t lo = 0, hi = lvl.size();
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (std::string_view(lvl[mid].meta.max_key) < key) lo = mid + 1;
            else hi = mid;
        }
        if (lo == lvl.size()) continue;
        if (key < std::string_view(lvl[lo].meta.min_key)) continue;
        auto r = probe(*lvl[lo].reader);
        if (r.ok()) return r;
        if (r.status().code() != StatusCode::kNotFound) return r.status();
    }
    return Status::NotFound(std::string(key));
}

Result<std::pair<hep::BufferView, Stamp>> LsmDb::lookup(std::string_view key) const {
    // Lock-free active probe: the skiplist tolerates concurrent inserts, and
    // seal ordering guarantees any memtable this load misses is reachable
    // through the version snapshot taken next.
    auto mem = active();
    MemEntry e;
    auto memtable_hit = [&](const std::shared_ptr<const MemTable>& m)
        -> Result<std::pair<hep::BufferView, Stamp>> {
        if (e.tombstone) return Status::NotFound(std::string(key));
        return std::make_pair(anchor_entry(m, e.value), e.stamp);  // zero-copy: pins m
    };
    if (mem->rep->get(key, e)) return memtable_hit(mem);
    auto ver = snapshot_version();
    for (const auto& m : ver->imm) {
        if (m->rep->get(key, e)) return memtable_hit(m);
    }
    auto found = table_lookup(*ver, key);
    if (!found.ok()) return found.status();
    if (!found->value.has_value()) return Status::NotFound(std::string(key));
    // Table values materialize from disk/cache as a fresh string; adopt it.
    return std::make_pair(hep::BufferView(hep::Buffer::adopt(std::move(*found->value))),
                          found->stamp);
}

Result<std::pair<hep::BufferView, Stamp>> LsmDb::get_stamped(std::string_view key) {
    {
        std::lock_guard g(stats_mutex_);
        ++stats_.gets;
        if (compaction_running_.load(std::memory_order_relaxed)) {
            ++lsm_stats_.reads_during_compaction;
        }
    }
    return lookup(key);
}

Status LsmDb::scan_stamped(std::string_view after, std::string_view prefix, bool with_values,
                           const StampedScanFn& fn) {
    (void)with_values;  // values come along for free in this implementation
    {
        std::lock_guard g(stats_mutex_);
        ++stats_.scans;
        if (compaction_running_.load(std::memory_order_relaxed)) {
            ++lsm_stats_.reads_during_compaction;
        }
    }

    // Pin the active memtable, then a version snapshot. A racing seal either
    // happens after both loads (the pinned memtable stays reachable and keeps
    // absorbing inserts — the documented resume-after contract), or lands the
    // pinned memtable on the imm queue we merge anyway; duplicate sources
    // carry identical entries and the per-key dedup below collapses them.
    std::shared_ptr<const MemTable> mem = active();
    std::shared_ptr<const Version> ver = snapshot_version();

    const bool start_at_prefix = !prefix.empty() && after < prefix;

    // Cursor over the (possibly still live) active memtable. Rep cursors are
    // safe against concurrent inserts: keys inserted behind the cursor are
    // skipped, keys ahead may appear.
    auto mcur = mem->rep->cursor();
    if (start_at_prefix) mcur->seek_geq(prefix);
    else mcur->seek_gt(after);

    // Sealed memtables are frozen — plain cursors, newest first.
    std::vector<std::unique_ptr<MemTableRep::Cursor>> imms;
    imms.reserve(ver->imm.size());
    for (const auto& m : ver->imm) {
        auto c = m->rep->cursor();
        if (start_at_prefix) c->seek_geq(prefix);
        else c->seek_gt(after);
        imms.push_back(std::move(c));
    }

    // Table iterators, ordered newest-first so the lowest source index always
    // holds the most recent version of a key.
    std::vector<SstReader::Iterator> its;
    for (std::size_t i = ver->levels[0].size(); i-- > 0;) {
        its.push_back(ver->levels[0][i].reader->make_iterator());
    }
    for (std::size_t li = 1; li < ver->levels.size(); ++li) {
        for (const auto& t : ver->levels[li]) its.push_back(t.reader->make_iterator());
    }
    for (auto& it : its) {
        Status st = start_at_prefix ? it.seek_geq(prefix) : it.seek_after(after);
        if (!st.ok()) return st;
    }

    auto prefix_matches = [&](std::string_view key) {
        return prefix.empty() ||
               (key.size() >= prefix.size() && key.compare(0, prefix.size(), prefix) == 0);
    };

    while (true) {
        // Smallest key across the active cursor, imm cursors and tables.
        std::string_view best;
        bool have_best = false;
        if (mcur->valid()) {
            best = mcur->key();
            have_best = true;
        }
        for (const auto& c : imms) {
            if (c->valid() && (!have_best || c->key() < best)) {
                best = c->key();
                have_best = true;
            }
        }
        for (const auto& it : its) {
            if (it.valid() && (!have_best || it.key() < best)) {
                best = it.key();
                have_best = true;
            }
        }
        if (!have_best) break;
        if (!prefix_matches(best) && best > prefix) break;  // past the prefix range

        // Resolve winner: active memtable first, then newest imm, then
        // newest table. Advance every source positioned at this key.
        const std::string key(best);
        bool handled = false;
        bool keep_going = true;
        if (mcur->valid() && mcur->key() == key) {
            const MemEntry me = mcur->entry();
            if (!me.tombstone && prefix_matches(key)) {
                keep_going = fn(key, me.value, me.stamp);
            }
            handled = true;
            mcur->next();
        }
        for (auto& c : imms) {
            if (c->valid() && c->key() == key) {
                if (!handled) {
                    const MemEntry me = c->entry();
                    if (!me.tombstone && prefix_matches(key)) {
                        keep_going = fn(key, me.value, me.stamp);
                    }
                    handled = true;
                }
                c->next();
            }
        }
        for (auto& it : its) {
            if (it.valid() && it.key() == key) {
                if (!handled) {
                    if (!it.is_tombstone() && prefix_matches(key)) {
                        keep_going = fn(key, it.value(), it.stamp());
                    }
                    handled = true;
                }
                Status st = it.next();
                if (!st.ok()) return st;
            }
        }
        if (!keep_going) break;
    }
    return Status::OK();
}

std::uint64_t LsmDb::size() const {
    // Exact but O(n): merge-count live keys. Documented as approximate in the
    // interface; rockslite chooses correctness over speed here.
    std::uint64_t count = 0;
    const_cast<LsmDb*>(this)->scan({}, {}, false, [&](std::string_view, std::string_view) {
        ++count;
        return true;
    });
    return count;
}

// ------------------------------------------------------------------- stats

BackendStats LsmDb::stats() const {
    std::lock_guard g(stats_mutex_);
    return stats_;
}

LsmStats LsmDb::lsm_stats() const {
    LsmStats out;
    {
        std::lock_guard g(stats_mutex_);
        out = lsm_stats_;
    }
    out.wal_bytes_written = wal_.bytes_written();
    const BlockCacheStats cs = cache_->stats();
    out.cache_hits = cs.decoded_hits + cs.compressed_hits;
    out.cache_misses = cs.misses;
    out.cache_compressed_hits = cs.compressed_hits;
    out.cache_decompressions = cs.decompressions;
    out.cache_disk_reads = cs.disk_reads;
    out.cache_disk_bytes_read = cs.disk_bytes_read;
    out.cache_evictions = cs.evictions;
    auto v = snapshot_version();
    out.immutable_queue_depth = v->imm.size();
    std::uint64_t backlog = 0;
    for (const auto& m : v->imm) backlog += m->bytes.load(std::memory_order_relaxed);
    if (!v->levels.empty()) backlog += v->level_bytes(0);
    out.compaction_backlog_bytes = backlog;
    out.files_per_level.clear();
    for (const auto& l : v->levels) out.files_per_level.push_back(l.size());
    return out;
}

json::Value LsmDb::stats_json() const {
    const LsmStats s = lsm_stats();
    const BackendStats b = stats();
    json::Value doc = json::Value::make_object();
    doc["puts"] = b.puts;
    doc["gets"] = b.gets;
    doc["scans"] = b.scans;
    doc["erases"] = b.erases;
    doc["flushes"] = s.flushes;
    doc["compactions"] = s.compactions;
    doc["compactions_background"] = s.compactions_background;
    doc["compactions_inline"] = s.compactions_inline;
    doc["trivial_moves"] = s.trivial_moves;
    doc["sst_files_written"] = s.sst_files_written;
    doc["wal_bytes_written"] = s.wal_bytes_written;
    doc["flush_bytes_written"] = s.flush_bytes_written;
    doc["compaction_bytes_written"] = s.compaction_bytes_written;
    doc["cache_hits"] = s.cache_hits;
    doc["cache_misses"] = s.cache_misses;
    doc["cache_compressed_hits"] = s.cache_compressed_hits;
    doc["cache_decompressions"] = s.cache_decompressions;
    doc["cache_disk_reads"] = s.cache_disk_reads;
    doc["cache_disk_bytes_read"] = s.cache_disk_bytes_read;
    doc["cache_evictions"] = s.cache_evictions;
    doc["write_stalls"] = s.write_stalls;
    doc["write_stall_micros"] = s.write_stall_micros;
    doc["write_slowdowns"] = s.write_slowdowns;
    doc["group_commit_syncs"] = s.group_commit_syncs;
    doc["group_commit_records"] = s.group_commit_records;
    doc["group_commit_batch_size"] =
        s.group_commit_syncs ? static_cast<double>(s.group_commit_records) /
                                   static_cast<double>(s.group_commit_syncs)
                             : 0.0;
    doc["reads_during_compaction"] = s.reads_during_compaction;
    doc["immutable_queue_depth"] = s.immutable_queue_depth;
    doc["compaction_backlog_bytes"] = s.compaction_backlog_bytes;
    json::Value fpl = json::Value::make_array();
    for (std::size_t n : s.files_per_level) fpl.push_back(static_cast<std::uint64_t>(n));
    doc["files_per_level"] = std::move(fpl);
    // Knob echo (satellite: per-db tuning must be observable via symbio).
    doc["memtable"] = options_.memtable;
    doc["block_compression"] = options_.block_compression;
    doc["block_cache_bytes"] = static_cast<std::uint64_t>(options_.block_cache_bytes);
    doc["compressed_cache_bytes"] = static_cast<std::uint64_t>(options_.compressed_cache_bytes);
    doc["arena_block_bytes"] = static_cast<std::uint64_t>(options_.arena_block_bytes);
    doc["skiplist_max_height"] = static_cast<std::uint64_t>(options_.skiplist_max_height);
    return doc;
}

}  // namespace hep::yokan::lsm
