#include "query/provider.hpp"

#include <chrono>
#include <set>

#include "columnar/chunk.hpp"
#include "common/endian.hpp"
#include "hepnos/keys.hpp"
#include "serial/archive.hpp"

namespace hep::query {

using proto::CloseReq;
using proto::CloseResp;
using proto::Entry;
using proto::NextReq;
using proto::OpenReq;
using proto::OpenResp;
using proto::Page;

namespace {
// Product keys of EVENT-level containers are exactly this long before the
// "<label>#<type>" suffix: 16-byte dataset UUID + run/subrun/event BE64.
constexpr std::size_t kEventKeyBytes = 16 + 3 * 8;

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Event container key (uuid + run/subrun/event BE64) — the blob product key
/// minus its "<label>#<type>" suffix; what the covered-event set stores.
std::string container_key(std::string_view uuid, std::uint64_t run, std::uint64_t subrun,
                          std::uint64_t event) {
    std::string key(uuid);
    append_be64(key, run);
    append_be64(key, subrun);
    append_be64(key, event);
    return key;
}

/// Metadata keys scanned per chunk-phase iteration. The "col/" range holds
/// one @meta plus one key per member for every chunk, so this covers a few
/// chunks' worth of keys per backend lock acquisition.
constexpr std::uint64_t kMetaScanKeys = 128;

/// Refuse to materialize columns beyond this many rows — an allocation guard
/// against corrupt chunk metadata, mirroring the one inside decode_block.
constexpr std::uint64_t kMaxChunkRows = 1ull << 28;
}  // namespace

/// Server-side cursor: the spec plus the scan position. `mutex`/`cv` guard
/// the one-slot prefetch hand-off; `busy` serializes producers (at most one
/// ULT — handler or read-ahead — runs produce_page for a cursor at a time).
struct QueryProvider::Cursor {
    std::uint64_t id = 0;
    std::string db_name;
    yokan::Database* db = nullptr;
    const ProductEvaluator* evaluator = nullptr;
    proto::QuerySpec spec;
    std::string suffix;           // "<label>#<type>" of the scanned product
    std::string selected_suffix;  // suffix of the write-back product (if any)
    std::string prefix;           // dataset UUID bytes scoping the scan
    yokan::ReadView view;         // pinned snapshot every read resolves through
    std::string pos;              // resume strictly after this key
    std::uint64_t page_entries = 512;
    std::uint64_t scan_chunk = 2048;
    bool done = false;

    // Columnar (vectorized) scan state. Phase kChunks walks the "col/" chunk
    // metadata range and evaluates whole chunks vectorized; phase kBlobs then
    // walks the blob keys, skipping every chunk-covered event, so mixed
    // blob+columnar datasets come out exactly once. `covered` is rebuilt from
    // the chunk metas on resume (rebuild_coverage) — cursor state stays a
    // disposable hint.
    bool columnar = false;
    enum class Phase : std::uint8_t { kChunks, kBlobs };
    Phase phase = Phase::kChunks;
    std::string chunk_pos;    // chunk-phase scan position
    std::string meta_prefix;  // "col/" + prefix
    std::set<std::string, std::less<>> covered;  // container keys served from chunks
    std::vector<std::uint32_t> needed;           // filter.referenced_members()
    std::vector<double> scratch;                 // matches_batch arena, reused

    abt::Mutex mutex;
    abt::CondVar cv;
    bool busy = false;                  // a producer is inside produce_page
    std::optional<Result<Page>> ready;  // one-slot read-ahead page

    std::uint64_t last_touch = 0;  // LRU clock value
};

QueryProvider::QueryProvider(margo::Engine& engine, rpc::ProviderId provider_id,
                             yokan::Provider& databases, Options options,
                             std::shared_ptr<abt::Pool> pool)
    : margo::Provider(engine, provider_id, std::move(pool)),
      databases_(databases),
      options_(options) {
    // Seed the cursor-id counter so ids from a previous incarnation of this
    // provider (server restart) do not collide with fresh ones — a stale
    // client must get NotFound and take its resume path, not someone else's
    // cursor.
    auto ticks = std::chrono::steady_clock::now().time_since_epoch().count();
    next_cursor_id_ = (static_cast<std::uint64_t>(ticks) ^
                       (static_cast<std::uint64_t>(provider_id) << 48)) |
                      1;
    register_rpcs();
}

QueryProvider::QueryProvider(margo::Engine& engine, rpc::ProviderId provider_id,
                             yokan::Provider& databases)
    : QueryProvider(engine, provider_id, databases, Options{}) {}

void QueryProvider::register_rpcs() {
    const rpc::ProviderId pid = id_;
    engine_.define<OpenReq, OpenResp>(
        "query_open", pid, [this](const OpenReq& req) { return handle_open(req); }, pool_);
    engine_.define<NextReq, Page>(
        "query_next", pid, [this](const NextReq& req) { return handle_next(req); }, pool_);
    engine_.define<CloseReq, CloseResp>(
        "query_close", pid, [this](const CloseReq& req) { return handle_close(req); }, pool_);
}

Result<OpenResp> QueryProvider::handle_open(const OpenReq& req) {
    yokan::Database* db = databases_.find_database(req.db);
    if (db == nullptr) {
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::NotFound("no database named '" + req.db + "'");
    }
    if (req.pin.seq > db->seq()) {
        // Same contract as yokan's RPC handlers: a pin from the future is a
        // malformed request, not a crash (the fuzz tests lean on this).
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument("snapshot seq " + std::to_string(req.pin.seq) +
                                       " is ahead of database '" + req.db + "'");
    }
    const ProductEvaluator* evaluator = evaluators_.find(req.spec.evaluator);
    if (evaluator == nullptr) {
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument("no evaluator named '" + req.spec.evaluator + "'");
    }
    if (Status st = req.spec.filter.validate(evaluator->num_fields()); !st.ok()) {
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return st;
    }
    if (req.spec.label.empty() || req.spec.type.empty()) {
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument("query spec needs a product label and type");
    }
    if (req.spec.id_field != proto::kRowOrdinal &&
        req.spec.id_field >= evaluator->num_fields()) {
        stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument("id_field out of range for evaluator '" +
                                       req.spec.evaluator + "'");
    }

    auto cursor = std::make_shared<Cursor>();
    cursor->db_name = req.db;
    cursor->db = db;
    cursor->evaluator = evaluator;
    cursor->spec = req.spec;
    cursor->suffix = hepnos::product_key("", req.spec.label, req.spec.type);
    cursor->prefix = req.prefix;
    // Pin the snapshot every page resolves through. An empty request pin
    // means "pin now" — the whole selection then observes one consistent
    // version even while ingest continues, and a re-open after cursor loss
    // carries this pin back so the resumed scan stays at the SAME snapshot.
    cursor->view = req.pin.pinned() ? req.pin.view() : db->snapshot_at(0);
    cursor->pos = req.resume_after;
    cursor->page_entries =
        std::min<std::uint64_t>(std::max<std::uint64_t>(req.page_entries, 1),
                                options_.max_page_entries);
    cursor->scan_chunk = std::min<std::uint64_t>(std::max<std::uint64_t>(req.scan_chunk, 1),
                                                 options_.max_scan_chunk);

    if (req.spec.write_selected) {
        if (req.spec.selected_label.empty() || req.spec.selected_type.empty()) {
            stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
            return Status::InvalidArgument("write_selected needs selected_label/selected_type");
        }
        cursor->selected_suffix =
            hepnos::product_key("", req.spec.selected_label, req.spec.selected_type);
        if (cursor->selected_suffix == cursor->suffix) {
            // Would mutate the very records being scanned.
            stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
            return Status::InvalidArgument(
                "selected product must differ from the scanned product");
        }
    }

    if (req.columnar != 0) {
        if (!options_.columnar) {
            stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
            return Status::Unimplemented(
                "columnar scans are not enabled on this provider (deploy with the "
                "\"columnar\" knob)");
        }
        cursor->columnar = true;
        cursor->meta_prefix = columnar::meta_scan_prefix(req.prefix);
        cursor->needed = req.spec.filter.referenced_members();
        stats_.columnar_queries.fetch_add(1, std::memory_order_relaxed);
        if (!req.resume_after.empty()) {
            // Phase-tagged resume key: 'C' + chunk position or 'B' + blob
            // position. Either way the covered set is re-derived from chunk
            // metadata so the blob phase skips exactly what chunks served.
            cursor->pos.clear();
            switch (req.resume_after[0]) {
                case 'C':
                    cursor->chunk_pos = req.resume_after.substr(1);
                    if (!cursor->chunk_pos.empty()) {
                        if (Status st = rebuild_coverage(*cursor, cursor->chunk_pos);
                            !st.ok())
                            return st;
                    }
                    break;
                case 'B':
                    cursor->phase = Cursor::Phase::kBlobs;
                    cursor->pos = req.resume_after.substr(1);
                    if (Status st = rebuild_coverage(*cursor, ""); !st.ok()) return st;
                    break;
                default:
                    stats_.queries_rejected.fetch_add(1, std::memory_order_relaxed);
                    return Status::InvalidArgument("malformed columnar resume key");
            }
        }
    }

    stats_.queries_opened.fetch_add(1, std::memory_order_relaxed);
    if (!req.resume_after.empty())
        stats_.cursors_resumed.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(cursors_mutex_);
    cursor->id = next_cursor_id_++;
    cursor->last_touch = ++touch_counter_;
    if (cursors_.size() >= options_.max_cursors) {
        // Evict the least-recently-used cursor; its client recovers by
        // re-opening with resume_after (the protocol is built for this).
        auto victim = cursors_.begin();
        for (auto it = cursors_.begin(); it != cursors_.end(); ++it) {
            if (it->second->last_touch < victim->second->last_touch) victim = it;
        }
        cursors_.erase(victim);
        stats_.cursors_evicted.fetch_add(1, std::memory_order_relaxed);
    }
    cursors_.emplace(cursor->id, cursor);
    return OpenResp{cursor->id,
                    yokan::proto::ReadPin{cursor->view.seq, cursor->view.epochs.floor,
                                          cursor->view.epochs.extras}};
}

std::shared_ptr<QueryProvider::Cursor> QueryProvider::find_cursor(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    auto it = cursors_.find(id);
    if (it == cursors_.end()) return nullptr;
    it->second->last_touch = ++touch_counter_;
    return it->second;
}

void QueryProvider::retire_cursor(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    cursors_.erase(id);
}

Result<Page> QueryProvider::handle_next(const NextReq& req) {
    std::shared_ptr<Cursor> c = find_cursor(req.cursor);
    if (!c || c->db_name != req.db) {
        return Status::NotFound("unknown cursor " + std::to_string(req.cursor) +
                                " (resume by re-opening with resume_after)");
    }

    Result<Page> page = Status::Internal("query page not produced");
    c->mutex.lock();
    while (c->busy && !c->ready) c->cv.wait(c->mutex);
    if (c->ready) {
        page = std::move(*c->ready);
        c->ready.reset();
        stats_.pages_prefetched.fetch_add(1, std::memory_order_relaxed);
    } else {
        c->busy = true;
        c->mutex.unlock();
        page = produce_page(*c);
        c->mutex.lock();
        c->busy = false;
    }
    const bool finished = !page.ok() || page->done;
    if (!finished && options_.prefetch && !c->busy && !c->ready) {
        c->busy = true;
        maybe_spawn_prefetch(c);
    }
    c->mutex.unlock();
    c->cv.notify_all();

    if (finished) retire_cursor(c->id);
    if (page.ok()) {
        stats_.pages_served.fetch_add(1, std::memory_order_relaxed);
        stats_.bytes_returned.fetch_add(serial::to_string(*page).size(),
                                        std::memory_order_relaxed);
    }
    return page;
}

void QueryProvider::maybe_spawn_prefetch(const std::shared_ptr<Cursor>& c) {
    // One-shot read-ahead: produce exactly one page, park it in the slot,
    // exit. The ULT never waits for a consumer, so it can always run to
    // completion — including during engine teardown.
    abt::Ult::create(pool_, [this, c] {
        Result<Page> page = produce_page(*c);
        c->mutex.lock();
        c->ready = std::move(page);
        c->busy = false;
        c->mutex.unlock();
        c->cv.notify_all();
    });
}

void QueryProvider::evaluate_blob_record(Cursor& c, std::string_view key,
                                         std::string_view value, Page& page,
                                         std::vector<yokan::BatchItem>& writebacks) {
    page.bytes_scanned += value.size();
    page.events_examined += 1;
    std::vector<std::uint32_t> accepted;
    std::uint64_t rows = 0;
    Status st = c.evaluator->for_each_row(value, [&](std::uint32_t row, const double* fields) {
        ++rows;
        if (c.spec.filter.matches(fields, c.evaluator->num_fields())) {
            accepted.push_back(c.spec.id_field == proto::kRowOrdinal
                                   ? row
                                   : static_cast<std::uint32_t>(fields[c.spec.id_field]));
        }
    });
    page.rows_examined += rows;
    if (!st.ok()) {
        // Undecodable record: skip it, count it, keep scanning — one corrupt
        // value must not wedge the whole query.
        stats_.events_corrupt.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (accepted.empty()) return;
    Entry entry;
    entry.run = decode_be64(key.substr(16, 8));
    entry.subrun = decode_be64(key.substr(24, 8));
    entry.event = decode_be64(key.substr(32, 8));
    entry.rows = accepted;
    stats_.events_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.rows_accepted.fetch_add(accepted.size(), std::memory_order_relaxed);
    if (c.spec.write_selected) {
        std::string wkey(key.substr(0, kEventKeyBytes));
        wkey += c.selected_suffix;
        writebacks.push_back(yokan::BatchItem{std::move(wkey), serial::to_buffer(accepted)});
    }
    page.entries.push_back(std::move(entry));
}

Status QueryProvider::apply_writebacks(const Cursor& c,
                                       std::vector<yokan::BatchItem>& writebacks) {
    if (writebacks.empty()) return Status::OK();
    // Mutations route through the replica group when one is configured,
    // like any other write the provider accepts.
    replica::ReplicaSet* rs = databases_.find_replica_set(c.db_name);
    for (auto& item : writebacks) {
        Status st = rs ? rs->put(item.key, std::move(item.value), /*overwrite=*/true)
                       : c.db->put_view(item.key, item.value.view(), /*overwrite=*/true);
        if (!st.ok()) return st;
    }
    stats_.writebacks.fetch_add(writebacks.size(), std::memory_order_relaxed);
    writebacks.clear();
    return Status::OK();
}

Result<Page> QueryProvider::produce_page(Cursor& c) {
    if (c.columnar) return produce_page_columnar(c);

    Page page;
    page.resume_key = c.pos;
    if (c.done) {
        page.done = true;
        return page;
    }

    // Write-backs buffered per chunk: both backends hold their reader lock
    // for the whole scan, so a put() from inside the scan callback would
    // deadlock. Applying between chunks keeps the scan lock-free of writers.
    std::vector<yokan::BatchItem> writebacks;

    while (page.entries.size() < c.page_entries && !c.done) {
        auto chunk = c.db->scan_chunk_at(
            c.pos, c.prefix, c.scan_chunk, /*with_values=*/true, c.view,
            [&](std::string_view key, std::string_view value) {
                stats_.keys_examined.fetch_add(1, std::memory_order_relaxed);
                if (key.size() != kEventKeyBytes + c.suffix.size() ||
                    !ends_with(key, c.suffix)) {
                    return true;  // not the product we scan for
                }
                evaluate_blob_record(c, key, value, page, writebacks);
                return true;
            });
        if (!chunk.ok()) return chunk.status();

        if (!chunk->last_key.empty()) c.pos = chunk->last_key;
        if (chunk->exhausted) c.done = true;

        if (Status st = apply_writebacks(c, writebacks); !st.ok()) return st;
    }

    page.resume_key = c.pos;
    page.done = c.done;
    stats_.events_examined.fetch_add(page.events_examined, std::memory_order_relaxed);
    stats_.rows_examined.fetch_add(page.rows_examined, std::memory_order_relaxed);
    stats_.bytes_scanned.fetch_add(page.bytes_scanned, std::memory_order_relaxed);
    return page;
}

Result<Page> QueryProvider::produce_page_columnar(Cursor& c) {
    Page page;
    auto resume = [&c] {
        return c.phase == Cursor::Phase::kChunks ? "C" + c.chunk_pos : "B" + c.pos;
    };
    page.resume_key = resume();
    if (c.done) {
        page.done = true;
        return page;
    }

    std::vector<yokan::BatchItem> writebacks;

    while (page.entries.size() < c.page_entries && !c.done) {
        if (c.phase == Cursor::Phase::kChunks) {
            // Collect @meta keys inside the (reader-locked) scan; fetch and
            // evaluate the chunks only after the scan returns — gets from
            // inside the callback would deadlock on the backend lock.
            std::vector<std::string> metas;
            auto chunk = c.db->scan_chunk_at(
                c.chunk_pos, c.meta_prefix, kMetaScanKeys, /*with_values=*/false, c.view,
                [&](std::string_view key, std::string_view) {
                    stats_.keys_examined.fetch_add(1, std::memory_order_relaxed);
                    std::string_view uuid;
                    std::uint64_t chunk_id = 0;
                    if (columnar::parse_meta_key(key, c.suffix, uuid, chunk_id)) {
                        metas.emplace_back(key);
                    }
                    return true;
                });
            if (!chunk.ok()) return chunk.status();
            // Honor the page cap per chunk: the resume position advances to
            // each processed @meta key, so a full page hands the remaining
            // metas of this scan to the next page (or the next cursor).
            bool page_full = false;
            for (const auto& meta_key : metas) {
                if (Status st = process_chunk(c, meta_key, page, writebacks); !st.ok())
                    return st;
                c.chunk_pos = meta_key;
                if (page.entries.size() >= c.page_entries) {
                    page_full = true;
                    break;
                }
            }
            if (!page_full) {
                if (!chunk->last_key.empty()) c.chunk_pos = chunk->last_key;
                if (chunk->exhausted) c.phase = Cursor::Phase::kBlobs;
            }
            if (Status st = apply_writebacks(c, writebacks); !st.ok()) return st;
        } else {
            // Blob phase: serve everything the chunks did not cover. With a
            // non-empty covered set the scan moves keys only and the few
            // uncovered events are point-read afterwards; with no chunks at
            // all this degenerates to exactly the blob pushdown scan.
            const bool inline_values = c.covered.empty();
            std::vector<std::string> uncovered;
            auto chunk = c.db->scan_chunk_at(
                c.pos, c.prefix, c.scan_chunk, /*with_values=*/inline_values, c.view,
                [&](std::string_view key, std::string_view value) {
                    stats_.keys_examined.fetch_add(1, std::memory_order_relaxed);
                    if (key.size() != kEventKeyBytes + c.suffix.size() ||
                        !ends_with(key, c.suffix)) {
                        return true;
                    }
                    if (inline_values) {
                        evaluate_blob_record(c, key, value, page, writebacks);
                    } else if (c.covered.find(key.substr(0, kEventKeyBytes)) ==
                               c.covered.end()) {
                        uncovered.emplace_back(key);
                    }
                    return true;
                });
            if (!chunk.ok()) return chunk.status();
            for (const auto& key : uncovered) {
                auto value = c.db->get_at(key, c.view);
                if (!value.ok()) {
                    if (value.status().code() == StatusCode::kNotFound) continue;
                    return value.status();
                }
                stats_.events_uncovered.fetch_add(1, std::memory_order_relaxed);
                evaluate_blob_record(c, key, *value, page, writebacks);
            }
            if (!chunk->last_key.empty()) c.pos = chunk->last_key;
            if (chunk->exhausted) c.done = true;
            if (Status st = apply_writebacks(c, writebacks); !st.ok()) return st;
        }
    }

    page.resume_key = resume();
    page.done = c.done;
    stats_.events_examined.fetch_add(page.events_examined, std::memory_order_relaxed);
    stats_.rows_examined.fetch_add(page.rows_examined, std::memory_order_relaxed);
    stats_.bytes_scanned.fetch_add(page.bytes_scanned, std::memory_order_relaxed);
    stats_.chunks_scanned.fetch_add(page.chunks_scanned, std::memory_order_relaxed);
    stats_.bytes_decompressed.fetch_add(page.bytes_decompressed, std::memory_order_relaxed);
    return page;
}

Status QueryProvider::process_chunk(Cursor& c, const std::string& meta_key, Page& page,
                                    std::vector<yokan::BatchItem>& writebacks) {
    std::string_view uuid;
    std::uint64_t chunk_id = 0;
    if (!columnar::parse_meta_key(meta_key, c.suffix, uuid, chunk_id)) return Status::OK();

    auto meta_value = c.db->get_at(meta_key, c.view);
    if (!meta_value.ok()) {
        // Deleted between scan and fetch: its events simply stay uncovered.
        if (meta_value.status().code() == StatusCode::kNotFound) return Status::OK();
        return meta_value.status();
    }
    page.bytes_scanned += meta_value->size();
    auto dm = columnar::decode_meta(*meta_value);
    if (!dm.ok()) {
        // Corrupt metadata: nothing gets covered, so the blob phase serves
        // this chunk's events from their blobs.
        stats_.chunks_corrupt.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
    }
    const std::size_t n = dm->runs.size();
    const std::uint64_t total_rows = dm->meta.total_rows;
    // Decoded event directory: 3 u64 coordinates + 1 u32 row count per event.
    page.bytes_decompressed += n * (3 * 8 + 4);

    // Coverage registration doubles as dedup: if two chunks carry the same
    // event (re-ingest), only the first to register serves it.
    std::vector<std::uint8_t> fresh(n, 0);
    std::vector<std::string> ckeys(n);
    std::size_t num_fresh = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ckeys[i] = container_key(uuid, dm->runs[i], dm->subruns[i], dm->events[i]);
        if (c.covered.insert(ckeys[i]).second) {
            fresh[i] = 1;
            ++num_fresh;
        }
    }
    if (num_fresh == 0) return Status::OK();

    const std::size_t num_fields = c.evaluator->num_fields();
    const auto& members = dm->meta.schema.members;
    bool usable = members.size() == num_fields && total_rows <= kMaxChunkRows;

    // Fetch + decompress + widen exactly one member column on demand.
    std::vector<std::string> raw(members.size());
    std::vector<std::vector<double>> widened(members.size());
    std::vector<const double*> cols(members.size(), nullptr);
    auto fetch_member = [&](std::uint32_t f) -> bool {
        if (f >= members.size()) return false;
        if (cols[f] != nullptr) return true;
        const auto& m = members[f];
        auto value = c.db->get_at(columnar::chunk_key(uuid, c.suffix, m.name, chunk_id), c.view);
        if (!value.ok()) return false;
        page.bytes_scanned += value->size();
        columnar::ColumnBlock block;
        try {
            serial::from_string(*value, block);
        } catch (const serial::SerializationError&) {
            return false;
        }
        const std::size_t width = columnar::width_of(m.type);
        if (block.count != total_rows || block.width != width) return false;
        raw[f].assign(total_rows * width, '\0');
        if (!columnar::decode_block(block, raw[f].data()).ok()) return false;
        page.bytes_decompressed += raw[f].size();
        widened[f].resize(total_rows);
        columnar::widen_to_doubles(m.type, raw[f], 0, total_rows, widened[f].data());
        cols[f] = widened[f].data();
        return true;
    };
    if (usable) {
        for (std::uint32_t f : c.needed) {
            if (!fetch_member(f)) {
                usable = false;
                break;
            }
        }
    }

    std::vector<std::uint8_t> accept;
    if (usable) {
        accept.resize(total_rows);
        c.spec.filter.matches_batch(cols.data(), num_fields, total_rows, accept.data(),
                                    c.scratch);
        // Lazy id column: only decompressed when some fresh event actually
        // accepted a row (and the filter did not already pull it in).
        if (c.spec.id_field != proto::kRowOrdinal && cols[c.spec.id_field] == nullptr) {
            bool any = false;
            for (std::size_t i = 0; i < n && !any; ++i) {
                if (!fresh[i]) continue;
                for (std::uint64_t r = dm->row_offsets[i]; r < dm->row_offsets[i + 1]; ++r) {
                    if (accept[r]) {
                        any = true;
                        break;
                    }
                }
            }
            if (any && !fetch_member(c.spec.id_field)) usable = false;
        }
    }

    if (!usable) {
        // Columns unusable (missing, corrupt, or schema/evaluator mismatch):
        // the chunk's fresh events are point-read from their blobs right here,
        // keeping the coverage invariant "covered == chunk meta was readable".
        stats_.chunk_fallbacks.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            if (!fresh[i]) continue;
            std::string key = ckeys[i] + c.suffix;
            auto value = c.db->get_at(key, c.view);
            if (!value.ok()) {
                if (value.status().code() == StatusCode::kNotFound) continue;
                return value.status();
            }
            stats_.events_uncovered.fetch_add(1, std::memory_order_relaxed);
            evaluate_blob_record(c, key, *value, page, writebacks);
        }
        return Status::OK();
    }

    const double* id_col =
        c.spec.id_field != proto::kRowOrdinal ? cols[c.spec.id_field] : nullptr;
    page.chunks_scanned += 1;
    stats_.events_covered.fetch_add(num_fresh, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        if (!fresh[i]) continue;
        const std::uint64_t begin = dm->row_offsets[i];
        const std::uint64_t end = dm->row_offsets[i + 1];
        page.events_examined += 1;
        page.rows_examined += end - begin;
        std::vector<std::uint32_t> accepted;
        for (std::uint64_t r = begin; r < end; ++r) {
            if (!accept[r]) continue;
            accepted.push_back(id_col != nullptr
                                   ? static_cast<std::uint32_t>(id_col[r])
                                   : static_cast<std::uint32_t>(r - begin));
        }
        if (accepted.empty()) continue;
        Entry entry;
        entry.run = dm->runs[i];
        entry.subrun = dm->subruns[i];
        entry.event = dm->events[i];
        entry.rows = accepted;
        stats_.events_accepted.fetch_add(1, std::memory_order_relaxed);
        stats_.rows_accepted.fetch_add(accepted.size(), std::memory_order_relaxed);
        if (c.spec.write_selected) {
            writebacks.push_back(
                yokan::BatchItem{ckeys[i] + c.selected_suffix, serial::to_buffer(accepted)});
        }
        page.entries.push_back(std::move(entry));
    }
    return Status::OK();
}

Status QueryProvider::rebuild_coverage(Cursor& c, std::string_view upto) {
    std::string pos;
    bool done = false;
    while (!done) {
        std::vector<std::string> metas;
        bool past_upto = false;
        auto chunk = c.db->scan_chunk_at(
            pos, c.meta_prefix, kMetaScanKeys, /*with_values=*/false, c.view,
            [&](std::string_view key, std::string_view) {
                if (!upto.empty() && key > upto) {
                    past_upto = true;
                    return false;
                }
                std::string_view uuid;
                std::uint64_t chunk_id = 0;
                if (columnar::parse_meta_key(key, c.suffix, uuid, chunk_id)) {
                    metas.emplace_back(key);
                }
                return true;
            });
        if (!chunk.ok()) return chunk.status();
        for (const auto& meta_key : metas) {
            std::string_view uuid;
            std::uint64_t chunk_id = 0;
            columnar::parse_meta_key(meta_key, c.suffix, uuid, chunk_id);
            auto value = c.db->get_at(meta_key, c.view);
            if (!value.ok()) {
                if (value.status().code() == StatusCode::kNotFound) continue;
                return value.status();
            }
            auto dm = columnar::decode_meta(*value);
            if (!dm.ok()) continue;  // corrupt meta never covered anything
            for (std::size_t i = 0; i < dm->runs.size(); ++i) {
                c.covered.insert(
                    container_key(uuid, dm->runs[i], dm->subruns[i], dm->events[i]));
            }
        }
        done = chunk->exhausted || past_upto || chunk->last_key.empty();
        pos = chunk->last_key;
    }
    return Status::OK();
}

Result<CloseResp> QueryProvider::handle_close(const CloseReq& req) {
    std::shared_ptr<Cursor> c = find_cursor(req.cursor);
    if (c && c->db_name == req.db) retire_cursor(req.cursor);
    return CloseResp{};  // closing an unknown cursor is fine (already retired)
}

std::size_t QueryProvider::cursor_count() const {
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    return cursors_.size();
}

std::size_t QueryProvider::drop_cursors() {
    std::lock_guard<std::mutex> lock(cursors_mutex_);
    std::size_t n = cursors_.size();
    cursors_.clear();
    return n;
}

json::Value QueryProvider::stats_json() const {
    json::Value v = json::Value::make_object();
    auto get = [](const std::atomic<std::uint64_t>& a) {
        return static_cast<std::int64_t>(a.load(std::memory_order_relaxed));
    };
    v["queries_opened"] = get(stats_.queries_opened);
    v["queries_rejected"] = get(stats_.queries_rejected);
    v["cursors_resumed"] = get(stats_.cursors_resumed);
    v["cursors_evicted"] = get(stats_.cursors_evicted);
    v["cursors_live"] = static_cast<std::int64_t>(cursor_count());
    v["pages_served"] = get(stats_.pages_served);
    v["pages_prefetched"] = get(stats_.pages_prefetched);
    v["keys_examined"] = get(stats_.keys_examined);
    v["events_examined"] = get(stats_.events_examined);
    v["events_corrupt"] = get(stats_.events_corrupt);
    v["rows_examined"] = get(stats_.rows_examined);
    v["events_accepted"] = get(stats_.events_accepted);
    v["rows_accepted"] = get(stats_.rows_accepted);
    v["bytes_scanned"] = get(stats_.bytes_scanned);
    v["bytes_returned"] = get(stats_.bytes_returned);
    v["writebacks"] = get(stats_.writebacks);
    v["columnar_queries"] = get(stats_.columnar_queries);
    v["chunks_scanned"] = get(stats_.chunks_scanned);
    v["chunks_corrupt"] = get(stats_.chunks_corrupt);
    v["chunk_fallbacks"] = get(stats_.chunk_fallbacks);
    v["bytes_decompressed"] = get(stats_.bytes_decompressed);
    v["events_covered"] = get(stats_.events_covered);
    v["events_uncovered"] = get(stats_.events_uncovered);
    return v;
}

}  // namespace hep::query
