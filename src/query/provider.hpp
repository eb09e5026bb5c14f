// QueryProvider: near-data selection pushdown (the "move the predicate, not
// the data" optimization the object-store literature prescribes for HEP).
//
// One QueryProvider is co-located with each Yokan provider (same provider id,
// same argolite pool, distinct RPC names) and evaluates serialized
// FilterPrograms directly against the provider's LOCAL backends: a scan walks
// a products database in bounded chunks (Database::scan_chunk), decodes each
// matching product with the registered evaluator, runs the filter per row,
// and streams back only the accepted (event id, row ids) pairs through the
// cursor protocol in query/protocol.hpp. Optionally the accepted row indices
// are written straight back as a product ("selected") — placement co-locates
// every product of an event, so the write-back never leaves the server.
//
// Scans run as ULTs in the provider's pool twice over: the query_next handler
// itself is a pool ULT, and after serving a page the provider spawns a
// read-ahead ULT that produces the next page while the current one travels,
// so the network transfer and the backend scan pipeline. Read-ahead ULTs
// produce exactly one page and exit — they never block on the consumer, so
// engine teardown can always drain them.
//
// Replica interaction: scans run on primaries only (the client resolves the
// primary before opening a cursor); write-backs go through the database's
// ReplicaSet when one is configured, like any other mutation.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "margo/engine.hpp"
#include "query/evaluator.hpp"
#include "query/protocol.hpp"
#include "yokan/provider.hpp"

namespace hep::query {

/// Scan/pushdown counters; snapshot exposed through symbio as "query/<id>".
struct QueryStats {
    std::atomic<std::uint64_t> queries_opened{0};
    std::atomic<std::uint64_t> queries_rejected{0};   // malformed specs/filters
    std::atomic<std::uint64_t> cursors_resumed{0};    // opens with resume_after
    std::atomic<std::uint64_t> pages_served{0};
    std::atomic<std::uint64_t> pages_prefetched{0};   // served from read-ahead
    std::atomic<std::uint64_t> keys_examined{0};
    std::atomic<std::uint64_t> events_examined{0};    // products decoded
    std::atomic<std::uint64_t> events_corrupt{0};     // undecodable, skipped
    std::atomic<std::uint64_t> rows_examined{0};      // slices filtered
    std::atomic<std::uint64_t> events_accepted{0};
    std::atomic<std::uint64_t> rows_accepted{0};
    std::atomic<std::uint64_t> bytes_scanned{0};      // product bytes examined
                                                      // (= bytes a client-side
                                                      // selection would move)
    std::atomic<std::uint64_t> bytes_returned{0};     // serialized page bytes
    std::atomic<std::uint64_t> writebacks{0};
    std::atomic<std::uint64_t> cursors_evicted{0};
    // Columnar (vectorized) scan path:
    std::atomic<std::uint64_t> columnar_queries{0};   // columnar cursors opened
    std::atomic<std::uint64_t> chunks_scanned{0};     // chunks evaluated vectorized
    std::atomic<std::uint64_t> chunks_corrupt{0};     // undecodable meta, skipped
    std::atomic<std::uint64_t> chunk_fallbacks{0};    // chunks whose events fell
                                                      // back to blob point reads
    std::atomic<std::uint64_t> bytes_decompressed{0}; // raw column bytes widened
    std::atomic<std::uint64_t> events_covered{0};     // events served from chunks
    std::atomic<std::uint64_t> events_uncovered{0};   // blob fallback events
};

class QueryProvider final : public margo::Provider {
  public:
    struct Options {
        std::uint64_t max_cursors = 1024;        // LRU-evicted beyond this
        std::uint64_t max_page_entries = 65536;  // clamp on OpenReq::page_entries
        std::uint64_t max_scan_chunk = 65536;    // clamp on OpenReq::scan_chunk
        bool prefetch = true;                    // read-ahead ULTs
        bool columnar = false;                   // serve columnar (vectorized)
                                                 // scans; off = Unimplemented
    };

    /// Register the query RPCs under `databases`' provider id. `pool`
    /// defaults to the engine pool; pass the Yokan provider's pool to
    /// co-schedule scans with its handlers (what bedrock does).
    QueryProvider(margo::Engine& engine, rpc::ProviderId provider_id,
                  yokan::Provider& databases, Options options,
                  std::shared_ptr<abt::Pool> pool = nullptr);
    QueryProvider(margo::Engine& engine, rpc::ProviderId provider_id,
                  yokan::Provider& databases);

    [[nodiscard]] const QueryStats& stats() const noexcept { return stats_; }
    [[nodiscard]] json::Value stats_json() const;

    /// Number of live cursors (diagnostics/tests).
    [[nodiscard]] std::size_t cursor_count() const;

    /// Drop every live cursor — simulates cursor-table loss (restart,
    /// eviction) so tests can exercise the client's resume path.
    std::size_t drop_cursors();

  private:
    struct Cursor;

    void register_rpcs();
    Result<proto::OpenResp> handle_open(const proto::OpenReq& req);
    Result<proto::Page> handle_next(const proto::NextReq& req);
    Result<proto::CloseResp> handle_close(const proto::CloseReq& req);

    /// Run the chunked scan until one page is full (or the key space ends),
    /// applying write-backs between chunks. Caller holds the cursor's mutex.
    Result<proto::Page> produce_page(Cursor& c);
    /// Columnar variant: vectorized chunk phase, then blob fallback phase.
    Result<proto::Page> produce_page_columnar(Cursor& c);
    /// Fetch, decode and evaluate one column chunk, appending accepted
    /// entries; falls back to blob point reads when columns are unusable.
    Status process_chunk(Cursor& c, const std::string& meta_key, proto::Page& page,
                         std::vector<yokan::BatchItem>& writebacks);
    /// Decode one blob product record and append its entry if rows pass.
    void evaluate_blob_record(Cursor& c, std::string_view key, std::string_view value,
                              proto::Page& page, std::vector<yokan::BatchItem>& writebacks);
    /// Store buffered write-backs (through the replica group when the
    /// database has one) and clear the buffer.
    Status apply_writebacks(const Cursor& c, std::vector<yokan::BatchItem>& writebacks);
    /// Re-derive the covered-event set from chunk metadata at open time —
    /// what makes columnar cursors as disposable as blob ones. `upto` bounds
    /// the rebuild for resumes that land mid-chunk-phase ("" = all chunks).
    Status rebuild_coverage(Cursor& c, std::string_view upto);
    void maybe_spawn_prefetch(const std::shared_ptr<Cursor>& c);

    std::shared_ptr<Cursor> find_cursor(std::uint64_t id);
    void retire_cursor(std::uint64_t id);

    yokan::Provider& databases_;
    Options options_;
    EvaluatorRegistry evaluators_ = EvaluatorRegistry::with_builtins();
    QueryStats stats_;

    mutable std::mutex cursors_mutex_;  // guards the table shape only
    std::map<std::uint64_t, std::shared_ptr<Cursor>> cursors_;
    std::uint64_t next_cursor_id_ = 1;
    std::uint64_t touch_counter_ = 0;  // LRU clock
};

}  // namespace hep::query
