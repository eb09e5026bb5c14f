// Tests for the columnar layout (src/columnar) and the vectorized,
// column-pruned pushdown scan built on it: shred/reassemble bit-identity,
// chunk-key structure, corrupt-block rejection, column pruning, batch-vs-row
// filter agreement (NaN included), and service-level cross-checks — columnar
// scans accept exactly the blob scan's events on map and lsm backends, over
// mixed blob+columnar datasets, across cursor loss at chunk boundaries, and
// through the client read cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "columnar/chunk.hpp"
#include "columnar/schema.hpp"
#include "dataloader/loader.hpp"
#include "hepnos/query.hpp"
#include "query/client.hpp"
#include "query/evaluator.hpp"
#include "query/provider.hpp"
#include "scratch_dir.hpp"
#include "serial/archive.hpp"
#include "test_service.hpp"
#include "workflow/hepnos_app.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::workflow;

nova::Slice random_slice(std::uint64_t& state) {
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };
    nova::Slice s;
    s.index = next() % 16;
    s.nhits = next() % 80;
    s.cal_e = static_cast<float>(next() % 6000) / 1000.0f;
    s.vtx_x = static_cast<float>(next() % 1000) - 500.0f;
    s.vtx_y = static_cast<float>(next() % 1000) - 500.0f;
    s.vtx_z = static_cast<float>(next() % 1700);
    s.track_len = static_cast<float>(next() % 500);
    s.epi0_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.muon_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.cosmic_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.time_ns = static_cast<float>(next() % 10000);
    s.contained = static_cast<std::uint8_t>(next() % 2);
    return s;
}

std::string slices_type() {
    return std::string(hepnos::product_type_name<std::vector<nova::Slice>>());
}

std::uint64_t total_product_gets(test_util::TestService& service) {
    std::uint64_t gets = 0;
    for (auto& server : service.servers) {
        auto* provider = server->find_provider(1);
        for (const auto& name : provider->database_names()) {
            if (name.rfind("products", 0) == 0) {
                gets += provider->find_database(name)->stats().gets;
            }
        }
    }
    return gets;
}

std::vector<std::uint64_t> packed_ids(const std::vector<query::proto::Entry>& entries) {
    std::vector<std::uint64_t> ids;
    for (const auto& e : entries) {
        for (std::uint32_t row : e.rows) {
            ids.push_back(nova::SliceId{e.run, e.subrun, e.event, row}.packed());
        }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

/// Cuts that accept roughly every other slice (only containment is required):
/// small test datasets still yield plenty of accepted entries.
nova::SelectionCuts loose_cuts() {
    nova::SelectionCuts cuts;
    cuts.min_nhits = 0;
    cuts.min_cal_e = 0.0f;
    cuts.max_cal_e = 1e9f;
    cuts.min_epi0_score = 0.0f;
    cuts.max_muon_score = 1.0f;
    cuts.max_cosmic_score = 1.0f;
    return cuts;
}

json::Value columnar_knob(std::uint64_t chunk_rows, std::uint64_t min_batch) {
    json::Value v = json::Value::make_object();
    v["enabled"] = true;
    v["chunk_rows"] = chunk_rows;
    v["min_batch"] = min_batch;
    return v;
}

/// The same service connection with the "columnar" advertisement removed:
/// a client of it neither shreds on write nor upgrades queries to columnar.
json::Value blob_connection(const json::Value& connection) {
    json::Value conn = connection;
    conn["columnar"] = json::Value();
    return conn;
}

// ------------------------------------------------------------ codec (unit)

std::vector<columnar::EventBlob> make_batch(const std::vector<std::string>& blobs,
                                            std::uint64_t run_base) {
    std::vector<columnar::EventBlob> batch;
    for (std::size_t i = 0; i < blobs.size(); ++i) {
        batch.push_back({run_base, i / 7 + 1, i, blobs[i]});
    }
    return batch;
}

TEST(ColumnarShredTest, ShredReassembleIsBitIdentical) {
    const auto schema = columnar::nova_slice_schema();
    ASSERT_TRUE(schema.validate().ok());
    ASSERT_EQ(schema.members.size(), static_cast<std::size_t>(nova::kNumSliceFields));

    std::uint64_t state = 7;
    std::vector<std::string> blobs;
    for (int e = 0; e < 50; ++e) {
        std::vector<nova::Slice> slices;
        for (int i = 0; i < e % 9; ++i) slices.push_back(random_slice(state));
        blobs.push_back(serial::to_string(slices));
    }
    auto batch = make_batch(blobs, 3);

    for (auto mode : {columnar::CompressionMode::kAuto, columnar::CompressionMode::kRaw,
                      columnar::CompressionMode::kVarint, columnar::CompressionMode::kDelta}) {
        auto shredded = columnar::shred(schema, batch, mode);
        ASSERT_TRUE(shredded.ok()) << shredded.status().to_string();
        EXPECT_EQ(shredded->meta.num_events, blobs.size());
        EXPECT_EQ(shredded->columns.size(), schema.members.size());

        // Decode everything back the way the scan does: meta through its
        // serialized form, member columns through decode_block.
        auto meta = columnar::decode_meta(serial::to_string(shredded->meta));
        ASSERT_TRUE(meta.ok()) << meta.status().to_string();
        columnar::RawColumns raw(schema.members.size());
        for (std::size_t f = 0; f < schema.members.size(); ++f) {
            const auto& [name, block] = shredded->columns[f];
            EXPECT_EQ(name, schema.members[f].name);
            raw[f].resize(block.count * width_of(schema.members[f].type));
            ASSERT_TRUE(columnar::decode_block(block, raw[f].data()).ok());
        }
        for (std::size_t e = 0; e < blobs.size(); ++e) {
            auto back = columnar::reassemble_event(*meta, raw, e);
            ASSERT_TRUE(back.ok()) << back.status().to_string();
            EXPECT_EQ(*back, blobs[e]) << "event " << e;  // byte-for-byte
        }
    }
}

TEST(ColumnarShredTest, NonParsingBlobsAreRejectedNotShredded) {
    const auto schema = columnar::nova_slice_schema();
    std::uint64_t state = 11;
    std::vector<nova::Slice> slices{random_slice(state), random_slice(state)};
    const std::string good = serial::to_string(slices);

    // Truncated payload, trailing garbage, and an absurd row count must all
    // be refused — those events stay blob-only.
    const std::string bads[] = {good.substr(0, good.size() - 3), good + "x",
                                std::string("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 8)};
    for (const std::string& bad : bads) {
        auto res = columnar::shred(schema, make_batch({good, bad}, 1),
                                   columnar::CompressionMode::kAuto);
        EXPECT_FALSE(res.ok());
    }
}

TEST(ColumnarShredTest, CorruptBlocksNeverDecodeSilently) {
    std::uint64_t vals[16];
    for (int i = 0; i < 16; ++i) vals[i] = 1000u + static_cast<std::uint64_t>(i) * 3;
    auto block = columnar::encode_block(vals, 16, 8, columnar::CompressionMode::kDelta);
    std::uint64_t out[16];
    ASSERT_TRUE(columnar::decode_block(block, out).ok());
    EXPECT_TRUE(std::equal(vals, vals + 16, out));

    // Flip one payload byte: the checksum (or the codec) must catch it.
    for (std::size_t i = 0; i < block.payload.size(); ++i) {
        auto bad = block;
        bad.payload[i] = static_cast<char>(bad.payload[i] ^ 0x41);
        EXPECT_FALSE(columnar::decode_block(bad, out).ok()) << "byte " << i;
    }
    auto bad_sum = block;
    bad_sum.checksum ^= 1;
    EXPECT_FALSE(columnar::decode_block(bad_sum, out).ok());
    auto bad_codec = block;
    bad_codec.codec = 9;
    EXPECT_FALSE(columnar::decode_block(bad_codec, out).ok());
    auto bad_width = block;
    bad_width.width = 3;
    EXPECT_FALSE(columnar::decode_block(bad_width, out).ok());
}

TEST(ColumnarShredTest, ChunkKeysParseBackAndPrefixCoversMetas) {
    const std::string uuid(16, '\x42');
    const std::string suffix = "slices#foo";
    const std::string meta =
        columnar::chunk_key(uuid, suffix, columnar::kMetaMember, 5);
    const std::string member = columnar::chunk_key(uuid, suffix, "nhits", 5);
    EXPECT_NE(meta, member);
    EXPECT_EQ(meta.rfind(columnar::meta_scan_prefix(uuid), 0), 0u);
    EXPECT_EQ(member.rfind(columnar::meta_scan_prefix(uuid), 0), 0u);

    std::string_view got_uuid;
    std::uint64_t chunk_id = 0;
    EXPECT_TRUE(columnar::parse_meta_key(meta, suffix, got_uuid, chunk_id));
    EXPECT_EQ(got_uuid, uuid);
    EXPECT_EQ(chunk_id, 5u);
    // Member columns and foreign products are structurally rejected.
    EXPECT_FALSE(columnar::parse_meta_key(member, suffix, got_uuid, chunk_id));
    EXPECT_FALSE(columnar::parse_meta_key(meta, "other#bar", got_uuid, chunk_id));
    EXPECT_FALSE(columnar::parse_meta_key(meta.substr(0, meta.size() - 2), suffix,
                                          got_uuid, chunk_id));
    EXPECT_FALSE(columnar::parse_meta_key("x" + meta, suffix, got_uuid, chunk_id));
}

// ----------------------------------------------- pruning + batch filter (unit)

TEST(ColumnarFilterTest, NovaCutsReferenceExactlyTheCutMembers) {
    auto program = query::nova_cuts_program(nova::SelectionCuts{});
    const std::vector<std::uint32_t> expected{
        nova::kFieldNhits,      nova::kFieldCalE,        nova::kFieldEpi0Score,
        nova::kFieldMuonScore,  nova::kFieldCosmicScore, nova::kFieldContained};
    EXPECT_EQ(program.referenced_members(), expected);
    // 6 of 12 members: the pruned scan decompresses half the columns.
    EXPECT_EQ(expected.size(), 6u);

    query::FilterProgram empty;
    EXPECT_TRUE(empty.referenced_members().empty());
    query::FilterProgram dup;
    dup.compare(3, query::FilterOp::kLt, 1.0)
        .compare(3, query::FilterOp::kGt, 0.0)
        .op(query::FilterOp::kAnd);
    EXPECT_EQ(dup.referenced_members(), (std::vector<std::uint32_t>{3}));
}

TEST(ColumnarFilterTest, MatchesBatchAgreesWithMatchesIncludingNaN) {
    auto program = query::nova_cuts_program(nova::SelectionCuts{});
    ASSERT_TRUE(program.validate(nova::kNumSliceFields).ok());

    const std::size_t nrows = 4096;
    std::vector<std::vector<double>> columns(nova::kNumSliceFields,
                                             std::vector<double>(nrows));
    std::vector<nova::Slice> rows;
    std::uint64_t state = 99;
    for (std::size_t r = 0; r < nrows; ++r) {
        nova::Slice s = random_slice(state);
        // Sprinkle NaNs through the float cuts: batch evaluation must keep
        // the exact IEEE semantics of the row interpreter.
        if (r % 5 == 0) s.cal_e = std::nanf("");
        if (r % 7 == 0) s.epi0_score = std::nanf("");
        if (r % 11 == 0) s.cosmic_score = std::nanf("");
        double fields[nova::kNumSliceFields];
        nova::slice_fields(s, fields);
        for (std::size_t f = 0; f < nova::kNumSliceFields; ++f) {
            columns[f][r] = fields[f];
        }
        rows.push_back(s);
    }
    std::vector<const double*> ptrs;
    for (auto& col : columns) ptrs.push_back(col.data());
    // Unreferenced columns may legally be absent.
    for (std::uint32_t f : {nova::kFieldVtxX, nova::kFieldTimeNs}) ptrs[f] = nullptr;

    std::vector<std::uint8_t> accept(nrows, 2);
    std::vector<double> scratch;
    program.matches_batch(ptrs.data(), nova::kNumSliceFields, nrows, accept.data(),
                          scratch);
    std::size_t accepted = 0;
    for (std::size_t r = 0; r < nrows; ++r) {
        double fields[nova::kNumSliceFields];
        nova::slice_fields(rows[r], fields);
        const bool row_verdict = program.matches(fields, nova::kNumSliceFields);
        ASSERT_LE(accept[r], 1) << "bitmap must be 0/1";
        EXPECT_EQ(accept[r] != 0, row_verdict) << "row " << r;
        accepted += accept[r];
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, nrows);
}

// ------------------------------------------------------------- service level

TEST(ColumnarServiceTest, ColumnarScanMatchesBlobScanBitForBit) {
    nova::Generator gen({.num_files = 8, .events_per_file = 40, .file_size_jitter = 0.3});
    test_util::TestServiceOptions opts{.num_servers = 2, .query_pushdown = true};
    opts.monitoring = true;
    opts.columnar = columnar_knob(32, 4);
    test_util::TestService service(opts);

    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/col", 512);
    });
    // Ingest through the advertised knob actually shredded chunks.
    const auto& wc = *store.impl()->columnar_counters();
    EXPECT_GT(wc.chunks_written.load(), 0u);
    EXPECT_GT(wc.events_shredded.load(), 0u);
    EXPECT_GT(wc.bytes_raw.load(), wc.bytes_compressed.load());

    auto blob_store =
        hepnos::DataStore::connect(service.network, blob_connection(service.connection));
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());

    auto columnar_res = hepnos::run_query(store, store["nova/col"], spec);
    ASSERT_TRUE(columnar_res.ok()) << columnar_res.status().to_string();
    auto blob_res = hepnos::run_query(blob_store, blob_store["nova/col"], spec);
    ASSERT_TRUE(blob_res.ok()) << blob_res.status().to_string();

    // Same accepted (event, row) set, bit for bit.
    EXPECT_EQ(packed_ids(columnar_res->entries()), packed_ids(blob_res->entries()));
    EXPECT_FALSE(columnar_res->entries().empty());

    // The columnar run really ran on chunks and decompressed less than the
    // blob run scanned.
    const auto& cs = columnar_res->stats();
    const auto& bs = blob_res->stats();
    EXPECT_GT(cs.chunks_scanned, 0u);
    EXPECT_GT(cs.bytes_decompressed, 0u);
    EXPECT_EQ(cs.columnar_fallbacks, 0u);
    EXPECT_EQ(bs.chunks_scanned, 0u);
    EXPECT_EQ(bs.bytes_decompressed, 0u);
    EXPECT_LT(cs.bytes_decompressed, bs.bytes_scanned);

    // And the PEP (client-side) selection agrees with both.
    HepnosAppOptions pep_opts;
    pep_opts.num_ranks = 2;
    auto pep = run_hepnos_selection(store, "nova/col", pep_opts);
    EXPECT_EQ(packed_ids(columnar_res->entries()), pep.accepted_ids);

    // Server-side counters are visible through symbio.
    auto snapshot = service.servers.at(0)->metrics()->snapshot();
    const json::Value& src = snapshot["sources"]["query/1"];
    ASSERT_TRUE(src.is_object());
    EXPECT_GE(src["columnar_queries"].as_int(), 1);
    EXPECT_GE(src["chunks_scanned"].as_int(), 1);
    EXPECT_GE(src["events_covered"].as_int(), 1);
}

TEST(ColumnarServiceTest, MixedBlobAndColumnarDatasetScansIdentically) {
    test_util::TestServiceOptions opts{.num_servers = 1, .dbs_per_role = 1,
                                       .query_pushdown = true};
    opts.monitoring = true;
    opts.columnar = columnar_knob(16, 4);
    test_util::TestService service(opts);
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    auto blob_store =
        hepnos::DataStore::connect(service.network, blob_connection(service.connection));

    std::uint64_t state = 1234;
    auto make_slices = [&](std::size_t n) {
        std::vector<nova::Slice> slices;
        for (std::size_t i = 0; i < n; ++i) {
            auto s = random_slice(state);
            s.index = static_cast<std::uint32_t>(i);
            slices.push_back(s);
        }
        return slices;
    };

    // Run 1: written through the columnar client's batch — chunked (with a
    // tail below min_batch that stays blob-only).
    {
        hepnos::WriteBatch batch(store.impl());
        auto run = store.createDataSet("nova/mixed").createRun(1);
        auto sr = run.createSubRun(1);
        for (std::uint64_t e = 0; e < 50; ++e) {
            sr.createEvent(e).store(nova::kSliceLabel, make_slices(1 + e % 6), &batch);
        }
        batch.flush();
    }
    // Run 2: written by a blob-only client — never chunked.
    {
        auto sr = blob_store["nova/mixed"].createRun(2).createSubRun(1);
        for (std::uint64_t e = 0; e < 20; ++e) {
            sr.createEvent(e).store(nova::kSliceLabel, make_slices(2 + e % 5));
        }
    }
    // Run 3: columnar client, but direct stores (no batch) — also blob-only.
    {
        auto sr = store["nova/mixed"].createRun(3).createSubRun(1);
        for (std::uint64_t e = 0; e < 5; ++e) {
            sr.createEvent(e).store(nova::kSliceLabel, make_slices(3));
        }
    }

    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto columnar_res = hepnos::run_query(store, store["nova/mixed"], spec);
    ASSERT_TRUE(columnar_res.ok()) << columnar_res.status().to_string();
    auto blob_res = hepnos::run_query(blob_store, blob_store["nova/mixed"], spec);
    ASSERT_TRUE(blob_res.ok()) << blob_res.status().to_string();

    EXPECT_EQ(packed_ids(columnar_res->entries()), packed_ids(blob_res->entries()));
    EXPECT_FALSE(columnar_res->entries().empty());
    EXPECT_GT(columnar_res->stats().chunks_scanned, 0u);

    // The provider served SOME events from chunks and the rest from blobs.
    auto snapshot = service.servers.at(0)->metrics()->snapshot();
    const json::Value& src = snapshot["sources"]["query/1"];
    EXPECT_GE(src["events_covered"].as_int(), 1);
    EXPECT_GE(src["events_uncovered"].as_int(), 1);
}

TEST(ColumnarServiceTest, CursorLossAtChunkBoundariesLosesNothing) {
    nova::Generator gen({.num_files = 4, .events_per_file = 24});
    test_util::TestServiceOptions opts{.num_servers = 1, .dbs_per_role = 1,
                                       .query_pushdown = true};
    opts.columnar = columnar_knob(8, 2);  // many small chunks -> many boundaries
    test_util::TestService service(opts);
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/ccur", 512);
    });
    // One extra blob-only event so the scan has a real blob phase too.
    store["nova/ccur"].createRun(999).createSubRun(1).createEvent(1).store(
        nova::kSliceLabel,
        std::vector<nova::Slice>{nova::Slice{.nhits = 30, .cal_e = 2.0f, .contained = 1}});

    hepnos::DataSet ds = store["nova/ccur"];
    auto spec = query::nova_selection_spec(loose_cuts(), slices_type());
    const auto& db = store.impl()->databases(hepnos::Role::kProducts).at(0);
    auto* qp = service.servers.at(0)->find_query_provider(db.provider());
    ASSERT_NE(qp, nullptr);

    // Uninterrupted columnar reference run (and its blob twin).
    query::QueryOptions qopts;
    qopts.page_entries = 1;  // one accepted entry per page -> many pages
    qopts.scan_chunk = 4;
    qopts.columnar = true;
    std::vector<query::proto::Entry> expected;
    query::ClientStats ref_stats;
    ASSERT_TRUE(query::QueryClient(store.impl()->engine(), db)
                    .run(spec, ds.uuid().bytes(), expected, ref_stats, qopts)
                    .ok());
    ASSERT_GT(ref_stats.pages, 3u);
    ASSERT_GT(ref_stats.chunks_scanned, 1u);

    query::QueryOptions blob_opts = qopts;
    blob_opts.columnar = false;
    std::vector<query::proto::Entry> blob_entries;
    query::ClientStats blob_stats;
    ASSERT_TRUE(query::QueryClient(store.impl()->engine(), db)
                    .run(spec, ds.uuid().bytes(), blob_entries, blob_stats, blob_opts)
                    .ok());
    EXPECT_EQ(packed_ids(expected), packed_ids(blob_entries));

    // Drive the protocol manually, killing every server cursor between pages;
    // each re-open resumes from the phase-tagged key.
    auto& engine = store.impl()->engine();
    std::vector<query::proto::Entry> collected;
    std::string resume;
    bool done = false;
    bool saw_chunk_phase = false, saw_blob_phase = false;
    std::size_t drops = 0;
    while (!done) {
        query::proto::OpenReq open;
        open.db = db.name();
        open.prefix = std::string(ds.uuid().bytes());
        open.resume_after = resume;
        open.spec = spec;
        open.page_entries = 1;
        open.scan_chunk = 4;
        open.columnar = 1;
        auto opened = engine.forward<query::proto::OpenReq, query::proto::OpenResp>(
            db.server(), "query_open", db.provider(), open);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        auto page = engine.forward<query::proto::NextReq, query::proto::Page>(
            db.server(), "query_next", db.provider(),
            query::proto::NextReq{db.name(), opened->cursor});
        ASSERT_TRUE(page.ok()) << page.status().to_string();
        for (auto& e : page->entries) collected.push_back(std::move(e));
        resume = page->resume_key;
        done = page->done;
        if (!resume.empty()) {
            saw_chunk_phase |= resume.front() == 'C';
            saw_blob_phase |= resume.front() == 'B';
        }
        drops += qp->drop_cursors();
    }
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(collected, expected);  // same entries in the same order
    EXPECT_TRUE(saw_chunk_phase);
    EXPECT_TRUE(saw_blob_phase);

    // A malformed columnar resume key is rejected, not crashed on.
    query::proto::OpenReq bad;
    bad.db = db.name();
    bad.prefix = std::string(ds.uuid().bytes());
    bad.resume_after = "Znonsense";
    bad.spec = spec;
    bad.columnar = 1;
    auto rejected = engine.forward<query::proto::OpenReq, query::proto::OpenResp>(
        db.server(), "query_open", db.provider(), bad);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ColumnarServiceTest, MatchesBlobOnLsmBackend) {
    nova::Generator gen({.num_files = 4, .events_per_file = 15});
    const auto dir = test_util::scratch_path("columnar_lsm");
    fs::remove_all(dir);
    fs::create_directories(dir);
    test_util::TestServiceOptions opts{.num_servers = 1, .backend = "lsm",
                                       .base_dir = dir.string(), .query_pushdown = true};
    opts.columnar = columnar_knob(16, 4);
    test_util::TestService service(opts);
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/clsm", 128);
    });

    auto blob_store =
        hepnos::DataStore::connect(service.network, blob_connection(service.connection));
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto columnar_res = hepnos::run_query(store, store["nova/clsm"], spec);
    ASSERT_TRUE(columnar_res.ok()) << columnar_res.status().to_string();
    auto blob_res = hepnos::run_query(blob_store, blob_store["nova/clsm"], spec);
    ASSERT_TRUE(blob_res.ok()) << blob_res.status().to_string();

    EXPECT_EQ(packed_ids(columnar_res->entries()), packed_ids(blob_res->entries()));
    EXPECT_FALSE(columnar_res->entries().empty());
    EXPECT_GT(columnar_res->stats().chunks_scanned, 0u);
    fs::remove_all(dir);
}

TEST(ColumnarServiceTest, FallsBackToBlobModeAgainstOlderService) {
    // Query knob on, columnar knob OFF: an explicit columnar request gets
    // Unimplemented from the provider and the client transparently retries
    // the blob scan.
    nova::Generator gen({.num_files = 2, .events_per_file = 10});
    test_util::TestService service(
        test_util::TestServiceOptions{.num_servers = 1, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(1, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/cfall", 128);
    });
    EXPECT_FALSE(store.impl()->columnar_enabled());

    auto spec = query::nova_selection_spec(loose_cuts(), slices_type());
    query::QueryOptions qopts;
    qopts.columnar = true;  // forced, despite the missing knob
    auto forced = hepnos::run_query(store, store["nova/cfall"], spec, 0, 1, qopts);
    ASSERT_TRUE(forced.ok()) << forced.status().to_string();
    auto plain = hepnos::run_query(store, store["nova/cfall"], spec);
    ASSERT_TRUE(plain.ok());

    EXPECT_EQ(packed_ids(forced->entries()), packed_ids(plain->entries()));
    EXPECT_FALSE(forced->entries().empty());
    EXPECT_GT(forced->stats().columnar_fallbacks, 0u);
    EXPECT_EQ(forced->stats().chunks_scanned, 0u);
}

TEST(ColumnarServiceTest, ColumnarResultsReadThroughLeaseCache) {
    // Events surfaced by a columnar query materialize into ordinary Event
    // handles whose product loads go through the PR-6 lease/epoch cache:
    // second read is a hit (no wire get), mutation invalidates synchronously.
    nova::Generator gen({.num_files = 2, .events_per_file = 12});
    test_util::TestServiceOptions opts{.num_servers = 1, .query_pushdown = true};
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    opts.columnar = columnar_knob(8, 2);
    test_util::TestService service(opts);
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(1, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/ccache", 128);
    });

    auto spec = query::nova_selection_spec(loose_cuts(), slices_type());
    auto res = hepnos::run_query(store, store["nova/ccache"], spec);
    ASSERT_TRUE(res.ok()) << res.status().to_string();
    ASSERT_GT(res->stats().chunks_scanned, 0u);
    auto events = res->events();
    ASSERT_FALSE(events.empty());

    auto cache = store.impl()->product_cache();
    ASSERT_NE(cache, nullptr);
    const auto fills_before = cache->counters().fills;

    std::vector<nova::Slice> first;
    ASSERT_TRUE(events.front().load(nova::kSliceLabel, first));
    ASSERT_FALSE(first.empty());
    EXPECT_GT(cache->counters().fills, fills_before);

    // Cache hit: the owning products database sees no additional get.
    const std::uint64_t wire_before = total_product_gets(service);
    const auto hits_before = cache->counters().hits;
    std::vector<nova::Slice> again;
    ASSERT_TRUE(events.front().load(nova::kSliceLabel, again));
    EXPECT_EQ(again, first);
    EXPECT_EQ(total_product_gets(service), wire_before);
    EXPECT_GT(cache->counters().hits, hits_before);

    // Epoch invalidation: a write-back product stored for this event is
    // immediately visible — the cached copy cannot go stale.
    std::vector<std::uint32_t> derived{1, 2, 3};
    events.front().store("derived", derived);
    std::vector<std::uint32_t> derived_back;
    ASSERT_TRUE(events.front().load("derived", derived_back));
    EXPECT_EQ(derived_back, derived);
    derived = {9};
    events.front().store("derived", derived);
    ASSERT_TRUE(events.front().load("derived", derived_back));
    EXPECT_EQ(derived_back, derived);
}

}  // namespace
