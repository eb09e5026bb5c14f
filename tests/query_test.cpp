// Tests for the query-pushdown subsystem (src/query): predicate/Selector
// equivalence, the central pushdown-vs-PEP bit-identical cross-check,
// server-side write-back, cursor loss/resume, and rejection of malformed
// specs.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "dataloader/loader.hpp"
#include "query/client.hpp"
#include "query/evaluator.hpp"
#include "query/provider.hpp"
#include "scratch_dir.hpp"
#include "test_service.hpp"
#include "workflow/hepnos_app.hpp"
#include "workflow/traditional.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::workflow;

nova::Generator small_generator() {
    nova::DatasetConfig cfg;
    cfg.num_files = 8;
    cfg.events_per_file = 40;
    cfg.file_size_jitter = 0.3;
    return nova::Generator(cfg);
}

std::string slices_type() {
    return std::string(hepnos::product_type_name<std::vector<nova::Slice>>());
}

// ------------------------------------------------- filter <-> Selector unit

nova::Slice random_slice(std::uint64_t& state) {
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };
    nova::Slice s;
    s.index = next() % 16;
    s.nhits = next() % 80;
    s.cal_e = static_cast<float>(next() % 6000) / 1000.0f;
    s.epi0_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.muon_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.cosmic_score = static_cast<float>(next() % 1000) / 1000.0f;
    s.contained = static_cast<std::uint8_t>(next() % 2);
    return s;
}

TEST(FilterProgramTest, MatchesSelectorOnRandomSlices) {
    nova::SelectionCuts cuts;
    nova::Selector selector(cuts);
    auto program = query::nova_cuts_program(cuts);
    ASSERT_TRUE(program.validate(nova::kNumSliceFields).ok());

    std::uint64_t state = 42;
    double fields[nova::kNumSliceFields];
    for (int i = 0; i < 20000; ++i) {
        nova::Slice s = random_slice(state);
        nova::slice_fields(s, fields);
        EXPECT_EQ(program.matches(fields, nova::kNumSliceFields), selector.select(s))
            << "slice " << i;
    }
    EXPECT_EQ(selector.slices_examined(), 20000u);
}

TEST(FilterProgramTest, MatchesSelectorOnNaNFields) {
    // Selector's reject-comparisons are all false on NaN, so a NaN slice that
    // passes the other cuts is ACCEPTED. The program must reproduce that.
    nova::SelectionCuts cuts;
    nova::Selector selector(cuts);
    auto program = query::nova_cuts_program(cuts);

    nova::Slice s;
    s.contained = 1;
    s.nhits = 50;
    s.cal_e = std::nanf("");
    s.epi0_score = std::nanf("");
    s.muon_score = 0.1f;
    s.cosmic_score = 0.1f;

    double fields[nova::kNumSliceFields];
    nova::slice_fields(s, fields);
    EXPECT_EQ(program.matches(fields, nova::kNumSliceFields), selector.select(s));
    EXPECT_TRUE(selector.select(s));  // NaN passes every reject-comparison
}

TEST(FilterProgramTest, ValidateRejectsMalformedPrograms) {
    // Stack underflow: binary op with one operand.
    query::FilterProgram p1;
    p1.push_const(1.0).op(query::FilterOp::kAnd);
    EXPECT_FALSE(p1.validate(nova::kNumSliceFields).ok());

    // Field out of range.
    query::FilterProgram p2;
    p2.compare(nova::kNumSliceFields, query::FilterOp::kLt, 1.0);
    EXPECT_FALSE(p2.validate(nova::kNumSliceFields).ok());

    // Leftover operands (final depth != 1).
    query::FilterProgram p3;
    p3.push_const(1.0).push_const(2.0);
    EXPECT_FALSE(p3.validate(nova::kNumSliceFields).ok());

    // Empty programs are fine: they accept everything.
    query::FilterProgram p4;
    EXPECT_TRUE(p4.validate(nova::kNumSliceFields).ok());
    double fields[nova::kNumSliceFields] = {};
    EXPECT_TRUE(p4.matches(fields, nova::kNumSliceFields));
}

// ------------------------------------------------ pushdown <-> PEP services

TEST(QueryPushdownTest, MatchesPepSelectionBitForBit) {
    auto gen = small_generator();
    test_util::TestService service(
        test_util::TestServiceOptions{.num_servers = 2, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/push", 512);
    });

    HepnosAppOptions pep_opts;
    pep_opts.num_ranks = 2;
    auto pep = run_hepnos_selection(store, "nova/push", pep_opts);

    for (std::size_t ranks : {1u, 3u}) {
        HepnosAppOptions push_opts;
        push_opts.num_ranks = ranks;
        push_opts.pushdown = true;
        push_opts.pushdown_page_entries = 16;  // force many pages
        auto push = run_hepnos_selection(store, "nova/push", push_opts);
        EXPECT_EQ(push.accepted_ids, pep.accepted_ids) << ranks << " ranks";
        EXPECT_FALSE(push.accepted_ids.empty());
        EXPECT_EQ(push.slices_processed, pep.slices_processed);
    }

    // And both agree with the file-based application (the paper §IV check).
    auto traditional = run_traditional_generated(gen, {.num_workers = 2, .cuts = {}});
    EXPECT_EQ(pep.accepted_ids, traditional.accepted_ids);
}

TEST(QueryPushdownTest, MatchesPepOnLsmBackend) {
    auto gen = nova::Generator({.num_files = 4, .events_per_file = 15});
    const auto dir = test_util::scratch_path("query_lsm");
    fs::remove_all(dir);
    fs::create_directories(dir);
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .backend = "lsm", .base_dir = dir.string(),
        .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/qlsm", 128);
    });

    HepnosAppOptions pep_opts;
    pep_opts.num_ranks = 2;
    auto pep = run_hepnos_selection(store, "nova/qlsm", pep_opts);

    HepnosAppOptions push_opts;
    push_opts.num_ranks = 2;
    push_opts.pushdown = true;
    auto push = run_hepnos_selection(store, "nova/qlsm", push_opts);
    EXPECT_EQ(push.accepted_ids, pep.accepted_ids);
    EXPECT_FALSE(push.accepted_ids.empty());
    fs::remove_all(dir);
}

TEST(QueryPushdownTest, ServerSideWriteBackMatchesAcceptedIds) {
    auto gen = small_generator();
    test_util::TestService service(
        test_util::TestServiceOptions{.num_servers = 2, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/qwb", 512);
    });

    HepnosAppOptions opts;
    opts.num_ranks = 2;
    opts.pushdown = true;
    opts.store_results = true;  // server-side write-back
    auto result = run_hepnos_selection(store, "nova/qwb", opts);
    ASSERT_FALSE(result.accepted_ids.empty());

    // Replay purely from the written-back products, like the PEP test does.
    std::vector<std::uint64_t> replayed;
    for (const auto& run : store["nova/qwb"]) {
        for (const auto& sr : run) {
            for (const auto& ev : sr) {
                std::vector<std::uint32_t> indices;
                if (!ev.load(kSelectedLabel, indices)) continue;
                EXPECT_FALSE(indices.empty());
                for (auto idx : indices) {
                    replayed.push_back(nova::SliceId{ev.run_number(), ev.subrun_number(),
                                                     ev.number(), idx}
                                           .packed());
                }
            }
        }
    }
    std::sort(replayed.begin(), replayed.end());
    EXPECT_EQ(replayed, result.accepted_ids);
}

TEST(QueryPushdownTest, ResultSurvivesCursorLossMidQuery) {
    // Pages carry resume_key, so a client that loses its server cursor
    // (restart, eviction) re-opens and continues without gaps or duplicates.
    auto gen = small_generator();
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .dbs_per_role = 1, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/qcursor", 512);
    });

    hepnos::DataSet ds = store["nova/qcursor"];
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    const auto& db = store.impl()->databases(hepnos::Role::kProducts).at(0);
    auto* qp = service.servers.at(0)->find_query_provider(db.provider());
    ASSERT_NE(qp, nullptr);

    // Uninterrupted reference run.
    std::vector<query::proto::Entry> expected;
    query::ClientStats ref_stats;
    query::QueryOptions qopts;
    qopts.page_entries = 1;  // one accepted entry per page -> many pages
    qopts.scan_chunk = 8;    // keep chunks small so pages actually split
    ASSERT_TRUE(query::QueryClient(store.impl()->engine(), db)
                    .run(spec, ds.uuid().bytes(), expected, ref_stats, qopts)
                    .ok());
    ASSERT_GT(ref_stats.pages, 3u);

    // Drive the cursor protocol manually, nuking the cursor table after
    // every page, and re-opening from resume_key like the client does.
    auto& engine = store.impl()->engine();
    std::vector<query::proto::Entry> collected;
    std::string resume;
    bool done = false;
    std::size_t drops = 0;
    while (!done) {
        query::proto::OpenReq open;
        open.db = db.name();
        open.prefix = std::string(ds.uuid().bytes());
        open.resume_after = resume;
        open.spec = spec;
        open.page_entries = 1;
        open.scan_chunk = 8;
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

        // Lose every server-side cursor; the next iteration re-opens.
        drops += qp->drop_cursors();
        auto lost = engine.forward<query::proto::NextReq, query::proto::Page>(
            db.server(), "query_next", db.provider(),
            query::proto::NextReq{db.name(), opened->cursor});
        if (!done) {
            EXPECT_EQ(lost.status().code(), StatusCode::kNotFound);
        }
    }
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(collected, expected);
}

TEST(QueryPushdownTest, MalformedSpecsAreRejectedNotFatal) {
    auto gen = nova::Generator({.num_files = 2, .events_per_file = 10});
    test_util::TestService service(
        test_util::TestServiceOptions{.num_servers = 1, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(1, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/qbad", 128);
    });
    hepnos::DataSet ds = store["nova/qbad"];

    // Unknown evaluator.
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    spec.evaluator = "no/such/evaluator";
    EXPECT_EQ(store.query(ds, spec).status().code(), StatusCode::kInvalidArgument);

    // Filter referencing a field the evaluator does not have.
    spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    spec.filter = query::FilterProgram();
    spec.filter.compare(999, query::FilterOp::kLt, 1.0);
    EXPECT_EQ(store.query(ds, spec).status().code(), StatusCode::kInvalidArgument);

    // Stack-underflowing filter.
    spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    spec.filter = query::FilterProgram();
    spec.filter.op(query::FilterOp::kAnd);
    EXPECT_EQ(store.query(ds, spec).status().code(), StatusCode::kInvalidArgument);

    // id_field out of range.
    spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    spec.id_field = 999;
    EXPECT_EQ(store.query(ds, spec).status().code(), StatusCode::kInvalidArgument);

    // Write-back onto the scanned product itself.
    spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    spec.write_selected = true;
    spec.selected_label = spec.label;
    spec.selected_type = spec.type;
    EXPECT_EQ(store.query(ds, spec).status().code(), StatusCode::kInvalidArgument);

    // The provider survived all of it: a good query still works.
    spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto good = store.query(ds, spec);
    ASSERT_TRUE(good.ok()) << good.status().to_string();
    EXPECT_GT(good->stats().events_examined, 0u);
}

TEST(QueryPushdownTest, RequiresServiceWithQueryKnob) {
    test_util::TestService service(test_util::TestServiceOptions{.num_servers = 1});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    store.createDataSet("nova/noquery");
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    EXPECT_EQ(store.query(store["nova/noquery"], spec).status().code(),
              StatusCode::kUnimplemented);
}

TEST(QueryPushdownTest, ExposesScanMetricsThroughSymbio) {
    auto gen = nova::Generator({.num_files = 2, .events_per_file = 10});
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .monitoring = true, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(1, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/qmet", 128);
    });
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    ASSERT_TRUE(store.query(store["nova/qmet"], spec).ok());

    auto snapshot = service.servers.at(0)->metrics()->snapshot();
    const json::Value& src = snapshot["sources"]["query/1"];
    ASSERT_TRUE(src.is_object());
    EXPECT_GE(src["queries_opened"].as_int(), 1);
    EXPECT_GE(src["events_examined"].as_int(), 1);
    EXPECT_GT(src["bytes_scanned"].as_int(), src["bytes_returned"].as_int());
}

}  // namespace
