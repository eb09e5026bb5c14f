// Tests for MVCC snapshot reads and cross-database atomic publish:
// backend-level stamps/epochs on map and lsm, snapshot-pinned selections
// bit-identical under concurrent ingest, publish atomicity across
// event/product/columnar keys, all-or-nothing publish across failover, and
// cursor-loss re-pinning at the original snapshot.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "dataloader/loader.hpp"
#include "hepnos/prefetcher.hpp"
#include "hepnos/query.hpp"
#include "hepnos/write_batch.hpp"
#include "query/client.hpp"
#include "query/evaluator.hpp"
#include "query/provider.hpp"
#include "scratch_dir.hpp"
#include "test_service.hpp"
#include "workflow/hepnos_app.hpp"
#include "yokan/backend.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::workflow;

std::string slices_type() {
    return std::string(hepnos::product_type_name<std::vector<nova::Slice>>());
}

hep::BufferView view_of(std::string s) {
    return hep::BufferView(hep::Buffer::adopt(std::move(s)));
}

/// A slice that passes the default SelectionCuts — ingesting one changes the
/// accepted set of the standard selection, which is how the tests detect a
/// snapshot leak.
nova::Slice passing_slice(std::uint32_t index) {
    nova::Slice s;
    s.index = index;
    s.nhits = 60;
    s.cal_e = 2.0f;
    s.epi0_score = 0.95f;
    s.muon_score = 0.05f;
    s.cosmic_score = 0.05f;
    s.contained = 1;
    return s;
}

json::Value columnar_knob() {
    json::Value v = json::Value::make_object();
    v["enabled"] = true;
    v["chunk_rows"] = 64;
    v["min_batch"] = 4;
    return v;
}

// --------------------------------------------------------- backend MVCC unit

void backend_snapshot_roundtrip(yokan::Database& db) {
    ASSERT_TRUE(db.put("a", "a0").ok());
    ASSERT_TRUE(db.put("b", "b0").ok());
    const yokan::ReadView pinned = db.snapshot_at(0);
    ASSERT_TRUE(pinned.pinned());

    // Writes after the pin: a new key and an overwrite of an existing one.
    ASSERT_TRUE(db.put("c", "c0").ok());
    ASSERT_TRUE(db.put("a", "a1").ok());

    // Latest view sees everything current.
    const yokan::ReadView latest;
    EXPECT_EQ(db.get_at("a", latest).value_or(""), "a1");
    EXPECT_EQ(db.get_at("c", latest).value_or(""), "c0");

    // The pinned view never observes post-pin writes: "c" was born after the
    // pin and "a" was overwritten after it (single-version store: the old
    // value is gone, so the overwritten key becomes invisible rather than
    // time-traveling — acceptable because HEP data is write-once).
    EXPECT_EQ(db.get_at("c", pinned).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(db.get_at("a", pinned).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(db.get_at("b", pinned).value_or(""), "b0");
    EXPECT_EQ(db.exists_at("c", pinned).value_or(true), false);
    auto pinned_keys = db.list_keys_at("", "", 100, pinned);
    ASSERT_TRUE(pinned_keys.ok());
    EXPECT_EQ(*pinned_keys, std::vector<std::string>{"b"});

    // Epoch-tagged writes are invisible from every unpinned read until the
    // publish marker lands; the marker itself rides the ordinary put path.
    ASSERT_TRUE(db.put_stamped("staged", view_of("s0"), true, 7).ok());
    EXPECT_EQ(db.get_at("staged", latest).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(db.exists_at("staged", latest).value_or(true), false);
    EXPECT_FALSE(db.epoch_visible(7));
    ASSERT_TRUE(db.put(yokan::publish_marker_key(7), "").ok());
    EXPECT_TRUE(db.epoch_visible(7));
    EXPECT_EQ(db.get_at("staged", latest).value_or(""), "s0");

    // A snapshot taken before the publish keeps the epoch invisible.
    EXPECT_EQ(db.get_at("staged", pinned).status().code(), StatusCode::kNotFound);

    // Visibility-filtered scans hide internal keys (the marker) unless the
    // caller's prefix reaches into the internal range; raw scan() sees them.
    auto latest_keys = db.list_keys_at("", "", 100, latest);
    ASSERT_TRUE(latest_keys.ok());
    EXPECT_EQ(*latest_keys, (std::vector<std::string>{"a", "b", "c", "staged"}));
    auto internal = db.list_keys_at("", yokan::kPublishMarkerPrefix, 100, latest);
    ASSERT_TRUE(internal.ok());
    EXPECT_EQ(internal->size(), 1u);
    bool saw_marker = false;
    ASSERT_TRUE(db.scan("", "", false, [&](std::string_view key, std::string_view) {
                      saw_marker |= yokan::parse_publish_marker(key) == 7;
                      return true;
                  }).ok());
    EXPECT_TRUE(saw_marker);
}

TEST(MvccBackendTest, SnapshotAndEpochVisibilityOnMap) {
    auto db = yokan::create_database(*json::parse(R"({"type": "map"})"));
    ASSERT_TRUE(db.ok());
    backend_snapshot_roundtrip(**db);
}

TEST(MvccBackendTest, SnapshotAndEpochVisibilityOnLsm) {
    const auto dir = test_util::scratch_path("mvcc_lsm_unit");
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto db = yokan::create_database(*json::parse(R"({"type": "lsm", "path": "db"})"),
                                     dir.string());
    ASSERT_TRUE(db.ok()) << db.status().to_string();
    backend_snapshot_roundtrip(**db);
    fs::remove_all(dir);
}

TEST(MvccBackendTest, LsmRecoveryRestoresStampsAndEpochs) {
    const auto dir = test_util::scratch_path("mvcc_lsm_recover");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto cfg = *json::parse(R"({"type": "lsm", "path": "db"})");
    {
        auto db = yokan::create_database(cfg, dir.string());
        ASSERT_TRUE(db.ok());
        ASSERT_TRUE((*db)->put("published", "p").ok());
        ASSERT_TRUE((*db)->put_stamped("staged", view_of("s"), true, 3).ok());
        ASSERT_TRUE((*db)->put(yokan::publish_marker_key(2), "").ok());
        ASSERT_TRUE((*db)->flush().ok());
    }
    auto db = yokan::create_database(cfg, dir.string());
    ASSERT_TRUE(db.ok());
    const yokan::ReadView latest;
    // Epoch 3 was never published: still invisible after recovery. Epoch 2's
    // marker replayed, and the seq counter resumed past the recovered stamps.
    EXPECT_EQ((*db)->get_at("published", latest).value_or(""), "p");
    EXPECT_EQ((*db)->get_at("staged", latest).status().code(), StatusCode::kNotFound);
    EXPECT_TRUE((*db)->epoch_visible(2));
    EXPECT_FALSE((*db)->epoch_visible(3));
    EXPECT_GE((*db)->seq(), 3u);
    fs::remove_all(dir);
}

// ------------------------------------------------- service-level MVCC checks

std::uint64_t count_events(hepnos::DataStore& store, const std::string& path,
                           std::uint64_t* with_products = nullptr) {
    std::uint64_t events = 0;
    if (with_products) *with_products = 0;
    for (const auto& run : store[path]) {
        for (const auto& sr : run) {
            for (const auto& ev : sr) {
                ++events;
                std::vector<nova::Slice> slices;
                if (with_products && ev.load(nova::kSliceLabel, slices)) ++*with_products;
            }
        }
    }
    return events;
}

TEST(MvccServiceTest, UnpublishedEpochInvisibleUntilPublish) {
    // Columnar on: the shredded chunk keys ride the same batches, so publish
    // atomicity must cover event keys, product blobs AND column chunks.
    auto gen = nova::Generator({.num_files = 4, .events_per_file = 20});
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 2, .query_pushdown = true, .columnar = columnar_knob()});
    auto store = hepnos::DataStore::connect(service.network, service.connection);

    auto epoch = store.begin_ingest();
    ASSERT_TRUE(epoch.ok()) << epoch.status().to_string();
    ASSERT_GE(*epoch, 1u);

    dataloader::LoaderStats stats;
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        stats = dataloader::ingest_generated(store, comm, gen, "nova/pub", 64);
    });
    ASSERT_GT(stats.events_stored, 0u);

    // Before publish, nothing of the epoch is observable from any read path:
    // no events listed, no products loadable, pushdown selection comes up
    // empty — from this connection and from a fresh one.
    EXPECT_EQ(count_events(store, "nova/pub"), 0u);
    auto store2 = hepnos::DataStore::connect(service.network, service.connection);
    EXPECT_EQ(count_events(store2, "nova/pub"), 0u);
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto staged = store.query(store["nova/pub"], spec);
    ASSERT_TRUE(staged.ok()) << staged.status().to_string();
    EXPECT_TRUE(staged->entries().empty());

    ASSERT_TRUE(store.publish(*epoch).ok());

    // After publish the epoch is visible atomically: every event, every
    // product, and the columnar chunks (pushdown runs over them and must
    // match the PEP's blob-driven result bit for bit).
    std::uint64_t with_products = 0;
    EXPECT_EQ(count_events(store, "nova/pub", &with_products), stats.events_stored);
    EXPECT_EQ(with_products, stats.events_stored);
    EXPECT_EQ(count_events(store2, "nova/pub"), stats.events_stored);

    auto pep = run_hepnos_selection(store, "nova/pub", HepnosAppOptions{.num_ranks = 2});
    auto push = run_hepnos_selection(store, "nova/pub",
                                     HepnosAppOptions{.num_ranks = 2, .pushdown = true});
    EXPECT_EQ(push.accepted_ids, pep.accepted_ids);
    EXPECT_FALSE(push.accepted_ids.empty());
    EXPECT_EQ(pep.events_processed, stats.events_stored);
}

TEST(MvccServiceTest, SnapshotPinnedSelectionBitIdenticalUnderConcurrentIngest) {
    auto gen = nova::Generator({.num_files = 8, .events_per_file = 40,
                                .file_size_jitter = 0.3});
    test_util::TestService service(
        test_util::TestServiceOptions{.num_servers = 2, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/mvcc", 512);
    });

    hepnos::DataSet ds = store["nova/mvcc"];
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());

    // Quiesced reference, then pin a snapshot of exactly this state.
    auto reference = hepnos::run_query(store, ds, spec);
    ASSERT_TRUE(reference.ok()) << reference.status().to_string();
    ASSERT_FALSE(reference->entries().empty());
    const std::uint64_t events_before = count_events(store, "nova/mvcc");

    auto snap = store.snapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    ASSERT_TRUE(snap->valid());

    // Open-loop ingest of *accepted* slices (epoch 0: published on write,
    // visible to latest readers immediately) racing the pinned selection.
    std::thread writer([&] {
        for (std::uint64_t i = 0; i < 40; ++i) {
            hepnos::WriteBatch batch(store.impl(), 64);
            auto run = ds.createRun(5000 + i, &batch);
            auto sr = run.createSubRun(0, &batch);
            auto ev = sr.createEvent(0, &batch);
            ev.store(batch, nova::kSliceLabel,
                     std::vector<nova::Slice>{passing_slice(0), passing_slice(1)});
            batch.flush();
        }
    });
    for (int i = 0; i < 6; ++i) {
        auto pinned = hepnos::run_query(store, ds, spec, *snap);
        ASSERT_TRUE(pinned.ok()) << pinned.status().to_string();
        EXPECT_EQ(pinned->entries(), reference->entries()) << "iteration " << i;
    }
    writer.join();

    // The ingest really landed: latest readers see more accepted entries and
    // more events — while the pinned paths still reproduce the snapshot.
    auto latest = hepnos::run_query(store, ds, spec);
    ASSERT_TRUE(latest.ok());
    EXPECT_GT(latest->entries().size(), reference->entries().size());
    auto pinned = hepnos::run_query(store, ds, spec, *snap);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(pinned->entries(), reference->entries());

    // The Prefetcher's pinned iteration agrees: event-key pages and bulk
    // product loads both resolve at the snapshot.
    hepnos::Prefetcher prefetcher(store, 64);
    prefetcher.fetch_product<std::vector<nova::Slice>>(nova::kSliceLabel);
    prefetcher.pin(*snap);
    prefetcher.for_each_event(ds, [](const hepnos::Event&, const hepnos::ProductCache&) {});
    EXPECT_EQ(prefetcher.events_visited(), events_before);
    EXPECT_GT(count_events(store, "nova/mvcc"), events_before);
}

TEST(MvccServiceTest, SnapshotPinnedSelectionOnLsmBackend) {
    auto gen = nova::Generator({.num_files = 4, .events_per_file = 15});
    const auto dir = test_util::scratch_path("mvcc_lsm_service");
    fs::remove_all(dir);
    fs::create_directories(dir);
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .backend = "lsm", .base_dir = dir.string(),
        .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/mlsm", 128);
    });

    hepnos::DataSet ds = store["nova/mlsm"];
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto reference = hepnos::run_query(store, ds, spec);
    ASSERT_TRUE(reference.ok()) << reference.status().to_string();
    ASSERT_FALSE(reference->entries().empty());
    auto snap = store.snapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();

    {
        hepnos::WriteBatch batch(store.impl(), 64);
        auto ev = ds.createRun(6000, &batch).createSubRun(0, &batch).createEvent(0, &batch);
        ev.store(batch, nova::kSliceLabel, std::vector<nova::Slice>{passing_slice(0)});
        batch.flush();
    }

    auto pinned = hepnos::run_query(store, ds, spec, *snap);
    ASSERT_TRUE(pinned.ok()) << pinned.status().to_string();
    EXPECT_EQ(pinned->entries(), reference->entries());
    auto latest = hepnos::run_query(store, ds, spec);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest->entries().size(), reference->entries().size() + 1);
    fs::remove_all(dir);
}

TEST(MvccServiceTest, PublishAllOrNothingAcrossFailover) {
    auto gen = nova::Generator({.num_files = 4, .events_per_file = 10});
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 2, .replication_factor = 2, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);

    auto epoch = store.begin_ingest();
    ASSERT_TRUE(epoch.ok());
    dataloader::LoaderStats stats;
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        stats = dataloader::ingest_generated(store, comm, gen, "nova/fail", 64);
    });
    ASSERT_GT(stats.events_stored, 0u);
    EXPECT_EQ(count_events(store, "nova/fail"), 0u);

    // kill -9 the first server before publish: reads fail over to the
    // backups, which replicated every epoch-tagged write — and must keep the
    // unpublished epoch just as invisible (all-or-nothing: nothing yet).
    service.servers.at(0).reset();
    EXPECT_EQ(count_events(store, "nova/fail"), 0u);
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto staged = store.query(store["nova/fail"], spec);
    ASSERT_TRUE(staged.ok()) << staged.status().to_string();
    EXPECT_TRUE(staged->entries().empty());

    // Publish lands on the promoted replicas; after it, the whole epoch is
    // visible — every event and every product, with no partial exposure.
    ASSERT_TRUE(store.publish(*epoch).ok());
    std::uint64_t with_products = 0;
    EXPECT_EQ(count_events(store, "nova/fail", &with_products), stats.events_stored);
    EXPECT_EQ(with_products, stats.events_stored);

    // And a fresh connection (whose connect() repairs partially broadcast
    // markers) agrees.
    auto store2 = hepnos::DataStore::connect(service.network, service.connection);
    EXPECT_EQ(count_events(store2, "nova/fail"), stats.events_stored);
}

TEST(MvccServiceTest, CursorLossRepinsAtOriginalSnapshot) {
    // A resumed cursor must re-pin at the snapshot it first opened with —
    // not silently upgrade to "latest" (the pre-MVCC behavior).
    auto gen = nova::Generator({.num_files = 8, .events_per_file = 40,
                                .file_size_jitter = 0.3});
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .dbs_per_role = 1, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/repin", 512);
    });

    hepnos::DataSet ds = store["nova/repin"];
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    auto snap = store.snapshot();
    ASSERT_TRUE(snap.ok());
    auto reference = hepnos::run_query(store, ds, spec, *snap);
    ASSERT_TRUE(reference.ok());
    ASSERT_GT(reference->entries().size(), 3u);

    // New accepted slices land after the snapshot; latest queries see them.
    {
        hepnos::WriteBatch batch(store.impl(), 64);
        auto ev = ds.createRun(7000, &batch).createSubRun(0, &batch).createEvent(0, &batch);
        ev.store(batch, nova::kSliceLabel, std::vector<nova::Slice>{passing_slice(0)});
        batch.flush();
    }
    auto latest = hepnos::run_query(store, ds, spec);
    ASSERT_TRUE(latest.ok());
    ASSERT_GT(latest->entries().size(), reference->entries().size());

    const auto& db = store.impl()->databases(hepnos::Role::kProducts).at(0);
    auto* qp = service.servers.at(0)->find_query_provider(db.provider());
    ASSERT_NE(qp, nullptr);
    const auto& pin = snap->pin(hepnos::Role::kProducts, 0);

    // Drive the cursor protocol by hand, nuking the cursor table after every
    // page and re-opening with the pin that came back from the first open —
    // exactly what QueryClient does after cursor loss.
    auto& engine = store.impl()->engine();
    std::vector<query::proto::Entry> collected;
    yokan::proto::ReadPin carried = pin;
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
        open.pin = carried;
        auto opened = engine.forward<query::proto::OpenReq, query::proto::OpenResp>(
            db.server(), "query_open", db.provider(), open);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        EXPECT_EQ(opened->pin.seq, pin.seq);  // never upgraded to latest
        carried = opened->pin;

        auto page = engine.forward<query::proto::NextReq, query::proto::Page>(
            db.server(), "query_next", db.provider(),
            query::proto::NextReq{db.name(), opened->cursor});
        ASSERT_TRUE(page.ok()) << page.status().to_string();
        for (auto& e : page->entries) collected.push_back(std::move(e));
        resume = page->resume_key;
        done = page->done;
        drops += qp->drop_cursors();
    }
    EXPECT_GT(drops, 2u);
    EXPECT_EQ(collected, reference->entries());

    // The client-side loop does the same re-pinning on its own.
    query::QueryOptions qopts;
    qopts.page_entries = 1;
    qopts.scan_chunk = 8;
    qopts.pin = pin;
    std::vector<query::proto::Entry> via_client;
    query::ClientStats cstats;
    ASSERT_TRUE(query::QueryClient(engine, db)
                    .run(spec, ds.uuid().bytes(), via_client, cstats, qopts)
                    .ok());
    EXPECT_EQ(via_client, reference->entries());
}

TEST(MvccServiceTest, SnapshotAheadOfDatabaseIsRejected) {
    test_util::TestService service(test_util::TestServiceOptions{
        .num_servers = 1, .dbs_per_role = 1, .query_pushdown = true});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    store.createDataSet("nova/ahead");
    hepnos::DataSet ds = store["nova/ahead"];
    auto spec = query::nova_selection_spec(nova::SelectionCuts{}, slices_type());
    query::QueryOptions qopts;
    qopts.pin.seq = std::numeric_limits<std::uint64_t>::max();
    const auto& db = store.impl()->databases(hepnos::Role::kProducts).at(0);
    std::vector<query::proto::Entry> entries;
    query::ClientStats cstats;
    EXPECT_EQ(query::QueryClient(store.impl()->engine(), db)
                  .run(spec, ds.uuid().bytes(), entries, cstats, qopts)
                  .code(),
              StatusCode::kInvalidArgument);
}

}  // namespace
