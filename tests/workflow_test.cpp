// Integration tests for the two candidate-selection workflows. The central
// assertion reproduces the paper's own cross-check (§III-B/§IV): the
// traditional file-based application and the HEPnOS-based application must
// accept EXACTLY the same slice IDs.
#include <gtest/gtest.h>

#include <filesystem>

#include "dataloader/loader.hpp"
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

TEST(TraditionalWorkflowTest, ProcessesAllEventsFromGeneratedFiles) {
    auto gen = small_generator();
    TraditionalOptions opts;
    opts.num_workers = 3;
    auto result = run_traditional_generated(gen, opts);
    EXPECT_EQ(result.events_processed, gen.total_events());
    EXPECT_GT(result.slices_processed, result.events_processed);
    EXPECT_GT(result.wall_seconds, 0.0);
    EXPECT_GT(result.throughput_slices_per_s(), 0.0);
    EXPECT_FALSE(result.accepted_ids.empty());
    EXPECT_TRUE(std::is_sorted(result.accepted_ids.begin(), result.accepted_ids.end()));
    std::uint64_t files = 0;
    for (const auto& w : result.workers) files += w.files;
    EXPECT_EQ(files, gen.config().num_files);
}

TEST(TraditionalWorkflowTest, ResultIndependentOfWorkerCount) {
    auto gen = small_generator();
    auto one = run_traditional_generated(gen, {.num_workers = 1, .cuts = {}});
    auto many = run_traditional_generated(gen, {.num_workers = 6, .cuts = {}});
    EXPECT_EQ(one.accepted_ids, many.accepted_ids);
    EXPECT_EQ(one.events_processed, many.events_processed);
}

TEST(TraditionalWorkflowTest, ReadsHtfFilesFromDisk) {
    auto gen = small_generator();
    const auto dir = test_util::scratch_path("wf_files");
    fs::create_directories(dir);
    std::vector<std::string> files;
    for (std::uint64_t f = 0; f < gen.config().num_files; ++f) {
        files.push_back((dir / (std::to_string(f) + ".htf")).string());
        ASSERT_TRUE(gen.write_htf_file(f, files.back()).ok());
    }
    auto from_disk = run_traditional(files, {.num_workers = 2, .cuts = {}});
    auto from_memory = run_traditional_generated(gen, {.num_workers = 2, .cuts = {}});
    EXPECT_EQ(from_disk.accepted_ids, from_memory.accepted_ids);
    fs::remove_all(dir);
}

class WorkflowEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkflowEquivalenceTest, HepnosAndTraditionalSelectIdenticalSlices) {
    // The paper's validation: "The IDs of the accepted slices are accumulated
    // so that we can assure that the two applications have obtained the same
    // results."
    auto gen = small_generator();

    test_util::TestService service(test_util::TestServiceOptions{2, 2, "map"});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/sample", 512);
    });

    HepnosAppOptions hopts;
    hopts.num_ranks = static_cast<std::size_t>(GetParam());
    hopts.pep.input_batch_size = 64;
    hopts.pep.share_batch_size = 8;
    auto hepnos_result = run_hepnos_selection(store, "nova/sample", hopts);

    auto traditional_result = run_traditional_generated(gen, {.num_workers = 2, .cuts = {}});

    EXPECT_EQ(hepnos_result.events_processed, gen.total_events());
    EXPECT_EQ(hepnos_result.accepted_ids, traditional_result.accepted_ids);
    EXPECT_FALSE(hepnos_result.accepted_ids.empty());
    EXPECT_EQ(hepnos_result.slices_processed, traditional_result.slices_processed);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, WorkflowEquivalenceTest, ::testing::Values(1, 3, 4));

TEST(WorkflowEquivalenceTest2, HoldsWithoutPrefetchingToo) {
    auto gen = small_generator();
    test_util::TestService service(test_util::TestServiceOptions{1, 2, "map"});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/sample2", 512);
    });
    HepnosAppOptions hopts;
    hopts.num_ranks = 2;
    hopts.prefetch_products = false;  // per-event load() path
    auto hepnos_result = run_hepnos_selection(store, "nova/sample2", hopts);
    auto traditional_result = run_traditional_generated(gen, {.num_workers = 1, .cuts = {}});
    EXPECT_EQ(hepnos_result.accepted_ids, traditional_result.accepted_ids);
}

TEST(WorkflowEquivalenceTest2, WriteBackStoresDerivedProducts) {
    // Paper §II-A: applications write new products back into HEPnOS. The
    // selection app stores accepted slice indices per event; a second pass
    // can read them without redoing the selection.
    auto gen = small_generator();
    test_util::TestService service(test_util::TestServiceOptions{1, 2, "map"});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/wb", 512);
    });
    HepnosAppOptions hopts;
    hopts.num_ranks = 3;
    hopts.store_results = true;
    auto result = run_hepnos_selection(store, "nova/wb", hopts);
    ASSERT_FALSE(result.accepted_ids.empty());

    // Re-derive the accepted IDs purely from the written-back products.
    std::vector<std::uint64_t> replayed;
    for (const auto& run : store["nova/wb"]) {
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

TEST(WorkflowEquivalenceTest2, HoldsOnLsmBackend) {
    // The RocksDB-substitute path end to end.
    auto gen = nova::Generator({.num_files = 4, .events_per_file = 15});
    const auto dir = test_util::scratch_path("wf_lsm");
    fs::remove_all(dir);
    fs::create_directories(dir);
    test_util::TestService service(
        test_util::TestServiceOptions{1, 2, "lsm", dir.string()});
    auto store = hepnos::DataStore::connect(service.network, service.connection);
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, "nova/lsm", 128);
    });
    HepnosAppOptions hopts;
    hopts.num_ranks = 2;
    auto hepnos_result = run_hepnos_selection(store, "nova/lsm", hopts);
    auto traditional_result = run_traditional_generated(gen, {.num_workers = 1, .cuts = {}});
    EXPECT_EQ(hepnos_result.accepted_ids, traditional_result.accepted_ids);
    EXPECT_EQ(hepnos_result.events_processed, gen.total_events());
    fs::remove_all(dir);
}

}  // namespace
