// Tests for the synthetic NOvA generator and the CAFAna-substitute selection.
#include <gtest/gtest.h>

#include <filesystem>

#include "nova/generator.hpp"
#include "nova/selection.hpp"
#include "scratch_dir.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::nova;

TEST(GeneratorTest, EventsAreDeterministic) {
    Generator g1, g2;
    const auto a = g1.make_event(10000, 3, 42);
    const auto b = g2.make_event(10000, 3, 42);
    EXPECT_EQ(a, b);
    EXPECT_GE(a.slices.size(), 1u);
}

TEST(GeneratorTest, DifferentSeedsDifferentData) {
    Generator g1({.seed = 1}), g2({.seed = 2});
    EXPECT_NE(g1.make_event(10000, 0, 0), g2.make_event(10000, 0, 0));
}

TEST(GeneratorTest, DifferentEventsDiffer) {
    Generator g;
    EXPECT_NE(g.make_event(10000, 0, 0), g.make_event(10000, 0, 1));
    EXPECT_NE(g.make_event(10000, 0, 0), g.make_event(10000, 1, 0));
}

TEST(GeneratorTest, FileCoordinatesMapToRunSubrun) {
    DatasetConfig cfg;
    cfg.subruns_per_run = 8;
    cfg.first_run = 500;
    Generator g(cfg);
    EXPECT_EQ(g.file_coordinates(0).run, 500u);
    EXPECT_EQ(g.file_coordinates(0).subrun, 0u);
    EXPECT_EQ(g.file_coordinates(7).subrun, 7u);
    EXPECT_EQ(g.file_coordinates(8).run, 501u);
    EXPECT_EQ(g.file_coordinates(8).subrun, 0u);
}

TEST(GeneratorTest, FileSizesJitterAroundMean) {
    DatasetConfig cfg;
    cfg.num_files = 100;
    cfg.events_per_file = 100;
    cfg.file_size_jitter = 0.25;
    Generator g(cfg);
    std::uint64_t min_n = ~0ULL, max_n = 0, total = 0;
    for (std::uint64_t f = 0; f < cfg.num_files; ++f) {
        const auto n = g.file_coordinates(f).num_events;
        min_n = std::min(min_n, n);
        max_n = std::max(max_n, n);
        total += n;
    }
    EXPECT_LT(min_n, max_n);  // files are NOT uniform (drives load imbalance)
    EXPECT_GE(min_n, 75u);
    EXPECT_LE(max_n, 125u);
    EXPECT_NEAR(static_cast<double>(total) / 100.0, 100.0, 6.0);
    EXPECT_EQ(g.total_events(), total);
}

TEST(GeneratorTest, SliceMultiplicityMatchesPaperRatio) {
    // Paper: 17,878,347 slices / 4,359,414 events ~ 4.1 slices/event.
    Generator g;
    std::uint64_t slices = 0, events = 0;
    for (std::uint64_t e = 0; e < 3000; ++e) {
        slices += g.make_event(10000, 0, e).slices.size();
        ++events;
    }
    const double ratio = static_cast<double>(slices) / static_cast<double>(events);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.5);
}

TEST(GeneratorTest, HtfRoundTripPreservesEvents) {
    DatasetConfig cfg;
    cfg.num_files = 2;
    cfg.events_per_file = 20;
    Generator g(cfg);
    const std::string path = test_util::scratch_path("nova_rt.htf").string();
    ASSERT_TRUE(g.write_htf_file(1, path).ok());
    auto loaded = Generator::read_htf_file(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_EQ(*loaded, g.make_file_events(1));
    fs::remove(path);
}

TEST(SelectorTest, AcceptsOnlyCandidatesPassingAllCuts) {
    Selector sel;
    Slice good;
    good.contained = 1;
    good.nhits = 100;
    good.cal_e = 2.0f;
    good.epi0_score = 0.9f;
    good.muon_score = 0.1f;
    good.cosmic_score = 0.1f;
    EXPECT_TRUE(sel.select(good));

    auto fails = [&](auto mutate) {
        Slice s = good;
        mutate(s);
        return !sel.select(s);
    };
    EXPECT_TRUE(fails([](Slice& s) { s.contained = 0; }));
    EXPECT_TRUE(fails([](Slice& s) { s.nhits = 3; }));
    EXPECT_TRUE(fails([](Slice& s) { s.cal_e = 0.2f; }));
    EXPECT_TRUE(fails([](Slice& s) { s.cal_e = 9.0f; }));
    EXPECT_TRUE(fails([](Slice& s) { s.epi0_score = 0.5f; }));
    EXPECT_TRUE(fails([](Slice& s) { s.muon_score = 0.9f; }));
    EXPECT_TRUE(fails([](Slice& s) { s.cosmic_score = 0.9f; }));
    EXPECT_EQ(sel.slices_examined(), 8u);
}

TEST(SelectorTest, SelectionIsDownSelection) {
    // The paper's selection has a huge rejection ratio; ours must at least
    // reject the overwhelming majority while accepting a non-empty set.
    Generator g;
    Selector sel;
    std::uint64_t accepted = 0, total = 0;
    for (std::uint64_t e = 0; e < 4000; ++e) {
        const auto rec = g.make_event(10000, 1, e);
        accepted += sel.selected_ids(rec).size();
        total += rec.slices.size();
    }
    EXPECT_GT(total, 10000u);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(static_cast<double>(accepted) / static_cast<double>(total), 0.05);
}

TEST(SelectorTest, SliceIdPackingIsInjectiveAcrossRealisticRanges) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t run : {10000u, 10001u}) {
        for (std::uint64_t subrun : {0u, 63u}) {
            for (std::uint64_t event : {0u, 2259u}) {
                for (std::uint32_t idx : {0u, 31u}) {
                    EXPECT_TRUE(seen.insert(SliceId{run, subrun, event, idx}.packed()).second);
                }
            }
        }
    }
}

TEST(GeneratorTest, CosmicStreamHasTwelveTimesTheCandidates) {
    // Paper §III-A: cosmic samples are "recorded at a rate 12 times higher
    // than the beam data" — 108k-144k candidates per file vs 9k-12k.
    DatasetConfig beam;
    beam.num_files = 4;
    beam.events_per_file = 200;
    const DatasetConfig cosmic = beam.cosmic();
    EXPECT_EQ(cosmic.events_per_file, beam.events_per_file * 12);

    Generator beam_gen(beam), cosmic_gen(cosmic);
    const double ratio = static_cast<double>(cosmic_gen.total_events()) /
                         static_cast<double>(beam_gen.total_events());
    EXPECT_NEAR(ratio, 12.0, 2.5);  // jitter differs per stream
}

TEST(SelectorTest, CosmicStreamIsAlmostFullyRejected) {
    DatasetConfig beam;
    beam.events_per_file = 64;
    Generator beam_gen(beam), cosmic_gen(beam.cosmic());
    Selector sel;
    auto acceptance = [&](const Generator& g) {
        std::uint64_t accepted = 0, total = 0;
        for (std::uint64_t e = 0; e < 3000; ++e) {
            const auto rec = g.make_event(g.config().first_run, 0, e);
            accepted += sel.selected_ids(rec).size();
            total += rec.slices.size();
        }
        return static_cast<double>(accepted) / static_cast<double>(total);
    };
    const double beam_rate = acceptance(beam_gen);
    const double cosmic_rate = acceptance(cosmic_gen);
    EXPECT_GT(beam_rate, 0.0);
    EXPECT_LT(cosmic_rate, beam_rate / 10.0);  // cosmics nearly all rejected
}

TEST(SelectorTest, ComputeIterationsDoNotChangeOutcome) {
    Generator g;
    const auto rec = g.make_event(10000, 2, 7);
    Selector fast;
    SelectionCuts slow_cuts;
    slow_cuts.compute_iterations = 500;
    Selector slow(slow_cuts);
    EXPECT_EQ(fast.selected_ids(rec), slow.selected_ids(rec));
}

}  // namespace
