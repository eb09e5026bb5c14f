// Tests for the HDF2HEPnOS-substitute: schema-driven code generation and
// parallel ingestion.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <filesystem>

#include "dataloader/loader.hpp"
#include "dataloader/schema_gen.hpp"
#include "scratch_dir.hpp"
#include "test_service.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::dataloader;

TEST(SchemaGenTest, GeneratesStructFromSchema) {
    htf::File::Schema schema;
    schema["nova::Slice"] = {
        {"run", htf::ColumnType::kUInt64, 10},
        {"subrun", htf::ColumnType::kUInt64, 10},
        {"event", htf::ColumnType::kUInt64, 10},
        {"cal_e", htf::ColumnType::kFloat32, 10},
        {"nhits", htf::ColumnType::kUInt32, 10},
        {"weight", htf::ColumnType::kFloat64, 10},
    };
    auto code = generate_class(schema, "nova::Slice", {"gen", "slices"});
    ASSERT_TRUE(code.ok()) << code.status().to_string();
    // The struct, members, serialize() and both load/store paths are emitted.
    EXPECT_NE(code->find("struct Slice {"), std::string::npos);
    EXPECT_NE(code->find("float cal_e = 0;"), std::string::npos);
    EXPECT_NE(code->find("std::uint32_t nhits = 0;"), std::string::npos);
    EXPECT_NE(code->find("double weight = 0;"), std::string::npos);
    EXPECT_NE(code->find("void serialize(A& ar, unsigned"), std::string::npos);
    EXPECT_NE(code->find("ar & cal_e & nhits & weight;"), std::string::npos);
    EXPECT_NE(code->find("load_Slice_rows"), std::string::npos);
    EXPECT_NE(code->find("store_Slice_to_hepnos"), std::string::npos);
    EXPECT_NE(code->find("namespace gen {"), std::string::npos);
    // Coordinate columns become grouping keys, not members.
    EXPECT_EQ(code->find("std::uint64_t run = 0;"), std::string::npos);
}

TEST(SchemaGenTest, RejectsGroupsWithoutCoordinates) {
    htf::File::Schema schema;
    schema["bad::Thing"] = {{"x", htf::ColumnType::kFloat32, 5}};
    EXPECT_FALSE(generate_class(schema, "bad::Thing").ok());
    EXPECT_FALSE(generate_class(schema, "no::Such").ok());
}

TEST(SchemaGenTest, GenerateAllCoversEveryGroup) {
    htf::File::Schema schema;
    for (const char* name : {"a::One", "b::Two"}) {
        schema[name] = {
            {"run", htf::ColumnType::kUInt64, 1},
            {"subrun", htf::ColumnType::kUInt64, 1},
            {"event", htf::ColumnType::kUInt64, 1},
            {"v", htf::ColumnType::kFloat32, 1},
        };
    }
    auto code = generate_all(schema);
    ASSERT_TRUE(code.ok());
    EXPECT_NE(code->find("struct One {"), std::string::npos);
    EXPECT_NE(code->find("struct Two {"), std::string::npos);
}

TEST(SchemaGenTest, WorksOnRealGeneratorOutput) {
    nova::Generator g({.num_files = 1, .events_per_file = 5});
    const std::string path = test_util::scratch_path("gen_schema.htf").string();
    ASSERT_TRUE(g.write_htf_file(0, path).ok());
    auto schema = htf::File::read_schema(path);
    ASSERT_TRUE(schema.ok());
    auto code = generate_class(*schema, "nova::Slice");
    ASSERT_TRUE(code.ok()) << code.status().to_string();
    EXPECT_NE(code->find("float epi0_score = 0;"), std::string::npos);
    fs::remove(path);
}

TEST(SchemaGenTest, GeneratedCodeActuallyCompiles) {
    // The strongest codegen check: feed the emitted header to the real
    // compiler. Skipped silently when no compiler is on PATH.
    if (std::system("c++ --version > /dev/null 2>&1") != 0) {
        GTEST_SKIP() << "no c++ compiler available";
    }
    nova::Generator g({.num_files = 1, .events_per_file = 3});
    const auto dir = test_util::scratch_path("codegen_compile");
    fs::create_directories(dir);
    const std::string htf_path = (dir / "sample.htf").string();
    ASSERT_TRUE(g.write_htf_file(0, htf_path).ok());
    auto schema = htf::File::read_schema(htf_path);
    ASSERT_TRUE(schema.ok());
    auto code = generate_class(*schema, "nova::Slice", {"generated", "slices"});
    ASSERT_TRUE(code.ok());

    const std::string header = (dir / "generated.hpp").string();
    const std::string tu = (dir / "use.cpp").string();
    {
        std::ofstream f(header);
        f << *code;
    }
    {
        std::ofstream f(tu);
        f << "#include \"generated.hpp\"\n"
             "int main() {\n"
             "    generated::Slice s{};\n"
             "    (void)s;\n"
             "    hep::htf::File file;\n"
             "    auto rows = generated::load_Slice_rows(file);\n"
             "    return static_cast<int>(rows.size());\n"
             "}\n";
    }
    const std::string src_dir = fs::absolute(fs::path(__FILE__).parent_path() / ".." / "src")
                                    .lexically_normal()
                                    .string();
    const std::string cmd = "c++ -std=c++20 -fsyntax-only -I" + src_dir + " -I" +
                            dir.string() + " " + tu + " 2> " + (dir / "errors.txt").string();
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
        std::ifstream errors(dir / "errors.txt");
        std::stringstream ss;
        ss << errors.rdbuf();
        FAIL() << "generated code did not compile:\n" << ss.str() << "\n" << *code;
    }
    fs::remove_all(dir);
}

class LoaderTest : public ::testing::Test {
  protected:
    LoaderTest() : service_(test_util::TestServiceOptions{2, 2, "map"}) {
        store_ = hepnos::DataStore::connect(service_.network, service_.connection);
    }
    test_util::TestService service_;
    hepnos::DataStore store_;
};

TEST_F(LoaderTest, IngestGeneratedPopulatesStore) {
    nova::DatasetConfig cfg;
    cfg.num_files = 6;
    cfg.events_per_file = 30;
    nova::Generator generator(cfg);

    LoaderStats stats;
    std::mutex m;
    mpisim::run_ranks(3, [&](mpisim::Comm& comm) {
        auto s = ingest_generated(store_, comm, generator, "nova/prod5", 256);
        std::lock_guard<std::mutex> lock(m);
        stats = s;  // aggregated stats are identical on every rank
    });
    EXPECT_EQ(stats.files_loaded, cfg.num_files);
    EXPECT_EQ(stats.events_stored, generator.total_events());
    EXPECT_GT(stats.slices_stored, stats.events_stored);

    // Spot-check: a concrete event and its product exist.
    const auto fc = generator.file_coordinates(2);
    hepnos::DataSet ds = store_["nova/prod5"];
    ASSERT_TRUE(ds.hasRun(fc.run));
    hepnos::Event ev = ds[fc.run][fc.subrun][0];
    std::vector<nova::Slice> slices;
    ASSERT_TRUE(ev.load(nova::kSliceLabel, slices));
    EXPECT_EQ(slices, generator.make_event(fc.run, fc.subrun, 0).slices);

    // Every generated event is present.
    std::uint64_t events_seen = 0;
    for (const auto& run : ds) {
        for (const auto& sr : run) {
            for (const auto& ev2 : sr) {
                (void)ev2;
                ++events_seen;
            }
        }
    }
    EXPECT_EQ(events_seen, generator.total_events());
}

TEST_F(LoaderTest, IngestFromHtfFilesMatchesGenerated) {
    nova::DatasetConfig cfg;
    cfg.num_files = 3;
    cfg.events_per_file = 15;
    nova::Generator generator(cfg);

    // Materialize the dataset as HTF files, then ingest from disk.
    const auto dir = test_util::scratch_path("loader_htf");
    fs::create_directories(dir);
    std::vector<std::string> files;
    for (std::uint64_t f = 0; f < cfg.num_files; ++f) {
        files.push_back((dir / ("file" + std::to_string(f) + ".htf")).string());
        ASSERT_TRUE(generator.write_htf_file(f, files.back()).ok());
    }
    LoaderStats stats;
    std::mutex m;
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        auto s = ingest_files(store_, comm, files, "nova/from-files", 128);
        std::lock_guard<std::mutex> lock(m);
        stats = s;
    });
    EXPECT_EQ(stats.files_loaded, cfg.num_files);
    EXPECT_EQ(stats.events_stored, generator.total_events());

    const auto fc = generator.file_coordinates(1);
    hepnos::Event ev = store_["nova/from-files"][fc.run][fc.subrun][3];
    std::vector<nova::Slice> slices;
    ASSERT_TRUE(ev.load(nova::kSliceLabel, slices));
    EXPECT_EQ(slices, generator.make_event(fc.run, fc.subrun, 3).slices);
    fs::remove_all(dir);
}

TEST_F(LoaderTest, IngestIsIdempotent) {
    nova::Generator generator({.num_files = 2, .events_per_file = 10});
    for (int round = 0; round < 2; ++round) {
        mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
            ingest_generated(store_, comm, generator, "nova/idem", 64);
        });
    }
    std::uint64_t events_seen = 0;
    for (const auto& run : store_["nova/idem"]) {
        for (const auto& sr : run) {
            for (const auto& ev : sr) {
                (void)ev;
                ++events_seen;
            }
        }
    }
    EXPECT_EQ(events_seen, generator.total_events());
}

}  // namespace
