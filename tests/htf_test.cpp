// Tests for the HTF hierarchical table format (HDF5 substitute).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "htf/htf.hpp"
#include "scratch_dir.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::htf;

std::string temp_path(const std::string& name) {
    return test_util::scratch_path("htf_test_" + name).string();
}

TEST(HtfGroupTest, ColumnsMustHaveEqualLength) {
    Group g("rec::Slice");
    ASSERT_TRUE(g.add_column("run", std::vector<std::uint64_t>{1, 2, 3}).ok());
    EXPECT_EQ(g.rows(), 3u);
    EXPECT_FALSE(g.add_column("short", std::vector<float>{1.0f}).ok());
    EXPECT_FALSE(g.add_column("run", std::vector<std::uint64_t>{4, 5, 6}).ok());  // duplicate
    ASSERT_TRUE(g.add_column("energy", std::vector<float>{1, 2, 3}).ok());
    EXPECT_EQ(g.num_columns(), 2u);
}

TEST(HtfGroupTest, TypedAccess) {
    Group g("g");
    ASSERT_TRUE(g.add_column("x", std::vector<float>{1.5f, 2.5f}).ok());
    ASSERT_NE(g.typed_column<float>("x"), nullptr);
    EXPECT_EQ(g.typed_column<double>("x"), nullptr);  // wrong type
    EXPECT_EQ(g.typed_column<float>("y"), nullptr);   // missing
    EXPECT_EQ((*g.typed_column<float>("x"))[1], 2.5f);
}

TEST(HtfFileTest, WriteReadRoundTrip) {
    const std::string path = temp_path("roundtrip.htf");
    File file;
    Group& slices = file.create_group("nova::Slice");
    ASSERT_TRUE(slices.add_column("run", std::vector<std::uint64_t>{10, 10, 11}).ok());
    ASSERT_TRUE(slices.add_column("cal_e", std::vector<float>{1.0f, 2.0f, 3.0f}).ok());
    ASSERT_TRUE(slices.add_column("nhits", std::vector<std::uint32_t>{5, 6, 7}).ok());
    Group& header = file.create_group("nova::Header");
    ASSERT_TRUE(header.add_column("pot", std::vector<double>{1e20}).ok());
    ASSERT_TRUE(file.write(path).ok());

    auto loaded = File::read(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded->num_groups(), 2u);
    const Group* g = loaded->group("nova::Slice");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->rows(), 3u);
    EXPECT_EQ((*g->typed_column<std::uint64_t>("run"))[2], 11u);
    EXPECT_EQ((*g->typed_column<float>("cal_e"))[1], 2.0f);
    EXPECT_EQ((*loaded->group("nova::Header")->typed_column<double>("pot"))[0], 1e20);
    fs::remove(path);
}

TEST(HtfFileTest, AllColumnTypesRoundTrip) {
    const std::string path = temp_path("types.htf");
    File file;
    Group& g = file.create_group("all");
    ASSERT_TRUE(g.add_column("i32", std::vector<std::int32_t>{-1, 2}).ok());
    ASSERT_TRUE(g.add_column("i64", std::vector<std::int64_t>{-10, 20}).ok());
    ASSERT_TRUE(g.add_column("u32", std::vector<std::uint32_t>{1, 2}).ok());
    ASSERT_TRUE(g.add_column("u64", std::vector<std::uint64_t>{3, 4}).ok());
    ASSERT_TRUE(g.add_column("f32", std::vector<float>{1.5f, -2.5f}).ok());
    ASSERT_TRUE(g.add_column("f64", std::vector<double>{1e-300, 1e300}).ok());
    ASSERT_TRUE(file.write(path).ok());
    auto loaded = File::read(path);
    ASSERT_TRUE(loaded.ok());
    const Group* lg = loaded->group("all");
    EXPECT_EQ((*lg->typed_column<std::int32_t>("i32"))[0], -1);
    EXPECT_EQ((*lg->typed_column<std::int64_t>("i64"))[1], 20);
    EXPECT_EQ((*lg->typed_column<double>("f64"))[1], 1e300);
    fs::remove(path);
}

TEST(HtfFileTest, SchemaReadSkipsPayloads) {
    const std::string path = temp_path("schema.htf");
    File file;
    Group& g = file.create_group("nova::Slice");
    std::vector<float> big(100000, 1.0f);
    ASSERT_TRUE(g.add_column("energy", big).ok());
    ASSERT_TRUE(g.add_column("run", std::vector<std::uint64_t>(100000, 7)).ok());
    ASSERT_TRUE(file.write(path).ok());

    auto schema = File::read_schema(path);
    ASSERT_TRUE(schema.ok()) << schema.status().to_string();
    ASSERT_EQ(schema->count("nova::Slice"), 1u);
    const auto& cols = schema->at("nova::Slice");
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_EQ(cols[0].name, "energy");
    EXPECT_EQ(cols[0].type, ColumnType::kFloat32);
    EXPECT_EQ(cols[0].rows, 100000u);
    EXPECT_EQ(cols[1].name, "run");
    EXPECT_EQ(cols[1].type, ColumnType::kUInt64);
    fs::remove(path);
}

TEST(HtfFileTest, CorruptAndMissingFilesRejected) {
    EXPECT_FALSE(File::read(temp_path("does-not-exist")).ok());
    const std::string path = temp_path("garbage.htf");
    {
        std::ofstream f(path, std::ios::binary);
        f << "this is not an HTF file at all";
    }
    auto r = File::read(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_FALSE(File::read_schema(path).ok());
    fs::remove(path);
}

TEST(HtfFileTest, TruncatedFileRejected) {
    const std::string path = temp_path("trunc.htf");
    File file;
    ASSERT_TRUE(file.create_group("g").add_column("c", std::vector<double>(1000, 1.0)).ok());
    ASSERT_TRUE(file.write(path).ok());
    fs::resize_file(path, fs::file_size(path) / 2);
    EXPECT_FALSE(File::read(path).ok());
    fs::remove(path);
}

TEST(HtfMetaTest, TypeNamesAndWidths) {
    EXPECT_EQ(to_string(ColumnType::kFloat32), "float32");
    EXPECT_EQ(width_of(ColumnType::kFloat32), 4u);
    EXPECT_EQ(width_of(ColumnType::kInt64), 8u);
    ColumnData d = std::vector<float>{1, 2};
    EXPECT_EQ(type_of(d), ColumnType::kFloat32);
    EXPECT_EQ(size_of(d), 2u);
}

}  // namespace
