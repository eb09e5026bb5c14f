// LSM internals: arena + concurrent-skiplist memtable, block-compressed
// SSTables with the two-tier cache, and the VersionSet manifest — including
// the crash-torture harness that reopens a copy of the database directory
// captured at every durability boundary and checks bit-identical readback
// (keys, values, MVCC seq/epoch stamps) against a deterministic oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/compression.hpp"
#include "common/crc32.hpp"
#include "yokan/lsm/arena.hpp"
#include "yokan/lsm/block.hpp"
#include "yokan/lsm/lsm_db.hpp"
#include "yokan/lsm/memtable.hpp"
#include "yokan/lsm/skiplist.hpp"
#include "yokan/lsm/version_set.hpp"
#include "yokan/lsm/wal.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::yokan;
using namespace hep::yokan::lsm;

std::string temp_dir(const std::string& tag) {
    auto path = fs::temp_directory_path() / ("lsm_internals_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
    return path.string();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------------- arena

TEST(ArenaTest, BumpAllocatesAndTracksBytes) {
    Arena arena(1024);
    char* a = arena.allocate(100);
    char* b = arena.allocate(100);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    std::memset(a, 'x', 100);
    std::memset(b, 'y', 100);
    EXPECT_EQ(a[99], 'x');  // no overlap
    EXPECT_EQ(b[0], 'y');
    EXPECT_GE(arena.allocated_bytes(), 1024u);
    EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedBlock) {
    Arena arena(256);
    char* small = arena.allocate(10);
    char* big = arena.allocate(4096);  // larger than the block size
    char* small2 = arena.allocate(10);
    ASSERT_NE(big, nullptr);
    std::memset(big, 'b', 4096);
    // The partial block keeps serving small allocations.
    EXPECT_NE(small, nullptr);
    EXPECT_NE(small2, nullptr);
    EXPECT_GE(arena.block_count(), 2u);
}

TEST(ArenaTest, AlignmentRespected) {
    Arena arena(512);
    (void)arena.allocate(3, 1);
    char* p = arena.allocate(64, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
}

// ---------------------------------------------------------------- skiplist

TEST(SkipListTest, OrderedIterationAndSeekSemantics) {
    SkipListMemTableRep rep(64 * 1024, 12);
    const std::vector<std::string> keys = {"delta", "alpha", "echo", "bravo", "charlie"};
    for (std::size_t i = 0; i < keys.size(); ++i) {
        rep.insert(keys[i], "v-" + keys[i], Stamp{i + 2, 0}, false);
    }
    EXPECT_EQ(rep.count(), keys.size());

    auto cur = rep.cursor();
    std::vector<std::string> seen;
    for (cur->seek_first(); cur->valid(); cur->next()) seen.emplace_back(cur->key());
    EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "bravo", "charlie", "delta", "echo"}));

    cur->seek_geq("bravo");
    ASSERT_TRUE(cur->valid());
    EXPECT_EQ(cur->key(), "bravo");
    cur->seek_gt("bravo");
    ASSERT_TRUE(cur->valid());
    EXPECT_EQ(cur->key(), "charlie");
    cur->seek_geq("bravo0");  // between bravo and charlie
    ASSERT_TRUE(cur->valid());
    EXPECT_EQ(cur->key(), "charlie");
    cur->seek_gt("echo");
    EXPECT_FALSE(cur->valid());

    MemEntry e;
    ASSERT_TRUE(rep.get("charlie", e));
    EXPECT_EQ(e.value, "v-charlie");
    EXPECT_EQ(e.stamp.seq, 6u);
    EXPECT_FALSE(rep.get("nope", e));
}

TEST(SkipListTest, OverwriteKeepsNewestAndTombstones) {
    SkipListMemTableRep rep(64 * 1024, 12);
    rep.insert("k", "old", Stamp{2, 0}, false);
    rep.insert("k", "new", Stamp{3, 7}, false);
    MemEntry e;
    ASSERT_TRUE(rep.get("k", e));
    EXPECT_EQ(e.value, "new");
    EXPECT_EQ(e.stamp.seq, 3u);
    EXPECT_EQ(e.stamp.epoch, 7u);
    rep.insert("k", {}, Stamp{4, 0}, true);
    ASSERT_TRUE(rep.get("k", e));
    EXPECT_TRUE(e.tombstone);
    EXPECT_EQ(rep.count(), 1u);  // overwrites do not grow the key count
}

TEST(SkipListTest, MatchesMapReferenceUnderRandomOps) {
    SkipListMemTableRep rep(16 * 1024, 12);
    std::map<std::string, std::pair<std::string, std::uint64_t>> ref;
    std::mt19937_64 rng(20260809);
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "key" + std::to_string(rng() % 300);
        const std::string val = "val" + std::to_string(rng());
        rep.insert(key, val, Stamp{static_cast<std::uint64_t>(i + 2), 0}, false);
        ref[key] = {val, static_cast<std::uint64_t>(i + 2)};
    }
    EXPECT_EQ(rep.count(), ref.size());
    auto cur = rep.cursor();
    auto it = ref.begin();
    for (cur->seek_first(); cur->valid(); cur->next(), ++it) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(cur->key(), it->first);
        const MemEntry e = cur->entry();
        EXPECT_EQ(e.value, it->second.first);
        EXPECT_EQ(e.stamp.seq, it->second.second);
    }
    EXPECT_EQ(it, ref.end());
}

TEST(SkipListTest, EntriesSurviveManyInsertsArenaStability) {
    // Payload views handed out earlier must stay valid while the arena grows
    // (bump allocation never moves existing blocks).
    SkipListMemTableRep rep(1024, 12);  // tiny arena blocks: force many refills
    rep.insert("pinned", "pinned-value", Stamp{2, 0}, false);
    MemEntry pinned;
    ASSERT_TRUE(rep.get("pinned", pinned));
    const std::string_view view = pinned.value;
    for (int i = 0; i < 5000; ++i) {
        rep.insert("fill" + std::to_string(i), std::string(64, 'f'), Stamp{3, 0}, false);
    }
    EXPECT_EQ(view, "pinned-value");  // the old block was never freed or moved
    EXPECT_GT(rep.arena_bytes(), 5000u * 64u);
}

// ------------------------------------------------------------ block envelope

std::string envelope(std::string raw, bool try_compress) {
    std::string out;
    encode_block(raw, try_compress, out);
    return out;
}

/// decode_block into an owned string.
Status decode_block(std::string_view stored, std::string& raw_out) {
    BlockBuffer scratch;
    auto raw = lsm::decode_block(stored, scratch);
    if (!raw.ok()) return raw.status();
    raw_out.assign(*raw);
    return Status::OK();
}

TEST(BlockEnvelopeTest, CompressibleRoundTrip) {
    std::string raw(4096, '\0');  // zeros: delta/varint compress massively
    const std::string stored = envelope(raw, /*try_compress=*/true);
    ASSERT_LT(stored.size(), raw.size());
    EXPECT_TRUE(block_is_compressed(stored));
    std::string back;
    ASSERT_TRUE(decode_block(stored, back).ok());
    EXPECT_EQ(back, raw);
}

TEST(BlockEnvelopeTest, IncompressibleFallsBackToRaw) {
    std::string raw(1024, '\0');
    std::mt19937_64 rng(7);
    for (auto& c : raw) c = static_cast<char>(rng());
    const std::string stored = envelope(raw, /*try_compress=*/true);
    EXPECT_FALSE(block_is_compressed(stored));
    EXPECT_EQ(stored.size(), raw.size() + kBlockEnvelopeHeader);
    std::string back;
    ASSERT_TRUE(decode_block(stored, back).ok());
    EXPECT_EQ(back, raw);
}

TEST(BlockEnvelopeTest, UnpaddedSizesRoundTrip) {
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 255u, 1000u}) {
        std::string raw(n, 'z');
        std::string back;
        ASSERT_TRUE(decode_block(envelope(raw, true), back).ok());
        EXPECT_EQ(back, raw) << "size " << n;
        ASSERT_TRUE(decode_block(envelope(raw, false), back).ok());
        EXPECT_EQ(back, raw) << "size " << n << " uncompressed";
    }
}

TEST(BlockEnvelopeTest, AppendsToTheTableBufferAndLeavesTheBlockAsItWas) {
    std::mt19937_64 rng(11);
    for (std::size_t n : {7u, 9u, 100u, 4095u}) {
        for (bool compressible : {true, false}) {
            std::string block(n, '\0');
            if (!compressible) {
                for (auto& c : block) c = static_cast<char>(rng());
            }
            const std::string original = block;
            std::string table = "previous-envelopes";
            encode_block(block, /*try_compress=*/true, table);
            EXPECT_EQ(block, original) << n;  // padding trimmed back off
            ASSERT_EQ(table.compare(0, 18, "previous-envelopes"), 0);
            const std::string_view stored = std::string_view(table).substr(18);
            EXPECT_EQ(block_is_compressed(stored), compressible) << n;

            // A raw envelope decodes to a view of its own payload; a
            // compressed one into the scratch buffer.
            BlockBuffer scratch;
            auto raw = decode_block(stored, scratch);
            ASSERT_TRUE(raw.ok()) << raw.status().to_string();
            EXPECT_EQ(*raw, original) << n;
            EXPECT_EQ(raw->data() == stored.data() + kBlockEnvelopeHeader, !compressible) << n;
        }
    }
}

TEST(BlockEnvelopeTest, CorruptEnvelopesRejected) {
    std::string back;
    EXPECT_FALSE(decode_block("", back).ok());
    EXPECT_FALSE(decode_block("abc", back).ok());  // shorter than the header
    std::string stored = envelope(std::string(256, '\0'), true);
    stored[0] = 99;  // bogus codec byte
    EXPECT_FALSE(decode_block(stored, back).ok());
    std::string truncated = envelope(std::string(256, '\0'), true);
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(decode_block(truncated, back).ok());
}

TEST(BlockCacheTest, TwoTierChargesAndServes) {
    BlockCache cache(1 << 16, 1 << 16);
    auto data = std::make_shared<const std::string>(std::string(100, 'd'));
    cache.insert(BlockCache::kDecoded, 1, 0, data);
    cache.insert(BlockCache::kCompressed, 1, 0, data);
    EXPECT_NE(cache.lookup(BlockCache::kDecoded, 1, 0), nullptr);
    EXPECT_NE(cache.lookup(BlockCache::kCompressed, 1, 0), nullptr);
    EXPECT_EQ(cache.lookup(BlockCache::kDecoded, 2, 0), nullptr);
    const auto s = cache.stats();
    EXPECT_EQ(s.decoded_hits, 1u);
    EXPECT_EQ(s.compressed_hits, 1u);
    EXPECT_EQ(s.decoded_used_bytes, 100u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(BlockCacheTest, ZeroCapacityTierIsDisabledAndBudgetsAreBounded) {
    BlockCache cache(256, 0);
    auto blob = std::make_shared<const std::string>(std::string(100, 'b'));
    cache.insert(BlockCache::kCompressed, 1, 0, blob);
    EXPECT_EQ(cache.lookup(BlockCache::kCompressed, 1, 0), nullptr);
    for (std::uint64_t i = 0; i < 10; ++i) {
        cache.insert(BlockCache::kDecoded, 1, i, blob);
    }
    EXPECT_LE(cache.stats().decoded_used_bytes, 256u);
    EXPECT_GT(cache.stats().evictions, 0u);
}

// --------------------------------------------- compressed SSTables end to end

TEST(SstCompressionTest, CompressedTableReadsFewerBytesPerColdGet) {
    const std::string dir = temp_dir("sst_compression");
    const std::size_t kN = 500;
    auto build = [&](const std::string& name, bool compress) {
        SstWriter w(dir + "/" + name, 1, 1024, compress);
        for (std::size_t i = 0; i < kN; ++i) {
            char key[16];
            std::snprintf(key, sizeof key, "k%06zu", i);
            // Highly compressible payload, as HEP product blobs often are.
            EXPECT_TRUE(w.add(key, Stamp{i + 1, 0}, std::string(128, 'p')).ok());
        }
        auto meta = w.finish();
        EXPECT_TRUE(meta.ok());
        return *meta;
    };
    const TableMeta plain_meta = build("plain.sst", false);
    const TableMeta comp_meta = build("comp.sst", true);
    (void)plain_meta;
    (void)comp_meta;

    auto cold_bytes = [&](const std::string& name) {
        auto cache = std::make_shared<BlockCache>(1 << 20, 1 << 20);
        auto reader = SstReader::open(dir + "/" + name, 1, cache);
        EXPECT_TRUE(reader.ok()) << reader.status().to_string();
        for (std::size_t i = 0; i < kN; i += 17) {
            char key[16];
            std::snprintf(key, sizeof key, "k%06zu", i);
            auto r = (*reader)->get(key);
            EXPECT_TRUE(r.ok()) << r.status().to_string();
            EXPECT_EQ(r->value.value_or(""), std::string(128, 'p'));
        }
        return cache->stats();
    };
    const auto plain = cold_bytes("plain.sst");
    const auto comp = cold_bytes("comp.sst");
    EXPECT_GT(plain.disk_bytes_read, 0u);
    // The whole point of per-block compression: cold gets touch fewer bytes.
    EXPECT_LT(comp.disk_bytes_read * 2, plain.disk_bytes_read);
    EXPECT_GT(comp.decompressions, 0u);
}

TEST(SstCompactionReadTest, BypassesTheCacheAndChecksEveryBlock) {
    const std::string dir = temp_dir("sst_compaction_read");
    const std::string path = dir + "/t.sst";
    SstWriter w(path, 7, 256, /*compress_blocks=*/true);
    std::vector<std::pair<std::string, std::string>> rows;
    for (int i = 0; i < 400; ++i) {
        char key[16];
        std::snprintf(key, sizeof key, "k%05d", i);
        // Alternate compressible and incompressible runs of blocks, so both
        // the in-place raw path and the decode path are read.
        std::string value = (i / 20) % 2 ? std::string(40, 'c') : std::to_string(i * 7919u) +
                                                                     std::to_string(i * 104729u);
        rows.emplace_back(key, value);
        ASSERT_TRUE(w.add(key, Stamp{static_cast<std::uint64_t>(i) + 1, 0}, value).ok());
    }
    ASSERT_TRUE(w.finish().ok());

    auto read_all = [&](SstReader& reader, std::vector<std::pair<std::string, std::string>>& out) {
        auto it = reader.make_compaction_iterator();
        Status st = it.seek_after({});
        while (st.ok() && it.valid()) {
            out.emplace_back(it.key(), it.value());
            st = it.next();
        }
        return st;
    };
    auto cache = std::make_shared<BlockCache>(1 << 20, 1 << 20);
    {
        auto reader = SstReader::open(path, 7, cache);
        ASSERT_TRUE(reader.ok()) << reader.status().to_string();
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_TRUE(read_all(**reader, got).ok());
        EXPECT_EQ(got, rows);
        const BlockCacheStats stats = cache->stats();
        EXPECT_EQ(stats.misses + stats.decoded_hits + stats.compressed_hits, 0u);
        EXPECT_EQ(stats.decoded_used_bytes + stats.compressed_used_bytes, 0u);
    }

    // A flipped byte in a data block fails the pass with Corruption.
    std::string bytes = read_file(path);
    bytes[bytes.size() / 4] ^= 0x20;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    auto reader = SstReader::open(path, 8, cache);
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    std::vector<std::pair<std::string, std::string>> got;
    const Status st = read_all(**reader, got);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.to_string();
    EXPECT_LT(got.size(), rows.size());
    reader->reset();
    fs::remove_all(dir);
}

TEST(SstCompressionTest, PerBlockBloomSkipsDecodeOnMiss) {
    const std::string dir = temp_dir("sst_block_bloom");
    SstWriter w(dir + "/t.sst", 1, 512, true);
    for (int i = 0; i < 200; i += 2) {  // only even keys
        char key[16];
        std::snprintf(key, sizeof key, "k%06d", i);
        ASSERT_TRUE(w.add(key, Stamp{}, "v").ok());
    }
    ASSERT_TRUE(w.finish().ok());
    auto cache = std::make_shared<BlockCache>(1 << 20, 1 << 20);
    auto reader = SstReader::open(dir + "/t.sst", 1, cache);
    ASSERT_TRUE(reader.ok());
    std::uint64_t missing_probes = 0;
    for (int i = 1; i < 200; i += 2) {  // every odd key: absent
        char key[16];
        std::snprintf(key, sizeof key, "k%06d", i);
        auto r = (*reader)->get(key);
        EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
        ++missing_probes;
    }
    // Blooms (table + per-block) must have elided nearly every block fetch:
    // far fewer decompressions than missing-key probes.
    EXPECT_LT(cache->stats().decompressions, missing_probes / 4);
}

// ------------------------------------------------ golden SSTable bytes

std::uint64_t golden_lcg(std::uint64_t& state) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
}

void append_be64(std::string& out, std::uint64_t v) {
    for (int b = 7; b >= 0; --b) out.push_back(static_cast<char>(v >> (8 * b)));
}

/// A seeded table of NOvA-shaped product entries (paper §II-C keys: dataset
/// UUID, run/subrun/event as BE64, then `label#type`), stamped, with
/// compression on. Runs of 40 events carry sparse
/// (compressible) payloads and the rest random bytes, so the table mixes
/// compressed and raw blocks; every 97th key is a tombstone.
TableMeta write_golden_nova_table(const std::string& path) {
    constexpr std::size_t kEvents = 3000;
    std::uint64_t state = 20230515;
    std::string uuid;
    for (int i = 0; i < 2; ++i) append_be64(uuid, golden_lcg(state));
    SstWriter w(path, 1, 4096, /*compress_blocks=*/true);
    for (std::size_t i = 0; i < kEvents; ++i) {
        std::string key = uuid;
        append_be64(key, 100 + i / 1000);
        append_be64(key, i / 100);
        append_be64(key, i);
        key += "slices#std::vector<hep::nova::Slice>";
        std::string value(40 + golden_lcg(state) % 200, '\0');
        if ((i / 40) % 3 == 0) {
            for (std::size_t b = 0; b < value.size(); b += 16) {
                value[b] = static_cast<char>(golden_lcg(state) % 64);
            }
        } else {
            for (char& c : value) c = static_cast<char>(golden_lcg(state));
        }
        Status st = w.add(key, Stamp{1000 + i, static_cast<std::uint32_t>(i % 3)}, value,
                          /*tombstone=*/i % 97 == 0);
        EXPECT_TRUE(st.ok()) << st.to_string();
    }
    auto meta = w.finish();
    EXPECT_TRUE(meta.ok()) << meta.status().to_string();
    return *meta;
}

/// Size and crc32 of write_golden_nova_table's file in table format v3
/// (shared-prefix keys, varint lengths and stamps, word-at-a-time bloom
/// hash).
constexpr std::size_t kGoldenNovaTableBytes = 509004;
constexpr std::uint32_t kGoldenNovaTableCrc = 0xBA6EF157u;

TEST(SstGoldenTest, NovaTableBytesMatchRecordedDigest) {
    const std::string dir = temp_dir("sst_golden");
    const TableMeta meta = write_golden_nova_table(dir + "/t.sst");
    const std::string bytes = read_file(dir + "/t.sst");
    ASSERT_EQ(bytes.size(), meta.bytes);
    // A change to these bytes is a change of the on-disk format: tables
    // already written would no longer read back.
    EXPECT_EQ(bytes.size(), kGoldenNovaTableBytes);
    EXPECT_EQ(crc32(bytes), kGoldenNovaTableCrc);

    // The table really mixes compressed and raw blocks, and reads back.
    auto cache = std::make_shared<BlockCache>(1 << 20, 1 << 20);
    auto reader = SstReader::open(dir + "/t.sst", 1, cache);
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    auto it = (*reader)->make_iterator();
    ASSERT_TRUE(it.seek_geq("").ok());
    std::size_t n = 0;
    while (it.valid()) {
        ++n;
        ASSERT_TRUE(it.next().ok());
    }
    EXPECT_EQ(n, meta.entries);
    const auto stats = cache->stats();
    EXPECT_GT(stats.decompressions, 0u);
    EXPECT_LT(stats.decompressions, stats.disk_reads);
    reader->reset();
    fs::remove_all(dir);
}

TEST(SstBloomSizingTest, CompactionOutputsSizeTheirBloomToTheirOwnEntries) {
    const std::string dir = temp_dir("bloom_sizing");
    LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 16 << 10;
    opts.block_bytes = 512;
    opts.l0_compaction_trigger = 2;
    opts.target_file_bytes = 4096;  // many outputs per compaction
    opts.background_compaction = false;
    auto opened = LsmDb::open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    LsmDb& db = **opened;
    constexpr int kKeys = 3000;
    auto value_of = [](int i) { return "value-" + std::to_string(i) + std::string(40, 'v'); };
    for (int i = 0; i < kKeys; ++i) {
        char key[16];
        std::snprintf(key, sizeof key, "key%06d", i);
        ASSERT_TRUE(db.put(key, value_of(i), true).ok());
    }
    ASSERT_TRUE(db.flush().ok());
    ASSERT_GT(db.lsm_stats().compactions, 0u);

    // Footer: index_off, index_size, bloom_off, bloom_size, entry_count,
    // flags, magic (u64 each).
    std::size_t tables = 0;
    std::uint64_t table_entries = 0;
    for (const auto& e : fs::directory_iterator(opts.path)) {
        if (e.path().extension() != ".sst") continue;
        const std::string bytes = read_file(e.path().string());
        ASSERT_GE(bytes.size(), 56u);
        std::uint64_t bloom_size = 0, entries = 0;
        std::memcpy(&bloom_size, bytes.data() + bytes.size() - 56 + 24, 8);
        std::memcpy(&entries, bytes.data() + bytes.size() - 56 + 32, 8);
        EXPECT_EQ(bloom_size, BloomFilter(entries).encoded_size()) << e.path();
        ++tables;
        table_entries += entries;
    }
    EXPECT_GT(tables, 2u);
    EXPECT_EQ(table_entries, static_cast<std::uint64_t>(kKeys));  // one version per key
    for (int i = 0; i < kKeys; ++i) {
        char key[16];
        std::snprintf(key, sizeof key, "key%06d", i);
        auto v = db.get(key);
        ASSERT_TRUE(v.ok()) << key << ": " << v.status().to_string();
        EXPECT_EQ(*v, value_of(i));
    }
    opened->reset();
    fs::remove_all(dir);
}

// ------------------------------------------------- v3 entry format

struct SstRow {
    std::string key;
    Stamp stamp;
    std::string value;
    bool tombstone = false;
    bool operator==(const SstRow& o) const {
        return key == o.key && stamp.seq == o.stamp.seq && stamp.epoch == o.stamp.epoch &&
               value == o.value && tombstone == o.tombstone;
    }
};

/// Rows that cross restart points inside blocks (~60 small records per
/// 1 KiB block), with keys extending their predecessor ("…/0007",
/// "…/0007x", "…/0007xy"), tombstones, epochs != 0, and two 2 KiB values in
/// a row, the second of which fills a block on its own.
std::vector<SstRow> format_rows() {
    std::vector<SstRow> rows;
    for (std::uint64_t i = 0; i < 300; ++i) {
        char key[32];
        std::snprintf(key, sizeof key, "dataset/run/%04llu", static_cast<unsigned long long>(i));
        const auto epoch = static_cast<std::uint32_t>(i % 5 == 0 ? 0 : 1000 + i);
        const std::uint64_t seq = (i * 2654435761u) % 100000 + 1;
        if (i % 11 == 3) {
            rows.push_back({key, {seq, epoch}, "", true});
        } else {
            const std::size_t len = (i == 150 || i == 151) ? 2048 : i % 13;
            rows.push_back({key, {seq, epoch}, std::string(len, static_cast<char>('a' + i % 26))});
        }
        if (i % 7 == 0) {
            rows.push_back({std::string(key) + "x", {seq + 1, 0}, "extends"});
            rows.push_back({std::string(key) + "xy", {seq + 2, 7}, "", true});
        }
    }
    rows.push_back({"dataset/run/zz", {1ull << 60, ~0u}, "large varints"});
    return rows;
}

std::string write_format_table(const std::string& path, const std::vector<SstRow>& rows,
                               std::size_t block_bytes = 1024) {
    SstWriter w(path, 1, block_bytes, /*compress_blocks=*/false);
    for (const SstRow& r : rows) EXPECT_TRUE(w.add(r.key, r.stamp, r.value, r.tombstone).ok());
    auto meta = w.finish();
    EXPECT_TRUE(meta.ok()) << meta.status().to_string();
    EXPECT_EQ(meta->entries, rows.size());
    EXPECT_FALSE(meta->tombstone_free);
    return path;
}

/// Every row of `reader`, through a cached or a compaction iterator.
Status read_rows(SstReader& reader, bool cached, std::vector<SstRow>& out) {
    auto it = cached ? reader.make_iterator() : reader.make_compaction_iterator();
    Status st = it.seek_after({});
    while (st.ok() && it.valid()) {
        out.push_back({std::string(it.key()), it.stamp(), std::string(it.value()),
                       it.is_tombstone()});
        st = it.next();
    }
    return st;
}

TEST(SstFormatTest, RoundTripsPrefixesRestartsTombstonesAndStamps) {
    const std::string dir = temp_dir("sst_format");
    const std::vector<SstRow> rows = format_rows();
    const std::string path = write_format_table(dir + "/t.sst", rows);
    std::size_t raw_bytes = 0;
    for (const SstRow& r : rows) raw_bytes += r.key.size() + r.value.size();

    auto cache = std::make_shared<BlockCache>(1 << 20, 1 << 20);
    auto reader = SstReader::open(path, 1, cache);
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    for (bool cached : {true, false}) {
        std::vector<SstRow> got;
        ASSERT_TRUE(read_rows(**reader, cached, got).ok());
        EXPECT_EQ(got, rows) << (cached ? "cached" : "compaction") << " iterator";
    }
    for (const SstRow& r : rows) {
        auto hit = (*reader)->get(r.key);
        ASSERT_TRUE(hit.ok()) << r.key << ": " << hit.status().to_string();
        EXPECT_EQ(hit->stamp.seq, r.stamp.seq) << r.key;
        EXPECT_EQ(hit->stamp.epoch, r.stamp.epoch) << r.key;
        EXPECT_EQ(hit->value.has_value(), !r.tombstone) << r.key;
        if (!r.tombstone) {
            EXPECT_EQ(*hit->value, r.value) << r.key;
        }
    }
    // Absent keys between, around and inside shared prefixes.
    for (const char* absent : {"", "dataset/run/", "dataset/run/0000w", "dataset/run/0007xz",
                               "dataset/run/0007xyz", "dataset/run/0008x", "dataset/run/01",
                               "dataset/run/zy", "dataset/run/zzz", "zzz"}) {
        EXPECT_EQ((*reader)->get(absent).status().code(), StatusCode::kNotFound) << absent;
    }
    // Seeks land where an ordered map says, across restarts and blocks.
    std::map<std::string, std::size_t> order;
    for (std::size_t i = 0; i < rows.size(); ++i) order[rows[i].key] = i;
    for (const std::string bound : {"", "dataset/run/0007", "dataset/run/0007x",
                                    "dataset/run/0007xa", "dataset/run/0150", "dataset/run/0151",
                                    "dataset/run/0299", "dataset/run/zz", "zzz"}) {
        for (bool inclusive : {true, false}) {
            auto it = (*reader)->make_iterator();
            ASSERT_TRUE((inclusive ? it.seek_geq(bound) : it.seek_after(bound)).ok());
            auto want = inclusive ? order.lower_bound(bound) : order.upper_bound(bound);
            ASSERT_EQ(it.valid(), want != order.end()) << bound;
            if (it.valid()) {
                EXPECT_EQ(it.key(), want->first) << bound << " " << inclusive;
            }
        }
    }
    // Keys cost their suffix: the table is smaller than its raw keys and values.
    EXPECT_LT(fs::file_size(path), raw_bytes);
    reader->reset();
    fs::remove_all(dir);
}

/// Where block 0 of an uncompressed table sits in its file, and the index
/// fields that describe it.
struct BlockZero {
    std::size_t payload = 0, payload_len = 0;  // the raw block inside its envelope
    std::size_t crc_at = 0;                    // index: the envelope's crc32
    std::size_t restarts_at = 0, n_restarts = 0;
};

BlockZero locate_block_zero(const std::string& bytes) {
    BlockZero b;
    std::uint64_t index_off = 0, offset = 0, size = 0;
    std::uint32_t klen = 0, bloom_len = 0, n_restarts = 0;
    std::memcpy(&index_off, bytes.data() + bytes.size() - 56, 8);
    std::size_t p = index_off + 8;
    std::memcpy(&klen, bytes.data() + p, 4);
    p += 4 + klen;
    std::memcpy(&offset, bytes.data() + p, 8);
    std::memcpy(&size, bytes.data() + p + 8, 8);
    b.payload = offset + kBlockEnvelopeHeader;
    b.payload_len = size - kBlockEnvelopeHeader;
    b.crc_at = p + 16;
    std::memcpy(&bloom_len, bytes.data() + p + 24, 4);
    p += 28 + bloom_len;
    std::memcpy(&n_restarts, bytes.data() + p, 4);
    b.restarts_at = p + 4;
    b.n_restarts = n_restarts;
    return b;
}

/// Re-checksum block 0 after its raw bytes were edited, so the reader gets
/// past the crc to the record decoder.
void reseal_block_zero(std::string& bytes, const BlockZero& b) {
    const std::uint32_t crc = crc32(std::string_view(bytes).substr(
        b.payload - kBlockEnvelopeHeader, b.payload_len + kBlockEnvelopeHeader));
    std::memcpy(bytes.data() + b.crc_at, &crc, 4);
}

TEST(SstFormatTest, MalformedRecordsAndRestartsReadAsCorruption) {
    const std::string dir = temp_dir("sst_format_corrupt");
    // One block of 41 records (restarts at 0, 16 and 32), the last a
    // tombstone, so its epoch varint is the block's final byte.
    std::vector<SstRow> rows;
    for (int i = 0; i < 40; ++i) {
        rows.push_back({"event/" + std::to_string(100 + i), {static_cast<std::uint64_t>(i + 1), 0},
                        "v" + std::to_string(i)});
    }
    rows.push_back({"event/zz", {99, 3}, "", true});
    const std::string path = write_format_table(dir + "/t.sst", rows, 1 << 16);
    const std::string good = read_file(path);
    const BlockZero b = locate_block_zero(good);
    ASSERT_EQ(b.n_restarts, 3u);  // records 0, 16 and 32

    // Damage the index can show fails the open; damage inside a block fails
    // the get of `probe` and every full scan.
    auto expect_corrupt = [&](const std::string& bytes, const std::string& probe,
                              const std::string& what, bool at_open = false) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
        auto reader = SstReader::open(path, 2, std::make_shared<BlockCache>(1 << 20, 1 << 20));
        if (at_open) {
            EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << what;
            return;
        }
        ASSERT_TRUE(reader.ok()) << what << ": " << reader.status().to_string();
        EXPECT_EQ((*reader)->get(probe).status().code(), StatusCode::kCorruption) << what;
        for (bool cached : {true, false}) {
            std::vector<SstRow> got;
            EXPECT_EQ(read_rows(**reader, cached, got).code(), StatusCode::kCorruption) << what;
            EXPECT_LT(got.size(), rows.size()) << what;
        }
    };

    // Record 1 claims to share more bytes than record 0's key has.
    const std::size_t record1 = 3 + rows[0].key.size() + 2 + rows[0].value.size();
    std::string bytes = good;
    ASSERT_EQ(bytes[b.payload + record1], 8);  // "event/10" is shared
    bytes[b.payload + record1] = 0x7F;
    reseal_block_zero(bytes, b);
    expect_corrupt(bytes, rows[1].key, "shared > previous key");

    // The final epoch varint continues past the end of the block.
    bytes = good;
    bytes[b.payload + b.payload_len - 1] = static_cast<char>(0x83);
    reseal_block_zero(bytes, b);
    expect_corrupt(bytes, "event/zz", "varint past the block");

    // The final record's key suffix runs past the block.
    bytes = good;
    const std::size_t last = b.payload + b.payload_len - (3 + 2 + 2);  // header, "zz", stamp
    ASSERT_EQ(bytes[last + 1], 2);  // non_shared of "event/zz"
    bytes[last + 1] = 0x70;
    reseal_block_zero(bytes, b);
    expect_corrupt(bytes, "event/zz", "suffix past the block");

    // A restart offset past the block fails the open; one that lands
    // inside a record reads a non-zero shared length where a full key
    // must be.
    for (std::uint32_t delta : {std::uint32_t{1}, std::uint32_t(b.payload_len)}) {
        bytes = good;
        std::uint32_t restart = 0;
        std::memcpy(&restart, bytes.data() + b.restarts_at + 4, 4);
        restart += delta;
        std::memcpy(bytes.data() + b.restarts_at + 4, &restart, 4);
        expect_corrupt(bytes, rows[20].key, "restart offset +" + std::to_string(delta),
                       /*at_open=*/delta > 1);
    }
    fs::remove_all(dir);
}

// ------------------------------------------------- v3 WAL records

struct WalRow {
    Wal::RecordType type;
    std::string key, value;
    std::uint32_t epoch;
    bool operator==(const WalRow&) const = default;
};

std::vector<WalRow> replay_rows(const std::string& path) {
    std::vector<WalRow> out;
    auto n = Wal::replay(path, [&](Wal::RecordType type, std::string_view key,
                                   std::string_view value, std::uint32_t epoch) {
        out.push_back({type, std::string(key), std::string(value), epoch});
    });
    EXPECT_TRUE(n.ok());
    EXPECT_EQ(*n, out.size());
    return out;
}

TEST(WalFormatTest, PrefixSharedRecordsReplayInOrderAndStopAtATornOne) {
    const std::string dir = temp_dir("wal_format");
    const std::string path = dir + "/wal.000001.log";
    std::vector<WalRow> rows;
    std::vector<std::uintmax_t> ends;  // file size after each record
    std::size_t full_key_bytes = 0;
    {
        Wal wal;
        ASSERT_TRUE(wal.open(path).ok());
        for (int i = 0; i < 60; ++i) {
            std::string key = "uuid-0123456789abcdef/run/0001/event/" + std::to_string(1000 + i / 3);
            key += i % 3 == 0 ? "" : i % 3 == 1 ? "/hits" : "/hits#vector";  // extends its predecessor
            WalRow row{Wal::RecordType::kPut, key, std::string(i % 4, 'p'),
                       static_cast<std::uint32_t>(i % 6 == 5 ? 40 + i : 0)};
            if (i % 10 == 9) row = {Wal::RecordType::kDelete, key, "", 0};
            ASSERT_TRUE((row.type == Wal::RecordType::kDelete
                             ? wal.append_delete(row.key)
                             : wal.append_put(row.key, row.value, row.epoch))
                            .ok());
            ASSERT_TRUE(wal.sync().ok());
            rows.push_back(row);
            ends.push_back(fs::file_size(path));
            full_key_bytes += key.size();
        }
        EXPECT_EQ(wal.bytes_written(), ends.back());
    }
    EXPECT_EQ(replay_rows(path), rows);
    EXPECT_LT(ends.back(), full_key_bytes / 2);  // keys cost their suffix

    // Torn inside any record: exactly the records before it come back,
    // with their keys rebuilt from the shared prefixes.
    const std::string whole = read_file(path);
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const std::uintmax_t begin = k == 0 ? 0 : ends[k - 1];
        for (std::uintmax_t cut : {begin + 1, (begin + ends[k]) / 2, ends[k] - 1}) {
            if (cut <= begin) continue;
            std::ofstream(path, std::ios::binary | std::ios::trunc) << whole.substr(0, cut);
            const std::vector<WalRow> got = replay_rows(path);
            EXPECT_EQ(got, std::vector<WalRow>(rows.begin(), rows.begin() + k)) << "cut " << cut;
        }
    }
    // A flipped byte mid-run ends replay there too.
    std::string flipped = whole;
    flipped[(ends[29] + ends[30]) / 2] ^= 0x10;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
    EXPECT_EQ(replay_rows(path), std::vector<WalRow>(rows.begin(), rows.begin() + 30));

    // A reopened log's first record shares nothing, so a segment appended
    // to after a restart replays whole.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << whole;
    {
        Wal wal;
        ASSERT_TRUE(wal.open(path).ok());
        ASSERT_TRUE(wal.append_put(rows.back().key + "/more", "after reopen").ok());
    }
    rows.push_back({Wal::RecordType::kPut, rows.back().key + "/more", "after reopen", 0});
    EXPECT_EQ(replay_rows(path), rows);
    fs::remove_all(dir);
}

// ----------------------------------------------------- VersionSet unit tests

TableMeta mk_meta(std::uint64_t fn, const std::string& min_k, const std::string& max_k,
                  std::uint64_t entries) {
    TableMeta m;
    m.file_number = fn;
    m.min_key = min_k;
    m.max_key = max_k;
    m.entries = entries;
    m.bytes = entries * 100;
    return m;
}

void expect_states_equal(const ManifestState& a, const ManifestState& b,
                         const std::string& what) {
    EXPECT_EQ(a.next_file_number, b.next_file_number) << what;
    EXPECT_EQ(a.last_seq, b.last_seq) << what;
    EXPECT_EQ(a.wal_floor, b.wal_floor) << what;
    ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
    for (std::size_t li = 0; li < a.levels.size(); ++li) {
        ASSERT_EQ(a.levels[li].size(), b.levels[li].size()) << what << " L" << li;
        for (std::size_t ti = 0; ti < a.levels[li].size(); ++ti) {
            const TableMeta& x = a.levels[li][ti];
            const TableMeta& y = b.levels[li][ti];
            EXPECT_EQ(x.file_number, y.file_number) << what;
            EXPECT_EQ(x.min_key, y.min_key) << what;
            EXPECT_EQ(x.max_key, y.max_key) << what;
            EXPECT_EQ(x.entries, y.entries) << what;
            EXPECT_EQ(x.bytes, y.bytes) << what;
            EXPECT_EQ(x.tombstone_free, y.tombstone_free) << what;
        }
    }
}

TEST(VersionSetTest, EditEncodeDecodeRoundTrip) {
    VersionEdit e;
    e.next_file_number = 42;
    e.last_seq = 1234567;
    e.wal_floor = 9;
    e.added.emplace_back(0u, mk_meta(7, "aaa", "zzz", 100));
    e.added.emplace_back(2u, mk_meta(8, std::string("\x00\xff k", 4), "m", 5));
    e.added.back().second.tombstone_free = true;
    e.deleted.emplace_back(1u, 3u);
    auto back = VersionEdit::decode(e.encode());
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(back->next_file_number.value_or(0), 42u);
    EXPECT_EQ(back->last_seq.value_or(0), 1234567u);
    EXPECT_EQ(back->wal_floor.value_or(0), 9u);
    ASSERT_EQ(back->added.size(), 2u);
    EXPECT_EQ(back->added[0].second.min_key, "aaa");
    EXPECT_EQ(back->added[1].second.min_key, std::string("\x00\xff k", 4));
    EXPECT_FALSE(back->added[0].second.tombstone_free);
    EXPECT_TRUE(back->added[1].second.tombstone_free);
    ASSERT_EQ(back->deleted.size(), 1u);
    EXPECT_EQ(back->deleted[0].second, 3u);

    EXPECT_FALSE(VersionEdit::decode("garbage-bytes").ok());
}

TEST(VersionSetTest, RecoversAcrossRotationsAndReopens) {
    const std::string dir = temp_dir("vset_basic");
    ManifestState oracle;
    {
        VersionSet vs(dir, 5);
        vs.set_rotate_threshold(256);  // rotate every few edits
        ASSERT_TRUE(vs.recover().ok());
        oracle = vs.state();
        for (std::uint64_t i = 1; i <= 30; ++i) {
            // Zero-padded min keys: recovery re-sorts L1+ by min_key, so keep
            // insertion order equal to lexicographic order for the oracle.
            char min_k[8], max_k[8];
            std::snprintf(min_k, sizeof min_k, "a%03u", static_cast<unsigned>(i));
            std::snprintf(max_k, sizeof max_k, "z%03u", static_cast<unsigned>(i));
            VersionEdit e;
            e.next_file_number = i + 1;
            e.last_seq = i * 10;
            e.added.emplace_back(static_cast<std::uint32_t>(i % 3), mk_meta(i, min_k, max_k, i));
            if (i > 5) e.deleted.emplace_back(static_cast<std::uint32_t>((i - 5) % 3), i - 5);
            ASSERT_TRUE(vs.log_and_apply(e).ok());
            oracle.apply(e);
        }
        expect_states_equal(vs.state(), oracle, "live");
    }
    VersionSet again(dir, 5);
    ASSERT_TRUE(again.recover().ok());
    expect_states_equal(again.state(), oracle, "reopened");
}

// Kill-at-every-save-point torture: the crash_hook copies the manifest
// directory at each label; every captured image must recover to exactly the
// pre-edit state (killed before the append) or the post-edit state.
TEST(VersionSetTest, TortureRecoverFromEverySavePoint) {
    const std::string dir = temp_dir("vset_torture");
    const std::string images = temp_dir("vset_torture_images");
    struct Image {
        std::string path;
        std::string label;
        ManifestState pre, post;
    };
    std::vector<Image> captured;
    ManifestState pre_state, post_state;
    auto hook = [&](std::string_view label) {
        const std::string img = images + "/img" + std::to_string(captured.size());
        fs::create_directories(img);
        for (const auto& e : fs::directory_iterator(dir)) {
            fs::copy(e.path(), img + "/" + e.path().filename().string());
        }
        captured.push_back({img, std::string(label), pre_state, post_state});
    };
    // The fresh recover() already fires snapshot/flip hooks; its oracle state
    // is the empty manifest with max_levels levels.
    pre_state.levels.resize(4);
    post_state.levels.resize(4);
    {
        VersionSet vs(dir, 4, hook);
        vs.set_rotate_threshold(300);  // exercise snapshot+flip points often
        ASSERT_TRUE(vs.recover().ok());
        pre_state = post_state = vs.state();
        for (std::uint64_t i = 1; i <= 25; ++i) {
            char min_k[8], max_k[8];  // zero-padded: see RecoversAcrossRotations
            std::snprintf(min_k, sizeof min_k, "b%03u", static_cast<unsigned>(i));
            std::snprintf(max_k, sizeof max_k, "y%03u", static_cast<unsigned>(i));
            VersionEdit e;
            e.next_file_number = i + 1;
            e.last_seq = i * 7;
            e.wal_floor = i / 2;
            e.added.emplace_back(static_cast<std::uint32_t>(i % 4), mk_meta(i, min_k, max_k, i * 3));
            if (i > 4) e.deleted.emplace_back(static_cast<std::uint32_t>((i - 4) % 4), i - 4);
            pre_state = post_state;
            post_state.apply(e);
            ASSERT_TRUE(vs.log_and_apply(e).ok());
        }
    }
    ASSERT_GT(captured.size(), 50u);  // appends + snapshots + flips
    for (const auto& img : captured) {
        VersionSet vs(img.path, 4);  // no hook on the recovery image
        ASSERT_TRUE(vs.recover().ok()) << img.label;
        if (img.label == "manifest:before_append") {
            expect_states_equal(vs.state(), img.pre, img.label + " @ " + img.path);
        } else {
            // after_append and every snapshot/flip point: the edit is durable.
            expect_states_equal(vs.state(), img.post, img.label + " @ " + img.path);
        }
    }
}

TEST(VersionSetTest, TornTailRecoversPrefix) {
    const std::string dir = temp_dir("vset_torn");
    ManifestState after_two;
    {
        VersionSet vs(dir, 3);
        ASSERT_TRUE(vs.recover().ok());
        for (std::uint64_t i = 1; i <= 3; ++i) {
            VersionEdit e;
            e.last_seq = i;
            e.added.emplace_back(0u, mk_meta(i, "a", "b", i));
            ASSERT_TRUE(vs.log_and_apply(e).ok());
            if (i == 2) after_two = vs.state();
        }
    }
    // Chop bytes off the live log's tail: the last record becomes torn and
    // recovery must stop cleanly at the previous record.
    std::string current;
    {
        std::FILE* f = std::fopen((dir + "/CURRENT").c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char c = 0;
        ASSERT_EQ(std::fread(&c, 1, 1, f), 1u);
        std::fclose(f);
        current = std::string("MANIFEST-") + c + ".log";
    }
    const std::string log = dir + "/" + current;
    const auto full = fs::file_size(log);
    fs::resize_file(log, full - 5);
    VersionSet vs(dir, 3);
    ASSERT_TRUE(vs.recover().ok());
    expect_states_equal(vs.state(), after_two, "torn tail");
}

// ------------------------------------------------------------ trivial moves

/// What an inline-mode db's manifest looked like after each flush and
/// compaction edit, read back from a copy of the manifest files taken at the
/// "*:manifest_logged" boundary, and the crc of every .sst the first time it
/// appeared on disk.
struct ManifestTrace {
    struct Step {
        std::string label;
        ManifestState state;
    };
    std::vector<Step> steps;
    std::map<std::string, std::uint32_t> first_crc;  // .sst name -> crc32
};

std::function<void(std::string_view)> trace_manifest(const std::string& db_dir,
                                                     const std::string& scratch,
                                                     ManifestTrace& trace) {
    return [db_dir, scratch, &trace](std::string_view label) {
        for (const auto& e : fs::directory_iterator(db_dir)) {
            const std::string name = e.path().filename().string();
            if (e.path().extension() == ".sst" && !trace.first_crc.count(name)) {
                trace.first_crc[name] = crc32(read_file(e.path().string()));
            }
        }
        if (label.find("manifest_logged") == std::string_view::npos) return;
        fs::remove_all(scratch);
        fs::create_directories(scratch);
        for (const auto& e : fs::directory_iterator(db_dir)) {
            if (e.path().extension() != ".sst") fs::copy(e.path(), fs::path(scratch) / e.path().filename());
        }
        VersionSet vs(scratch, 5);
        ASSERT_TRUE(vs.recover().ok());
        trace.steps.push_back({std::string(label), vs.state()});
    };
}

/// Level and meta of every table in `s`, by file number.
std::map<std::uint64_t, std::pair<std::size_t, TableMeta>> tables_of(const ManifestState& s) {
    std::map<std::uint64_t, std::pair<std::size_t, TableMeta>> out;
    for (std::size_t li = 0; li < s.levels.size(); ++li) {
        for (const TableMeta& t : s.levels[li]) out[t.file_number] = {li, t};
    }
    return out;
}

struct CompactionKinds {
    std::size_t moves = 0;
    std::size_t deep_merges = 0;  // level >= 1 inputs rewritten into the next level
    std::size_t lone_merges = 0;  // of those, one input that overlapped nothing
};

/// True when `s` holds a table in a level below `level`.
bool any_below(const ManifestState& s, std::size_t level) {
    for (std::size_t li = level + 1; li < s.levels.size(); ++li) {
        if (!s.levels[li].empty()) return true;
    }
    return false;
}

/// Classifies every compaction edit of `trace`. A move re-files one table a
/// level down with its number, meta and on-disk bytes unchanged, and takes
/// no file number (no table is written for it). A table that may hold
/// tombstones only moves when a level below keeps them; into the bottom it
/// is merged alone, which drops them.
CompactionKinds check_compactions(const ManifestTrace& trace, const std::string& db_dir) {
    CompactionKinds kinds;
    for (std::size_t i = 1; i < trace.steps.size(); ++i) {
        if (trace.steps[i].label != "compact:manifest_logged") continue;
        const ManifestState& before = trace.steps[i - 1].state;
        const ManifestState& after = trace.steps[i].state;
        const auto was = tables_of(before), now = tables_of(after);
        std::vector<std::uint64_t> gone, added, relevelled;
        for (const auto& [fn, lt] : was) {
            auto it = now.find(fn);
            if (it == now.end()) gone.push_back(fn);
            else if (it->second.first != lt.first) relevelled.push_back(fn);
        }
        for (const auto& [fn, lt] : now) {
            if (!was.count(fn)) added.push_back(fn);
        }
        if (!relevelled.empty()) {
            EXPECT_EQ(relevelled.size(), 1u) << "step " << i;
            EXPECT_TRUE(gone.empty() && added.empty()) << "a move is the whole edit";
            const std::uint64_t fn = relevelled[0];
            const auto& [from, meta] = was.at(fn);
            const auto& [to, moved] = now.at(fn);
            EXPECT_GE(from, 1u) << "L0 tables are never moved";
            EXPECT_EQ(to, from + 1);
            EXPECT_EQ(moved.bytes, meta.bytes);
            EXPECT_EQ(moved.entries, meta.entries);
            EXPECT_EQ(moved.min_key, meta.min_key);
            EXPECT_EQ(moved.max_key, meta.max_key);
            EXPECT_EQ(after.next_file_number, before.next_file_number) << "a move writes no table";
            EXPECT_EQ(moved.tombstone_free, meta.tombstone_free);
            EXPECT_TRUE(meta.tombstone_free || any_below(before, to))
                << "a move kept tombstones a merge would drop";
            const std::string name = std::to_string(fn) + ".sst";
            const std::string path = db_dir + "/" + name;
            if (fs::exists(path)) {  // still live at the end: same bytes as when written
                EXPECT_EQ(crc32(read_file(path)), trace.first_crc.at(name)) << name;
            }
            ++kinds.moves;
            continue;
        }
        std::size_t deep_inputs = 0, from = 0;
        for (std::uint64_t fn : gone) {
            if (was.at(fn).first >= 1) {
                ++deep_inputs;
                from = was.at(fn).first;
            }
        }
        if (deep_inputs == 0) continue;
        ++kinds.deep_merges;
        if (deep_inputs == 1 && gone.size() == 1) {
            const TableMeta& input = was.at(gone[0]).second;
            EXPECT_FALSE(input.tombstone_free) << "a lone tombstone-free input is moved";
            EXPECT_FALSE(any_below(before, from + 1)) << "a lone input above a level is moved";
            for (std::uint64_t fn : added) {
                EXPECT_TRUE(now.at(fn).second.tombstone_free) << "the merge dropped tombstones";
            }
            ++kinds.lone_merges;
        }
    }
    return kinds;
}

LsmOptions trivial_move_options(const std::string& path) {
    LsmOptions opts;
    opts.path = path;
    opts.memtable_bytes = 8 << 10;
    opts.block_bytes = 512;
    opts.l0_compaction_trigger = 2;
    opts.target_file_bytes = 4 << 10;
    opts.level_base_bytes = 8 << 10;  // L1 spills after two output tables
    opts.level_multiplier = 2;
    opts.background_compaction = false;  // deterministic inline compactions
    return opts;
}

std::size_t varint_bytes(std::uint64_t v) {
    unsigned char buf[10];
    return static_cast<std::size_t>(compress::put_varint(buf, v) - buf);
}

std::string move_key(int i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    return key;
}

std::string move_value(int i, int round) {
    return "r" + std::to_string(round) + "-" + std::to_string(i) + std::string(40, 'v');
}

void expect_reads(LsmDb& db, const std::map<std::string, std::string>& want,
                  const std::string& when) {
    for (const auto& [k, v] : want) {
        auto got = db.get(k);
        ASSERT_TRUE(got.ok()) << when << " " << k << ": " << got.status().to_string();
        EXPECT_EQ(*got, v) << when << " " << k;
    }
    std::map<std::string, std::string> scanned;
    ASSERT_TRUE(db.scan({}, {}, true, [&](std::string_view k, std::string_view v) {
                      scanned.emplace(k, v);
                      return true;
                  }).ok());
    EXPECT_EQ(scanned, want) << when;
}

TEST(LsmTrivialMoveTest, BytesWrittenAreCountedPerSource) {
    // Inline flushes, L0 merges and trivial moves over sequential keys. The
    // WAL gets one frame per put, whose key shares its prefix with the
    // previous put unless a seal rotated the segment in between; every live
    // table was written by a flush or a merge, and a move writes nothing.
    const std::string db_dir = temp_dir("bytes_per_source") + "/db";
    const LsmOptions opts = trivial_move_options(db_dir);
    auto opened = LsmDb::open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    LsmDb& db = **opened;
    std::uint64_t frames = 0, memtable_bytes = 0;
    std::string prev_key;  // the segment's previous key
    for (int i = 0; i < 3000; ++i) {
        const std::string key = move_key(i);
        const std::string value = move_value(i, 0);
        ASSERT_TRUE(db.put(key, value, true).ok());
        const std::size_t shared = shared_prefix(prev_key, key);
        // [type][shared][non_shared][suffix][epoch 0][value]
        const std::size_t body = 1 + varint_bytes(shared) +
                                 varint_bytes(key.size() - shared) +
                                 (key.size() - shared) + 1 + value.size();
        frames += 4 + varint_bytes(body) + body;  // [crc][len][body]
        prev_key = key;
        memtable_bytes += key.size() + value.size() + 32;  // LsmDb's seal rule
        if (memtable_bytes >= opts.memtable_bytes) {
            memtable_bytes = 0;
            prev_key.clear();  // the next put opens a fresh segment
        }
    }
    ASSERT_TRUE(db.flush().ok());

    const LsmStats stats = db.lsm_stats();
    EXPECT_EQ(stats.wal_bytes_written, frames);
    EXPECT_GT(stats.flush_bytes_written, 0u);
    EXPECT_GT(stats.compaction_bytes_written, 0u);
    EXPECT_GT(stats.trivial_moves, 0u);
    std::uint64_t live = 0;
    for (const auto& entry : fs::directory_iterator(db_dir)) {
        if (entry.path().extension() == ".sst") live += entry.file_size();
    }
    EXPECT_GT(live, 0u);
    EXPECT_LE(live, stats.flush_bytes_written + stats.compaction_bytes_written);
    const json::Value doc = db.stats_json();
    EXPECT_EQ(doc["wal_bytes_written"].as_int(), static_cast<std::int64_t>(frames));
    EXPECT_EQ(doc["flush_bytes_written"].as_int(),
              static_cast<std::int64_t>(stats.flush_bytes_written));
    EXPECT_EQ(doc["compaction_bytes_written"].as_int(),
              static_cast<std::int64_t>(stats.compaction_bytes_written));
}

TEST(LsmTrivialMoveTest, SequentialKeysMoveWithoutRewriting) {
    const std::string dir = temp_dir("trivial_move");
    const std::string db_dir = dir + "/db";
    ManifestTrace trace;
    LsmOptions opts = trivial_move_options(db_dir);
    opts.crash_hook = trace_manifest(db_dir, dir + "/manifest_copy", trace);
    std::map<std::string, std::string> want, pinned_want;
    ReadView pin;
    {
        auto opened = LsmDb::open(opts);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        LsmDb& db = **opened;
        constexpr int kKeys = 3000;
        for (int i = 0; i < kKeys; ++i) {
            if (i == kKeys / 2) {  // pin mid-ingest: later keys are invisible through it
                pin = db.snapshot_at(db.seq());
                pinned_want = want;
            }
            ASSERT_TRUE(db.put(move_key(i), move_value(i, 0), true).ok());
            want[move_key(i)] = move_value(i, 0);
        }
        ASSERT_TRUE(db.flush().ok());

        const LsmStats stats = db.lsm_stats();
        EXPECT_GT(stats.trivial_moves, 5u);
        EXPECT_GT(stats.files_per_level[2] + stats.files_per_level[3], 0u);
        EXPECT_EQ(db.stats_json()["trivial_moves"].as_int(),
                  static_cast<std::int64_t>(stats.trivial_moves));
        expect_reads(db, want, "live");
        for (int i = 0; i < kKeys; ++i) {
            auto got = db.get_at(move_key(i), pin);
            if (i < kKeys / 2) {
                ASSERT_TRUE(got.ok()) << move_key(i) << ": " << got.status().to_string();
                EXPECT_EQ(*got, move_value(i, 0));
            } else {
                EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << move_key(i);
            }
        }
        std::map<std::string, std::string> through_pin;
        ASSERT_TRUE(db.scan_at({}, {}, true, pin, [&](std::string_view k, std::string_view v) {
                          through_pin.emplace(k, v);
                          return true;
                      }).ok());
        EXPECT_EQ(through_pin, pinned_want);

        const CompactionKinds kinds = check_compactions(trace, db_dir);
        EXPECT_EQ(kinds.moves, stats.trivial_moves);
        // Appended keys never overlap the level below: nothing deep is merged.
        EXPECT_EQ(kinds.deep_merges, 0u);
    }
    opts.crash_hook = nullptr;
    auto reopened = LsmDb::open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    expect_reads(**reopened, want, "reopened");
    std::size_t pinned_visible = 0;
    ASSERT_TRUE((*reopened)->scan_at({}, {}, false, pin, [&](std::string_view, std::string_view) {
                               ++pinned_visible;
                               return true;
                           }).ok());
    EXPECT_EQ(pinned_visible, pinned_want.size());  // stamps survive the moves
    reopened->reset();
    fs::remove_all(dir);
}

TEST(LsmTrivialMoveTest, OverlappingInputIsMergedAndNewestWins) {
    const std::string dir = temp_dir("trivial_move_overlap");
    const std::string db_dir = dir + "/db";
    ManifestTrace trace;
    LsmOptions opts = trivial_move_options(db_dir);
    opts.crash_hook = trace_manifest(db_dir, dir + "/manifest_copy", trace);
    std::map<std::string, std::string> want;
    {
        auto opened = LsmDb::open(opts);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        LsmDb& db = **opened;
        // Round 0 lays sequential keys down into L2+ (mostly by moves);
        // rounds 1-2 rewrite every third and every seventh key, so their L1
        // tables overlap the tables below and must be merged, not moved.
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 2000; ++i) {
                if (round == 1 && i % 3 != 0) continue;
                if (round == 2 && i % 7 != 0) continue;
                ASSERT_TRUE(db.put(move_key(i), move_value(i, round), true).ok());
                want[move_key(i)] = move_value(i, round);
            }
            ASSERT_TRUE(db.flush().ok());
        }
        const CompactionKinds kinds = check_compactions(trace, db_dir);
        EXPECT_GT(kinds.moves, 0u);
        EXPECT_GT(kinds.deep_merges, 0u);
        EXPECT_EQ(kinds.moves, db.lsm_stats().trivial_moves);
        expect_reads(db, want, "live");
    }
    opts.crash_hook = nullptr;
    auto reopened = LsmDb::open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    expect_reads(**reopened, want, "reopened");
    reopened->reset();
    fs::remove_all(dir);
}

TEST(LsmTrivialMoveTest, TablesWithTombstonesAreMergedIntoTheBottomLevel) {
    const std::string dir = temp_dir("trivial_move_tombstones");
    const std::string db_dir = dir + "/db";
    ManifestTrace trace;
    LsmOptions opts = trivial_move_options(db_dir);
    opts.crash_hook = trace_manifest(db_dir, dir + "/manifest_copy", trace);
    std::map<std::string, std::string> want;
    {
        auto opened = LsmDb::open(opts);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        LsmDb& db = **opened;
        // Sequential keys, every fifth of the first half erased right after
        // it is written: those tables carry tombstones down while the levels
        // below are still empty.
        for (int i = 0; i < 3000; ++i) {
            ASSERT_TRUE(db.put(move_key(i), move_value(i, 0), true).ok());
            want[move_key(i)] = move_value(i, 0);
            if (i < 1500 && i % 5 == 0) {
                ASSERT_TRUE(db.erase(move_key(i)).ok());
                want.erase(move_key(i));
            }
        }
        ASSERT_TRUE(db.flush().ok());
        const CompactionKinds kinds = check_compactions(trace, db_dir);
        EXPECT_GT(kinds.lone_merges, 0u);
        EXPECT_GT(kinds.moves, 0u);
        EXPECT_EQ(kinds.moves, db.lsm_stats().trivial_moves);
        expect_reads(db, want, "live");
    }
    opts.crash_hook = nullptr;
    auto reopened = LsmDb::open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    expect_reads(**reopened, want, "reopened");
    reopened->reset();
    fs::remove_all(dir);
}

// ------------------------------------------- LsmDb crash torture (end to end)

struct StampedRow {
    std::string key, value;
    std::uint64_t seq;
    std::uint32_t epoch;
    bool operator==(const StampedRow&) const = default;
};

std::vector<StampedRow> dump_db(Database& db) {
    std::vector<StampedRow> rows;
    Status st = db.scan_stamped({}, {}, true,
                                [&](std::string_view k, std::string_view v, const Stamp& s) {
                                    rows.push_back({std::string(k), std::string(v), s.seq,
                                                    s.epoch});
                                    return true;
                                });
    EXPECT_TRUE(st.ok()) << st.to_string();
    return rows;
}

/// One deterministic operation of the torture workload.
struct Op {
    enum Kind { kPut, kPutEpoch, kErase, kMarker } kind;
    std::string key, value;
    std::uint32_t epoch = 0;
};

void apply_op(Database& db, const Op& op) {
    switch (op.kind) {
        case Op::kPut:
            ASSERT_TRUE(db.put(op.key, op.value, true).ok());
            break;
        case Op::kPutEpoch:
            ASSERT_TRUE(db.put_stamped(op.key, hep::BufferView(std::string_view(op.value)),
                                       true, op.epoch)
                            .ok());
            break;
        case Op::kErase:
            ASSERT_TRUE(db.erase(op.key).ok());
            break;
        case Op::kMarker:
            ASSERT_TRUE(db.put(publish_marker_key(op.epoch), "", true).ok());
            break;
    }
}

std::vector<Op> torture_workload() {
    std::vector<Op> ops;
    for (int i = 0; i < 40; ++i) {
        ops.push_back({Op::kPut, "key" + std::to_string(100 + i),
                       "value-" + std::to_string(i) + std::string(24, 'v')});
        if (i % 5 == 3) {  // overwrite an earlier key
            ops.push_back({Op::kPut, "key" + std::to_string(100 + i / 2),
                           "over-" + std::to_string(i)});
        }
        if (i % 7 == 5) {  // erase a key that exists
            ops.push_back({Op::kErase, "key" + std::to_string(100 + i - 1)});
        }
        if (i % 4 == 1) {  // epoch-staged product write
            ops.push_back({Op::kPutEpoch, "staged" + std::to_string(i),
                           "s-" + std::to_string(i), static_cast<std::uint32_t>(i % 2 ? 5 : 9)});
        }
    }
    ops.push_back({Op::kMarker, "", "", 5});  // publish epoch 5; epoch 9 stays staged
    for (int i = 0; i < 10; ++i) {
        ops.push_back({Op::kPut, "tail" + std::to_string(i), "t" + std::to_string(i)});
    }
    return ops;
}

/// Reopen-kill torture: run the workload on a tiny-memtable inline-mode db
/// whose crash_hook snapshots the directory at every WAL/flush/compaction and
/// manifest boundary; then reopen every snapshot and demand bit-identical
/// readback (values AND MVCC stamps) against an oracle built by replaying the
/// same op prefix into a fresh database.
void run_reopen_torture(const std::string& memtable_kind) {
    const std::string dir = temp_dir("torture_" + memtable_kind);
    const std::string images = temp_dir("torture_images_" + memtable_kind);
    struct Image {
        std::string path;
        std::string label;
        std::size_t ops_issued;
    };
    std::vector<Image> captured;
    std::size_t ops_issued = 0;

    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable = memtable_kind;
    opts.memtable_bytes = 700;   // seal every handful of writes
    opts.block_bytes = 256;
    opts.l0_compaction_trigger = 2;
    opts.target_file_bytes = 512;
    // Deep levels fill, so L1+ tables move and merge: sized for tables of
    // shared-prefix keys and varint stamps, smaller than the raw entries.
    opts.level_base_bytes = 768;
    opts.level_multiplier = 2;
    opts.background_compaction = false;  // deterministic inline boundaries
    opts.wal_sync_every_put = true;      // every acked write is on disk
    opts.group_commit = false;
    opts.crash_hook = [&](std::string_view label) {
        const std::string img =
            images + "/img" + std::to_string(captured.size());
        fs::create_directories(img);
        for (const auto& e : fs::directory_iterator(opts.path)) {
            fs::copy(e.path(), img + "/" + e.path().filename().string());
        }
        captured.push_back({img, std::string(label), ops_issued});
    };

    const std::vector<Op> ops = torture_workload();
    {
        auto opened = lsm::LsmDb::open(opts);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        for (const Op& op : ops) {
            ++ops_issued;  // counted before the call: a seal fires mid-put
            apply_op(**opened, op);
        }
        ASSERT_TRUE((*opened)->flush().ok());
        // Kill points include trivial moves' manifest edits (same hooks as a
        // merge's) as well as merges below L1.
        const LsmStats stats = (*opened)->lsm_stats();
        EXPECT_GT(stats.trivial_moves, 0u);
        EXPECT_GT(stats.compactions, stats.trivial_moves);
    }
    ASSERT_GT(captured.size(), 20u) << "torture produced too few kill points";

    lsm::LsmOptions reopen;  // verification opens: no hook, big memtable
    reopen.memtable = memtable_kind;
    reopen.background_compaction = false;
    lsm::LsmOptions oracle_opts;
    oracle_opts.background_compaction = false;
    for (const auto& img : captured) {
        reopen.path = img.path;
        auto recovered = lsm::LsmDb::open(reopen);
        ASSERT_TRUE(recovered.ok()) << img.label << ": " << recovered.status().to_string();

        const std::string oracle_dir = img.path + ".oracle";
        fs::remove_all(oracle_dir);
        oracle_opts.path = oracle_dir;
        auto oracle = lsm::LsmDb::open(oracle_opts);
        ASSERT_TRUE(oracle.ok());
        for (std::size_t i = 0; i < img.ops_issued; ++i) apply_op(**oracle, ops[i]);

        EXPECT_EQ(dump_db(**recovered), dump_db(**oracle))
            << "divergence at " << img.label << " after " << img.ops_issued << " ops";
        EXPECT_EQ((*recovered)->epoch_visible(5), (*oracle)->epoch_visible(5)) << img.label;
        EXPECT_EQ((*recovered)->epoch_visible(9), (*oracle)->epoch_visible(9)) << img.label;
        fs::remove_all(oracle_dir);
    }
}

TEST(LsmTortureTest, ReopenKillAtEveryBoundarySkiplist) { run_reopen_torture("skiplist"); }
TEST(LsmTortureTest, ReopenKillAtEveryBoundaryMap) { run_reopen_torture("map"); }

// ------------------------------------------------- knob echo / stats wiring

TEST(LsmKnobTest, StatsJsonEchoesInternalsKnobsAndCacheCounters) {
    const std::string dir = temp_dir("knob_echo");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable = "skiplist";
    opts.block_compression = "auto";
    opts.block_cache_bytes = 1 << 20;
    opts.compressed_cache_bytes = 1 << 19;
    opts.arena_block_bytes = 128 * 1024;
    opts.skiplist_max_height = 14;
    auto db = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE((*db)->put("k" + std::to_string(i), std::string(64, 'x'), true).ok());
    }
    ASSERT_TRUE((*db)->flush().ok());
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE((*db)->get("k" + std::to_string(i)).ok());
    }
    const json::Value j = (*db)->stats_json();
    EXPECT_EQ(j["memtable"].as_string(), "skiplist");
    EXPECT_EQ(j["block_compression"].as_string(), "auto");
    EXPECT_EQ(j["block_cache_bytes"].as_int(), 1 << 20);
    EXPECT_EQ(j["compressed_cache_bytes"].as_int(), 1 << 19);
    EXPECT_EQ(j["arena_block_bytes"].as_int(), 128 * 1024);
    EXPECT_EQ(j["skiplist_max_height"].as_int(), 14);
    EXPECT_GT(j["cache_disk_reads"].as_int(), 0);
    EXPECT_GT(j["cache_disk_bytes_read"].as_int(), 0);
    const auto s = (*db)->lsm_stats();
    EXPECT_EQ(s.cache_disk_reads, static_cast<std::uint64_t>(j["cache_disk_reads"].as_int()));
}

}  // namespace
