// Tests for the Yokan backends: the std::map backend, the rockslite LSM
// backend (WAL recovery, flush, compaction, tombstones), and a model-based
// property test asserting both backends behave identically under random
// operation sequences.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "yokan/backend.hpp"
#include "yokan/lsm/bloom.hpp"
#include "yokan/lsm/lsm_db.hpp"
#include "yokan/lsm/sstable.hpp"
#include "yokan/lsm/wal.hpp"
#include "yokan/map_backend.hpp"
#include "yokan/protocol.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::yokan;

std::string temp_dir(const std::string& tag) {
    auto path = fs::temp_directory_path() / ("yokan_test_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
    return path.string();
}

// ------------------------------------------------------- generic behaviour

class BackendTest : public ::testing::TestWithParam<std::string> {
  protected:
    void SetUp() override {
        dir_ = temp_dir(std::string("backend_") + GetParam() +
                        ::testing::UnitTest::GetInstance()->current_test_info()->name());
        db_ = make_db();
    }
    void TearDown() override {
        db_.reset();
        fs::remove_all(dir_);
    }

    std::unique_ptr<Database> make_db() {
        json::Value cfg = json::Value::make_object();
        cfg["type"] = GetParam();
        if (GetParam() == "lsm") {
            cfg["path"] = dir_ + "/db";
            cfg["memtable_bytes"] = 2048;  // small: force flushes/compactions
            cfg["block_bytes"] = 256;
            cfg["target_file_bytes"] = 1024;
        }
        auto db = create_database(cfg, dir_);
        EXPECT_TRUE(db.ok()) << db.status().to_string();
        return std::move(db.value());
    }

    std::string dir_;
    std::unique_ptr<Database> db_;
};

TEST_P(BackendTest, PutGetRoundTrip) {
    ASSERT_TRUE(db_->put("alpha", "1").ok());
    ASSERT_TRUE(db_->put("beta", "2").ok());
    EXPECT_EQ(*db_->get("alpha"), "1");
    EXPECT_EQ(*db_->get("beta"), "2");
    EXPECT_EQ(db_->get("gamma").status().code(), StatusCode::kNotFound);
}

TEST_P(BackendTest, OverwriteSemantics) {
    ASSERT_TRUE(db_->put("k", "v1").ok());
    ASSERT_TRUE(db_->put("k", "v2").ok());
    EXPECT_EQ(*db_->get("k"), "v2");
    EXPECT_EQ(db_->put("k", "v3", /*overwrite=*/false).code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(*db_->get("k"), "v2");
    EXPECT_TRUE(db_->put("new", "v", /*overwrite=*/false).ok());
}

TEST_P(BackendTest, ExistsAndLength) {
    ASSERT_TRUE(db_->put("key", "12345").ok());
    EXPECT_TRUE(*db_->exists("key"));
    EXPECT_FALSE(*db_->exists("nope"));
    EXPECT_EQ(*db_->length("key"), 5u);
    EXPECT_EQ(db_->length("nope").status().code(), StatusCode::kNotFound);
}

TEST_P(BackendTest, EraseSemantics) {
    ASSERT_TRUE(db_->put("k", "v").ok());
    EXPECT_TRUE(db_->erase("k").ok());
    EXPECT_FALSE(*db_->exists("k"));
    EXPECT_EQ(db_->erase("k").code(), StatusCode::kNotFound);
    EXPECT_EQ(db_->erase("never-existed").code(), StatusCode::kNotFound);
    // Key can be re-created after erase.
    ASSERT_TRUE(db_->put("k", "v2").ok());
    EXPECT_EQ(*db_->get("k"), "v2");
}

TEST_P(BackendTest, EmptyValueIsValid) {
    ASSERT_TRUE(db_->put("empty", "").ok());
    EXPECT_TRUE(*db_->exists("empty"));
    EXPECT_EQ(*db_->get("empty"), "");
    EXPECT_EQ(*db_->length("empty"), 0u);
}

TEST_P(BackendTest, BinaryKeysAndValues) {
    const std::string key("\x00\x01\xff\x7f k", 6);
    const std::string value("\x00v\xff", 3);
    ASSERT_TRUE(db_->put(key, value).ok());
    EXPECT_EQ(*db_->get(key), value);
}

TEST_P(BackendTest, HelpersAgreeWithStampedCore) {
    // Every helper is a view of the stamped core: the same value, presence,
    // length and create semantics — from the memtable and, for lsm, from
    // tables after a flush and a reopen.
    auto expect_agree = [&](const std::string& key, const std::string& value,
                            std::uint32_t epoch) {
        SCOPED_TRACE(key);
        auto stamped = db_->get_stamped(key);
        ASSERT_TRUE(stamped.ok()) << stamped.status().to_string();
        EXPECT_EQ(stamped->first.sv(), value);
        EXPECT_GT(stamped->second.seq, 0u);
        EXPECT_EQ(stamped->second.epoch, epoch);
        EXPECT_EQ(*db_->get(key), value);
        EXPECT_EQ(db_->get_view(key)->sv(), value);
        EXPECT_TRUE(*db_->exists(key));
        EXPECT_EQ(*db_->length(key), value.size());
    };
    auto expect_absent = [&](const std::string& key) {
        SCOPED_TRACE(key);
        EXPECT_EQ(db_->get_stamped(key).status().code(), StatusCode::kNotFound);
        EXPECT_EQ(db_->get(key).status().code(), StatusCode::kNotFound);
        EXPECT_EQ(db_->get_view(key).status().code(), StatusCode::kNotFound);
        EXPECT_FALSE(*db_->exists(key));
        EXPECT_EQ(db_->length(key).status().code(), StatusCode::kNotFound);
    };
    auto expect_create_refused = [&](const std::string& key) {
        SCOPED_TRACE(key);
        EXPECT_EQ(db_->put(key, "x", /*overwrite=*/false).code(), StatusCode::kAlreadyExists);
        EXPECT_EQ(db_->put_view(key, BufferView(Buffer::copy_of("x")), /*overwrite=*/false)
                      .code(),
                  StatusCode::kAlreadyExists);
        EXPECT_EQ(db_->put_stamped(key, BufferView(Buffer::copy_of("x")), /*overwrite=*/false, 0)
                      .code(),
                  StatusCode::kAlreadyExists);
    };
    auto check_all = [&] {
        expect_agree("plain", "via-put", 0);
        expect_agree("view", "via-put-view", 0);
        expect_agree("staged", "via-put-stamped", 7);
        expect_absent("erased");
        expect_absent("never");
        for (const char* key : {"plain", "view", "staged"}) expect_create_refused(key);
        expect_agree("plain", "via-put", 0);  // refused creates changed nothing
    };

    ASSERT_TRUE(db_->put("plain", "via-put").ok());
    ASSERT_TRUE(db_->put_view("view", BufferView(Buffer::copy_of("via-put-view"))).ok());
    ASSERT_TRUE(db_->put_stamped("staged", BufferView(Buffer::copy_of("via-put-stamped")),
                                 /*overwrite=*/true, 7)
                    .ok());
    ASSERT_TRUE(db_->put("erased", "gone").ok());
    ASSERT_TRUE(db_->erase("erased").ok());

    // A publish marker written through each put helper flips its epoch.
    for (std::uint32_t epoch : {1u, 2u, 3u}) EXPECT_FALSE(db_->epoch_visible(epoch));
    ASSERT_TRUE(db_->put(publish_marker_key(1), "").ok());
    EXPECT_TRUE(db_->epoch_visible(1));
    ASSERT_TRUE(db_->put_view(publish_marker_key(2), BufferView(Buffer::copy_of(""))).ok());
    EXPECT_TRUE(db_->epoch_visible(2));
    ASSERT_TRUE(db_->put_stamped(publish_marker_key(3), BufferView(Buffer::copy_of("")),
                                 /*overwrite=*/true, 0)
                    .ok());
    EXPECT_TRUE(db_->epoch_visible(3));
    EXPECT_FALSE(db_->epoch_visible(4));

    check_all();
    if (GetParam() != "lsm") return;

    ASSERT_TRUE(db_->flush().ok());
    check_all();
    db_.reset();
    db_ = make_db();
    check_all();
    for (std::uint32_t epoch : {1u, 2u, 3u}) EXPECT_TRUE(db_->epoch_visible(epoch));
}

TEST_P(BackendTest, ListKeysSortedWithPrefixAndResume) {
    for (const char* k : {"run/1", "run/2", "run/3", "sub/1", "aaa"}) {
        ASSERT_TRUE(db_->put(k, "x").ok());
    }
    auto all = db_->list_keys("", "", 100);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(*all, (std::vector<std::string>{"aaa", "run/1", "run/2", "run/3", "sub/1"}));

    auto runs = db_->list_keys("", "run/", 100);
    ASSERT_TRUE(runs.ok());
    EXPECT_EQ(*runs, (std::vector<std::string>{"run/1", "run/2", "run/3"}));

    // Resume strictly after run/1, still within the prefix.
    auto resumed = db_->list_keys("run/1", "run/", 100);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(*resumed, (std::vector<std::string>{"run/2", "run/3"}));

    // Max truncates.
    auto limited = db_->list_keys("", "run/", 2);
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(*limited, (std::vector<std::string>{"run/1", "run/2"}));
}

TEST_P(BackendTest, ListKeyvalsReturnsValues) {
    ASSERT_TRUE(db_->put("a", "1").ok());
    ASSERT_TRUE(db_->put("b", "2").ok());
    auto items = db_->list_keyvals("", "", 10);
    ASSERT_TRUE(items.ok());
    ASSERT_EQ(items->size(), 2u);
    EXPECT_EQ((*items)[0], (KeyValue{"a", "1"}));
    EXPECT_EQ((*items)[1], (KeyValue{"b", "2"}));
}

TEST_P(BackendTest, ManyKeysSurviveAndIterateInOrder) {
    // Enough data to force several memtable flushes and compactions for lsm.
    constexpr int kN = 2000;
    for (int i = 0; i < kN; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "key%06d", i);
        ASSERT_TRUE(db_->put(key, "value-" + std::to_string(i)).ok());
    }
    // Spot-check random gets.
    Rng rng(5);
    for (int t = 0; t < 200; ++t) {
        const int i = static_cast<int>(rng.uniform(0, kN - 1));
        char key[16];
        std::snprintf(key, sizeof(key), "key%06d", i);
        auto v = db_->get(key);
        ASSERT_TRUE(v.ok()) << key;
        EXPECT_EQ(*v, "value-" + std::to_string(i));
    }
    // Full ordered iteration sees every key exactly once.
    int count = 0;
    std::string prev;
    ASSERT_TRUE(db_->scan("", "", false, [&](std::string_view k, std::string_view) {
                       EXPECT_GT(std::string(k), prev);
                       prev.assign(k);
                       ++count;
                       return true;
                   }).ok());
    EXPECT_EQ(count, kN);
    EXPECT_EQ(db_->size(), static_cast<std::uint64_t>(kN));
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest, ::testing::Values("map", "lsm"));

// Readers count their ops under a shared lock, so handler ULTs on different
// xstreams count concurrently: every get and scan must still be counted.
TEST(MapBackendTest, ConcurrentReadsCountExactly) {
    MapBackend db;
    ASSERT_TRUE(db.put("k", "v", /*overwrite=*/true).ok());
    constexpr int kThreads = 4, kGets = 250000, kScans = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&db] {
            for (int i = 0; i < kGets; ++i) (void)db.get_view("k");
            for (int i = 0; i < kScans; ++i) {
                (void)db.scan("", "", false, [](std::string_view, std::string_view) {
                    return true;
                });
            }
        });
    }
    for (auto& th : threads) th.join();
    const BackendStats stats = db.stats();
    EXPECT_EQ(stats.gets, std::uint64_t{kThreads} * kGets);
    EXPECT_EQ(stats.scans, std::uint64_t{kThreads} * kScans);
    EXPECT_EQ(stats.puts, 1u);
}

// ----------------------------------------------------- model equivalence

class ModelEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelEquivalenceTest, LsmMatchesStdMapUnderRandomOps) {
    const std::string dir = temp_dir("model_" + std::to_string(GetParam()));
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 512;  // tiny, to exercise flush/compaction heavily
    opts.block_bytes = 128;
    opts.target_file_bytes = 512;
    opts.l0_compaction_trigger = 3;
    opts.level_base_bytes = 2048;
    auto db_r = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db_r.ok()) << db_r.status().to_string();
    auto& db = *db_r.value();

    std::map<std::string, std::string> model;
    Rng rng(GetParam());
    constexpr int kOps = 1500;
    for (int op = 0; op < kOps; ++op) {
        const auto kind = rng.uniform(0, 9);
        std::string key = "k" + std::to_string(rng.uniform(0, 120));
        if (kind < 6) {  // put
            std::string value = "v" + std::to_string(rng.next_u64() % 1000);
            ASSERT_TRUE(db.put(key, value, true).ok());
            model[key] = value;
        } else if (kind < 8) {  // erase
            Status st = db.erase(key);
            if (model.count(key)) {
                EXPECT_TRUE(st.ok()) << st.to_string();
                model.erase(key);
            } else {
                EXPECT_EQ(st.code(), StatusCode::kNotFound);
            }
        } else {  // get
            auto v = db.get(key);
            if (model.count(key)) {
                ASSERT_TRUE(v.ok());
                EXPECT_EQ(*v, model[key]);
            } else {
                EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
            }
        }
    }
    // Final state: full scans agree exactly.
    std::vector<std::pair<std::string, std::string>> scanned;
    ASSERT_TRUE(db.scan("", "", true, [&](std::string_view k, std::string_view v) {
                      scanned.emplace_back(std::string(k), std::string(v));
                      return true;
                  }).ok());
    std::vector<std::pair<std::string, std::string>> expected(model.begin(), model.end());
    EXPECT_EQ(scanned, expected);
    // Close the db (joining its compaction worker) before deleting the
    // directory — a live worker may be unlinking obsolete SSTs concurrently.
    db_r.value().reset();
    fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ------------------------------------------------------------- lsm internals

TEST(LsmTest, WalRecoveryAfterCrash) {
    const std::string dir = temp_dir("walrec");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 1 << 20;  // large: nothing flushed before "crash"
    {
        auto db = lsm::LsmDb::open(opts);
        ASSERT_TRUE(db.ok());
        ASSERT_TRUE((*db)->put("persist-me", "important", true).ok());
        ASSERT_TRUE((*db)->put("and-me", "too", true).ok());
        ASSERT_TRUE((*db)->erase("persist-me").ok());
        // Simulate a crash: drop the object without flush().
    }
    auto db = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db.ok()) << db.status().to_string();
    EXPECT_EQ(*(*db)->get("and-me"), "too");
    EXPECT_EQ((*db)->get("persist-me").status().code(), StatusCode::kNotFound);
    fs::remove_all(dir);
}

TEST(LsmTest, ReopenAfterFlushReadsSstables) {
    const std::string dir = temp_dir("reopen");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 512;
    {
        auto db = lsm::LsmDb::open(opts);
        ASSERT_TRUE(db.ok());
        for (int i = 0; i < 300; ++i) {
            ASSERT_TRUE((*db)->put("key" + std::to_string(i), std::string(20, 'x'), true).ok());
        }
        ASSERT_TRUE((*db)->flush().ok());
        EXPECT_GT((*db)->lsm_stats().flushes, 0u);
    }
    auto db = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 300; ++i) {
        EXPECT_TRUE(*(*db)->exists("key" + std::to_string(i))) << i;
    }
    fs::remove_all(dir);
}

TEST(LsmTest, CompactionReclaimsTombstones) {
    const std::string dir = temp_dir("tombs");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 256;
    opts.l0_compaction_trigger = 2;
    auto db_r = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db_r.ok());
    auto& db = *db_r.value();
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db.put("k" + std::to_string(i), "v", true).ok());
    }
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db.erase("k" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db.flush().ok());
    EXPECT_GT(db.lsm_stats().compactions, 0u);
    EXPECT_EQ(db.size(), 0u);
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(*db.exists("k" + std::to_string(i)));
    }
    db_r.value().reset();  // join the compaction worker before rm -rf
    fs::remove_all(dir);
}

TEST(LsmTest, StatsReportLevelShape) {
    const std::string dir = temp_dir("levels");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 512;
    opts.l0_compaction_trigger = 2;
    opts.target_file_bytes = 1024;
    auto db_r = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db_r.ok());
    auto& db = *db_r.value();
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(db.put("key" + std::to_string(i), std::string(30, 'v'), true).ok());
    }
    auto st = db.lsm_stats();
    EXPECT_GT(st.flushes, 1u);
    EXPECT_GT(st.compactions, 0u);
    EXPECT_GT(st.sst_files_written, 1u);
    // L0 never exceeds its trigger for long; deeper levels hold the data.
    std::size_t total_files = 0;
    for (auto n : st.files_per_level) total_files += n;
    EXPECT_GT(total_files, 0u);
    db_r.value().reset();  // join the compaction worker before rm -rf
    fs::remove_all(dir);
}

TEST(LsmTest, BlockCacheServesRepeatReads) {
    const std::string dir = temp_dir("cache");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 512;
    auto db_r = lsm::LsmDb::open(opts);
    ASSERT_TRUE(db_r.ok());
    auto& db = *db_r.value();
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db.put("key" + std::to_string(i), "value", true).ok());
    }
    ASSERT_TRUE(db.flush().ok());
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 200; ++i) {
            ASSERT_TRUE(db.get("key" + std::to_string(i)).ok());
        }
    }
    auto st = db.lsm_stats();
    EXPECT_GT(st.cache_hits, st.cache_misses);
    db_r.value().reset();  // join the compaction worker before rm -rf
    fs::remove_all(dir);
}

// ------------------------------------------------------------------ pieces

TEST(BloomTest, NoFalseNegatives) {
    lsm::BloomFilter f(1000);
    for (int i = 0; i < 1000; ++i) f.insert_hash(lsm::BloomFilter::hash("key" + std::to_string(i)));
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(f.may_contain_hash(lsm::BloomFilter::hash("key" + std::to_string(i))));
    }
}

TEST(BloomTest, LowFalsePositiveRate) {
    lsm::BloomFilter f(1000);
    for (int i = 0; i < 1000; ++i) f.insert_hash(lsm::BloomFilter::hash("key" + std::to_string(i)));
    int fp = 0;
    for (int i = 0; i < 10000; ++i) {
        if (f.may_contain_hash(lsm::BloomFilter::hash("absent" + std::to_string(i)))) ++fp;
    }
    EXPECT_LT(fp, 300);  // ~1% expected, allow 3%
}

TEST(BloomTest, EncodeDecodeRoundTrip) {
    lsm::BloomFilter f(100);
    for (int i = 0; i < 100; ++i) f.insert_hash(lsm::BloomFilter::hash("k" + std::to_string(i)));
    std::string bytes;
    f.append_to(bytes);
    EXPECT_EQ(bytes.size(), f.encoded_size());
    auto g = lsm::BloomFilter::decode(bytes);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(g.may_contain_hash(lsm::BloomFilter::hash("k" + std::to_string(i))));
    }
}

TEST(WalTest, ReplayStopsAtTornRecord) {
    const std::string dir = temp_dir("torn");
    const std::string path = dir + "/wal.log";
    {
        lsm::Wal wal;
        ASSERT_TRUE(wal.open(path).ok());
        ASSERT_TRUE(wal.append_put("a", "1").ok());
        ASSERT_TRUE(wal.append_put("b", "2").ok());
        ASSERT_TRUE(wal.sync().ok());
    }
    // Truncate mid-record to simulate a torn write.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full - 3);
    int applied = 0;
    auto n = lsm::Wal::replay(path, [&](lsm::Wal::RecordType, std::string_view k,
                                        std::string_view, std::uint32_t) {
        ++applied;
        EXPECT_EQ(k, "a");
    });
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1u);
    EXPECT_EQ(applied, 1);
    fs::remove_all(dir);
}

TEST(WalTest, ReplayDetectsCorruptCrc) {
    const std::string dir = temp_dir("crc");
    const std::string path = dir + "/wal.log";
    {
        lsm::Wal wal;
        ASSERT_TRUE(wal.open(path).ok());
        ASSERT_TRUE(wal.append_put("a", "1").ok());
        ASSERT_TRUE(wal.sync().ok());
    }
    // Flip a byte inside the record body.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('!');
    f.close();
    auto n = lsm::Wal::replay(path, [](lsm::Wal::RecordType, std::string_view, std::string_view,
                                       std::uint32_t) {
        FAIL() << "corrupt record must not be applied";
    });
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
    fs::remove_all(dir);
}

TEST(SstTest, WriterRequiresSortedKeys) {
    const std::string dir = temp_dir("sorted");
    lsm::SstWriter w(dir + "/t.sst", 1, 4096);
    ASSERT_TRUE(w.add("b", Stamp{1, 0}, "1").ok());
    EXPECT_FALSE(w.add("a", Stamp{2, 0}, "2").ok());
    EXPECT_FALSE(w.add("b", Stamp{3, 0}, "3").ok());  // duplicates rejected too
    fs::remove_all(dir);
}

TEST(SstTest, WriteReadIterate) {
    const std::string dir = temp_dir("sst");
    lsm::SstWriter w(dir + "/t.sst", 7, 64 /* tiny blocks */);
    for (int i = 0; i < 100; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%03d", i);
        ASSERT_TRUE(w.add(key, Stamp{}, "value" + std::to_string(i)).ok());
    }
    auto meta = w.finish();
    ASSERT_TRUE(meta.ok());
    EXPECT_EQ(meta->entries, 100u);
    EXPECT_EQ(meta->min_key, "k000");
    EXPECT_EQ(meta->max_key, "k099");

    auto cache = std::make_shared<lsm::BlockCache>(1 << 20);
    auto reader = lsm::SstReader::open(dir + "/t.sst", 7, cache);
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    auto v = (*reader)->get("k042");
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->value.has_value());
    EXPECT_EQ(*v->value, "value42");
    EXPECT_FALSE((*reader)->get("missing").ok());

    auto it = (*reader)->make_iterator();
    ASSERT_TRUE(it.seek_after("k050").ok());
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), "k051");
    int seen = 1;
    while (true) {
        ASSERT_TRUE(it.next().ok());
        if (!it.valid()) break;
        ++seen;
    }
    EXPECT_EQ(seen, 49);  // k051..k099
    fs::remove_all(dir);
}

TEST(SstTest, BlockCorruptionDetectedByChecksum) {
    const std::string dir = temp_dir("blockcrc");
    lsm::SstWriter w(dir + "/t.sst", 3, 4096);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(w.add("key" + std::to_string(i), Stamp{}, std::string(50, 'v')).ok());
    }
    ASSERT_TRUE(w.finish().ok());

    // Flip a byte inside the first data block (well before index/footer).
    {
        std::fstream f(dir + "/t.sst", std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(20);
        f.put('X');
    }
    auto cache = std::make_shared<lsm::BlockCache>(1 << 20);
    auto reader = lsm::SstReader::open(dir + "/t.sst", 3, cache);
    ASSERT_TRUE(reader.ok());  // index/footer intact; open succeeds
    auto v = (*reader)->get("key5");
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
    fs::remove_all(dir);
}

TEST(SstTest, CorruptFooterRejected) {
    const std::string dir = temp_dir("corrupt");
    const std::string path = dir + "/t.sst";
    {
        std::ofstream f(path, std::ios::binary);
        f << std::string(100, 'g');  // garbage
    }
    auto cache = std::make_shared<lsm::BlockCache>(1024);
    auto reader = lsm::SstReader::open(path, 1, cache);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
    fs::remove_all(dir);
}

// ---- batch packing ---------------------------------------------------------

// Batch assembly used to grow the packed string entry by entry; pack_entries
// now does an exact-size pre-pass so a large batch packs with ONE reservation
// and no realloc growth.
TEST(ProtoPackTest, LargeBatchPacksLinearWithExactReserve) {
    constexpr std::size_t kEntries = 50'000;
    std::vector<KeyValue> items;
    items.reserve(kEntries);
    std::size_t total = 0;
    for (std::size_t i = 0; i < kEntries; ++i) {
        std::string key = "key-" + std::to_string(i);
        std::string value(17 + i % 64, static_cast<char>('a' + i % 26));
        total += proto::packed_entry_size(key.size(), value.size());
        items.push_back(KeyValue{std::move(key), std::move(value)});
    }
    std::string out;
    proto::pack_entries(out, items);
    EXPECT_EQ(out.size(), total);
    // The pre-pass reserved the exact total up front: no geometric growth
    // overshoot (an append-grown string would end well above its size).
    EXPECT_LE(out.capacity(), total + 64);

    std::size_t n = 0;
    ASSERT_TRUE(proto::unpack_entries(out, [&](std::string_view k, std::string_view v) {
        EXPECT_EQ(k, items[n].key);
        EXPECT_EQ(v, items[n].value);
        ++n;
    }));
    EXPECT_EQ(n, kEntries);
}

TEST(ProtoPackTest, PackItemsSharesValuesInsteadOfCopying) {
    constexpr std::size_t kEntries = 1000;
    std::vector<BatchItem> items;
    std::size_t meta_bytes = 0, value_bytes = 0;
    for (std::size_t i = 0; i < kEntries; ++i) {
        std::string key = "k" + std::to_string(i);
        std::string value(64 + i % 32, static_cast<char>('A' + i % 26));
        meta_bytes += 8 + key.size();
        value_bytes += value.size();
        items.push_back(BatchItem{std::move(key), hep::Buffer::adopt(std::move(value))});
    }
    hep::reset_buffer_counters();
    hep::BufferChain chain = proto::pack_items(items);
    const auto& c = hep::buffer_counters();
    // One header+key metadata block, every value a refcounted view: only the
    // metadata bytes were memcpy'd, none of the value payload.
    EXPECT_EQ(c.bytes_copied.load(), meta_bytes);
    EXPECT_EQ(chain.depth(), 2 * kEntries);
    EXPECT_EQ(chain.size(), meta_bytes + value_bytes);

    // The chain unpacks to exactly the packed entries, in order.
    std::size_t n = 0;
    ASSERT_TRUE(proto::unpack_entries_chain(
        chain, [&](std::string_view k, hep::BufferView v) {
            EXPECT_EQ(k, items[n].key);
            EXPECT_EQ(v.sv(), items[n].value.view().sv());
            ++n;
        }));
    EXPECT_EQ(n, kEntries);

    // And it flattens to the same bytes the legacy contiguous pack produces.
    std::string legacy;
    for (const auto& it : items) proto::pack_entry(legacy, it.key, it.value.view().sv());
    EXPECT_EQ(chain.flatten(), legacy);
}

TEST(FactoryTest, RejectsUnknownTypeAndMissingPath) {
    json::Value bad = json::Value::make_object();
    bad["type"] = "berkeleydb";
    EXPECT_FALSE(create_database(bad).ok());

    json::Value lsm_no_path = json::Value::make_object();
    lsm_no_path["type"] = "lsm";
    EXPECT_FALSE(create_database(lsm_no_path).ok());
}

}  // namespace
