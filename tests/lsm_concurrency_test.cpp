// Concurrency tests for the pipelined LSM write path: versioned reads that
// never block behind background compaction, cursor resume across table
// rotation, WAL group commit durability, and the erase-triggers-flush and
// sync-outside-the-lock bug fixes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "abt/abt.hpp"
#include "yokan/lsm/lsm_db.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::yokan;
using namespace std::chrono_literals;

std::string temp_dir(const std::string& tag) {
    auto path = fs::temp_directory_path() / ("lsm_conc_test_" + tag);
    fs::remove_all(path);
    fs::create_directories(path);
    return path.string();
}

/// Deterministic value so readers can detect torn/mixed reads.
std::string value_for(std::string_view key) {
    std::string v;
    while (v.size() < 64) {
        v.append(key);
        v.push_back('.');
    }
    return v;
}

lsm::LsmOptions small_options(const std::string& dir) {
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable_bytes = 4096;  // small: force frequent seals
    opts.block_bytes = 256;
    opts.target_file_bytes = 2048;
    opts.l0_compaction_trigger = 2;
    return opts;
}

// While a scan is in flight, a background flush+compaction must be able to
// complete: the reader holds only a pinned Version, never a db-wide lock.
// Under the old design (readers under a shared mutex, flush/compaction under
// the exclusive side) this test deadlocks until the timeout.
TEST(LsmConcurrencyTest, ScanDoesNotBlockCompaction) {
    const std::string dir = temp_dir("scan_vs_compaction");
    auto opened = lsm::LsmDb::open(small_options(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();

    for (int i = 0; i < 50; ++i) {
        const std::string key = "k" + std::to_string(1000 + i);
        ASSERT_TRUE(db.put(key, value_for(key), true).ok());
    }
    ASSERT_TRUE(db.flush().ok());
    const auto before = db.lsm_stats();

    bool advanced_mid_scan = false;
    std::thread writer;
    Status st = db.scan({}, {}, true, [&](std::string_view, std::string_view) {
        if (writer.joinable()) return false;  // one probe is enough
        writer = std::thread([&db] {
            for (int i = 0; i < 400; ++i) {
                const std::string key = "w" + std::to_string(1000 + i);
                ASSERT_TRUE(db.put(key, value_for(key), true).ok());
            }
        });
        // The scan callback keeps the scan (and its version pin) open while
        // the worker must flush the sealed memtables the writer produces.
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        while (std::chrono::steady_clock::now() < deadline) {
            if (db.lsm_stats().flushes > before.flushes) {
                advanced_mid_scan = true;
                break;
            }
            std::this_thread::sleep_for(1ms);
        }
        return true;  // finish the scan over the pinned snapshot
    });
    ASSERT_TRUE(st.ok()) << st.to_string();
    writer.join();
    EXPECT_TRUE(advanced_mid_scan)
        << "background flush could not make progress while a scan was open";
    EXPECT_GT(db.lsm_stats().flushes, before.flushes);
}

// N reader ULTs scan and point-read while writer ULTs force continuous
// seals, flushes and compactions. Readers must never observe a torn value,
// and the final state must contain exactly what was written.
TEST(LsmConcurrencyTest, ReadersDuringCompaction) {
    const std::string dir = temp_dir("readers_during_compaction");
    auto opened = lsm::LsmDb::open(small_options(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();

    std::vector<std::string> base_keys;
    for (int i = 0; i < 100; ++i) {
        base_keys.push_back("base" + std::to_string(1000 + i));
        ASSERT_TRUE(db.put(base_keys.back(), value_for(base_keys.back()), true).ok());
    }
    ASSERT_TRUE(db.flush().ok());

    auto pool = abt::Pool::create("test");
    auto xs1 = abt::Xstream::create({pool}, "xs1");
    auto xs2 = abt::Xstream::create({pool}, "xs2");

    constexpr int kWriters = 2, kReaders = 4, kKeysPerWriter = 400;
    std::atomic<int> writers_done{0};
    std::atomic<std::uint64_t> torn_reads{0};
    std::atomic<std::uint64_t> read_ops{0};

    std::vector<std::shared_ptr<abt::Ult>> ults;
    for (int w = 0; w < kWriters; ++w) {
        ults.push_back(abt::Ult::create(pool, [&, w] {
            for (int i = 0; i < kKeysPerWriter; ++i) {
                const std::string key =
                    "wr" + std::to_string(w) + "-" + std::to_string(1000 + i);
                ASSERT_TRUE(db.put(key, value_for(key), true).ok());
                if (i % 16 == 0) abt::yield();
            }
            writers_done.fetch_add(1);
        }));
    }
    for (int r = 0; r < kReaders; ++r) {
        ults.push_back(abt::Ult::create(pool, [&, r] {
            while (writers_done.load() < kWriters) {
                // Full scan: every value must match its key exactly.
                Status st = db.scan({}, {}, true, [&](std::string_view k, std::string_view v) {
                    if (v != value_for(k)) torn_reads.fetch_add(1);
                    read_ops.fetch_add(1);
                    return true;
                });
                ASSERT_TRUE(st.ok()) << st.to_string();
                // Point reads of keys that are guaranteed to exist.
                const auto& key = base_keys[static_cast<std::size_t>(r * 7) % base_keys.size()];
                auto got = db.get(key);
                ASSERT_TRUE(got.ok()) << got.status().to_string();
                EXPECT_EQ(*got, value_for(key));
                abt::yield();
            }
        }));
    }
    for (auto& u : ults) u->join();
    xs1.reset();
    xs2.reset();

    EXPECT_EQ(torn_reads.load(), 0u);
    EXPECT_GT(read_ops.load(), 0u);

    const auto stats = db.lsm_stats();
    EXPECT_GT(stats.flushes, 0u);
    EXPECT_GT(stats.compactions, 0u);
    // Reads overlapped live background work — the lock-freedom proof.
    EXPECT_GT(stats.reads_during_compaction, 0u);
    // Stall accounting is consistent (time only accrues to counted stalls).
    if (stats.write_stalls == 0) {
        EXPECT_EQ(stats.write_stall_micros, 0u);
    }

    // Final state: every written key readable, values intact.
    std::uint64_t found = 0;
    Status st = db.scan({}, {}, true, [&](std::string_view k, std::string_view v) {
        EXPECT_EQ(v, value_for(k));
        ++found;
        return true;
    });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(found, base_keys.size() + kWriters * kKeysPerWriter);
}

// scan_chunk cursors resume by key, so flushes and compactions between
// chunks (table rotation) must neither duplicate nor lose keys.
TEST(LsmConcurrencyTest, CursorResumeAcrossTableRotation) {
    const std::string dir = temp_dir("cursor_rotation");
    auto opened = lsm::LsmDb::open(small_options(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();

    std::vector<std::string> originals;
    for (int i = 0; i < 120; ++i) {
        originals.push_back("m" + std::to_string(1000 + i));
        ASSERT_TRUE(db.put(originals.back(), value_for(originals.back()), true).ok());
    }
    ASSERT_TRUE(db.flush().ok());

    std::vector<std::string> collected;
    std::string after;
    int round = 0;
    while (true) {
        auto chunk = db.scan_chunk(after, "m", 10, true,
                                   [&](std::string_view k, std::string_view v) {
                                       EXPECT_EQ(v, value_for(k));
                                       collected.emplace_back(k);
                                       return true;
                                   });
        ASSERT_TRUE(chunk.ok()) << chunk.status().to_string();
        if (chunk->exhausted) break;
        after = chunk->last_key;
        // Rotate the table set under the paused cursor: new keys sort BEFORE
        // the cursor (prefix "a" < resume key), so the collected set must
        // still be exactly the originals.
        for (int i = 0; i < 40; ++i) {
            const std::string key =
                "a" + std::to_string(round) + "-" + std::to_string(1000 + i);
            ASSERT_TRUE(db.put(key, value_for(key), true).ok());
        }
        ASSERT_TRUE(db.flush().ok());
        ++round;
    }
    ASSERT_GT(round, 2) << "test must actually rotate tables between chunks";
    EXPECT_EQ(collected, originals);  // sorted insert order; no dupes, no loss
}

// Under wal_sync_every_put + group commit, concurrent acked puts must all be
// durable across reopen, and syncs must be batched by a leader.
TEST(LsmConcurrencyTest, GroupCommitConcurrentDurability) {
    const std::string dir = temp_dir("group_commit");
    lsm::LsmOptions opts = small_options(dir);
    opts.memtable_bytes = 1 << 20;  // keep everything in the WAL
    opts.wal_sync_every_put = true;

    constexpr int kThreads = 4, kKeys = 200;
    {
        auto opened = lsm::LsmDb::open(opts);
        ASSERT_TRUE(opened.ok()) << opened.status().to_string();
        auto& db = *opened.value();
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&db, t] {
                for (int i = 0; i < kKeys; ++i) {
                    const std::string key =
                        "g" + std::to_string(t) + "-" + std::to_string(1000 + i);
                    ASSERT_TRUE(db.put(key, value_for(key), true).ok());
                }
            });
        }
        for (auto& t : threads) t.join();
        const auto stats = db.lsm_stats();
        EXPECT_GT(stats.group_commit_syncs, 0u);
        EXPECT_GE(stats.group_commit_records, stats.group_commit_syncs);
        // db closed WITHOUT flush: durability must come from the WAL alone.
    }
    auto reopened = lsm::LsmDb::open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
    auto& db = *reopened.value();
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kKeys; ++i) {
            const std::string key = "g" + std::to_string(t) + "-" + std::to_string(1000 + i);
            auto got = db.get(key);
            ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
            EXPECT_EQ(*got, value_for(key));
        }
    }
}

// Regression (erase never flushed): tombstones count toward the memtable
// budget and route through the same seal path as puts.
TEST(LsmConcurrencyTest, EraseTriggersFlush) {
    const std::string dir = temp_dir("erase_flush");
    lsm::LsmOptions opts = small_options(dir);
    opts.memtable_bytes = 4000;
    opts.background_compaction = false;  // deterministic inline accounting

    auto opened = lsm::LsmDb::open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();

    std::vector<std::string> keys;
    for (int i = 0; i < 60; ++i) {
        keys.push_back("e" + std::to_string(1000 + i));
        ASSERT_TRUE(db.put(keys.back(), "0123456789", true).ok());
    }
    ASSERT_EQ(db.lsm_stats().flushes, 0u) << "puts alone must fit the memtable";
    for (const auto& key : keys) ASSERT_TRUE(db.erase(key).ok());
    EXPECT_GT(db.lsm_stats().flushes, 0u)
        << "a delete-heavy workload must seal the memtable";
    EXPECT_EQ(db.size(), 0u);
}

// Foreground mode stays available for ablation and remains correct.
TEST(LsmConcurrencyTest, ForegroundModeStillWorks) {
    const std::string dir = temp_dir("foreground");
    lsm::LsmOptions opts = small_options(dir);
    opts.background_compaction = false;

    auto opened = lsm::LsmDb::open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();
    for (int i = 0; i < 300; ++i) {
        const std::string key = "f" + std::to_string(1000 + i);
        ASSERT_TRUE(db.put(key, value_for(key), true).ok());
    }
    const auto stats = db.lsm_stats();
    EXPECT_GT(stats.flushes, 0u);
    EXPECT_EQ(stats.compactions_background, 0u);
    EXPECT_GT(stats.compactions_inline, 0u);
    std::uint64_t found = 0;
    ASSERT_TRUE(db.scan({}, {}, true, [&](std::string_view k, std::string_view v) {
                      EXPECT_EQ(v, value_for(k));
                      ++found;
                      return true;
                  }).ok());
    EXPECT_EQ(found, 300u);
}

// Lock-free active memtable: readers race a writer on the SAME skiplist (the
// memtable is big enough that nothing seals, so every probe hits the active
// rep). Acknowledged writes must be immediately visible, values must never
// tear, and in-flight scans must stay ordered while inserts land around them.
TEST(LsmConcurrencyTest, LockFreeActiveMemtableReadersSeeAcknowledgedWrites) {
    const std::string dir = temp_dir("lockfree_memtable");
    lsm::LsmOptions opts;
    opts.path = dir + "/db";
    opts.memtable = "skiplist";
    // Default 4 MB budget: the whole workload stays in the active memtable.
    auto opened = lsm::LsmDb::open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto& db = *opened.value();

    auto pool = abt::Pool::create("lockfree");
    auto xs1 = abt::Xstream::create({pool}, "xs1");
    auto xs2 = abt::Xstream::create({pool}, "xs2");

    constexpr int kKeys = 3000;
    std::atomic<int> acked{0};
    std::atomic<std::uint64_t> torn_reads{0};
    std::atomic<std::uint64_t> stale_reads{0};
    std::atomic<std::uint64_t> unordered_scans{0};
    std::atomic<std::uint64_t> read_ops{0};
    auto key_at = [](int i) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "lf%06d", i);
        return std::string(buf);
    };

    // Readers are queued before the writer: queued after it, they could miss
    // the whole run if this thread is descheduled while the puts land.
    std::vector<std::shared_ptr<abt::Ult>> ults;
    for (int r = 0; r < 3; ++r) {
        ults.push_back(abt::Ult::create(pool, [&, r] {
            while (acked.load(std::memory_order_acquire) < kKeys) {
                const int n = acked.load(std::memory_order_acquire);
                if (n > 0) {
                    // Read-your-writes: any acknowledged key must be present
                    // with an untorn value — no lock taken on this path.
                    const std::string key = key_at((r * 131 + n - 1) % n);
                    auto got = db.get(key);
                    if (!got.ok()) ++stale_reads;
                    else if (*got != value_for(key)) ++torn_reads;
                    ++read_ops;
                }
                // A scan racing the writer stays strictly ordered and sees at
                // least everything acknowledged before it started.
                std::string prev;
                std::uint64_t seen = 0;
                const int floor_n = acked.load(std::memory_order_acquire);
                Status st = db.scan({}, "lf", true,
                                    [&](std::string_view k, std::string_view v) {
                                        if (!prev.empty() && !(prev < k)) ++unordered_scans;
                                        prev = k;
                                        if (v != value_for(k)) ++torn_reads;
                                        ++seen;
                                        return true;
                                    });
                ASSERT_TRUE(st.ok()) << st.to_string();
                if (seen < static_cast<std::uint64_t>(floor_n)) ++stale_reads;
                abt::yield();
            }
        }));
    }
    ults.push_back(abt::Ult::create(pool, [&] {
        for (int i = 0; i < kKeys; ++i) {
            const std::string key = key_at(i);
            ASSERT_TRUE(db.put(key, value_for(key), true).ok());
            acked.store(i + 1, std::memory_order_release);
            if (i % 64 == 0) abt::yield();
        }
    }));
    for (auto& u : ults) u->join();
    xs1.reset();
    xs2.reset();

    EXPECT_EQ(torn_reads.load(), 0u);
    EXPECT_EQ(stale_reads.load(), 0u);
    EXPECT_EQ(unordered_scans.load(), 0u);
    EXPECT_GT(read_ops.load(), 0u);
    // Nothing sealed: every read above exercised the lock-free active path.
    EXPECT_EQ(db.lsm_stats().flushes, 0u);

    std::uint64_t found = 0;
    ASSERT_TRUE(db.scan({}, "lf", true, [&](std::string_view k, std::string_view v) {
                      EXPECT_EQ(v, value_for(k));
                      ++found;
                      return true;
                  }).ok());
    EXPECT_EQ(found, static_cast<std::uint64_t>(kKeys));
}

}  // namespace
