// Tests for the Yokan provider + client over the RPC fabric, including the
// bulk (RDMA-style) batch paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "yokan/client.hpp"
#include "yokan/provider.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;
using namespace hep::yokan;

class YokanServiceTest : public ::testing::Test {
  protected:
    void SetUp() override {
        server_ = std::make_unique<margo::Engine>(net_, "server", margo::EngineConfig{2});
        client_engine_ = std::make_unique<margo::Engine>(net_, "client");
        auto cfg = json::parse(R"({"databases": [{"name": "events", "type": "map"},
                                                 {"name": "products", "type": "map"}]})");
        ASSERT_TRUE(cfg.ok());
        auto provider = Provider::create(*server_, 1, *cfg);
        ASSERT_TRUE(provider.ok()) << provider.status().to_string();
        provider_ = std::move(provider.value());
        db_ = DatabaseHandle(*client_engine_, "server", 1, "events");
    }

    rpc::Network net_;
    std::unique_ptr<margo::Engine> server_;
    std::unique_ptr<margo::Engine> client_engine_;
    std::unique_ptr<Provider> provider_;
    DatabaseHandle db_;
};

TEST_F(YokanServiceTest, RemotePutGetExistsEraseLength) {
    ASSERT_TRUE(db_.put("run42", "payload").ok());
    EXPECT_EQ(*db_.get("run42"), "payload");
    EXPECT_TRUE(*db_.exists("run42"));
    EXPECT_EQ(*db_.length("run42"), 7u);
    EXPECT_TRUE(db_.erase("run42").ok());
    EXPECT_FALSE(*db_.exists("run42"));
    EXPECT_EQ(db_.get("run42").status().code(), StatusCode::kNotFound);
}

TEST_F(YokanServiceTest, CreateSemanticsOverRpc) {
    ASSERT_TRUE(db_.put("k", "v", /*overwrite=*/false).ok());
    EXPECT_EQ(db_.put("k", "v2", /*overwrite=*/false).code(), StatusCode::kAlreadyExists);
}

TEST_F(YokanServiceTest, DatabasesAreIsolated) {
    DatabaseHandle products(*client_engine_, "server", 1, "products");
    ASSERT_TRUE(db_.put("key", "in-events").ok());
    ASSERT_TRUE(products.put("key", "in-products").ok());
    EXPECT_EQ(*db_.get("key"), "in-events");
    EXPECT_EQ(*products.get("key"), "in-products");
    EXPECT_EQ(*db_.count(), 1u);
    EXPECT_EQ(*products.count(), 1u);
}

TEST_F(YokanServiceTest, UnknownDatabaseIsNotFound) {
    DatabaseHandle ghost(*client_engine_, "server", 1, "ghost");
    EXPECT_EQ(ghost.put("k", "v").code(), StatusCode::kNotFound);
    EXPECT_EQ(ghost.get("k").status().code(), StatusCode::kNotFound);
}

TEST_F(YokanServiceTest, UnknownProviderIdFails) {
    DatabaseHandle wrong(*client_engine_, "server", 9, "events");
    EXPECT_FALSE(wrong.put("k", "v").ok());
}

TEST_F(YokanServiceTest, ListKeysOverRpcWithPaging) {
    for (int i = 0; i < 10; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "ev%02d", i);
        ASSERT_TRUE(db_.put(key, "x").ok());
    }
    // Page through 4 at a time, resuming after the last key of each page.
    std::vector<std::string> collected;
    std::string after;
    while (true) {
        auto page = db_.list_keys(after, "ev", 4);
        ASSERT_TRUE(page.ok());
        if (page->empty()) break;
        collected.insert(collected.end(), page->begin(), page->end());
        after = page->back();
    }
    ASSERT_EQ(collected.size(), 10u);
    EXPECT_EQ(collected.front(), "ev00");
    EXPECT_EQ(collected.back(), "ev09");
    for (std::size_t i = 1; i < collected.size(); ++i) {
        EXPECT_LT(collected[i - 1], collected[i]);
    }
}

TEST_F(YokanServiceTest, ListKeyvalsOverRpc) {
    ASSERT_TRUE(db_.put("a", "1").ok());
    ASSERT_TRUE(db_.put("b", "2").ok());
    auto items = db_.list_keyvals("", "", 10);
    ASSERT_TRUE(items.ok());
    ASSERT_EQ(items->size(), 2u);
    EXPECT_EQ((*items)[1].value, "2");
}

TEST_F(YokanServiceTest, PutMultiIsOneRpcWithoutBulkRoundTrip) {
    std::vector<BatchItem> batch;
    for (int i = 0; i < 500; ++i) {
        batch.push_back({"bulk" + std::to_string(i), hep::Buffer::adopt(std::string(100, 'v'))});
    }
    const auto before = net_.stats();
    auto stored = db_.put_multi(batch);
    ASSERT_TRUE(stored.ok()) << stored.status().to_string();
    EXPECT_EQ(*stored, 500u);
    const auto after = net_.stats();
    // One request + one response carrying every value — not 500 RPCs, and
    // no expose/pull round-trip.
    EXPECT_EQ(after.messages - before.messages, 2u);
    EXPECT_EQ(after.bulk_transfers - before.bulk_transfers, 0u);
    EXPECT_EQ(*db_.count(), 500u);
    EXPECT_EQ(*db_.get("bulk123"), std::string(100, 'v'));
}

TEST_F(YokanServiceTest, PutMultiCreateCountsExisting) {
    ASSERT_TRUE(db_.put("dup", "old").ok());
    std::vector<BatchItem> batch{{"dup", hep::Buffer::copy_of("new")},
                                 {"fresh", hep::Buffer::copy_of("v")}};
    auto stored = db_.put_multi(batch, /*overwrite=*/false);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, 1u);
    EXPECT_EQ(*db_.get("dup"), "old");
}

TEST_F(YokanServiceTest, GetMultiReturnsValuesAndMissing) {
    ASSERT_TRUE(db_.put("a", "alpha").ok());
    ASSERT_TRUE(db_.put("c", "gamma").ok());
    const auto before = net_.stats();
    auto out = db_.get_multi_views({"a", "b", "c"}, /*buffer_hint=*/64);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    // One RPC, one bulk write of the found values into the client region.
    EXPECT_EQ(net_.stats().bulk_transfers - before.bulk_transfers, 1u);
    ASSERT_EQ(out->size(), 3u);
    EXPECT_EQ((*out)[0]->sv(), "alpha");
    EXPECT_FALSE((*out)[1].has_value());
    EXPECT_EQ((*out)[2]->sv(), "gamma");
}

TEST_F(YokanServiceTest, GetMultiGrowsBufferWhenHintTooSmall) {
    const std::string big(1 << 16, 'B');
    ASSERT_TRUE(db_.put("big0", big).ok());
    ASSERT_TRUE(db_.put("big1", big).ok());
    const auto before = net_.stats();
    const auto undersized = hep::buffer_counters().undersized_receives.load();
    auto out = db_.get_multi_views({"big0", "missing", "big1"}, /*buffer_hint=*/16);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    ASSERT_EQ(out->size(), 3u);
    EXPECT_EQ((*out)[0]->sv(), big);
    EXPECT_FALSE((*out)[1].has_value());
    EXPECT_EQ((*out)[2]->sv(), big);
    // One retry, at the reported size plus 1/8: the undersized attempt
    // wrote nothing, and the views share one slab holding the two values.
    EXPECT_EQ(hep::buffer_counters().undersized_receives.load() - undersized, 1u);
    EXPECT_EQ(net_.stats().bulk_transfers - before.bulk_transfers, 1u);
    EXPECT_EQ((*out)[0]->owner(), (*out)[2]->owner());
    EXPECT_EQ((*out)[0]->owner()->size(), 2 * big.size() + 2 * big.size() / 8);

    // A hint that fits is used as is: no retry.
    auto fits = db_.get_multi_views({"big0"}, big.size());
    ASSERT_TRUE(fits.ok()) << fits.status().to_string();
    EXPECT_EQ((*fits)[0]->sv(), big);
    EXPECT_EQ(hep::buffer_counters().undersized_receives.load() - undersized, 1u);
}

TEST_F(YokanServiceTest, GetMultiRetriesWhileAValueGrowsBetweenAttempts) {
    const std::string big(1 << 16, 'B');
    ASSERT_TRUE(db_.put("big0", big).ok());
    ASSERT_TRUE(db_.put("big1", big).ok());
    // A concurrent overwrite lands just before the server reads the keys
    // for the first retry: "big1" grows by `growth` bytes.
    std::size_t growth = 0;
    int get_multis = 0;
    Database* events = provider_->find_database("events");
    const rpc::RpcId get_multi = rpc::rpc_id_of("yokan_get_multi");
    server_->endpoint().set_admission([&](const rpc::Message& msg) {
        if (msg.rpc == get_multi && ++get_multis == 2) {
            return events->put("big1", std::string(big.size() + growth, 'G'));
        }
        return Status::OK();
    });
    auto fetch = [&](std::size_t grow_by) {
        growth = grow_by;
        get_multis = 0;
        EXPECT_TRUE(events->put("big1", big).ok());
        const auto undersized = hep::buffer_counters().undersized_receives.load();
        auto out = db_.get_multi_views({"big0", "big1"}, /*buffer_hint=*/16);
        EXPECT_TRUE(out.ok()) << out.status().to_string();
        if (out.ok()) {
            EXPECT_EQ((*out)[0]->sv(), big);
            EXPECT_EQ((*out)[1]->sv(), std::string(big.size() + grow_by, 'G'));
        }
        return hep::buffer_counters().undersized_receives.load() - undersized;
    };
    // Growth within the retry's 1/8 headroom: still one retry.
    EXPECT_EQ(fetch(1024), 1u);
    // Growth past it: the first retry is too small as well, the next fits.
    EXPECT_EQ(fetch(3 * big.size()), 2u);
    server_->endpoint().set_admission(nullptr);
}

TEST_F(YokanServiceTest, GetMultiEmptyKeyList) {
    auto out = db_.get_multi_views({}, /*buffer_hint=*/0);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->empty());
}

TEST_F(YokanServiceTest, ConcurrentClientsDoNotCorrupt) {
    constexpr int kThreads = 4, kKeys = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            margo::Engine eng(net_, "worker-" + std::to_string(t));
            DatabaseHandle handle(eng, "server", 1, "events");
            for (int i = 0; i < kKeys; ++i) {
                std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
                ASSERT_TRUE(handle.put(key, key + "-value").ok());
            }
            for (int i = 0; i < kKeys; ++i) {
                std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
                auto v = handle.get(key);
                ASSERT_TRUE(v.ok());
                EXPECT_EQ(*v, key + "-value");
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(*db_.count(), static_cast<std::uint64_t>(kThreads * kKeys));
}

TEST_F(YokanServiceTest, ScanPageReportsResumeKeyAndExhaustion) {
    // The explicit-cursor contract the query-pushdown scans build on: unlike
    // list_keys, scan_page reports the exact key it stopped at (even when the
    // page is short) and whether the key space ran out.
    for (int i = 0; i < 10; ++i) {
        char key[16];
        std::snprintf(key, sizeof(key), "ev%02d", i);
        ASSERT_TRUE(db_.put(key, "v").ok());
    }

    auto page = db_.scan_page("", "ev", 4);
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page->items.size(), 4u);
    EXPECT_EQ(page->last_key, "ev03");
    EXPECT_FALSE(page->exhausted);

    // Mutate on both sides of the cursor between pages: a key BEHIND the
    // resume point must never be revisited; a key AHEAD must be observed.
    ASSERT_TRUE(db_.put("ev00a", "behind").ok());
    ASSERT_TRUE(db_.put("ev095", "ahead").ok());

    std::vector<std::string> rest;
    std::string after = page->last_key;
    bool exhausted = false;
    while (!exhausted) {
        auto next = db_.scan_page(after, "ev", 4);
        ASSERT_TRUE(next.ok());
        for (const auto& kv : next->items) rest.push_back(kv.key);
        if (!next->items.empty()) {
            EXPECT_EQ(next->last_key, next->items.back().key);
        }
        after = next->last_key;
        exhausted = next->exhausted;
    }
    EXPECT_EQ(rest, (std::vector<std::string>{"ev04", "ev05", "ev06", "ev07", "ev08",
                                              "ev09", "ev095"}));

    // Prefix with no matches: empty page, empty resume key, exhausted.
    auto none = db_.scan_page("", "zz", 4);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none->items.empty());
    EXPECT_TRUE(none->last_key.empty());
    EXPECT_TRUE(none->exhausted);
}

TEST_F(YokanServiceTest, ListCursorResumeSurvivesConcurrentMutation) {
    // Regression test for the ListReq resume-after contract under writers:
    // paging with after+prefix while another client inserts into the same
    // prefix must yield every pre-existing key exactly once, in order. Keys
    // inserted ahead of the cursor may appear; keys behind it may not.
    constexpr int kStable = 200;
    std::vector<std::string> stable;
    for (int i = 0; i < kStable; ++i) {
        char key[24];
        std::snprintf(key, sizeof(key), "cur-%04d", i);
        stable.push_back(key);
        ASSERT_TRUE(db_.put(key, "stable").ok());
    }

    std::atomic<bool> stop{false};
    std::atomic<int> written{0};
    std::thread writer([&] {
        margo::Engine eng(net_, "cursor-writer");
        DatabaseHandle handle(eng, "server", 1, "events");
        // Interleave new keys throughout the scanned range (the "-x" suffix
        // sorts them between stable keys) until the reader is done.
        for (int i = 0; !stop.load(); i = (i + 7) % kStable) {
            char key[32];
            std::snprintf(key, sizeof(key), "cur-%04d-x%04d", i, written.load());
            if (!handle.put(key, "concurrent").ok()) break;
            ++written;
        }
    });

    // The writer boots its own engine first; on a loaded machine the scan
    // below can finish before that boot completes. Wait for the first write
    // so the scan genuinely races the mutations.
    const auto boot_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (written.load() == 0 && std::chrono::steady_clock::now() < boot_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::vector<std::string> collected;
    std::string after;
    while (true) {
        auto page = db_.list_keys(after, "cur-", 16);
        ASSERT_TRUE(page.ok());
        if (page->empty()) break;
        collected.insert(collected.end(), page->begin(), page->end());
        after = page->back();
    }
    stop = true;
    writer.join();
    EXPECT_GT(written.load(), 0);

    // Strictly increasing: ordered, and no key delivered twice.
    for (std::size_t i = 1; i < collected.size(); ++i) {
        ASSERT_LT(collected[i - 1], collected[i]);
    }
    // Every stable key was seen exactly once; everything else is a writer key.
    std::vector<std::string> seen_stable;
    for (const auto& key : collected) {
        if (key.find("-x") == std::string::npos) seen_stable.push_back(key);
        else EXPECT_EQ(*db_.get(key), "concurrent");
    }
    EXPECT_EQ(seen_stable, stable);
}

TEST_F(YokanServiceTest, LsmBackedProviderOverRpc) {
    const auto dir = fs::temp_directory_path() / "yokan_service_lsm";
    fs::remove_all(dir);
    auto cfg = json::parse(R"({"databases": [{"name": "persist", "type": "lsm",
                                              "path": "db0", "memtable_bytes": 1024}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = Provider::create(*server_, 2, *cfg, nullptr, dir.string());
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();
    DatabaseHandle lsm_db(*client_engine_, "server", 2, "persist");
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(lsm_db.put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
    }
    EXPECT_EQ(*lsm_db.get("key150"), "value150");
    EXPECT_EQ(*lsm_db.count(), 200u);
    // Close the database (joining its background compaction, which deletes
    // obsolete tables) before removing its directory.
    provider.value().reset();
    fs::remove_all(dir);
}

}  // namespace
