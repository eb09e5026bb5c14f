// Tests for the hot-product read cache tier (src/cache): LRU bound and
// eviction order, lease/epoch freshness, read-through fills at the client,
// synchronous invalidation on put/erase/write-batch-flush (same-client
// read-after-write is never stale), the dedicated cache-provider tier over
// loopback, and failover-driven invalidation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/lease_cache.hpp"
#include "cache/provider.hpp"
#include "hepnos/hepnos.hpp"
#include "hepnos/prefetcher.hpp"
#include "mpisim/comm.hpp"
#include "symbio/provider.hpp"
#include "test_service.hpp"

namespace {

using namespace hep;
using namespace hep::hepnos;

hep::BufferView view_of(const std::string& s) {
    return hep::Buffer::adopt(std::string(s)).view(0, s.size());
}

// ---------------------------------------------------------------- unit level

TEST(LeaseCacheTest, LruBoundEvictsLeastRecentlyUsed) {
    cache::CacheOptions opts;
    opts.max_entries = 4;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    c.fill("a", view_of("1"), 1, t);
    c.fill("b", view_of("2"), 1, t);
    c.fill("c", view_of("3"), 1, t);
    c.fill("d", view_of("4"), 1, t);
    EXPECT_EQ(c.size(), 4u);
    // Touch "a" so "b" becomes the LRU tail, then overflow.
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
    c.fill("e", view_of("5"), 1, t);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.counters().evictions, 1u);
    EXPECT_EQ(c.lookup("b").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(c.lookup("e").state, cache::LeaseCache::LookupState::kHit);
}

TEST(LeaseCacheTest, ByteCapacityBoundsResidentBytes) {
    cache::CacheOptions opts;
    opts.capacity_bytes = 64;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    const std::string big(30, 'x');
    for (int i = 0; i < 8; ++i) c.fill("k" + std::to_string(i), view_of(big), 1, t);
    EXPECT_LE(c.bytes(), 64u);
    EXPECT_GT(c.counters().evictions, 0u);
}

TEST(LeaseCacheTest, EpochBumpsInvalidateAndTicketsCatchRaces) {
    cache::LeaseCache c;
    auto t = c.ticket("db", "target");
    c.fill("k", view_of("v"), 1, t);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);

    // A mutation bumps the db epoch: the entry dies at the next lookup.
    c.bump_db("db");
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_GE(c.counters().stale_drops, 1u);

    // The fill/invalidate race: epochs captured before the read make an
    // entry inserted AFTER the mutation born-stale.
    auto stale_ticket = c.ticket("db", "target");
    c.bump_db("db");  // mutation lands while the fill's read is in flight
    c.fill("k", view_of("old"), 2, stale_ticket);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kMiss);

    // Target epochs: a failover promotion kills entries from the demoted
    // primary, entries from other targets survive.
    auto t2 = c.ticket("db", "primary-0");
    auto t3 = c.ticket("db", "primary-1");
    c.fill("x", view_of("vx"), 1, t2);
    c.fill("y", view_of("vy"), 1, t3);
    c.bump_target("primary-0");
    EXPECT_EQ(c.lookup("x").state, cache::LeaseCache::LookupState::kMiss);
    EXPECT_EQ(c.lookup("y").state, cache::LeaseCache::LookupState::kHit);
}

TEST(LeaseCacheTest, LeaseExpiryDemandsRevalidationAndRenewWorks) {
    cache::CacheOptions opts;
    opts.lease_ms = 20;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    c.fill("k", view_of("v"), 7, t);
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto expired = c.lookup("k");
    EXPECT_EQ(expired.state, cache::LeaseCache::LookupState::kExpired);
    EXPECT_EQ(expired.seq, 7u);
    EXPECT_EQ(std::string(expired.value.sv()), "v");

    // Owner seq unchanged: the lease renews without refetching the value.
    // The ticket is captured before the seq probe, like read_product does.
    EXPECT_TRUE(c.renew("k", 7, c.ticket("db", "t")));
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(c.counters().renewals, 1u);

    // Owner seq moved: renew refuses, the caller must refetch.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(c.renew("k", 8, c.ticket("db", "t")));
}

TEST(LeaseCacheTest, RenewRefusedAfterPromotionInvalidatesTarget) {
    cache::CacheOptions opts;
    opts.lease_ms = 20;
    cache::LeaseCache c(opts);
    c.fill("k", view_of("v"), 7, c.ticket("db", "primary-0"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(c.lookup("k").state, cache::LeaseCache::LookupState::kExpired);

    // The demoted-primary race: the ticket (and the seq probe it brackets)
    // targeted the old primary, then a failover promotion invalidated that
    // target. Renewing against the stale seq must be refused even though the
    // probe "confirmed" it — the promoted replica may hold newer data.
    auto stale = c.ticket("db", "primary-0");
    c.bump_target("primary-0");
    EXPECT_FALSE(c.renew("k", 7, stale));

    // And a ticket captured before any local invalidation of the entry's
    // epochs is also refused once the db epoch moves.
    c.fill("k2", view_of("v2"), 3, c.ticket("db", "primary-1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto t = c.ticket("db", "primary-1");
    c.bump_db("db");
    EXPECT_FALSE(c.renew("k2", 3, t));
}

TEST(LeaseCacheTest, OptionsFromJsonAndBypass) {
    auto cfg = json::parse(
        R"({"enabled": true, "capacity_bytes": 1024, "max_entries": 16,
            "lease_ms": 250, "bypass": true})");
    ASSERT_TRUE(cfg.ok());
    auto opts = cache::CacheOptions::from_json(*cfg);
    EXPECT_TRUE(opts.enabled);
    EXPECT_EQ(opts.capacity_bytes, 1024u);
    EXPECT_EQ(opts.max_entries, 16u);
    EXPECT_EQ(opts.lease_ms, 250u);
    EXPECT_TRUE(opts.bypass);
    // Defaults when the section is missing entirely.
    auto defaults = cache::CacheOptions::from_json(json::Value());
    EXPECT_TRUE(defaults.enabled);
    EXPECT_FALSE(defaults.bypass);
    EXPECT_EQ(defaults.lease_ms, 1000u);

    cache::LeaseCache c(opts);
    EXPECT_TRUE(c.bypass());
    c.set_bypass(false);
    EXPECT_FALSE(c.bypass());
}

// The same op script, run once through the single-key calls and once through
// the batch calls, must leave two caches indistinguishable.
struct CacheOp {
    enum Kind { kFill, kLookup, kBumpDb, kBumpTarget } kind;
    std::vector<int> keys;
};

std::string script_key(int n) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "k%03d", n);
    return buf;
}

// Distinct value lengths give every entry a distinct byte size, so the
// eviction order probe below can tell entries apart by bytes() alone.
std::optional<hep::BufferView> script_value(int n) {
    if (n % 7 == 3) return std::nullopt;  // not found at the owner
    return view_of(std::string(static_cast<std::size_t>(n) + 1, 'v'));
}

/// Runs `ops`; returns what every lookup answered, in order.
std::vector<std::string> run_script(cache::LeaseCache& c, const std::vector<CacheOp>& ops,
                                    bool batch) {
    std::vector<std::string> log;
    for (const auto& op : ops) {
        std::vector<std::string> keys;
        for (int n : op.keys) keys.push_back(script_key(n));
        switch (op.kind) {
            case CacheOp::kFill: {
                std::vector<std::optional<hep::BufferView>> values;
                for (int n : op.keys) values.push_back(script_value(n));
                const auto t = c.ticket("db", "target");
                if (batch) {
                    c.fill_many(std::move(keys), values, 5, t);
                } else {
                    for (std::size_t i = 0; i < keys.size(); ++i) {
                        if (values[i]) c.fill(keys[i], *values[i], 5, t);
                    }
                }
                break;
            }
            case CacheOp::kLookup: {
                std::vector<cache::LeaseCache::Lookup> found;
                if (batch) {
                    found = c.lookup_many(keys);
                } else {
                    for (const auto& k : keys) found.push_back(c.lookup(k));
                }
                for (const auto& f : found) {
                    log.push_back(std::to_string(static_cast<int>(f.state)) + ":" +
                                  std::string(f.value.sv()));
                }
                break;
            }
            case CacheOp::kBumpDb: c.bump_db("db"); break;
            case CacheOp::kBumpTarget: c.bump_target("target"); break;
        }
    }
    return log;
}

/// bytes() after each of `n` fills of fresh, value-less keys: each fill into
/// a full cache evicts the LRU tail, so the sequence spells the LRU order.
std::vector<std::size_t> eviction_order(cache::LeaseCache& c, std::size_t n) {
    std::vector<std::size_t> out;
    const auto t = c.ticket("db", "target");
    for (std::size_t i = 0; i < n; ++i) {
        c.fill("z" + std::to_string(i), hep::BufferView(), 5, t);
        out.push_back(c.bytes());
    }
    return out;
}

void expect_same_counters(const cache::LeaseCache::Counters& a,
                          const cache::LeaseCache::Counters& b) {
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.stale_drops, b.stale_drops);
    EXPECT_EQ(a.lease_expiries, b.lease_expiries);
    EXPECT_EQ(a.renewals, b.renewals);
}

std::vector<int> key_range(int first, int last) {
    std::vector<int> out;
    for (int n = first; n <= last; ++n) out.push_back(n);
    return out;
}

TEST(LeaseCacheTest, BatchCallsMatchSingleKeyCalls) {
    // A page larger than the entry bound, overwrites, duplicate keys in one
    // batch, stale drops after each kind of epoch bump, byte evictions, and
    // batches longer than LeaseCache::kLockChunk.
    std::vector<CacheOp> ops{
        {CacheOp::kFill, key_range(0, 19)},
        {CacheOp::kLookup, key_range(0, 29)},
        {CacheOp::kFill, {10, 11, 12, 11, 14}},
        {CacheOp::kLookup, {12, 12, 13, 14, 19, 4}},
        {CacheOp::kBumpDb, {}},
        {CacheOp::kLookup, key_range(10, 16)},
        {CacheOp::kFill, key_range(20, 39)},
        {CacheOp::kBumpTarget, {}},
        {CacheOp::kLookup, {25, 30}},
        {CacheOp::kFill, key_range(40, 45)},
        {CacheOp::kLookup, {32, 41, 44, 41, 38, 45}},
        {CacheOp::kFill, {1, 3, 59}},
        {CacheOp::kLookup, key_range(0, 59)},
        // Batches that span several lock chunks.
        {CacheOp::kFill, key_range(100, 399)},
        {CacheOp::kLookup, key_range(0, 599)},
    };
    ASSERT_LT(cache::LeaseCache::kLockChunk, 300u);
    // lease_ms 0 turns every lookup of a live entry into kExpired (no touch).
    for (std::uint32_t lease_ms : {60000u, 0u}) {
        cache::CacheOptions opts;
        opts.max_entries = 16;
        opts.capacity_bytes = 500;
        opts.lease_ms = lease_ms;
        cache::LeaseCache single(opts);
        cache::LeaseCache batch(opts);
        EXPECT_EQ(run_script(single, ops, false), run_script(batch, ops, true));
        EXPECT_EQ(single.size(), batch.size());
        EXPECT_EQ(single.bytes(), batch.bytes());
        expect_same_counters(single.counters(), batch.counters());
        EXPECT_GT(batch.counters().evictions, 0u);
        EXPECT_GT(batch.counters().stale_drops, 0u);
        EXPECT_EQ(eviction_order(single, opts.max_entries),
                  eviction_order(batch, opts.max_entries));
    }
}

TEST(LeaseCacheTest, EpochBumpBetweenTicketAndFillManyLeavesTheBatchStale) {
    const std::vector<std::string> keys{"a", "b", "c", "d", "e"};
    const std::vector<std::optional<hep::BufferView>> values(keys.size(), view_of("v"));
    for (bool bump_target : {false, true}) {
        cache::LeaseCache c;
        const auto t = c.ticket("db", "target");
        // The mutation (or failover promotion) lands while the read is out.
        if (bump_target) {
            c.bump_target("target");
        } else {
            c.bump_db("db");
        }
        c.fill_many(std::vector<std::string>(keys), values, 1, t);
        EXPECT_EQ(c.counters().fills, keys.size());
        for (const auto& found : c.lookup_many(keys)) {
            EXPECT_EQ(found.state, cache::LeaseCache::LookupState::kMiss);
        }
        EXPECT_EQ(c.counters().stale_drops, keys.size());
        EXPECT_EQ(c.size(), 0u);

        // A ticket captured after the bump fills live entries.
        c.fill_many(std::vector<std::string>(keys), values, 1, c.ticket("db", "target"));
        for (const auto& found : c.lookup_many(keys)) {
            EXPECT_EQ(found.state, cache::LeaseCache::LookupState::kHit);
        }
    }
}

TEST(LeaseCacheTest, ConcurrentBatchCallsKeepBoundsAndCountFills) {
    cache::CacheOptions opts;
    opts.max_entries = 64;
    opts.capacity_bytes = 2048;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    constexpr int kRounds = 200;
    constexpr int kPage = 40;

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> inserted{0};
    auto worker = [&](char prefix) {
        for (int round = 0; round < kRounds; ++round) {
            std::vector<std::string> keys;
            std::vector<std::optional<hep::BufferView>> values;
            for (int i = 0; i < kPage; ++i) {
                const int n = (round * 7 + i) % 150;
                keys.push_back(std::string(1, prefix) + std::to_string(n));
                values.push_back(n % 5 == 0 ? std::nullopt
                                            : std::optional(view_of(std::string(n % 40, 'x'))));
                if (values.back()) inserted.fetch_add(1);
            }
            const auto t = c.ticket(round % 2 ? "db0" : "db1", "target");
            for (const auto& found : c.lookup_many(keys)) {
                if (found.state == cache::LeaseCache::LookupState::kHit) {
                    EXPECT_EQ(found.value.sv().find_first_not_of('x'), std::string_view::npos);
                }
            }
            c.fill_many(std::move(keys), values, 1, t);
        }
    };
    std::thread a(worker, 'a');
    std::thread b(worker, 'b');
    std::thread invalidator([&] {
        for (int i = 0; !done.load(); ++i) {
            if (i % 3 == 0) c.bump_db(i % 2 ? "db0" : "db1");
            if (i % 3 == 1) c.bump_target("target");
            c.erase((i % 2 ? "a" : "b") + std::to_string(i % 150));
            EXPECT_LE(c.size(), opts.max_entries);
            EXPECT_LE(c.bytes(), opts.capacity_bytes);
            std::this_thread::yield();
        }
    });
    a.join();
    b.join();
    done = true;
    invalidator.join();

    EXPECT_LE(c.size(), opts.max_entries);
    EXPECT_LE(c.bytes(), opts.capacity_bytes);
    EXPECT_EQ(c.counters().fills, inserted.load());
}

// ------------------------------------------------------------- service level

std::uint64_t total_product_gets(test_util::TestService& service) {
    std::uint64_t gets = 0;
    for (auto& server : service.servers) {
        auto* provider = server->find_provider(1);
        for (const auto& name : provider->database_names()) {
            if (name.rfind("products", 0) == 0) {
                gets += provider->find_database(name)->stats().gets;
            }
        }
    }
    return gets;
}

class CacheServiceTest : public ::testing::Test {
  protected:
    static test_util::TestServiceOptions make_options() {
        test_util::TestServiceOptions opts{2, 2, "map"};
        opts.monitoring = true;
        // A long lease keeps hit/miss accounting deterministic; the
        // invalidation paths are what guarantee freshness.
        opts.cache = *json::parse(R"({"lease_ms": 60000})");
        return opts;
    }

    CacheServiceTest() : service_(make_options()) {
        store_ = DataStore::connect(service_.network, service_.connection);
    }

    Event make_event(const std::string& path) {
        return store_.createDataSet(path).createRun(1).createSubRun(2).createEvent(3);
    }

    test_util::TestService service_;
    DataStore store_;
};

TEST_F(CacheServiceTest, ReadThroughFillThenHitSkipsTheWire) {
    Event ev = make_event("ct/fill");
    const std::vector<double> stored{1.5, 2.5, 3.5};
    ev.store("d", stored);

    auto cache = store_.impl()->product_cache();
    ASSERT_NE(cache, nullptr);

    std::vector<double> loaded;
    ASSERT_TRUE(ev.load("d", loaded));
    EXPECT_EQ(loaded, stored);
    const auto after_first = cache->counters();
    EXPECT_GE(after_first.fills, 1u);

    // The second read is a cache hit: no products database sees a get.
    const std::uint64_t wire_before = total_product_gets(service_);
    std::vector<double> again;
    ASSERT_TRUE(ev.load("d", again));
    EXPECT_EQ(again, stored);
    EXPECT_EQ(total_product_gets(service_), wire_before);
    EXPECT_GT(cache->counters().hits, after_first.hits);
    EXPECT_GT(cache->hit_latency().count(), 0u);

    // The client metrics registry exposes the same counters.
    auto snap = store_.impl()->metrics().snapshot();
    EXPECT_GE(snap["sources"]["cache/client"]["fills"].as_int(), 1);
}

TEST_F(CacheServiceTest, ReadAfterWriteNeverStale) {
    Event ev = make_event("ct/raw");
    std::vector<std::uint64_t> v1{1, 2, 3};
    std::vector<std::uint64_t> v2{4, 5, 6, 7};
    ev.store("p", v1);
    std::vector<std::uint64_t> got;
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v1);

    // Direct put overwrites and invalidates synchronously: the very next
    // load sees the new value, lease notwithstanding.
    ev.store("p", v2);
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v2);

    // Same guarantee through a write batch: visible right after flush().
    {
        WriteBatch batch(store_.impl());
        ev.store("p", v1, &batch);
        batch.flush();
    }
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v1);

    // And through an async write batch after wait().
    {
        AsyncWriteBatch batch(store_.impl());
        ev.store("p", v2, &batch);
        batch.flush();
        batch.wait();
    }
    ASSERT_TRUE(ev.load("p", got));
    EXPECT_EQ(got, v2);

    // Erase invalidates too: the cached copy cannot resurrect the product.
    EXPECT_TRUE(ev.eraseProduct<std::vector<std::uint64_t>>("p"));
    EXPECT_FALSE(ev.load("p", got));
    EXPECT_FALSE(ev.eraseProduct<std::vector<std::uint64_t>>("p"));
}

TEST_F(CacheServiceTest, CachedReadsBitIdenticalToDirectUnderMutation) {
    Event ev = make_event("ct/ident");
    auto cache = store_.impl()->product_cache();
    ASSERT_NE(cache, nullptr);
    for (std::uint64_t v = 0; v < 32; ++v) {
        std::vector<std::uint64_t> payload{v, v * 31, v ^ 0x5a5a};
        ev.store("m", payload);
        // Cached read (miss+fill after the invalidation, then a pure hit).
        std::vector<std::uint64_t> cached1, cached2, direct;
        ASSERT_TRUE(ev.load("m", cached1));
        ASSERT_TRUE(ev.load("m", cached2));
        // Direct read with the cache bypassed.
        cache->set_bypass(true);
        ASSERT_TRUE(ev.load("m", direct));
        cache->set_bypass(false);
        EXPECT_EQ(cached1, payload);
        EXPECT_EQ(cached2, payload);
        EXPECT_EQ(direct, payload);
    }
}

TEST_F(CacheServiceTest, BypassModeGoesStraightToTheOwner) {
    Event ev = make_event("ct/bypass");
    ev.store("b", std::uint64_t{42});
    auto cache = store_.impl()->product_cache();
    cache->set_bypass(true);
    const auto before = cache->counters();
    std::uint64_t out = 0;
    ASSERT_TRUE(ev.load("b", out));
    ASSERT_TRUE(ev.load("b", out));
    EXPECT_EQ(out, 42u);
    const auto after = cache->counters();
    EXPECT_EQ(after.fills, before.fills);
    EXPECT_EQ(after.hits, before.hits);
    cache->set_bypass(false);
}

TEST_F(CacheServiceTest, PrefetcherFillsAndUsesTheCache) {
    DataSet ds = store_.createDataSet("ct/prefetch");
    auto sr = ds.createRun(1).createSubRun(1);
    for (std::uint64_t e = 0; e < 16; ++e) {
        sr.createEvent(e).store("n", e);
    }
    Prefetcher prefetcher(store_, 8);
    prefetcher.fetch_product<std::uint64_t>("n");
    std::uint64_t sum = 0;
    prefetcher.for_each_event(sr, [&](const Event& ev, const ProductCache& cache) {
        std::uint64_t n = 0;
        ASSERT_TRUE(cache.load(ev, "n", n));
        sum += n;
    });
    EXPECT_EQ(sum, 16u * 15u / 2u);
    EXPECT_GE(store_.impl()->product_cache()->counters().fills, 16u);

    // A second sweep is served from the client cache: no product gets.
    const std::uint64_t wire_before = total_product_gets(service_);
    prefetcher.for_each_event(sr, [&](const Event& ev, const ProductCache& cache) {
        std::uint64_t n = 0;
        ASSERT_TRUE(cache.load(ev, "n", n));
    });
    EXPECT_EQ(total_product_gets(service_), wire_before);
}

TEST_F(CacheServiceTest, ParallelEventProcessorSecondPassIssuesNoProductGets) {
    DataSet ds = store_.createDataSet("ct/pep");
    for (std::uint64_t s = 0; s < 2; ++s) {
        auto sr = ds.createRun(1).createSubRun(s);
        for (std::uint64_t e = 0; e < 24; ++e) sr.createEvent(e).store("n", s * 100 + e);
    }
    auto pass = [&] {
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> from_prefetch{0};
        mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
            ParallelEventProcessor pep(store_, comm, {16, 4, 0});
            pep.prefetch<std::uint64_t>("n");
            pep.process(ds, [&](const Event& ev, const ProductCache& cache) {
                std::uint64_t n = 0;
                if (cache.load(ev, "n", n)) from_prefetch.fetch_add(1);
                sum.fetch_add(n);
            });
        });
        EXPECT_EQ(from_prefetch.load(), 48u);
        EXPECT_EQ(sum.load(), 24u * 23u / 2u + 24u * 100u + 24u * 23u / 2u);
    };
    pass();
    EXPECT_GE(store_.impl()->product_cache()->counters().fills, 48u);

    // The dataset fits in the cache and the lease has not run out: the
    // second pass prefetches every product from the client cache.
    const std::uint64_t wire_before = total_product_gets(service_);
    const auto hits_before = store_.impl()->product_cache()->counters().hits;
    pass();
    EXPECT_EQ(total_product_gets(service_), wire_before);
    EXPECT_EQ(store_.impl()->product_cache()->counters().hits - hits_before, 48u);
}

// ------------------------------------------------- lease expiry (service)

TEST(CacheLeaseServiceTest, ExpiredLeaseRenewsWithoutRefetchingValue) {
    test_util::TestServiceOptions opts{1, 1, "map"};
    opts.cache = *json::parse(R"({"lease_ms": 30})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    Event ev = store.createDataSet("lease").createRun(1).createSubRun(1).createEvent(1);
    ev.store("v", std::uint64_t{11});
    std::uint64_t out = 0;
    ASSERT_TRUE(ev.load("v", out));

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // The value is unchanged: the read revalidates with one seq probe (no
    // product get) and renews the lease.
    const std::uint64_t wire_before = total_product_gets(service);
    ASSERT_TRUE(ev.load("v", out));
    EXPECT_EQ(out, 11u);
    EXPECT_EQ(total_product_gets(service), wire_before);
    auto counters = store.impl()->product_cache()->counters();
    EXPECT_GE(counters.lease_expiries, 1u);
    EXPECT_GE(counters.renewals, 1u);
}

// --------------------------------------------------------- cache-tier level

TEST(CacheTierTest, MissFillHitOverLoopbackAndInvalidation) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    opts.cache_tier = true;
    opts.monitoring = true;
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    test_util::TestService service(opts);

    // The merged connection document advertises every cache node.
    ASSERT_TRUE(service.connection["cache_tier"].is_array());
    EXPECT_EQ(service.connection["cache_tier"].size(), 2u);

    auto writer = DataStore::connect(service.network, service.connection);
    ASSERT_NE(writer.impl()->tier(), nullptr);
    EXPECT_EQ(writer.impl()->tier()->node_count(), 2u);

    Event ev = writer.createDataSet("tier").createRun(1).createSubRun(1).createEvent(1);
    const std::vector<std::uint64_t> v1{10, 20, 30};
    ev.store("t", v1);

    auto tier_counters = [&service]() {
        cache::LeaseCache::Counters total;
        for (auto& server : service.servers) {
            auto* cp = server->find_cache_provider(90);
            if (!cp) continue;
            const auto c = cp->table().counters();
            total.hits += c.hits;
            total.misses += c.misses;
            total.fills += c.fills;
        }
        return total;
    };

    // First read anywhere: the tier node misses and fills from the owner.
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(ev.load("t", out));
    EXPECT_EQ(out, v1);
    const auto after_fill = tier_counters();
    EXPECT_GE(after_fill.fills, 1u);

    // A different client (cold local cache) is served BY the tier: tier hits
    // move, owner product gets do not.
    auto reader = DataStore::connect(service.network, service.connection);
    Event rev = reader["tier"][1][1][1];
    const std::uint64_t wire_before = total_product_gets(service);
    ASSERT_TRUE(rev.load("t", out));
    EXPECT_EQ(out, v1);
    EXPECT_EQ(total_product_gets(service), wire_before);
    EXPECT_GT(tier_counters().hits, after_fill.hits);

    // A mutation invalidates the tier copy synchronously: the writer's next
    // read refills, and yet another cold client sees the new value.
    const std::vector<std::uint64_t> v2{7};
    ev.store("t", v2);
    ASSERT_TRUE(ev.load("t", out));
    EXPECT_EQ(out, v2);
    auto reader2 = DataStore::connect(service.network, service.connection);
    ASSERT_TRUE(reader2["tier"][1][1][1].load("t", out));
    EXPECT_EQ(out, v2);

    // Tier health is visible via symbio on each hosting process.
    auto snap = symbio::fetch_all(writer.impl()->engine(), "hepnos-server-0", 99);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    EXPECT_FALSE((*snap)["sources"]["cache/90"].is_null());
}

// ------------------------------------------------------- failover invalidation

TEST(CacheFailoverTest, PromotionDropsEntriesFilledFromDemotedPrimary) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    opts.replication_factor = 2;
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    Event ev = store.createDataSet("fo").createRun(1).createSubRun(1).createEvent(1);
    const std::vector<std::uint64_t> value{3, 1, 4, 1, 5};
    ev.store("f", value);
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(ev.load("f", out));  // cached, filled from the current primary
    EXPECT_EQ(out, value);

    auto cache = store.impl()->product_cache();
    const auto invalidations_before = cache->counters().invalidations;

    // Partition the primary that served the fill and force the client to
    // notice (a non-cached op on the same database drives the retry loop).
    const auto& db = store.impl()->locate(Role::kProducts, ev.container_key());
    ASSERT_NE(db.failover(), nullptr);
    const std::string primary_server = db.failover()->target(db.failover()->primary()).server;
    service.network.set_partitioned(primary_server, true);
    EXPECT_TRUE((ev.hasProduct<std::vector<std::uint64_t>>("f")));
    EXPECT_GT(store.impl()->failover_counters()->failovers.load(), 0u);

    // The promotion listener bumped the demoted target's epoch: the cached
    // entry is dead, and the re-read (from the backup) returns the same
    // bytes the primary acknowledged.
    EXPECT_GT(cache->counters().invalidations, invalidations_before);
    ASSERT_TRUE(ev.load("f", out));
    EXPECT_EQ(out, value);
    EXPECT_GE(cache->counters().stale_drops, 1u);

    service.network.set_partitioned(primary_server, false);
}

}  // namespace
