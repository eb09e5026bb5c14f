// Tests for the hot-product read cache tier (src/cache): LRU bound and
// eviction order, lease/epoch freshness, read-through fills at the client,
// synchronous invalidation on put/erase/write-batch-flush (same-client
// read-after-write is never stale), the dedicated cache-provider tier over
// loopback, and failover-driven invalidation.
#include <gtest/gtest.h>

#include <algorithm>
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

// An op script run against a cache: fills go through fill_many, lookups
// through lookup() or lookup_many().
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
template <typename Cache>
std::vector<std::string> run_script(Cache& c, const std::vector<CacheOp>& ops,
                                    bool batch_lookups) {
    std::vector<std::string> log;
    for (const auto& op : ops) {
        std::vector<std::string> keys;
        for (int n : op.keys) keys.push_back(script_key(n));
        switch (op.kind) {
            case CacheOp::kFill: {
                std::vector<std::optional<hep::BufferView>> values;
                for (int n : op.keys) values.push_back(script_value(n));
                c.fill_many(std::move(keys), values, 5, c.ticket("db", "target"));
                break;
            }
            case CacheOp::kLookup: {
                std::vector<cache::LeaseCache::Lookup> found;
                if (batch_lookups) {
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

/// bytes() after each of `n` single-key fills of fresh, value-less keys:
/// each fill into a full cache evicts the LRU tail, so the sequence spells
/// the LRU order.
template <typename Cache>
std::vector<std::size_t> eviction_order(Cache& c, std::size_t n) {
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
    EXPECT_EQ(a.skipped_fills, b.skipped_fills);
}

std::vector<int> key_range(int first, int last) {
    std::vector<int> out;
    for (int n = first; n <= last; ++n) out.push_back(n);
    return out;
}

/// The insertion policy of the file comment of cache/lease_cache.hpp,
/// spelled out over a plain vector (front = MRU, cold entries at the back,
/// newest first) with one db and one target:
/// what the LeaseCache's list, index and lock chunks must add up to. Leases
/// either never lapse or always have (lease_ms 0).
class ReferenceCache {
  public:
    struct Ticket {
        std::uint64_t db = 0;
        std::uint64_t target = 0;
    };

    explicit ReferenceCache(const cache::CacheOptions& opts) : opts_(opts) {}

    Ticket ticket(const std::string&, const std::string&) const { return {db_, target_}; }

    cache::LeaseCache::Lookup lookup(const std::string& key) {
        auto it = find(key);
        if (it == entries_.end()) {
            ++counters_.misses;
            return {};
        }
        if (stale(*it)) {
            ++counters_.stale_drops;
            ++counters_.misses;
            unlink(it);
            return {};
        }
        if (opts_.lease_ms == 0) {
            ++counters_.lease_expiries;
            return {cache::LeaseCache::LookupState::kExpired, it->value, 5, 0, 0};
        }
        ++counters_.hits;
        it->cold = false;
        std::rotate(entries_.begin(), it, it + 1);
        return {cache::LeaseCache::LookupState::kHit, entries_.front().value, 5, 0, 0};
    }

    std::vector<cache::LeaseCache::Lookup> lookup_many(const std::vector<std::string>& keys) {
        std::vector<cache::LeaseCache::Lookup> out;
        for (const auto& k : keys) out.push_back(lookup(k));
        return out;
    }

    void fill(const std::string& key, hep::BufferView value, std::uint64_t, const Ticket& t) {
        if (auto it = find(key); it != entries_.end()) unlink(it);
        entries_.insert(entries_.begin(), Entry{key, std::move(value), false, t});
        bytes_ += size_of(entries_.front());
        ++counters_.fills;
        evict();
    }

    void fill_many(std::vector<std::string>&& keys,
                   const std::vector<std::optional<hep::BufferView>>& values, std::uint64_t,
                   const Ticket& t) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (values[i]) fill_cold(keys[i], *values[i], t);
        }
    }

    void bump_db(const std::string&) {
        ++db_;
        ++counters_.invalidations;
    }
    void bump_target(const std::string&) {
        ++target_;
        ++counters_.invalidations;
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] std::size_t bytes() const { return bytes_; }
    [[nodiscard]] cache::LeaseCache::Counters counters() const { return counters_; }

  private:
    struct Entry {
        std::string key;
        hep::BufferView value;
        bool cold = false;
        Ticket epochs;
    };
    using Iter = std::vector<Entry>::iterator;

    static std::size_t size_of(const Entry& e) { return e.key.size() + e.value.size(); }
    [[nodiscard]] bool stale(const Entry& e) const {
        return e.epochs.db != db_ || e.epochs.target != target_;
    }
    Iter find(const std::string& key) {
        return std::find_if(entries_.begin(), entries_.end(),
                            [&](const Entry& e) { return e.key == key; });
    }
    void unlink(Iter it) {
        bytes_ -= size_of(*it);
        entries_.erase(it);
    }
    void evict() {
        while (!entries_.empty() &&
               (bytes_ > opts_.capacity_bytes || entries_.size() > opts_.max_entries)) {
            ++counters_.evictions;
            unlink(entries_.end() - 1);
        }
    }

    void fill_cold(const std::string& key, const hep::BufferView& value, const Ticket& t) {
        if (auto it = find(key); it != entries_.end()) {
            bytes_ -= it->value.size();
            bytes_ += value.size();
            it->value = value;
            it->epochs = t;
            ++counters_.fills;
            evict();
            return;
        }
        const std::size_t need = key.size() + value.size();
        while (!entries_.empty() && (entries_.size() >= opts_.max_entries ||
                                     bytes_ + need > opts_.capacity_bytes)) {
            const Entry& tail = entries_.back();
            if (tail.cold && !stale(tail) && opts_.lease_ms != 0) {
                ++counters_.skipped_fills;
                return;
            }
            ++counters_.evictions;
            unlink(entries_.end() - 1);
        }
        entries_.insert(std::find_if(entries_.begin(), entries_.end(),
                                     [](const Entry& e) { return e.cold; }),
                        Entry{key, value, true, t});
        bytes_ += need;
        ++counters_.fills;
        evict();
    }

    cache::CacheOptions opts_;
    std::vector<Entry> entries_;
    std::size_t bytes_ = 0;
    std::uint64_t db_ = 0;
    std::uint64_t target_ = 0;
    cache::LeaseCache::Counters counters_;
};

// A page larger than the entry bound, refills of cached keys, duplicate keys
// in one batch, stale drops after each kind of epoch bump, byte evictions,
// skipped fills behind a cold tail, hot tails evicted, and batches longer
// than LeaseCache::kLockChunk.
const std::vector<CacheOp>& mixed_script() {
    static const std::vector<CacheOp> ops{
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
        {CacheOp::kFill, key_range(60, 69)},
        {CacheOp::kLookup, key_range(40, 69)},
        // Batches that span several lock chunks.
        {CacheOp::kFill, key_range(100, 399)},
        {CacheOp::kLookup, key_range(0, 599)},
        {CacheOp::kBumpDb, {}},
        {CacheOp::kFill, key_range(400, 699)},
        {CacheOp::kLookup, key_range(400, 699)},
    };
    return ops;
}

cache::CacheOptions script_options(std::uint32_t lease_ms) {
    cache::CacheOptions opts;
    opts.max_entries = 16;
    opts.capacity_bytes = 500;
    opts.lease_ms = lease_ms;
    return opts;
}

TEST(LeaseCacheTest, BatchCallsMatchSingleKeyCalls) {
    ASSERT_LT(cache::LeaseCache::kLockChunk, 300u);
    // lease_ms 0 turns every lookup of a live entry into kExpired (no touch).
    for (std::uint32_t lease_ms : {60000u, 0u}) {
        const auto opts = script_options(lease_ms);
        cache::LeaseCache single(opts);
        cache::LeaseCache batch(opts);
        EXPECT_EQ(run_script(single, mixed_script(), false),
                  run_script(batch, mixed_script(), true));
        EXPECT_EQ(single.size(), batch.size());
        EXPECT_EQ(single.bytes(), batch.bytes());
        expect_same_counters(single.counters(), batch.counters());
        EXPECT_GT(batch.counters().evictions, 0u);
        EXPECT_GT(batch.counters().stale_drops, 0u);
        EXPECT_EQ(eviction_order(single, opts.max_entries),
                  eviction_order(batch, opts.max_entries));
    }
}

TEST(LeaseCacheTest, FillManyMatchesTheReferencePolicy) {
    for (std::uint32_t lease_ms : {60000u, 0u}) {
        const auto opts = script_options(lease_ms);
        cache::LeaseCache real(opts);
        ReferenceCache model(opts);
        EXPECT_EQ(run_script(real, mixed_script(), true), run_script(model, mixed_script(), true));
        EXPECT_EQ(real.size(), model.size());
        EXPECT_EQ(real.bytes(), model.bytes());
        expect_same_counters(real.counters(), model.counters());
        EXPECT_GT(real.counters().evictions, 0u);
        if (lease_ms != 0) {
            EXPECT_GT(real.counters().skipped_fills, 0u);
        }
        EXPECT_EQ(eviction_order(real, opts.max_entries),
                  eviction_order(model, opts.max_entries));
    }
}

/// One pass of a bulk reader over `keys` in pages: lookup_many, then
/// fill_many of what missed. Returns the pass's hits.
std::size_t bulk_pass(cache::LeaseCache& c, const std::vector<std::string>& keys,
                      std::size_t page) {
    std::size_t hits = 0;
    const hep::BufferView value = view_of("value");
    for (std::size_t start = 0; start < keys.size(); start += page) {
        const std::vector<std::string> slice(
            keys.begin() + static_cast<std::ptrdiff_t>(start),
            keys.begin() + static_cast<std::ptrdiff_t>(std::min(start + page, keys.size())));
        const auto t = c.ticket("db", "target");
        std::vector<std::string> missing;
        const auto found = c.lookup_many(slice);
        for (std::size_t i = 0; i < slice.size(); ++i) {
            if (found[i].state == cache::LeaseCache::LookupState::kHit) {
                ++hits;
            } else {
                missing.push_back(slice[i]);
            }
        }
        const std::vector<std::optional<hep::BufferView>> values(missing.size(), value);
        c.fill_many(std::move(missing), values, 1, t);
    }
    return hits;
}

TEST(LeaseCacheTest, CyclicBulkScanKeepsAResidentSet) {
    cache::CacheOptions opts;
    opts.max_entries = 256;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    std::vector<std::string> keys;
    for (int n = 0; n < 3 * 256; ++n) keys.push_back("scan-" + std::to_string(n));

    EXPECT_EQ(bulk_pass(c, keys, 64), 0u);
    EXPECT_EQ(c.size(), opts.max_entries);
    EXPECT_EQ(c.counters().evictions, 0u);
    // From pass 2 on, most of the resident third of the keys hits every
    // pass, where an LRU would evict each entry before its next use.
    const double floor = 0.9 * static_cast<double>(opts.max_entries) /
                         static_cast<double>(keys.size());
    for (int pass = 2; pass <= 5; ++pass) {
        const std::size_t hits = bulk_pass(c, keys, 64);
        EXPECT_GE(static_cast<double>(hits) / static_cast<double>(keys.size()), floor)
            << "pass " << pass;
    }
    const auto counters = c.counters();
    EXPECT_LE(counters.evictions, 4u);  // one hot tail per pass at most
    EXPECT_EQ(counters.fills + counters.skipped_fills, counters.misses);
    EXPECT_EQ(c.size(), opts.max_entries);
}

TEST(LeaseCacheTest, StaleColdEntriesDoNotBlockTheNextBulkPass) {
    cache::CacheOptions opts;
    opts.max_entries = 64;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    std::vector<std::string> old_keys;
    std::vector<std::string> new_keys;
    for (int n = 0; n < 64; ++n) {
        old_keys.push_back("old-" + std::to_string(n));
        new_keys.push_back("new-" + std::to_string(n));
    }
    bulk_pass(c, old_keys, 16);
    ASSERT_EQ(c.size(), 64u);  // all cold, never hit

    // A mutation kills every entry: the next bulk pass evicts them instead
    // of being skipped behind them, and refills the cache.
    c.bump_db("db");
    bulk_pass(c, new_keys, 16);
    EXPECT_EQ(c.counters().skipped_fills, 0u);
    EXPECT_EQ(c.counters().evictions, 64u);
    EXPECT_EQ(bulk_pass(c, new_keys, 16), new_keys.size());
}

TEST(LeaseCacheTest, SingleKeyFillsStillInsertAtMru) {
    cache::CacheOptions opts;
    opts.max_entries = 4;
    opts.lease_ms = 60000;
    cache::LeaseCache c(opts);
    const auto t = c.ticket("db", "t");
    for (const char* k : {"a", "b", "c", "d"}) c.fill(k, view_of(k), 1, t);
    // A bulk fill into the full cache of hot single-key entries evicts the
    // LRU one ("a") and enters at the LRU end, cold ...
    c.fill_many({"bulk"}, {view_of("x")}, 1, t);
    EXPECT_EQ(c.counters().evictions, 1u);
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kMiss);
    // ... so the next single-key fill evicts it first, then "b", "c": plain
    // LRU order for single-key fills, newest first in.
    c.fill("e", view_of("e"), 1, t);
    EXPECT_EQ(c.lookup("bulk").state, cache::LeaseCache::LookupState::kMiss);
    c.fill("f", view_of("f"), 1, t);
    EXPECT_EQ(c.lookup("b").state, cache::LeaseCache::LookupState::kMiss);
    for (const char* k : {"c", "d", "e", "f"}) {
        EXPECT_EQ(c.lookup(k).state, cache::LeaseCache::LookupState::kHit) << k;
    }
    EXPECT_EQ(c.counters().skipped_fills, 0u);
}

TEST(LeaseCacheTest, RenewManyRefusedAfterTargetBumpBetweenProbeAndRenew) {
    cache::CacheOptions opts;
    opts.lease_ms = 50;
    cache::LeaseCache c(opts);
    const std::vector<std::string> keys{"a", "b", "c"};
    const std::vector<std::optional<hep::BufferView>> values(keys.size(), view_of("v"));
    c.fill_many(std::vector<std::string>(keys), values, 7, c.ticket("db", "primary-0"));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    for (const auto& found : c.lookup_many(keys)) {
        EXPECT_EQ(found.state, cache::LeaseCache::LookupState::kExpired);
    }

    // The ticket brackets the page's one seq probe; a failover promotion
    // demotes the target before the renewal lands: every renewal is refused.
    const auto stale = c.ticket("db", "primary-0");
    c.bump_target("primary-0");
    EXPECT_EQ(c.renew_many(keys, std::vector<std::uint64_t>(keys.size(), 7), 7, stale),
              std::vector<bool>(keys.size(), false));
    EXPECT_EQ(c.counters().renewals, 0u);

    // Refilled from the new primary, expired again: a current ticket renews
    // the entries whose seq matches the probe, and only those.
    c.fill_many(std::vector<std::string>(keys), values, 7, c.ticket("db", "primary-1"));
    c.fill("c", view_of("v"), 8, c.ticket("db", "primary-1"));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(c.renew_many({"a", "b", "c", "gone"}, {7, 7, 8, 7}, 7, c.ticket("db", "primary-1")),
              (std::vector<bool>{true, true, false, false}));
    EXPECT_EQ(c.counters().renewals, 2u);
    EXPECT_EQ(c.lookup("a").state, cache::LeaseCache::LookupState::kHit);
}

TEST(LeaseCacheTest, RenewManyRefusedForAnEntryRefetchedSinceTheLookup) {
    cache::CacheOptions opts;
    opts.lease_ms = 50;
    cache::LeaseCache c(opts);
    const std::vector<std::string> keys{"a", "b"};
    c.fill_many(std::vector<std::string>(keys), {view_of("old-a"), view_of("old-b")}, 7,
                c.ticket("db", "primary"));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    // A bulk page looks both keys up: expired, holding the seq-7 values.
    const auto found = c.lookup_many(keys);
    std::vector<std::uint64_t> seen;
    for (const auto& f : found) {
        ASSERT_EQ(f.state, cache::LeaseCache::LookupState::kExpired);
        seen.push_back(f.seq);
    }
    // An external writer moved the db to seq 9, and another reader of the
    // same cache refetched "a", updating its entry in place.
    c.fill_many({"a"}, {view_of("new-a")}, 9, c.ticket("db", "primary"));

    // The page's probe answers 9. The entry for "a" is at seq 9 now, but
    // the page holds "old-a": renewing it would serve a value the probe
    // showed had moved. Both are refused and refetched.
    const auto ticket = c.ticket("db", "primary");
    EXPECT_EQ(c.renew_many(keys, seen, 9, ticket), (std::vector<bool>{false, false}));
    EXPECT_EQ(c.counters().renewals, 0u);
    const auto a = c.lookup("a");
    ASSERT_EQ(a.state, cache::LeaseCache::LookupState::kHit);
    EXPECT_EQ(a.value.sv(), "new-a");
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
    // Every value is either filled (new or in place) or skipped behind a
    // cold tail.
    const auto counters = c.counters();
    EXPECT_EQ(counters.fills + counters.skipped_fills, inserted.load());
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

TEST(CacheScanServiceTest, RepeatedPepPassesOverThreeTimesTheCacheKeepAResidentSet) {
    test_util::TestServiceOptions opts;
    opts.num_servers = 2;
    opts.cache = *json::parse(R"({"lease_ms": 60000, "max_entries": 64})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);
    DataSet ds = store.createDataSet("ct/scan");
    constexpr std::uint64_t kSubRuns = 4;
    constexpr std::uint64_t kEvents = 48;  // 192 products: 3x the cache
    for (std::uint64_t s = 0; s < kSubRuns; ++s) {
        auto sr = ds.createRun(1).createSubRun(s);
        for (std::uint64_t e = 0; e < kEvents; ++e) sr.createEvent(e).store("n", s * 1000 + e);
    }
    // {sum of the products, product gets the pass issued}
    auto pass = [&] {
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> from_prefetch{0};
        const std::uint64_t gets_before = total_product_gets(service);
        mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
            ParallelEventProcessor pep(store, comm, {16, 4, 0});
            pep.prefetch<std::uint64_t>("n");
            pep.process(ds, [&](const Event& ev, const ProductCache& cache) {
                std::uint64_t n = 0;
                if (cache.load(ev, "n", n)) from_prefetch.fetch_add(1);
                sum.fetch_add(n);
            });
        });
        EXPECT_EQ(from_prefetch.load(), kSubRuns * kEvents);
        return std::pair{sum.load(), total_product_gets(service) - gets_before};
    };
    const auto first = pass();
    const auto second = pass();
    const auto third = pass();
    EXPECT_EQ(first.first, kEvents * 1000 * (0 + 1 + 2 + 3) + kSubRuns * kEvents * 47 / 2);
    EXPECT_EQ(second.first, first.first);
    EXPECT_EQ(third.first, first.first);
    // (Pass 1 may re-read one page: the first get_multi learns its size.)
    EXPECT_GE(first.second, kSubRuns * kEvents);
    // An LRU would evict every entry before its next use and refetch all
    // 192; the resident third is served from the cache instead.
    EXPECT_LE(third.second * 4, first.second * 3)
        << "pass 3 issued " << third.second << " product gets";
    const auto counters = store.impl()->product_cache()->counters();
    EXPECT_GT(counters.skipped_fills, 0u);
    EXPECT_LT(counters.evictions, 16u);
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

TEST(CacheLeaseServiceTest, ExpiredBulkPageRevalidatesWithOneSeqProbe) {
    test_util::TestServiceOptions opts;
    opts.dbs_per_role = 1;
    opts.cache = *json::parse(R"({"lease_ms": 300})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);
    auto sr = store.createDataSet("lease-bulk").createRun(1).createSubRun(1);
    constexpr std::uint64_t kEvents = 32;
    for (std::uint64_t e = 0; e < kEvents; ++e) sr.createEvent(e).store("n", e);

    Prefetcher prefetcher(store, 64);  // the whole subrun is one page
    prefetcher.fetch_product<std::uint64_t>("n");
    auto sweep = [&] {
        std::uint64_t sum = 0;
        prefetcher.for_each_event(sr, [&](const Event& ev, const ProductCache& cache) {
            std::uint64_t n = 0;
            EXPECT_TRUE(cache.load(ev, "n", n));
            sum += n;
        });
        return sum;
    };
    const std::uint64_t expected = kEvents * (kEvents - 1) / 2;
    ASSERT_EQ(sweep(), expected);
    std::this_thread::sleep_for(std::chrono::milliseconds(350));

    auto cache = store.impl()->product_cache();
    const auto before = cache->counters();
    const std::uint64_t gets_before = total_product_gets(service);
    const auto net_before = service.network.stats();
    EXPECT_EQ(sweep(), expected);  // every lease lapsed: revalidate
    const auto net_mid = service.network.stats();
    EXPECT_EQ(sweep(), expected);  // every lease renewed: all hits
    const auto net_after = service.network.stats();

    EXPECT_EQ(total_product_gets(service), gets_before);
    const auto after = cache->counters();
    EXPECT_EQ(after.lease_expiries - before.lease_expiries, kEvents);
    EXPECT_EQ(after.renewals - before.renewals, kEvents);
    EXPECT_EQ(after.hits - before.hits, kEvents);
    // Both sweeps list the same events; the revalidating one adds exactly
    // one request and its response (the seq probe) and no bulk transfer.
    EXPECT_EQ((net_mid.messages - net_before.messages) - (net_after.messages - net_mid.messages),
              2u);
    EXPECT_EQ(net_after.bulk_transfers, net_before.bulk_transfers);
}

TEST(CacheLeaseServiceTest, BulkLoadsSizeReceiveSlabsFromTheLastReply) {
    test_util::TestServiceOptions opts;
    opts.dbs_per_role = 1;
    opts.cache = *json::parse(R"({"lease_ms": 60000})");
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);
    auto sr = store.createDataSet("slabs").createRun(1).createSubRun(1);
    std::vector<std::string> first;
    std::vector<std::string> second;
    const auto type = product_type_name<std::vector<std::uint64_t>>();
    for (std::uint64_t e = 0; e < 128; ++e) {
        Event ev = sr.createEvent(e);
        ev.store("v", std::vector<std::uint64_t>(16, e));
        (e < 64 ? first : second).push_back(product_key(ev.container_key(), "v", type));
    }
    auto& impl = *store.impl();
    auto undersized = [] { return hep::buffer_counters().undersized_receives.load(); };
    const auto undersized_before = undersized();

    // No reply seen yet: the first page learns its size with one retry.
    auto a = impl.load_products_bulk(0, first);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    EXPECT_EQ(undersized() - undersized_before, 1u);

    // The next page of the same shape fits the estimate, and its slab holds
    // the fetched bytes plus at most the 1/8 headroom (and rounding).
    auto b = impl.load_products_bulk(0, second);
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(undersized() - undersized_before, 1u);
    std::size_t fetched = 0;
    for (const auto& v : *b) {
        ASSERT_TRUE(v.has_value());
        fetched += v->size();
    }
    const std::size_t slab = (*b)[0]->owner()->size();
    EXPECT_GE(slab, fetched);
    EXPECT_LE(slab, fetched + fetched / 8 + 2 * second.size());
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
