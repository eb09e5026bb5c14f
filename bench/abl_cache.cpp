// Ablation: hot-product read cache tier (src/cache).
//
// A zipfian hot-key analysis workload (a handful of calibration products
// dominate the reads, paper §II-D's shared-product access pattern) is replayed
// against a 2-server service in three configurations:
//   off     — cache disabled, every load is an owner-provider RPC
//   client  — per-DataStore lease cache only (tier off)
//   tier    — client cache + dedicated cache providers fronting the owners
// Several analysis clients read concurrently; with client caches only, each
// client pays its own compulsory misses against the owner, while the tier
// absorbs all but the first fill of every key service-wide.
//
// A second phase verifies freshness under concurrent ingest: an async write
// batch keeps overwriting the hot products while cached reads run — FNV-1a
// hashes of every read must match the deterministically-known current values
// (the lease cache's synchronous invalidation guarantees read-after-write).
//
// A third phase replays the bulk prefetch shape without a service: pages
// cycling over 3x the client cache, as pep_select's repeated PEP passes do.
//
// Writes BENCH_cache.json (working directory) with all modes and pass bars:
// >=5x lower p99 vs off, >=5x fewer owner reads at >=90% hit rate,
// bit-identical readback under ingest, and a cyclic-scan hit rate >= 0.25.
// Exits 1 if any bar fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bedrock/service.hpp"
#include "bench_table.hpp"
#include "cache/lease_cache.hpp"
#include "common/rng.hpp"
#include "hepnos/hepnos.hpp"
#include "rpc/network.hpp"

namespace {

using namespace hep;
using namespace hep::hepnos;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kServers = 2;
constexpr std::size_t kDbsPerRole = 2;
constexpr std::size_t kKeys = 256;          // hot product population
constexpr std::size_t kClients = 4;         // concurrent analysis processes
constexpr std::size_t kReadsPerClient = 2500;
constexpr std::size_t kValueWords = 512;    // 4 KiB values
constexpr double kZipfExponent = 1.2;

json::Value server_config(std::size_t index, bool tier) {
    json::Value cfg = json::Value::make_object();
    cfg["address"] = "cache-bench-server-" + std::to_string(index);
    cfg["margo"]["rpc_xstreams"] = std::size_t{2};
    json::Value providers = json::Value::make_array();
    json::Value yp = json::Value::make_object();
    yp["type"] = "yokan";
    yp["provider_id"] = 1;
    json::Value dbs = json::Value::make_array();
    auto add_db = [&](const std::string& role, std::size_t i) {
        json::Value db = json::Value::make_object();
        db["name"] = role + "-" + std::to_string(index) + "-" + std::to_string(i);
        db["role"] = role;
        db["type"] = "map";
        dbs.push_back(std::move(db));
    };
    add_db("datasets", 0);
    for (std::size_t i = 0; i < kDbsPerRole; ++i) add_db("runs", i);
    for (std::size_t i = 0; i < kDbsPerRole; ++i) add_db("subruns", i);
    for (std::size_t i = 0; i < kDbsPerRole; ++i) add_db("events", i);
    for (std::size_t i = 0; i < kDbsPerRole; ++i) add_db("products", i);
    yp["config"]["databases"] = std::move(dbs);
    providers.push_back(std::move(yp));
    if (tier) {
        json::Value cp = json::Value::make_object();
        cp["type"] = "cache";
        cp["provider_id"] = 90;
        providers.push_back(std::move(cp));
    }
    cfg["providers"] = std::move(providers);
    return cfg;
}

struct Service {
    rpc::Network net;
    std::vector<std::unique_ptr<bedrock::ServiceProcess>> servers;
    json::Value connection;
};

std::unique_ptr<Service> make_service(bool tier) {
    auto svc = std::make_unique<Service>();
    std::vector<json::Value> descriptors;
    for (std::size_t s = 0; s < kServers; ++s) {
        auto proc = bedrock::ServiceProcess::create(svc->net, server_config(s, tier), ".");
        if (!proc.ok()) {
            std::printf("ERROR: service boot failed: %s\n", proc.status().to_string().c_str());
            return nullptr;
        }
        descriptors.push_back((*proc)->descriptor());
        svc->servers.push_back(std::move(proc.value()));
    }
    svc->connection = bedrock::merge_descriptors(descriptors);
    return svc;
}

std::vector<std::uint64_t> payload(std::uint64_t k, std::uint64_t version) {
    std::vector<std::uint64_t> v(kValueWords);
    std::uint64_t h = 1469598103934665603ull ^ (k * 1099511628211ull) ^ version;
    for (auto& w : v) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        w = h;
    }
    return v;
}

std::uint64_t fnv1a_words(std::uint64_t h, const std::vector<std::uint64_t>& v) {
    for (std::uint64_t w : v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::uint64_t owner_product_gets(Service& svc) {
    std::uint64_t gets = 0;
    for (auto& server : svc.servers) {
        auto* provider = server->find_provider(1);
        for (const auto& name : provider->database_names()) {
            if (name.rfind("products", 0) == 0) {
                gets += provider->find_database(name)->stats().gets;
            }
        }
    }
    return gets;
}

enum class Mode { kOff, kClient, kTier };

const char* mode_name(Mode m) {
    switch (m) {
        case Mode::kOff: return "off";
        case Mode::kClient: return "client";
        default: return "client+tier";
    }
}

struct ModeResult {
    double p50_ms = 0, p99_ms = 0, mean_ms = 0, wall_s = 0;
    std::uint64_t reads = 0;
    std::uint64_t owner_reads = 0;
    std::uint64_t hits = 0, misses = 0;
    [[nodiscard]] double hit_rate() const {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
};

ModeResult run_mode(Mode mode) {
    auto svc = make_service(mode == Mode::kTier);
    if (!svc) return {};

    json::Value conn = svc->connection;
    switch (mode) {
        case Mode::kOff:
            conn["cache"] = *json::parse(R"({"enabled": false})");
            break;
        case Mode::kClient:
            conn["cache"] = *json::parse(R"({"lease_ms": 60000, "tier": false})");
            break;
        case Mode::kTier:
            conn["cache"] = *json::parse(R"({"lease_ms": 60000})");
            break;
    }

    // Populate the hot products through a dedicated writer connection.
    auto writer = DataStore::connect(svc->net, conn);
    {
        auto sr = writer.createDataSet("cachebench").createRun(1).createSubRun(1);
        WriteBatch batch(writer.impl());
        for (std::size_t k = 0; k < kKeys; ++k) {
            sr.createEvent(static_cast<EventNumber>(k), &batch)
                .store("h", payload(k, 0), &batch);
        }
        batch.flush();
    }

    // Each analysis client is its own connection (own lease cache), with the
    // event handles resolved outside the timed region.
    std::vector<DataStore> clients;
    std::vector<std::vector<Event>> events(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(DataStore::connect(svc->net, conn));
        auto sr = clients.back()["cachebench"][1][1];
        events[c].reserve(kKeys);
        for (std::size_t k = 0; k < kKeys; ++k) {
            events[c].push_back(sr[static_cast<EventNumber>(k)]);
        }
    }

    const std::uint64_t gets_before = owner_product_gets(*svc);
    // Warm pass (untimed, but counted in owner reads and hit rate): every
    // client touches every key once, paying the compulsory misses. The timed
    // loop below then measures steady-state hot-read latency — the number an
    // analysis loop over a long run actually sees.
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t k = 0; k < kKeys; ++k) {
            std::vector<std::uint64_t> value;
            if (!events[c][k].load("h", value)) {
                std::printf("ERROR: warm load of key %zu failed\n", k);
                return {};
            }
        }
    }
    Rng rng(20260809);
    ZipfSampler zipf(kKeys, kZipfExponent);
    ModeResult r;
    std::vector<double> samples;
    samples.reserve(kClients * kReadsPerClient);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kClients * kReadsPerClient; ++i) {
        const std::size_t c = i % kClients;
        const std::size_t k = zipf.sample(rng);
        std::vector<std::uint64_t> value;
        const auto rt0 = Clock::now();
        const bool ok = events[c][k].load("h", value);
        const double ms = std::chrono::duration<double, std::milli>(Clock::now() - rt0).count();
        if (!ok || value.size() != kValueWords) {
            std::printf("ERROR: load of key %zu failed in mode %s\n", k, mode_name(mode));
            continue;
        }
        samples.push_back(ms);
        ++r.reads;
    }
    r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    r.owner_reads = owner_product_gets(*svc) - gets_before;
    for (auto& client : clients) {
        if (const auto& cache = client.impl()->product_cache()) {
            const auto counters = cache->counters();
            r.hits += counters.hits;
            r.misses += counters.misses;
        }
    }
    std::sort(samples.begin(), samples.end());
    r.p50_ms = bench::quantile(samples, 0.50);
    r.p99_ms = bench::quantile(samples, 0.99);
    double sum = 0;
    for (double s : samples) sum += s;
    r.mean_ms = samples.empty() ? 0 : sum / static_cast<double>(samples.size());
    return r;
}

struct IntegrityResult {
    std::uint64_t rounds = 0;
    std::uint64_t reads = 0;
    std::uint64_t expected_hash = 0;
    std::uint64_t readback_hash = 0;
    [[nodiscard]] bool match() const { return expected_hash == readback_hash; }
};

/// Concurrent-ingest freshness: async batches keep overwriting the hot
/// products while cached reads run; every read must return the value the
/// just-acknowledged batch wrote (lease invalidation, not lease expiry).
IntegrityResult run_integrity() {
    IntegrityResult r;
    auto svc = make_service(/*tier=*/true);
    if (!svc) return r;
    json::Value conn = svc->connection;
    conn["cache"] = *json::parse(R"({"lease_ms": 60000})");
    auto store = DataStore::connect(svc->net, conn);
    auto sr = store.createDataSet("ingest").createRun(1).createSubRun(1);
    constexpr std::size_t kHot = 64;
    std::vector<Event> hot;
    for (std::size_t k = 0; k < kHot; ++k) {
        hot.push_back(sr.createEvent(static_cast<EventNumber>(k)));
        hot.back().store("w", payload(k, 0));
    }

    std::uint64_t expected = 1469598103934665603ull;
    std::uint64_t readback = 1469598103934665603ull;
    constexpr std::size_t kRounds = 40;
    for (std::size_t round = 1; round <= kRounds; ++round) {
        {
            AsyncWriteBatch batch(store.impl());
            for (std::size_t k = 0; k < kHot; ++k) {
                hot[k].store("w", payload(k, round), &batch);
            }
            batch.flush();
            batch.wait();
        }
        // Reads race the NEXT round's ingest only in wall-clock terms; the
        // correctness contract is that after wait() every cached read is the
        // new version, never the (still-leased) old one.
        for (std::size_t k = 0; k < kHot; ++k) {
            std::vector<std::uint64_t> value;
            if (!hot[k].load("w", value)) {
                std::printf("ERROR: integrity load of key %zu failed\n", k);
                return r;
            }
            expected = fnv1a_words(expected, payload(k, round));
            readback = fnv1a_words(readback, value);
            ++r.reads;
        }
        ++r.rounds;
    }
    r.expected_hash = expected;
    r.readback_hash = readback;
    return r;
}

// The bulk prefetch path's shape: pages of kPageKeys product-sized keys
// against a full client cache of the default kCacheEntries entries, as in a
// PEP pass over a dataset larger than the cache. Items are keys.
constexpr std::size_t kCacheEntries = 1u << 16;
constexpr std::size_t kPageKeys = 2048;

std::string page_key(std::uint64_t n) {
    // ~ a product key: 40-byte event key, then label and type name.
    std::string key(40, '\0');
    for (int b = 0; b < 8; ++b) key[32 + b] = static_cast<char>(n >> (56 - 8 * b));
    return key + "slices#std::vector<hep::nova::Slice>";
}

std::vector<std::string> make_page(std::uint64_t first) {
    std::vector<std::string> keys;
    keys.reserve(kPageKeys);
    for (std::uint64_t n = first; n < first + kPageKeys; ++n) keys.push_back(page_key(n));
    return keys;
}

struct ScanResult {
    double hit_rate = 0;  // over passes 2..kScanPasses
    std::uint64_t evictions = 0;
    std::uint64_t skipped_fills = 0;
};

/// A bulk reader cycling over 3x the default client cache's entries in
/// pages of kPageKeys (the pep_select shape, without the service): per page
/// one lookup_many, then one fill_many of what missed. An LRU that inserts
/// every fill at the MRU end evicts each entry before its next use (hit
/// rate 0); the bulk insertion policy keeps a resident third.
ScanResult run_cyclic_scan() {
    constexpr std::uint64_t kScanKeys = 3 * kCacheEntries;
    constexpr int kScanPasses = 4;
    cache::CacheOptions opts;
    opts.max_entries = kCacheEntries;
    opts.lease_ms = 60000;  // no lease lapses: the insertion policy alone decides
    cache::LeaseCache c(opts);
    const hep::Buffer value = hep::Buffer::adopt(std::string(64, 'v'));
    cache::LeaseCache::Counters after_first;
    for (int pass = 1; pass <= kScanPasses; ++pass) {
        for (std::uint64_t first = 0; first < kScanKeys; first += kPageKeys) {
            auto keys = make_page(first);
            const auto t = c.ticket("db", "t");
            const auto found = c.lookup_many(keys);
            std::vector<std::string> missing;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (found[i].state != cache::LeaseCache::LookupState::kHit) {
                    missing.push_back(std::move(keys[i]));
                }
            }
            const std::vector<std::optional<hep::BufferView>> values(missing.size(),
                                                                     value.view(0, 64));
            c.fill_many(std::move(missing), values, 1, t);
        }
        if (pass == 1) after_first = c.counters();
    }
    const auto end = c.counters();
    const auto hits = end.hits - after_first.hits;
    const auto lookups = hits + (end.misses - after_first.misses);
    ScanResult r;
    r.hit_rate = lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    r.evictions = end.evictions - after_first.evictions;
    r.skipped_fills = end.skipped_fills - after_first.skipped_fills;
    return r;
}

bool print_reproduction() {
    using namespace hep::bench;
    print_header(
        "Ablation — hot-product read cache tier: zipfian reads, 4 clients\n"
        "expect: >=5x lower p99 and >=5x fewer owner reads at >=90% hit rate");

    ModeResult off = run_mode(Mode::kOff);
    ModeResult client = run_mode(Mode::kClient);
    ModeResult tier = run_mode(Mode::kTier);

    print_row({"mode", "p50-ms", "p99-ms", "mean-ms", "owner-reads", "hit-rate", "wall-s"});
    for (const auto* m : {&off, &client, &tier}) {
        const char* name = m == &off ? "off" : (m == &client ? "client" : "client+tier");
        print_row({name, fmt(m->p50_ms, 4), fmt(m->p99_ms, 4), fmt(m->mean_ms, 4),
                   std::to_string(m->owner_reads), fmt(m->hit_rate(), 3), fmt(m->wall_s, 2)});
    }

    const double p99_ratio = client.p99_ms > 0 ? off.p99_ms / client.p99_ms : 0;
    const double owner_ratio_client =
        client.owner_reads > 0 ? static_cast<double>(off.owner_reads) /
                                     static_cast<double>(client.owner_reads)
                               : 0;
    const double owner_ratio_tier =
        tier.owner_reads > 0
            ? static_cast<double>(off.owner_reads) / static_cast<double>(tier.owner_reads)
            : 0;
    std::printf("\np99: off=%.4fms client=%.4fms (%.1fx lower)\n", off.p99_ms, client.p99_ms,
                p99_ratio);
    std::printf("owner reads: off=%llu client=%llu (%.1fx fewer) tier=%llu (%.1fx fewer)\n",
                static_cast<unsigned long long>(off.owner_reads),
                static_cast<unsigned long long>(client.owner_reads), owner_ratio_client,
                static_cast<unsigned long long>(tier.owner_reads), owner_ratio_tier);
    std::printf("hit rate: client=%.3f tier=%.3f (want >= 0.9)\n", client.hit_rate(),
                tier.hit_rate());
    const bool p99_pass = p99_ratio >= 5.0;
    const bool owner_pass = owner_ratio_client >= 5.0;
    const bool hit_pass = client.hit_rate() >= 0.9;
    if (!p99_pass) std::printf("FAIL: p99 improvement below the 5x bar\n");
    if (!owner_pass) std::printf("FAIL: owner-read reduction below the 5x bar\n");
    if (!hit_pass) std::printf("FAIL: hit rate below the 0.9 bar\n");

    const ScanResult scan = run_cyclic_scan();
    const bool scan_pass = scan.hit_rate >= 0.25;
    std::printf(
        "\ncyclic bulk scan, 3x the cache (%llu keys, pages of %zu), passes 2-4:\n"
        "hit rate %.3f (bar >= 0.25, ideal 1/3) evictions=%llu skipped_fills=%llu -> %s\n",
        static_cast<unsigned long long>(3 * kCacheEntries), kPageKeys, scan.hit_rate,
        static_cast<unsigned long long>(scan.evictions),
        static_cast<unsigned long long>(scan.skipped_fills), scan_pass ? "PASS" : "FAIL");

    IntegrityResult integ = run_integrity();
    std::printf("\ningest freshness: %llu rounds, %llu cached reads\n",
                static_cast<unsigned long long>(integ.rounds),
                static_cast<unsigned long long>(integ.reads));
    std::printf("fnv1a: expected=%016llx readback=%016llx -> %s\n",
                static_cast<unsigned long long>(integ.expected_hash),
                static_cast<unsigned long long>(integ.readback_hash),
                integ.match() ? "bit-identical" : "MISMATCH");
    if (!integ.match()) std::printf("ERROR: cached reads went stale under ingest!\n");

    json::Value doc = json::Value::make_object();
    doc["bench"] = "cache";
    doc["config"]["servers"] = kServers;
    doc["config"]["clients"] = kClients;
    doc["config"]["keys"] = kKeys;
    doc["config"]["reads_per_client"] = kReadsPerClient;
    doc["config"]["value_bytes"] = kValueWords * sizeof(std::uint64_t);
    doc["config"]["zipf_exponent"] = kZipfExponent;
    auto fill = [](json::Value& v, const ModeResult& m) {
        v["p50_ms"] = m.p50_ms;
        v["p99_ms"] = m.p99_ms;
        v["mean_ms"] = m.mean_ms;
        v["wall_s"] = m.wall_s;
        v["reads"] = m.reads;
        v["owner_reads"] = m.owner_reads;
        v["hits"] = m.hits;
        v["misses"] = m.misses;
        v["hit_rate"] = m.hit_rate();
    };
    fill(doc["off"], off);
    fill(doc["client"], client);
    fill(doc["tier"], tier);
    doc["p99_ratio"] = p99_ratio;
    doc["owner_read_ratio_client"] = owner_ratio_client;
    doc["owner_read_ratio_tier"] = owner_ratio_tier;
    doc["integrity"]["rounds"] = integ.rounds;
    doc["integrity"]["reads"] = integ.reads;
    doc["integrity"]["expected_fnv1a"] = integ.expected_hash;
    doc["integrity"]["readback_fnv1a"] = integ.readback_hash;
    doc["integrity"]["bit_identical"] = integ.match();
    doc["cyclic_scan"]["keys"] = 3 * kCacheEntries;
    doc["cyclic_scan"]["cache_entries"] = kCacheEntries;
    doc["cyclic_scan"]["page_keys"] = kPageKeys;
    doc["cyclic_scan"]["hit_rate"] = scan.hit_rate;
    doc["cyclic_scan"]["evictions"] = scan.evictions;
    doc["cyclic_scan"]["skipped_fills"] = scan.skipped_fills;
    doc["cyclic_scan"]["bar"] = 0.25;
    const bool pass = p99_pass && owner_pass && hit_pass && integ.match() && scan_pass;
    doc["pass"] = pass;
    std::ofstream("BENCH_cache.json") << doc.dump(2) << "\n";
    std::printf("wrote BENCH_cache.json\n%s\n", pass ? "PASS" : "FAIL");
    return pass;
}

// Micro-benchmarks: cache hot-path costs.

void BM_LeaseCacheHit(benchmark::State& state) {
    cache::LeaseCache c;
    auto t = c.ticket("db", "t");
    c.fill("hot-key", hep::Buffer::adopt(std::string(4096, 'v')).view(0, 4096), 1, t);
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.lookup("hot-key"));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaseCacheHit);

void BM_LeaseCacheFillEvict(benchmark::State& state) {
    cache::CacheOptions opts;
    opts.max_entries = 128;
    cache::LeaseCache c(opts);
    auto t = c.ticket("db", "t");
    hep::Buffer value = hep::Buffer::adopt(std::string(4096, 'v'));
    std::uint64_t i = 0;
    for (auto _ : state) {
        c.fill("key-" + std::to_string(i % 1024), value.view(0, 4096), i, t);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaseCacheFillEvict);

/// A full cache of bulk fills, its ticket, and one shared value buffer.
struct FullCache {
    explicit FullCache(std::uint32_t lease_ms = 60000)
        : value(hep::Buffer::adopt(std::string(64, 'v'))) {
        cache::CacheOptions opts;
        opts.max_entries = kCacheEntries;
        opts.lease_ms = lease_ms;
        c = std::make_unique<cache::LeaseCache>(opts);
        const auto t = c->ticket("db", "t");
        const std::vector<std::optional<hep::BufferView>> values(kPageKeys,
                                                                 value.view(0, 64));
        for (std::uint64_t n = 0; n < kCacheEntries; n += kPageKeys) {
            c->fill_many(make_page(n), values, 1, t);
        }
    }
    std::unique_ptr<cache::LeaseCache> c;
    hep::Buffer value;
};

void BM_LeaseCacheLookupManyMiss(benchmark::State& state) {
    FullCache full;
    const auto keys = make_page(kCacheEntries);  // never filled
    for (auto _ : state) {
        auto found = full.c->lookup_many(keys);
        benchmark::DoNotOptimize(found.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kPageKeys));
}
BENCHMARK(BM_LeaseCacheLookupManyMiss);

/// fill_many of pages cycling over 4x the capacity into `full`.
void fill_pages(benchmark::State& state, FullCache& full) {
    const auto t = full.c->ticket("db", "t");
    const std::vector<std::optional<hep::BufferView>> values(kPageKeys,
                                                             full.value.view(0, 64));
    std::vector<std::vector<std::string>> pages;
    for (std::uint64_t n = 0; n < 4 * kCacheEntries; n += kPageKeys) {
        pages.push_back(make_page(kCacheEntries + n));
    }
    std::size_t next = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto keys = pages[next++ % pages.size()];  // the copy load_products_bulk makes
        state.ResumeTiming();
        full.c->fill_many(std::move(keys), values, 1, t);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kPageKeys));
}

// The steady state of a scan past the cache: the tail is a current bulk
// fill nobody has hit, so every fill is skipped.
void BM_LeaseCacheFillManySkip(benchmark::State& state) {
    FullCache full;
    fill_pages(state, full);
}
BENCHMARK(BM_LeaseCacheFillManySkip);

// The evicting path: with lease_ms 0 every entry is expired, so each fill
// evicts the tail and inserts, as every fill did under plain LRU. (A hot
// tail is evicted too, but then the new cold entry is the tail: one
// eviction per page.)
void BM_LeaseCacheFillManyEvict(benchmark::State& state) {
    FullCache full(/*lease_ms=*/0);
    fill_pages(state, full);
}
BENCHMARK(BM_LeaseCacheFillManyEvict);

void BM_ZipfSample(benchmark::State& state) {
    Rng rng(7);
    ZipfSampler zipf(4096, 1.1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

}  // namespace

HEP_BENCH_MAIN(print_reproduction)
