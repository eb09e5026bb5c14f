// Ablation: multi-tenant QoS & admission control (src/qos).
//
// A saturating bulk ingest (tenant "loader", class bulk) floods a 2-xstream
// server while an interactive tenant ("analysis") issues point gets. With
// QoS off (plain FIFO handler pool, no admission) every get waits out the
// whole queued bulk backlog; with QoS on the weighted-fair PriorityPool lets
// interactive handlers overtake queued bulk work, collapsing the
// high-priority tail while total throughput stays unchanged — the DRR pool
// reorders work, it does not drop or slow it.
//
// A second phase verifies the shed/retry path end to end: a token-bucketed
// tenant pushes a known key set through the retrying client against a
// deliberately tight bucket, then reads everything back and compares FNV-1a
// content hashes — sheds must delay requests, never lose them.
//
// Writes BENCH_qos.json (working directory) with both phases' numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_table.hpp"
#include "common/hash.hpp"
#include "margo/engine.hpp"
#include "qos/admission.hpp"
#include "qos/client.hpp"
#include "yokan/client.hpp"
#include "yokan/provider.hpp"

namespace {

using namespace hep;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRounds = 10;
constexpr std::size_t kOutstanding = 64;   // async bulk RPCs per round
constexpr std::size_t kBatch = 64;         // items per bulk RPC
constexpr std::size_t kValueBytes = 16384; // heavy enough that the backlog outlives issue
constexpr std::size_t kHotKeys = 256;
constexpr std::size_t kGetsPerRound = 40;

struct ModeResult {
    double p50_ms = 0, p99_ms = 0, mean_ms = 0;
    double wall_s = 0;
    std::uint64_t bulk_items = 0;
    std::uint64_t gets = 0;
    [[nodiscard]] double items_per_s() const {
        return wall_s > 0 ? static_cast<double>(bulk_items + gets) / wall_s : 0;
    }
};

/// One contention run: bulk flood + interactive probes, with or without QoS.
ModeResult run_mode(bool qos_on) {
    rpc::Network net;
    margo::EngineConfig cfg;
    // One handler xstream: the contention is pure queueing, so the scheduler
    // alone decides how long an interactive get waits behind queued bulk.
    cfg.rpc_xstreams = 1;
    qos::AdmissionOptions aopts;
    // This phase measures pure scheduling: thresholds high enough that the
    // two-tier overload control never engages.
    aopts.slowdown_inflight = 1u << 30;
    aopts.shed_inflight = 1u << 30;
    if (qos_on) cfg.qos_weights = aopts.weights;
    margo::Engine server(net, "qos-bench-server", cfg);
    std::shared_ptr<qos::AdmissionController> ctrl;
    if (qos_on) {
        ctrl = std::make_shared<qos::AdmissionController>(aopts);
        server.enable_qos(ctrl);
    }
    auto dbcfg = json::parse(R"({"databases": [{"name": "bench", "type": "map"}]})");
    auto provider = yokan::Provider::create(server, 1, *dbcfg).value();
    margo::Engine client(net, "qos-bench-client");

    qos::QosPolicy analysis;
    analysis.tenant = "analysis";
    yokan::DatabaseHandle point_db(client, "qos-bench-server", 1, "bench");
    point_db.set_qos(std::make_shared<qos::ClientQos>(analysis));
    const qos::QosTag bulk_tag{"loader", qos::kClassBulk};

    // Pre-populate the hot keys the interactive tenant reads.
    const std::string value(kValueBytes, 'v');
    {
        std::vector<yokan::BatchItem> hot;
        for (std::size_t i = 0; i < kHotKeys; ++i) {
            hot.push_back({"hot-" + std::to_string(i), hep::Buffer::copy_of(value)});
        }
        auto stored = point_db.put_multi(hot, true);
        if (!stored.ok()) {
            std::printf("ERROR: prepopulate failed: %s\n", stored.status().to_string().c_str());
            return {};
        }
    }

    // Pre-build every bulk request chain OUTSIDE the timed region: firing the
    // flood must be kOutstanding cheap enqueues, not kOutstanding 1MB builds,
    // or (on a small machine) the server drains as fast as the client packs
    // and no backlog ever forms. Chains share immutable buffers, so the same
    // chain is reusable every round (overwrite=true keeps the map bounded).
    std::vector<std::vector<yokan::BatchItem>> batches;
    std::vector<hep::BufferChain> chains;
    batches.reserve(kOutstanding);
    chains.reserve(kOutstanding);
    for (std::size_t o = 0; o < kOutstanding; ++o) {
        std::vector<yokan::BatchItem> items;
        items.reserve(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
            items.push_back({"bulk-" + std::to_string(o) + "-" + std::to_string(i),
                             hep::Buffer::copy_of(value)});
        }
        batches.push_back(std::move(items));
        yokan::proto::PutPackedReq req{"bench", kBatch, true, /*epoch=*/0,
                                       yokan::proto::pack_items(batches.back())};
        chains.push_back(serial::to_chain(req));
    }

    ModeResult r;
    std::vector<double> samples;
    const auto t0 = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
        std::vector<std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>>> pending;
        pending.reserve(kOutstanding);
        for (std::size_t o = 0; o < kOutstanding; ++o) {
            pending.push_back(client.endpoint().call_async_chain(
                "qos-bench-server", "yokan_put_packed", 1, chains[o],
                std::chrono::milliseconds{0}, bulk_tag));
        }

        // Interactive probes race the backlog.
        for (std::size_t g = 0; g < kGetsPerRound; ++g) {
            const auto gt0 = Clock::now();
            auto got = point_db.get("hot-" + std::to_string(g % kHotKeys));
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - gt0).count();
            if (!got.ok()) {
                std::printf("ERROR: interactive get failed: %s\n",
                            got.status().to_string().c_str());
                continue;
            }
            samples.push_back(ms);
            ++r.gets;
        }

        for (auto& ev : pending) {
            auto& result = ev->wait();
            if (!result.ok()) {
                std::printf("ERROR: bulk rpc failed: %s\n",
                            result.status().to_string().c_str());
            } else {
                r.bulk_items += kBatch;
            }
        }
    }
    r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

    std::sort(samples.begin(), samples.end());
    r.p50_ms = bench::quantile(samples, 0.50);
    r.p99_ms = bench::quantile(samples, 0.99);
    double sum = 0;
    for (double s : samples) sum += s;
    r.mean_ms = samples.empty() ? 0 : sum / static_cast<double>(samples.size());
    return r;
}

struct IntegrityResult {
    std::uint64_t items = 0;
    std::uint64_t readback = 0;
    std::uint64_t sheds = 0;
    std::uint64_t client_overloads = 0;
    std::uint64_t retry_successes = 0;
    std::uint64_t local_hash = 0;
    std::uint64_t readback_hash = 0;
    [[nodiscard]] bool match() const {
        return items == readback && local_hash == readback_hash;
    }
};

std::uint64_t fnv1a_chain(std::uint64_t h, std::string_view s) {
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// Shed-integrity phase: a tight token bucket sheds the loader tenant hard;
/// the retrying client must still land every item, bit-identically.
IntegrityResult run_integrity() {
    rpc::Network net;
    margo::EngineConfig cfg;
    cfg.rpc_xstreams = 2;
    qos::AdmissionOptions aopts;
    aopts.slowdown_inflight = 1u << 30;
    aopts.shed_inflight = 1u << 30;
    aopts.tenant_limits["loader"] = qos::TenantLimit{300.0, 10.0};
    cfg.qos_weights = aopts.weights;
    margo::Engine server(net, "qos-int-server", cfg);
    auto ctrl = std::make_shared<qos::AdmissionController>(aopts);
    server.enable_qos(ctrl);
    auto dbcfg = json::parse(R"({"databases": [{"name": "bench", "type": "map"}]})");
    auto provider = yokan::Provider::create(server, 1, *dbcfg).value();
    margo::Engine client(net, "qos-int-client");

    qos::QosPolicy loader;
    loader.tenant = "loader";
    auto cq = std::make_shared<qos::ClientQos>(loader);
    yokan::DatabaseHandle db(client, "qos-int-server", 1, "bench");
    db.set_qos(cq);

    IntegrityResult r;
    constexpr std::size_t kBatches = 60;
    constexpr std::size_t kPerBatch = 32;
    std::uint64_t local = 1469598103934665603ull;  // FNV offset basis
    char keybuf[32];
    for (std::size_t b = 0; b < kBatches; ++b) {
        std::vector<yokan::BatchItem> batch;
        for (std::size_t i = 0; i < kPerBatch; ++i) {
            std::snprintf(keybuf, sizeof(keybuf), "item-%05zu", b * kPerBatch + i);
            batch.push_back({keybuf, hep::Buffer::adopt("value-of-" + std::string(keybuf))});
        }
        auto stored = db.put_multi(batch, true);
        if (!stored.ok()) {
            std::printf("ERROR: integrity batch %zu failed: %s\n", b,
                        stored.status().to_string().c_str());
            return r;
        }
        r.items += kPerBatch;
    }
    // Keys were generated in ascending order; hash them the same way the
    // sorted readback scan will see them.
    for (std::size_t i = 0; i < kBatches * kPerBatch; ++i) {
        std::snprintf(keybuf, sizeof(keybuf), "item-%05zu", i);
        local = fnv1a_chain(local, keybuf);
        local = fnv1a_chain(local, "value-of-" + std::string(keybuf));
    }
    r.local_hash = local;

    std::uint64_t scanned = 1469598103934665603ull;
    std::string after;
    while (true) {
        auto page = db.list_keyvals(after, "item-", 128);
        if (!page.ok()) {
            std::printf("ERROR: readback failed: %s\n", page.status().to_string().c_str());
            return r;
        }
        if (page->empty()) break;
        for (const auto& kv : *page) {
            scanned = fnv1a_chain(scanned, kv.key);
            scanned = fnv1a_chain(scanned, kv.value);
            ++r.readback;
        }
        after = page->back().key;
        if (page->size() < 128) break;
    }
    r.readback_hash = scanned;
    r.sheds = ctrl->shed();
    r.client_overloads = cq->overloaded_seen();
    r.retry_successes = cq->retry_successes();
    return r;
}

void print_reproduction() {
    using namespace hep::bench;
    print_header(
        "Ablation — QoS admission control: interactive p99 under bulk flood\n"
        "expect: >=5x lower interactive p99 with qos on, throughput within 10%");

    ModeResult fifo = run_mode(/*qos_on=*/false);
    ModeResult prio = run_mode(/*qos_on=*/true);

    print_row({"mode", "p50-ms", "p99-ms", "mean-ms", "wall-s", "items/s"});
    print_row({"fifo", fmt(fifo.p50_ms, 3), fmt(fifo.p99_ms, 3), fmt(fifo.mean_ms, 3),
               fmt(fifo.wall_s, 2), fmt(fifo.items_per_s(), 0)});
    print_row({"qos", fmt(prio.p50_ms, 3), fmt(prio.p99_ms, 3), fmt(prio.mean_ms, 3),
               fmt(prio.wall_s, 2), fmt(prio.items_per_s(), 0)});

    const double p99_ratio = prio.p99_ms > 0 ? fifo.p99_ms / prio.p99_ms : 0;
    const double tput_ratio =
        fifo.items_per_s() > 0 ? prio.items_per_s() / fifo.items_per_s() : 0;
    std::printf("\ninteractive p99: fifo=%.3fms qos=%.3fms (%.1fx lower)\n", fifo.p99_ms,
                prio.p99_ms, p99_ratio);
    std::printf("throughput: qos/fifo = %.3f (want >= 0.9: QoS must not cost throughput)\n",
                tput_ratio);
    if (p99_ratio < 5.0) std::printf("WARNING: p99 improvement below the 5x target\n");
    if (tput_ratio < 0.9) std::printf("WARNING: QoS cost more than 10%% throughput\n");

    IntegrityResult integ = run_integrity();
    std::printf("\nshed integrity: %llu items shipped, %llu shed server-side, "
                "%llu client retries-after-shed, readback %llu items\n",
                static_cast<unsigned long long>(integ.items),
                static_cast<unsigned long long>(integ.sheds),
                static_cast<unsigned long long>(integ.retry_successes),
                static_cast<unsigned long long>(integ.readback));
    std::printf("fnv1a: local=%016llx readback=%016llx -> %s\n",
                static_cast<unsigned long long>(integ.local_hash),
                static_cast<unsigned long long>(integ.readback_hash),
                integ.match() ? "bit-identical" : "MISMATCH");
    if (integ.sheds == 0) std::printf("WARNING: bucket never shed; tighten the limit\n");
    if (!integ.match()) std::printf("ERROR: shed/retry lost or corrupted data!\n");

    json::Value doc = json::Value::make_object();
    doc["bench"] = "qos";
    doc["config"]["rounds"] = static_cast<std::uint64_t>(kRounds);
    doc["config"]["outstanding"] = static_cast<std::uint64_t>(kOutstanding);
    doc["config"]["batch"] = static_cast<std::uint64_t>(kBatch);
    doc["config"]["value_bytes"] = static_cast<std::uint64_t>(kValueBytes);
    auto fill = [](json::Value& v, const ModeResult& m) {
        v["p50_ms"] = m.p50_ms;
        v["p99_ms"] = m.p99_ms;
        v["mean_ms"] = m.mean_ms;
        v["wall_s"] = m.wall_s;
        v["bulk_items"] = m.bulk_items;
        v["gets"] = m.gets;
        v["items_per_s"] = m.items_per_s();
    };
    fill(doc["fifo"], fifo);
    fill(doc["qos"], prio);
    doc["p99_ratio"] = p99_ratio;
    doc["throughput_ratio"] = tput_ratio;
    doc["integrity"]["items"] = integ.items;
    doc["integrity"]["readback"] = integ.readback;
    doc["integrity"]["server_sheds"] = integ.sheds;
    doc["integrity"]["client_overloads"] = integ.client_overloads;
    doc["integrity"]["retry_successes"] = integ.retry_successes;
    doc["integrity"]["local_fnv1a"] = integ.local_hash;
    doc["integrity"]["readback_fnv1a"] = integ.readback_hash;
    doc["integrity"]["bit_identical"] = integ.match();
    std::ofstream("BENCH_qos.json") << doc.dump(2) << "\n";
    std::printf("wrote BENCH_qos.json\n");
}

// Micro-benchmarks: scheduler and admission hot-path costs.

void BM_FifoPoolPushPop(benchmark::State& state) {
    auto pool = abt::Pool::create("bm-fifo");
    for (auto _ : state) {
        pool->push([] {});
        benchmark::DoNotOptimize(pool->try_pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPoolPushPop);

void BM_PriorityPoolPushPop(benchmark::State& state) {
    auto pool = abt::PriorityPool::create({32, 16, 4, 1}, "bm-prio");
    for (auto _ : state) {
        pool->push([] {});
        benchmark::DoNotOptimize(pool->try_pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PriorityPoolPushPop);

void BM_AdmissionCycle(benchmark::State& state) {
    qos::AdmissionOptions opts;
    opts.slowdown_inflight = 1u << 30;
    opts.shed_inflight = 1u << 30;
    qos::AdmissionController ctrl(opts);
    for (auto _ : state) {
        const auto now = qos::Clock::now();
        benchmark::DoNotOptimize(ctrl.admit(1, "bench", qos::kClassInteractive, 0, now));
        benchmark::DoNotOptimize(ctrl.on_start(1, qos::kClassInteractive, 0, now, now));
        ctrl.on_complete(qos::kClassInteractive, std::chrono::microseconds(10));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionCycle);

}  // namespace

HEP_BENCH_MAIN(print_reproduction)
