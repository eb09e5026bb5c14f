// Ablation: MVCC snapshot reads and cross-database atomic publish.
//
// Three phases against a query-enabled 2-server service:
//   anomalies — an open-loop ingest of selection-passing slices runs
//               concurrently with repeated snapshot-pinned pushdown
//               selections; every pinned run must return the pre-ingest
//               result bit for bit (reader-observed anomalies must be 0,
//               and a latest run afterwards must see the new data).
//   publish   — epoch begin -> batched writes -> DataStore::publish();
//               the publish latency distribution is the cost of making an
//               ingest round visible atomically across every database.
//   overhead  — the same quiesced selection through a pinned snapshot vs
//               latest reads, interleaved; pinning adds per-value stamp
//               filtering and must stay within 10% of latest.
//
// Writes BENCH_mvcc.json (working directory) with all three phases and the
// pass bars: anomalies == 0 and snapshot overhead <= 10%.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bedrock/service.hpp"
#include "bench_table.hpp"
#include "dataloader/loader.hpp"
#include "hepnos/hepnos.hpp"
#include "query/evaluator.hpp"
#include "yokan/backend.hpp"

namespace {

using namespace hep;
using Clock = std::chrono::steady_clock;

constexpr const char* kDataset = "nova/mvcc";
constexpr std::size_t kServers = 2;
constexpr std::size_t kDbsPerRole = 2;
constexpr std::size_t kIngestEvents = 200;     // open-loop writer volume
constexpr std::size_t kPinnedRuns = 12;        // pinned selections racing it
constexpr std::size_t kPublishRounds = 40;
constexpr std::size_t kOverheadRuns = 30;      // per mode, interleaved

json::Value server_config(std::size_t index) {
    json::Value cfg = json::Value::make_object();
    cfg["address"] = "mvcc-bench-server-" + std::to_string(index);
    cfg["margo"]["rpc_xstreams"] = std::size_t{2};
    cfg["query"]["enabled"] = true;
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
    cfg["providers"] = json::Value::make_array();
    cfg["providers"].push_back(std::move(yp));
    return cfg;
}

struct Service {
    rpc::Network net;
    std::vector<std::unique_ptr<bedrock::ServiceProcess>> servers;
    json::Value connection;
};

std::unique_ptr<Service> make_service() {
    auto svc = std::make_unique<Service>();
    std::vector<json::Value> descriptors;
    for (std::size_t s = 0; s < kServers; ++s) {
        auto proc = bedrock::ServiceProcess::create(svc->net, server_config(s), ".");
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

nova::Slice passing_slice(std::uint32_t index) {
    nova::Slice s;
    s.index = index;
    s.nhits = 60;
    s.cal_e = 2.0f;
    s.epi0_score = 0.95f;
    s.muon_score = 0.05f;
    s.cosmic_score = 0.05f;
    s.contained = 1;
    return s;
}

query::proto::QuerySpec selection_spec() {
    return query::nova_selection_spec(
        nova::SelectionCuts{},
        std::string(hepnos::product_type_name<std::vector<nova::Slice>>()));
}

double quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

double mean_of(const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

struct AnomalyResult {
    std::uint64_t pinned_runs = 0;
    std::uint64_t anomalies = 0;       // pinned runs differing from reference
    std::uint64_t reference_entries = 0;
    std::uint64_t latest_entries = 0;  // after the writer finished
    std::uint64_t ingested_events = 0;
};

AnomalyResult run_anomaly_phase(hepnos::DataStore& store) {
    AnomalyResult r;
    hepnos::DataSet ds = store[kDataset];
    const auto spec = selection_spec();

    auto reference = hepnos::run_query(store, ds, spec);
    if (!reference.ok()) {
        std::printf("ERROR: reference query failed: %s\n",
                    reference.status().to_string().c_str());
        return r;
    }
    r.reference_entries = reference->entries().size();
    auto snap = store.snapshot();
    if (!snap.ok()) {
        std::printf("ERROR: snapshot failed: %s\n", snap.status().to_string().c_str());
        return r;
    }

    std::thread writer([&] {
        for (std::size_t i = 0; i < kIngestEvents; ++i) {
            hepnos::WriteBatch batch(store.impl(), 64);
            auto ev = ds.createRun(static_cast<hepnos::RunNumber>(9000 + i), &batch)
                          .createSubRun(0, &batch)
                          .createEvent(0, &batch);
            ev.store(batch, nova::kSliceLabel,
                     std::vector<nova::Slice>{passing_slice(0), passing_slice(1)});
            batch.flush();
            ++r.ingested_events;
        }
    });
    for (std::size_t i = 0; i < kPinnedRuns; ++i) {
        auto pinned = hepnos::run_query(store, ds, spec, *snap);
        ++r.pinned_runs;
        if (!pinned.ok() || pinned->entries() != reference->entries()) ++r.anomalies;
    }
    writer.join();

    // One more pinned run against the fully-landed ingest, then latest.
    auto pinned = hepnos::run_query(store, ds, spec, *snap);
    ++r.pinned_runs;
    if (!pinned.ok() || pinned->entries() != reference->entries()) ++r.anomalies;
    auto latest = hepnos::run_query(store, ds, spec);
    if (latest.ok()) r.latest_entries = latest->entries().size();
    return r;
}

struct PublishResult {
    std::uint64_t rounds = 0;
    double p50_ms = 0, p99_ms = 0, mean_ms = 0;
    std::uint64_t unpublished_visible = 0;  // staged events seen early (must be 0)
};

PublishResult run_publish_phase(hepnos::DataStore& store) {
    PublishResult r;
    auto sr = store.createDataSet("mvcc/publish").createRun(1).createSubRun(1);
    std::vector<double> samples;
    for (std::size_t round = 0; round < kPublishRounds; ++round) {
        auto epoch = store.begin_ingest();
        if (!epoch.ok()) {
            std::printf("ERROR: begin_ingest: %s\n", epoch.status().to_string().c_str());
            return r;
        }
        {
            hepnos::WriteBatch batch(store.impl(), 64);
            for (std::size_t k = 0; k < 16; ++k) {
                sr.createEvent(static_cast<hepnos::EventNumber>(round * 16 + k), &batch)
                    .store(batch, nova::kSliceLabel,
                           std::vector<nova::Slice>{passing_slice(0)});
            }
            batch.flush();
        }
        // Everything of the epoch is flushed but must still be invisible.
        std::size_t visible = 0;
        for (const auto& ev : sr) {
            (void)ev;
            ++visible;
        }
        if (visible != round * 16) ++r.unpublished_visible;

        const auto t0 = Clock::now();
        auto st = store.publish(*epoch);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
        if (!st.ok()) {
            std::printf("ERROR: publish: %s\n", st.to_string().c_str());
            return r;
        }
        samples.push_back(ms);
        ++r.rounds;
    }
    std::sort(samples.begin(), samples.end());
    r.p50_ms = quantile(samples, 0.50);
    r.p99_ms = quantile(samples, 0.99);
    r.mean_ms = mean_of(samples);
    return r;
}

struct OverheadResult {
    double latest_mean_ms = 0, pinned_mean_ms = 0;
    double overhead_pct = 0;
    std::uint64_t runs_per_mode = 0;
    bool identical = true;
};

OverheadResult run_overhead_phase(hepnos::DataStore& store) {
    OverheadResult r;
    hepnos::DataSet ds = store[kDataset];
    const auto spec = selection_spec();
    auto snap = store.snapshot();
    if (!snap.ok()) return r;
    auto reference = hepnos::run_query(store, ds, spec);
    if (!reference.ok()) return r;

    // Interleave the two modes so drift (cache warmth, allocator state) hits
    // both equally; the store is quiesced, so results must be identical.
    std::vector<double> latest_ms, pinned_ms;
    for (std::size_t i = 0; i < kOverheadRuns; ++i) {
        const auto t0 = Clock::now();
        auto latest = hepnos::run_query(store, ds, spec);
        const auto t1 = Clock::now();
        auto pinned = hepnos::run_query(store, ds, spec, *snap);
        const auto t2 = Clock::now();
        latest_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        pinned_ms.push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
        if (!latest.ok() || !pinned.ok() ||
            latest->entries() != reference->entries() ||
            pinned->entries() != reference->entries()) {
            r.identical = false;
        }
        ++r.runs_per_mode;
    }
    r.latest_mean_ms = mean_of(latest_ms);
    r.pinned_mean_ms = mean_of(pinned_ms);
    r.overhead_pct = r.latest_mean_ms > 0
                         ? 100.0 * (r.pinned_mean_ms / r.latest_mean_ms - 1.0)
                         : 0.0;
    return r;
}

void print_reproduction() {
    using namespace hep::bench;
    print_header(
        "Ablation — MVCC snapshot reads + atomic publish\n"
        "expect: 0 reader-observed anomalies under ingest; snapshot overhead <= 10%");

    auto svc = make_service();
    if (!svc) return;
    auto store = hepnos::DataStore::connect(svc->net, svc->connection);
    auto gen = nova::Generator({.num_files = 16, .events_per_file = 60});
    mpisim::run_ranks(2, [&](mpisim::Comm& comm) {
        dataloader::ingest_generated(store, comm, gen, kDataset, 512);
    });

    AnomalyResult anom = run_anomaly_phase(store);
    print_row({"phase", "metric", "value"});
    print_row({"anomalies", "pinned-runs", std::to_string(anom.pinned_runs)});
    print_row({"anomalies", "anomalies", std::to_string(anom.anomalies)});
    print_row({"anomalies", "ref-entries", std::to_string(anom.reference_entries)});
    print_row({"anomalies", "latest-entries", std::to_string(anom.latest_entries)});
    if (anom.anomalies != 0) {
        std::printf("ERROR: pinned selections observed concurrent ingest!\n");
    }
    if (anom.latest_entries <= anom.reference_entries) {
        std::printf("WARNING: open-loop ingest did not grow the latest result\n");
    }

    PublishResult pub = run_publish_phase(store);
    print_row({"publish", "rounds", std::to_string(pub.rounds)});
    print_row({"publish", "p50-ms", fmt(pub.p50_ms, 4)});
    print_row({"publish", "p99-ms", fmt(pub.p99_ms, 4)});
    print_row({"publish", "mean-ms", fmt(pub.mean_ms, 4)});
    if (pub.unpublished_visible != 0) {
        std::printf("ERROR: staged epoch was visible before publish!\n");
    }

    OverheadResult ovh = run_overhead_phase(store);
    print_row({"overhead", "latest-mean-ms", fmt(ovh.latest_mean_ms, 4)});
    print_row({"overhead", "pinned-mean-ms", fmt(ovh.pinned_mean_ms, 4)});
    print_row({"overhead", "overhead-pct", fmt(ovh.overhead_pct, 2)});
    if (!ovh.identical) std::printf("ERROR: quiesced latest/pinned results diverged!\n");
    if (ovh.overhead_pct > 10.0) {
        std::printf("WARNING: snapshot-read overhead above the 10%% target\n");
    }

    json::Value doc = json::Value::make_object();
    doc["bench"] = "mvcc";
    doc["config"]["servers"] = kServers;
    doc["config"]["dbs_per_role"] = kDbsPerRole;
    doc["config"]["ingest_events"] = kIngestEvents;
    doc["config"]["publish_rounds"] = kPublishRounds;
    doc["config"]["overhead_runs"] = kOverheadRuns;
    doc["anomalies"]["pinned_runs"] = anom.pinned_runs;
    doc["anomalies"]["anomalies"] = anom.anomalies;
    doc["anomalies"]["reference_entries"] = anom.reference_entries;
    doc["anomalies"]["latest_entries"] = anom.latest_entries;
    doc["anomalies"]["ingested_events"] = anom.ingested_events;
    doc["publish"]["rounds"] = pub.rounds;
    doc["publish"]["p50_ms"] = pub.p50_ms;
    doc["publish"]["p99_ms"] = pub.p99_ms;
    doc["publish"]["mean_ms"] = pub.mean_ms;
    doc["publish"]["unpublished_visible"] = pub.unpublished_visible;
    doc["overhead"]["latest_mean_ms"] = ovh.latest_mean_ms;
    doc["overhead"]["pinned_mean_ms"] = ovh.pinned_mean_ms;
    doc["overhead"]["overhead_pct"] = ovh.overhead_pct;
    doc["overhead"]["identical"] = ovh.identical;
    doc["pass"]["zero_anomalies"] = anom.anomalies == 0;
    doc["pass"]["publish_atomic"] = pub.unpublished_visible == 0;
    doc["pass"]["overhead_within_10pct"] = ovh.overhead_pct <= 10.0;
    std::ofstream("BENCH_mvcc.json") << doc.dump(2) << "\n";
    std::printf("wrote BENCH_mvcc.json\n");
}

// Micro-benchmarks: the per-read cost MVCC adds at the backend.

void BM_MapPutStamped(benchmark::State& state) {
    auto db = yokan::create_database(*json::parse(R"({"type": "map"})")).value();
    hep::Buffer value = hep::Buffer::adopt(std::string(512, 'v'));
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            db->put_stamped("key-" + std::to_string(i++ % 4096), value.view(0, 512), true, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapPutStamped);

void BM_MapGetLatestView(benchmark::State& state) {
    auto db = yokan::create_database(*json::parse(R"({"type": "map"})")).value();
    for (int k = 0; k < 4096; ++k) (void)db->put("key-" + std::to_string(k), "value");
    const yokan::ReadView latest;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(db->get_view_at("key-" + std::to_string(i++ % 4096), latest));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapGetLatestView);

void BM_MapGetPinnedView(benchmark::State& state) {
    auto db = yokan::create_database(*json::parse(R"({"type": "map"})")).value();
    for (int k = 0; k < 4096; ++k) (void)db->put("key-" + std::to_string(k), "value");
    const yokan::ReadView pinned = db->snapshot_at(0);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(db->get_view_at("key-" + std::to_string(i++ % 4096), pinned));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapGetPinnedView);

}  // namespace

HEP_BENCH_MAIN(print_reproduction)
