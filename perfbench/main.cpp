// The repository benchmark: one workload per invocation, against an
// in-process bedrock service (one yokan provider, 2 rpc xstreams, qos and
// monitoring on) and one DataStore connection, with 2 client ranks/threads.
//
//   perfbench --workload <pep_select|lsm_ingest_pushdown|point_read>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Every workload sets up (boot + HTF ingest through the DataLoader, + lsm
// settle) several times and then runs its closed-loop work phase:
//   pep_select           PEP selection passes (map backend, client cache on)
//   lsm_ingest_pushdown  pushdown + columnar selection passes (lsm backend)
//   point_read           Event::load of random events (map, client cache off, 1 CPU)
// Inputs (HTF files, reference accepted-ID digest, read key sequences) are
// generated from the seed before anything is timed. The last stdout line is
// the result object; --trace 1 reports per-layer metrics instead of the
// end-to-end ones, from spans recorded around calls into each layer and from
// timed direct calls into each layer's public API.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include "abt/abt.hpp"
#include "bedrock/service.hpp"
#include "common/buffer.hpp"
#include "dataloader/loader.hpp"
#include "hepnos/hepnos.hpp"
#include "hepnos/query.hpp"
#include "margo/engine.hpp"
#include "nova/generator.hpp"
#include "nova/selection.hpp"
#include "query/evaluator.hpp"
#include "rpc/network.hpp"
#include "symbio/provider.hpp"
#include "workflow/hepnos_app.hpp"

#include "helpers.hpp"
#include "reference.hpp"
#include "tracer.hpp"

namespace fs = std::filesystem;
using namespace hep;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kDataset = "nova/perfbench";
constexpr rpc::ProviderId kYokanId = 1;
constexpr rpc::ProviderId kMonitorId = 99;
constexpr int kRanks = 2;          // client ranks / reader threads
constexpr std::size_t kProbeOps = 2000;
constexpr double kWindowS = 0.5;   // point-read measurement window

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kEventsPerFile = 3125;  // events per HTF file

struct Workload {
    std::string name;
    std::string backend;  // "map" | "lsm"
    bool point_reads = false;
    std::uint64_t files = 0;  // HTF files of kEventsPerFile events
    int setups = 0;           // set-ups per run; setup_s is their median
    int cpus = 0;             // CPUs the run is pinned to

    /// The lsm workload selects by pushdown (+ columnar); the others by PEP.
    bool pushdown() const { return backend == "lsm"; }
    /// Point reads run with the client cache off, so every read is one RPC.
    bool client_cache() const { return !point_reads; }
};

const Workload* find_workload(const std::string& name) {
    static const Workload kAll[] = {
        // ~200k events (~640k slices): 3x the client lease cache's 65,536
        // entries, so repeated passes run on uniformly expired-or-evicted
        // entries; tens of MB on disk for lsm, past each products db's 8 MiB
        // decoded + 8 MiB compressed block caches. On 4 CPUs, so PEP prefetch
        // overlaps processing and lsm compaction runs beside ingest and scans.
        {"pep_select", "map", false, 64, 9, 4},
        {"lsm_ingest_pushdown", "lsm", false, 64, 5, 4},
        // ~50k events held in memory, on one CPU. A read is a chain of thread
        // handoffs (client, progress thread, handler xstream, client); on a
        // virtual machine each handoff to another vCPU waits for the
        // hypervisor to run it, and on 4 vCPUs the CPU cost per read rose
        // from 45 to 73 us with the host's steal time.
        {"point_read", "map", true, 16, 15, 1},
    };
    for (const auto& w : kAll) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

// ------------------------------------------------------------------ inputs

struct Inputs {
    nova::Generator gen;
    perfbench::Reference ref;
    std::vector<std::string> htf_files;
    std::uint64_t user_bytes = 0;  // serialized slices products written
    std::vector<nova::EventRecord> records;            // point_read only
    std::vector<std::vector<std::uint32_t>> key_seqs;  // point_read: per thread
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, const fs::path& dir) {
    nova::DatasetConfig cfg;
    cfg.seed = seed;
    cfg.num_files = w.files;
    cfg.events_per_file = kEventsPerFile;
    Inputs in{nova::Generator(cfg), {}, {}, 0, {}, {}};
    in.ref = perfbench::reference_selection(in.gen);
    fs::create_directories(dir / "htf");
    for (std::uint64_t f = 0; f < cfg.num_files; ++f) {
        const std::string path = (dir / "htf" / ("f" + std::to_string(f) + ".htf")).string();
        Status st = in.gen.write_htf_file(f, path);
        if (!st.ok()) throw std::runtime_error("write_htf_file: " + st.to_string());
        in.htf_files.push_back(path);
        for (auto& rec : in.gen.make_file_events(f)) {
            in.user_bytes += serial::to_string(rec.slices).size();
            if (w.point_reads) in.records.push_back(std::move(rec));
        }
    }
    if (w.point_reads) {
        std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
        std::uniform_int_distribution<std::uint32_t> pick(
            0, static_cast<std::uint32_t>(in.records.size() - 1));
        in.key_seqs.resize(kRanks);
        for (auto& seq : in.key_seqs) {
            seq.resize(1u << 20);
            for (auto& k : seq) k = pick(rng);
        }
    }
    return in;
}

/// Pin this thread, and so every thread it starts later, to the last `n`
/// CPUs it may run on (away from CPU 0, where a VM's device interrupts land).
void pin_cpus(int n) {
    cpu_set_t allowed, pinned;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    CPU_ZERO(&pinned);
    for (int cpu = CPU_SETSIZE - 1, got = 0; cpu >= 0 && got < n; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &pinned);
            ++got;
        }
    }
    sched_setaffinity(0, sizeof pinned, &pinned);
}

// -------------------------------------------------------------- deployment

json::Value service_config(const Workload& w, int instance) {
    json::Value cfg = json::Value::make_object();
    cfg["address"] = "perfbench-" + w.name + "-" + std::to_string(instance);
    cfg["margo"]["rpc_xstreams"] = 2;
    cfg["qos"]["enabled"] = true;
    cfg["monitoring"]["provider_id"] = static_cast<int>(kMonitorId);
    if (w.pushdown()) {
        cfg["query"]["enabled"] = true;
        cfg["columnar"]["enabled"] = true;
    }
    json::Value dbs = json::Value::make_array();
    auto add = [&](const std::string& name, const std::string& role) {
        json::Value db = json::Value::make_object();
        db["name"] = name;
        db["role"] = role;
        db["type"] = w.backend;
        if (w.backend == "lsm") db["path"] = name;
        dbs.push_back(std::move(db));
    };
    add("datasets", "datasets");
    add("runs", "runs");
    add("subruns", "subruns");
    for (int i = 0; i < kRanks; ++i) add("events" + std::to_string(i), "events");
    for (int i = 0; i < kRanks; ++i) add("products" + std::to_string(i), "products");
    json::Value provider = json::Value::make_object();
    provider["type"] = "yokan";
    provider["provider_id"] = static_cast<int>(kYokanId);
    provider["config"]["databases"] = std::move(dbs);
    cfg["providers"] = json::Value::make_array();
    cfg["providers"].push_back(std::move(provider));
    return cfg;
}

/// One booted service plus its client connection. Members are destroyed in
/// reverse order: the client before the service before the fabric.
struct Deployment {
    fs::path dir;
    rpc::Network net;
    std::unique_ptr<bedrock::ServiceProcess> svc;
    hepnos::DataStore store;
    hepnos::DataSet dataset;

    ~Deployment() {
        dataset = {};
        store = {};
        if (svc) svc->shutdown();
        svc.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    json::Value server_stats() {
        auto r = symbio::fetch_all(store.impl()->engine(), svc->address(), kMonitorId);
        if (!r.ok()) throw std::runtime_error("symbio fetch: " + r.status().to_string());
        return r.value();
    }

    yokan::Database* database(const std::string& name) {
        return svc->find_provider(kYokanId)->find_database(name);
    }
    std::vector<std::string> database_names() {
        return svc->find_provider(kYokanId)->database_names();
    }
};

/// Sum one numeric field over every "lsm/<db>" source of a stats snapshot.
double lsm_sum(json::Value stats, const std::string& field) {
    double total = 0;
    for (auto& [name, src] : stats["sources"].object()) {
        if (name.rfind("lsm/", 0) == 0) total += src[field].as_double();
    }
    return total;
}

/// Drain every lsm db (seal the memtable, run pending flushes and
/// compactions), then wait until the server's lsm stats show an empty
/// immutable queue and a compaction backlog that no longer moves. The
/// backlog counts L0 tables below their compaction trigger, so at rest it
/// is steady, not zero.
void settle_lsm(Deployment& d) {
    for (const auto& name : d.database_names()) {
        Status st = d.database(name)->flush();
        if (!st.ok()) throw std::runtime_error("lsm flush " + name + ": " + st.to_string());
    }
    double last_backlog = -1;
    const auto t0 = Clock::now();
    while (true) {
        auto stats = d.server_stats();
        const double depth = lsm_sum(stats, "immutable_queue_depth");
        const double backlog = lsm_sum(stats, "compaction_backlog_bytes");
        if (depth == 0 && backlog == last_backlog) return;
        last_backlog = backlog;
        if (since(t0) > 60) throw std::runtime_error("lsm did not settle within 60 s");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

/// Bytes the service holds for the dataset: on-disk files for lsm, key +
/// value bytes for the in-memory map backend.
double stored_bytes(Deployment& d, const Workload& w) {
    double total = 0;
    if (w.backend == "lsm") {
        for (const auto& e : fs::recursive_directory_iterator(d.dir)) {
            if (e.is_regular_file()) total += static_cast<double>(e.file_size());
        }
        return total;
    }
    for (const auto& name : d.database_names()) {
        Status st = d.database(name)->scan("", "", true, [&](std::string_view k,
                                                            std::string_view v) {
            total += static_cast<double>(k.size() + v.size());
            return true;
        });
        if (!st.ok()) throw std::runtime_error("scan " + name + ": " + st.to_string());
    }
    return total;
}

struct SetupResult {
    double setup_s = 0;
    // Ingest + settle: the lsm background work an ingest causes is charged
    // to it, however much of it runs before ingest_files returns.
    double ingest_wall_s = 0;
    double ingest_cpu_s = 0;
    std::uint64_t events_stored = 0;
    perfbench::IoCounters io;          // /proc/self/io delta over ingest + settle
    std::uint64_t bytes_copied = 0;    // hep::Buffer copies during ingest
    std::uint64_t minor_faults = 0;    // pages first touched during the set-up
    double peak_rss_mib = 0;           // resident-set peak of the set-up
};

std::unique_ptr<Deployment> boot_and_ingest(const Workload& w, const Inputs& in,
                                            const fs::path& dir, int instance,
                                            SetupResult& out, Tracer& tracer) {
    const auto t0 = Clock::now();
    const auto faults0 = perfbench::process_minor_faults();
    auto d = std::make_unique<Deployment>();
    d->dir = dir;
    fs::create_directories(dir);
    auto svc = bedrock::ServiceProcess::create(d->net, service_config(w, instance),
                                               dir.string());
    if (!svc.ok()) throw std::runtime_error("service boot: " + svc.status().to_string());
    d->svc = std::move(svc.value());
    json::Value conn = d->svc->descriptor();
    if (!w.client_cache()) conn["cache"]["enabled"] = false;
    d->store = hepnos::DataStore::connect(d->net, conn);
    if (!d->store.valid()) throw std::runtime_error("DataStore::connect failed");

    const double cpu0 = perfbench::process_cpu_seconds();
    const auto io0 = perfbench::process_io();
    const auto copied0 = buffer_counters().bytes_copied.load();
    const auto ti = Clock::now();
    {
        Tracer::Scope span(tracer, "dataloader.ingest_files", 0);
        mpisim::run_ranks(kRanks, [&](mpisim::Comm& comm) {
            auto stats = dataloader::ingest_files(d->store, comm, in.htf_files, kDataset);
            if (comm.rank() == 0) out.events_stored = stats.events_stored;
        });
    }
    if (w.backend == "lsm") {
        Tracer::Scope span(tracer, "yokan.settle", 0);
        settle_lsm(*d);
    }
    out.ingest_wall_s = since(ti);
    out.ingest_cpu_s = perfbench::process_cpu_seconds() - cpu0;
    out.io = perfbench::process_io() - io0;
    out.bytes_copied = buffer_counters().bytes_copied.load() - copied0;
    d->dataset = d->store[kDataset];
    out.setup_s = since(t0);
    out.minor_faults = perfbench::process_minor_faults() - faults0;
    return d;
}

// -------------------------------------------------------------- work phase

/// One measurement window of a work phase: a selection pass, or a fixed
/// slice of wall time of the point-read loop.
struct Window {
    double wall_s = 0;
    double cpu_s = 0;
    double units = 0;
    double steal = 0;         // host steal share over the window
    double peak_rss_mib = 0;  // resident-set peak within the window
};

struct WorkResult {
    double units = 0;               // slices selected or reads done
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<double> op_s;       // per-op latency: a pass or one read
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double pep_wait_s = 0, pep_total_s = 0;  // hand-written PEP passes
    query::ClientStats qstats;               // hand-written pushdown passes
    std::vector<Window> windows;
};

struct Ctx {
    const Workload& w;
    const Inputs& in;
    Deployment& d;
};

workflow::HepnosAppOptions selection_options(const Workload& w) {
    workflow::HepnosAppOptions opts;
    opts.num_ranks = kRanks;
    opts.pep.input_batch_size = 2048;
    opts.pep.share_batch_size = 64;
    opts.prefetch_products = true;
    opts.pushdown = w.pushdown();
    opts.columnar = w.pushdown();
    return opts;
}

/// One selection pass through the application path; returns the digest of
/// its accepted IDs and the slices it examined.
std::pair<std::uint64_t, std::uint64_t> selection_pass(Ctx& c) {
    auto r = workflow::run_hepnos_selection(c.d.store, kDataset, selection_options(c.w));
    return {perfbench::fnv1a64(r.accepted_ids), r.slices_processed};
}

/// The same PEP pass, written out against the hepnos API so each layer call
/// sits in its own span of `tracer`: pass → per-rank pep.process → per-event
/// callback → slice decode and NOvA cuts.
std::pair<std::uint64_t, std::uint64_t> pep_pass(Ctx& c, Tracer& tracer, WorkResult& r) {
    const auto opts = selection_options(c.w);
    Tracer::Scope pass(tracer, "client.pass", 0);
    std::vector<std::uint64_t> all;
    std::atomic<std::uint64_t> examined{0};
    std::mutex mu;
    mpisim::run_ranks(kRanks, [&](mpisim::Comm& comm) {
        hepnos::ParallelEventProcessor pep(c.d.store, comm, opts.pep);
        pep.prefetch<std::vector<nova::Slice>>(nova::kSliceLabel);
        nova::Selector selector(opts.cuts);
        std::vector<std::uint64_t> local;
        hepnos::ParallelEventProcessorStatistics stats;
        {
            Tracer::Scope rank(tracer, "hepnos.pep_process", pass.id());
            const auto parent = rank.id();
            stats = pep.process(c.d.dataset, [&](const hepnos::Event& ev,
                                                 const hepnos::ProductCache& cache) {
                Tracer::Scope event(tracer, "client.event", parent);
                std::vector<nova::Slice> slices;
                bool found = false;
                {
                    Tracer::Scope dec(tracer, "serial.decode", event.id());
                    found = cache.load(ev, nova::kSliceLabel, slices) ||
                            ev.load(nova::kSliceLabel, slices);
                }
                if (!found) return;
                nova::EventRecord rec{ev.run_number(), ev.subrun_number(), ev.number(),
                                      std::move(slices)};
                Tracer::Scope cuts(tracer, "nova.cuts", event.id());
                auto ids = selector.selected_ids(rec);
                local.insert(local.end(), ids.begin(), ids.end());
            });
        }
        examined += selector.slices_examined();
        auto merged = comm.reduce_concat(local, 0);
        std::lock_guard<std::mutex> lock(mu);
        r.pep_wait_s += stats.waiting_time;
        r.pep_total_s += stats.total_time;
        if (comm.rank() == 0) all = std::move(merged);
    });
    std::sort(all.begin(), all.end());
    return {perfbench::fnv1a64(all), examined.load()};
}

/// The pushdown pass written out against hepnos::run_query, so the query
/// layer gets its own span of `tracer` and its client stats are kept.
std::pair<std::uint64_t, std::uint64_t> query_pass(Ctx& c, Tracer& tracer, WorkResult& r) {
    Tracer::Scope pass(tracer, "client.pass", 0);
    const auto spec = query::nova_selection_spec(
        nova::SelectionCuts{},
        std::string(hepnos::product_type_name<std::vector<nova::Slice>>()));
    query::QueryOptions qopts;
    qopts.columnar = true;
    const auto rows0 = r.qstats.rows_examined;
    std::vector<std::uint64_t> all;
    std::mutex mu;
    bool ok = true;
    mpisim::run_ranks(kRanks, [&](mpisim::Comm& comm) {
        std::vector<std::uint64_t> local;
        Result<hepnos::QueryResult> res = Status::Internal("not run");
        {
            Tracer::Scope q(tracer, "query.run_query", pass.id());
            res = hepnos::run_query(c.d.store, c.d.dataset, spec,
                                    static_cast<std::size_t>(comm.rank()),
                                    static_cast<std::size_t>(comm.size()), qopts);
        }
        if (res.ok()) {
            for (const auto& e : res->entries()) {
                for (std::uint32_t row : e.rows) {
                    local.push_back(nova::SliceId{e.run, e.subrun, e.event, row}.packed());
                }
            }
        }
        auto merged = comm.reduce_concat(local, 0);
        std::lock_guard<std::mutex> lock(mu);
        if (!res.ok()) {
            ok = false;
            return;
        }
        r.qstats += res->stats();
        if (comm.rank() == 0) all = std::move(merged);
    });
    std::sort(all.begin(), all.end());
    return {ok ? perfbench::fnv1a64(all) : 0, r.qstats.rows_examined - rows0};
}

/// Closed-loop selection passes until `seconds` have elapsed (at least two).
/// Without `spans` a pass is the application's run_hepnos_selection; with
/// it, the hand-written pass that records its layer calls there.
WorkResult run_selection(Ctx& c, double seconds, Tracer* spans) {
    WorkResult r;
    const double cpu0 = perfbench::process_cpu_seconds();
    const auto t0 = Clock::now();
    while (r.op_s.size() < 2 || since(t0) < seconds) {
        const auto tp = Clock::now();
        const double cpu_p = perfbench::process_cpu_seconds();
        const auto host_p = perfbench::host_cpu_times();
        perfbench::reset_peak_rss();
        std::pair<std::uint64_t, std::uint64_t> got;
        try {
            if (spans == nullptr) got = selection_pass(c);
            else if (c.w.pushdown()) got = query_pass(c, *spans, r);
            else got = pep_pass(c, *spans, r);
        } catch (const std::exception& e) {
            std::printf("pass failed: %s\n", e.what());
            got = {0, 0};
        }
        r.op_s.push_back(since(tp));
        r.windows.push_back({r.op_s.back(), perfbench::process_cpu_seconds() - cpu_p,
                             static_cast<double>(c.in.ref.slices),
                             perfbench::steal_share(host_p, perfbench::host_cpu_times()),
                             perfbench::peak_rss_mib()});
        ++r.attempted;
        if (got.first != c.in.ref.fnv || got.second != c.in.ref.slices) {
            ++r.failed;
            std::printf("pass %zu: digest %016llx (want %016llx), slices %llu (want %llu)\n",
                        r.op_s.size(), static_cast<unsigned long long>(got.first),
                        static_cast<unsigned long long>(c.in.ref.fnv),
                        static_cast<unsigned long long>(got.second),
                        static_cast<unsigned long long>(c.in.ref.slices));
        }
        r.units += static_cast<double>(c.in.ref.slices);
    }
    r.wall_s = since(t0);
    r.cpu_s = perfbench::process_cpu_seconds() - cpu0;
    return r;
}

/// kRanks client threads, each in a closed loop of Event::load on its own
/// seeded key sequence, for `seconds`. Every read is checked, after its
/// timing ends, against the generator's slices for that event. With `spans`,
/// Event::load is written out as its two layer calls, each in a span.
WorkResult run_point_reads(Ctx& c, double seconds, Tracer* spans) {
    WorkResult r;
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> lat(kRanks);
    struct alignas(64) Count {
        std::atomic<std::uint64_t> done{0};
    };
    std::vector<Count> done(kRanks);
    std::vector<std::uint64_t> bad(kRanks, 0);
    const auto impl = c.d.store.impl();
    const auto uuid = c.d.dataset.uuid();
    const auto type = hepnos::product_type_name<std::vector<nova::Slice>>();
    auto worker = [&](int t) {
        const auto& seq = c.in.key_seqs[static_cast<std::size_t>(t)];
        auto& samples = lat[static_cast<std::size_t>(t)];
        samples.reserve(1u << 19);
        for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
            const auto& rec = c.in.records[seq[i & (seq.size() - 1)]];
            hepnos::Event ev(impl, uuid, rec.run, rec.subrun, rec.event);
            std::vector<nova::Slice> slices;
            bool ok = false;
            const auto t0 = Clock::now();
            try {
                if (spans == nullptr) {
                    ok = ev.load(nova::kSliceLabel, slices);
                } else {
                    Tracer::Scope op(*spans, "client.op", 0);
                    hep::BufferView bytes;
                    {
                        Tracer::Scope load(*spans, "hepnos.load_product", op.id());
                        ok = hepnos::detail::load_product_view(*impl, ev.container_key(),
                                                               nova::kSliceLabel, type, bytes);
                    }
                    if (ok) {
                        Tracer::Scope dec(*spans, "serial.decode", op.id());
                        serial::from_string(bytes.sv(), slices);
                    }
                }
            } catch (const std::exception&) {
                ok = false;
            }
            samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
            ok = ok && slices == rec.slices;
            if (!ok) ++bad[static_cast<std::size_t>(t)];
            done[static_cast<std::size_t>(t)].done.fetch_add(1, std::memory_order_relaxed);
        }
    };
    const double cpu0 = perfbench::process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kRanks; ++t) threads.emplace_back(worker, t);
    // Window boundaries: completed reads, process CPU, host steal and the
    // resident-set peak since the previous mark, sampled by this thread
    // every kWindowS.
    struct Mark {
        Clock::time_point t;
        double cpu;
        perfbench::CpuTimes host;
        std::uint64_t done;
        double peak_rss_mib;
    };
    auto mark = [&] {
        Mark m{Clock::now(), perfbench::process_cpu_seconds(), perfbench::host_cpu_times(), 0,
               perfbench::peak_rss_mib()};
        perfbench::reset_peak_rss();
        for (auto& d : done) m.done += d.done.load(std::memory_order_relaxed);
        return m;
    };
    std::vector<Mark> marks{mark()};
    while (since(t0) < seconds) {
        std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(
                                                   kWindowS * static_cast<double>(marks.size()))));
        marks.push_back(mark());
    }
    stop = true;
    for (auto& th : threads) th.join();
    r.wall_s = since(t0);
    r.cpu_s = perfbench::process_cpu_seconds() - cpu0;
    for (std::size_t i = 1; i < marks.size(); ++i) {
        Window win;
        win.wall_s = std::chrono::duration<double>(marks[i].t - marks[i - 1].t).count();
        win.cpu_s = marks[i].cpu - marks[i - 1].cpu;
        win.steal = perfbench::steal_share(marks[i - 1].host, marks[i].host);
        win.units = static_cast<double>(marks[i].done - marks[i - 1].done);
        win.peak_rss_mib = marks[i].peak_rss_mib;
        r.windows.push_back(std::move(win));
    }
    for (int t = 0; t < kRanks; ++t) {
        r.attempted += done[static_cast<std::size_t>(t)].done.load();
        r.failed += bad[static_cast<std::size_t>(t)];
        r.op_s.insert(r.op_s.end(), lat[static_cast<std::size_t>(t)].begin(),
                      lat[static_cast<std::size_t>(t)].end());
    }
    r.units = static_cast<double>(r.attempted);
    return r;
}

/// The work phase's wall-clock throughput, CPU cost per unit and memory
/// peak, each the median over its windows, so a burst of host noise or one
/// unlucky allocation pattern in one window does not move them.
struct WindowMedians {
    double units_per_s = 0;
    double cpu_us_per_unit = 0;
    double peak_rss_mib = 0;
};

WindowMedians window_medians(const WorkResult& r) {
    std::vector<double> rates, costs, peaks;
    for (const auto& w : r.windows) {
        rates.push_back(w.units / w.wall_s);
        costs.push_back(w.cpu_s * 1e6 / w.units);
        peaks.push_back(w.peak_rss_mib);
    }
    return {perfbench::median(std::move(rates)), perfbench::median(std::move(costs)),
            perfbench::median(std::move(peaks))};
}

WorkResult run_work(Ctx& c, double seconds, Tracer* spans = nullptr) {
    return c.w.point_reads ? run_point_reads(c, seconds, spans)
                           : run_selection(c, seconds, spans);
}

/// Untimed warm-up, so lazy set-up and cache fills are not timed.
void warm_up(Ctx& c) {
    if (c.w.point_reads) {
        run_point_reads(c, 0.3, nullptr);
    } else {
        selection_pass(c);
    }
}

// ------------------------------------------------------- correctness checks

struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void expect(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/// Cross-checks outside the timed phase, on the pushdown workload: PEP and
/// pushdown agree, and the columnar scan ran without falling back to blobs.
void cross_checks(Ctx& c, Checks& checks) {
    if (!c.w.pushdown()) return;
    auto opts = selection_options(c.w);
    opts.pushdown = false;
    opts.columnar = false;
    auto pep = workflow::run_hepnos_selection(c.d.store, kDataset, opts);
    checks.expect(perfbench::fnv1a64(pep.accepted_ids) == c.in.ref.fnv &&
                      pep.slices_processed == c.in.ref.slices,
                  "PEP over the lsm data matches the reference (and so pushdown)");
    WorkResult q;
    Tracer off(false);
    auto got = query_pass(c, off, q);
    checks.expect(got.first == c.in.ref.fnv, "run_query pushdown matches the reference");
    checks.expect(q.qstats.columnar_fallbacks == 0, "columnar.fallbacks == 0");
    checks.expect(q.qstats.chunks_scanned > 0, "columnar.chunks_scanned > 0");
}

// ----------------------------------------------------------- layer probes

template <typename Fn>
std::vector<double> time_each_us(std::size_t n, Fn&& fn) {
    std::vector<double> us;
    us.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    return us;
}

struct Report {
    std::map<std::string, double> metrics;
    json::Value detail = json::Value::make_object();

    /// Record a timing's sample count, median and top percentile in the
    /// detail block; returns the median.
    double timing(const std::string& name, const std::vector<double>& us) {
        const auto s = perfbench::summarize(us);
        json::Value v = json::Value::make_object();
        v["n"] = static_cast<std::uint64_t>(s.n);
        v["p50_us"] = s.p50;
        v["top_pct"] = s.top_pct;
        v["top_us"] = s.top;
        detail["timings"][name] = std::move(v);
        return s.p50;
    }
};

/// (event container key, slices product key) of a seeded sample of events.
std::vector<std::pair<std::string, std::string>> sample_products(Ctx& c, std::size_t n) {
    std::vector<std::pair<std::string, std::string>> out;
    const auto type = hepnos::product_type_name<std::vector<nova::Slice>>();
    std::mt19937_64 rng(c.in.ref.fnv);
    for (std::size_t i = 0; i < n; ++i) {
        const auto coords = c.in.gen.file_coordinates(rng() % c.w.files);
        const auto e = rng() % coords.num_events;
        auto ck = hepnos::event_key(c.d.dataset.uuid(), coords.run, coords.subrun, e);
        auto pk = hepnos::product_key(ck, nova::kSliceLabel, type);
        out.emplace_back(std::move(ck), std::move(pk));
    }
    return out;
}

/// Timed direct calls into each layer's public API, on the workload's keys.
void probe_layers(Ctx& c, Report& rep) {
    {  // abt: ULT create + join from an OS thread into a one-xstream pool
        auto pool = abt::Pool::create("perfbench-probe");
        auto xs = abt::Xstream::create({pool}, "perfbench-probe");
        rep.metrics["abt.ult_create_join_us"] = rep.timing(
            "abt.ult_create_join",
            time_each_us(kProbeOps, [&](std::size_t) { abt::Ult::create(pool, [] {})->join(); }));
        xs->join();
    }
    const std::string payload(64, 'x');
    {  // rpc: raw loopback echo, the handler answers on the progress thread
        rpc::Network net;
        auto server = net.create_endpoint("probe-rpc-server");
        auto client = net.create_endpoint("probe-rpc-client");
        server->register_handler("echo", 0,
                                 [](rpc::RequestContext& ctx) { ctx.respond(ctx.payload()); });
        rep.metrics["rpc.loopback_echo_p50_us"] = rep.timing(
            "rpc.loopback_echo", time_each_us(kProbeOps, [&](std::size_t) {
                if (!client->call(server->address(), "echo", 0, payload).ok()) {
                    throw std::runtime_error("rpc echo failed");
                }
            }));
    }
    {  // margo: the same echo dispatched to a handler ULT
        rpc::Network net;
        margo::Engine server(net, "probe-margo-server");
        margo::Engine client(net, "probe-margo-client");
        server.define_raw("echo", 0,
                          [](const std::string& p) -> Result<std::string> { return p; });
        rep.metrics["margo.echo_p50_us"] = rep.timing(
            "margo.echo", time_each_us(kProbeOps, [&](std::size_t) {
                if (!client.endpoint().call(server.address(), "echo", 0, payload).ok()) {
                    throw std::runtime_error("margo echo failed");
                }
            }));
    }
    const auto keys = sample_products(c, kProbeOps);
    auto& impl = *c.d.store.impl();
    rep.metrics["yokan.client_get_p50_us"] = rep.timing(
        "yokan.client_get", time_each_us(keys.size(), [&](std::size_t i) {
            const auto& h = impl.locate(hepnos::Role::kProducts, keys[i].first);
            if (!h.get_view(keys[i].second).ok()) throw std::runtime_error("yokan get failed");
        }));
    std::vector<hep::BufferView> blobs(keys.size());
    rep.metrics["yokan.backend_get_p50_us"] = rep.timing(
        "yokan.backend_get", time_each_us(keys.size(), [&](std::size_t i) {
            const auto& h = impl.locate(hepnos::Role::kProducts, keys[i].first);
            auto v = c.d.database(h.name())->get_view(keys[i].second);
            if (!v.ok()) throw std::runtime_error("backend get failed");
            blobs[i] = std::move(v.value());
        }));
    {
        std::uint64_t slices = 0;
        const auto t0 = Clock::now();
        for (const auto& b : blobs) {
            std::vector<nova::Slice> s;
            serial::from_string(b.sv(), s);
            slices += s.size();
        }
        rep.metrics["serial.decode_ns_per_slice"] =
            since(t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(slices, 1));
    }
    {  // htf reads and NOvA cuts over the first generated file
        auto t0 = Clock::now();
        auto parsed = nova::Generator::read_htf_file(c.in.htf_files.front());
        const double htf_s = since(t0);
        if (!parsed.ok()) throw std::runtime_error("read_htf_file failed");
        rep.metrics["htf.read_us_per_event"] =
            htf_s * 1e6 / static_cast<double>(std::max<std::size_t>(parsed->size(), 1));
        nova::Selector sel;
        std::uint64_t accepted = 0;
        t0 = Clock::now();
        for (int i = 0; i < 10; ++i) {
            for (const auto& rec : *parsed) accepted += sel.selected_ids(rec).size();
        }
        rep.metrics["nova.cuts_ns_per_slice"] =
            since(t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(sel.slices_examined(), 1));
        rep.detail["nova_probe_accepted"] = accepted;
    }
}

/// hepnos.event_load_*: Event::load latency. point_read measures it in its
/// untraced phase; the other workloads probe the same keys directly.
void event_load_metrics(Ctx& c, const WorkResult& untraced, Report& rep) {
    std::vector<double> us;
    if (c.w.point_reads) {
        for (double s : untraced.op_s) us.push_back(s * 1e6);
    } else {
        const auto keys = sample_products(c, kProbeOps);
        const auto uuid = c.d.dataset.uuid();
        std::mt19937_64 rng(c.in.ref.fnv + 1);
        us = time_each_us(kProbeOps, [&](std::size_t) {
            const auto coords = c.in.gen.file_coordinates(rng() % c.w.files);
            hepnos::Event ev(c.d.store.impl(), uuid, coords.run, coords.subrun,
                             rng() % coords.num_events);
            std::vector<nova::Slice> slices;
            if (!ev.load(nova::kSliceLabel, slices)) throw std::runtime_error("event load");
        });
    }
    rep.metrics["hepnos.event_load_p50_us"] = rep.timing("hepnos.event_load", us);
    std::sort(us.begin(), us.end());
    rep.metrics["hepnos.event_load_p99_us"] = perfbench::percentile(us, 99.0);
    rep.metrics["hepnos.event_load_samples"] = static_cast<double>(us.size());
}

/// Counters sampled before and after the untraced work phase.
struct Counters {
    json::Value server;
    cache::LeaseCache::Counters cache;
    std::uint64_t bytes_copied = 0;

    static Counters take(Deployment& d) {
        Counters k{d.server_stats(), {}, buffer_counters().bytes_copied.load()};
        if (const auto& lc = d.store.impl()->product_cache()) k.cache = lc->counters();
        return k;
    }
};

json::Value qos_source(json::Value stats) {
    return stats["sources"]["qos/" + std::to_string(kYokanId)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean of the samples a qos latency histogram ({count, mean_us}) gained
/// between two snapshots.
double delta_mean_us(json::Value before, json::Value after) {
    const double n0 = before["count"].as_double(), n1 = after["count"].as_double();
    return ratio(n1 * after["mean_us"].as_double() - n0 * before["mean_us"].as_double(),
                 n1 - n0);
}

/// The traced run: per-layer metrics of one set-up (recorded in `tracer`)
/// and of a work phase run twice, once with a disabled tracer and once
/// with `tracer`, over the same hand-written layer calls.
Report trace_run(Ctx& c, Tracer& tracer, const SetupResult& setup, double seconds) {
    Report rep;
    const auto after_setup = c.d.server_stats();
    rep.metrics["lsm.flushes"] = lsm_sum(after_setup, "flushes");
    rep.metrics["lsm.compactions"] = lsm_sum(after_setup, "compactions");
    rep.metrics["lsm.write_stall_us"] = lsm_sum(after_setup, "write_stall_micros");
    rep.metrics["lsm.write_amp"] =
        c.w.backend == "lsm" ? ratio(static_cast<double>(setup.io.wchar),
                                     static_cast<double>(c.in.user_bytes))
                             : 0.0;
    rep.metrics["dataloader.ingest_events_per_s"] =
        ratio(static_cast<double>(setup.events_stored), setup.ingest_wall_s);
    rep.metrics["dataloader.ingest_cpu_us_per_event"] =
        ratio(setup.ingest_cpu_s * 1e6, static_cast<double>(setup.events_stored));
    rep.metrics["buffers.bytes_copied_per_ingest_event"] =
        ratio(static_cast<double>(setup.bytes_copied), static_cast<double>(c.in.ref.events));

    warm_up(c);
    Tracer off(false);
    const auto k0 = Counters::take(c.d);
    const WorkResult plain = run_work(c, seconds / 2, &off);
    const auto k1 = Counters::take(c.d);
    const double hits = lsm_sum(k1.server, "cache_hits") - lsm_sum(k0.server, "cache_hits");
    const double misses =
        lsm_sum(k1.server, "cache_misses") - lsm_sum(k0.server, "cache_misses");
    rep.metrics["lsm.block_cache_hit_rate"] = ratio(hits, hits + misses);
    rep.metrics["lsm.disk_bytes_read_per_slice"] =
        c.w.point_reads ? 0.0
                        : ratio(lsm_sum(k1.server, "cache_disk_bytes_read") -
                                    lsm_sum(k0.server, "cache_disk_bytes_read"),
                                plain.units);
    json::Value qos0 = qos_source(k0.server), qos1 = qos_source(k1.server);
    rep.metrics["qos.rpcs_per_unit"] =
        ratio(qos1["admitted"].as_double() - qos0["admitted"].as_double(), plain.units);
    {
        // The class that admitted the most RPCs during the work phase, and
        // the mean of the samples its histograms gained in that phase (the
        // histograms count from boot, set-up ingest included).
        json::Value classes0 = qos0["classes"];
        double best = -1;
        for (auto& [name, cls] : qos1["classes"].object()) {
            json::Value before = classes0[name];
            const double admitted = cls["admitted"].as_double() - before["admitted"].as_double();
            if (admitted <= best) continue;
            best = admitted;
            rep.metrics["qos.queue_wait_mean_us"] =
                delta_mean_us(before["queue_delay"], cls["queue_delay"]);
            rep.metrics["qos.exec_mean_us"] = delta_mean_us(before["exec_time"], cls["exec_time"]);
            rep.detail["qos_class"] = name;
        }
    }
    const double lookups = static_cast<double>((k1.cache.hits - k0.cache.hits) +
                                               (k1.cache.misses - k0.cache.misses));
    rep.metrics["cache.hit_rate"] =
        ratio(static_cast<double>(k1.cache.hits - k0.cache.hits), lookups);
    rep.metrics["cache.evictions"] = static_cast<double>(k1.cache.evictions - k0.cache.evictions);
    rep.metrics["buffers.bytes_copied_per_work_unit"] =
        ratio(static_cast<double>(k1.bytes_copied - k0.bytes_copied), plain.units);
    rep.metrics["query.pass_s"] = c.w.pushdown() ? perfbench::median(plain.op_s) : 0.0;
    event_load_metrics(c, plain, rep);

    // Traced phase: the same loop with spans around every layer call. A
    // selection workload traces exactly two passes (three spans per event).
    // The overhead compares the median window rates (a window is a pass, or
    // 0.5 s of reads) of the two phases.
    const WorkResult traced = run_work(c, c.w.point_reads ? seconds / 2 : 0.0, &tracer);
    const double plain_rate = window_medians(plain).units_per_s;
    rep.metrics["work.units_per_s"] = plain_rate;
    rep.metrics["trace.overhead_frac"] = ratio(plain_rate, window_medians(traced).units_per_s) - 1.0;
    rep.metrics["pep.wait_frac"] = ratio(plain.pep_wait_s, plain.pep_total_s);
    const auto& q = plain.qstats;
    const double passes = static_cast<double>(plain.op_s.size());
    rep.metrics["query.rows_examined_per_accepted"] =
        c.w.pushdown() ? ratio(static_cast<double>(q.rows_examined),
                             static_cast<double>(c.in.ref.accepted) * passes)
                     : 0.0;
    rep.metrics["columnar.bytes_decompressed_per_slice"] =
        ratio(static_cast<double>(q.bytes_decompressed), static_cast<double>(q.rows_examined));
    rep.metrics["columnar.chunks_scanned"] =
        c.w.pushdown() ? ratio(static_cast<double>(q.chunks_scanned), passes) : 0.0;
    rep.metrics["columnar.fallbacks"] = static_cast<double>(q.columnar_fallbacks);

    std::map<std::string, double> self_by_layer;
    for (const char* layer : {"client", "hepnos", "query", "serial", "nova", "dataloader"}) {
        self_by_layer[layer] = 0.0;
    }
    for (auto& [name, st] : tracer.fold()) {
        const std::string layer = name.substr(0, name.find('.'));
        self_by_layer[layer] += st.self_us;
        rep.timing("span." + name, st.durations_us);
        rep.detail["span_self_us"][name] = st.self_us;
    }
    for (const auto& [layer, us] : self_by_layer) {
        if (layer == "dataloader" || layer == "yokan") continue;
        rep.metrics["self." + layer + "_us_per_unit"] = ratio(us, traced.units);
    }
    rep.metrics["self.dataloader_us_per_event"] =
        ratio(self_by_layer["dataloader"], static_cast<double>(setup.events_stored));
    rep.detail["traced_units"] = traced.units;
    rep.detail["untraced_units_per_s"] = plain.units / plain.wall_s;
    rep.detail["traced_units_per_s"] = traced.units / traced.wall_s;

    probe_layers(c, rep);
    rep.detail["attempted_work"] = plain.attempted + traced.attempted;
    rep.detail["failed_work"] = plain.failed + traced.failed;
    return rep;
}

// -------------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir = ".bench_work";
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--work-dir") a.work_dir = v;
        else return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--work-dir <dir>]\n");
        return 2;
    }
    const Workload* w = find_workload(args.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    pin_cpus(w->cpus);
    const fs::path root =
        fs::absolute(fs::path(args.work_dir) / (w->name + "-" + std::to_string(getpid())));
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    int rc = 0;
    try {
        fs::remove_all(root);
        const auto tg = Clock::now();
        const Inputs in = make_inputs(*w, args.seed, root);
        std::printf("inputs: %llu events, %llu slices, %llu product bytes, %llu accepted "
                    "(%.2f s, untimed)\n",
                    static_cast<unsigned long long>(in.ref.events),
                    static_cast<unsigned long long>(in.ref.slices),
                    static_cast<unsigned long long>(in.user_bytes),
                    static_cast<unsigned long long>(in.ref.accepted), since(tg));

        Tracer tracer(args.trace);
        const auto cpu_start = perfbench::host_cpu_times();
        const double proc_cpu0 = perfbench::process_cpu_seconds();
        std::vector<SetupResult> setups;
        std::unique_ptr<Deployment> d;
        const int n_setups = args.trace ? 1 : w->setups;
        for (int i = 0; i < n_setups; ++i) {
            d.reset();
            // Hand the previous deployment's freed heap back to the kernel, so
            // every set-up starts from the same allocator state.
            malloc_trim(0);
            perfbench::reset_peak_rss();
            SetupResult s;
            d = boot_and_ingest(*w, in, root / ("svc" + std::to_string(i)), i, s, tracer);
            s.peak_rss_mib = perfbench::peak_rss_mib();
            std::printf("setup %d: %.3f s (ingest %.3f s wall, %.3f s cpu)\n", i, s.setup_s,
                        s.ingest_wall_s, s.ingest_cpu_s);
            setups.push_back(s);
        }
        Ctx c{*w, in, *d};
        Checks checks;
        for (const auto& s : setups) {
            checks.expect(s.events_stored == in.ref.events, "ingest stored every generated event");
        }

        std::map<std::string, double> metrics;
        std::map<std::string, std::string> units;
        json::Value detail = json::Value::make_object();
        std::uint64_t attempted = 0, failed = 0;
        if (args.trace) {
            Report rep = trace_run(c, tracer, setups.back(), args.seconds);
            metrics = std::move(rep.metrics);
            detail = std::move(rep.detail);
            attempted = static_cast<std::uint64_t>(detail["attempted_work"].as_int());
            failed = static_cast<std::uint64_t>(detail["failed_work"].as_int());
        } else {
            const double stored = stored_bytes(*d, *w);
            malloc_trim(0);  // the work phase's memory starts from live data only
            warm_up(c);
            const auto faults0 = perfbench::process_minor_faults();
            const WorkResult r = run_work(c, args.seconds);
            const WindowMedians med = window_medians(r);
            detail["work_minor_faults"] = perfbench::process_minor_faults() - faults0;
            attempted = r.attempted;
            failed = r.failed;
            std::vector<double> setup_s, setup_rss, ingest_rate, ingest_cpu;
            for (const auto& s : setups) {
                setup_s.push_back(s.setup_s);
                setup_rss.push_back(s.peak_rss_mib);
                ingest_rate.push_back(static_cast<double>(s.events_stored) / s.ingest_wall_s);
                ingest_cpu.push_back(s.ingest_cpu_s * 1e6 / static_cast<double>(in.ref.events));
                json::Value row = json::Value::make_array();
                row.push_back(s.setup_s);
                row.push_back(s.ingest_wall_s);
                row.push_back(s.ingest_cpu_s);
                row.push_back(static_cast<double>(s.minor_faults));
                row.push_back(s.peak_rss_mib);
                detail["setups_s_wall_cpu_faults_rss"].push_back(std::move(row));
            }
            metrics["setup_s"] = perfbench::median(setup_s);
            // Memory: the larger of the median set-up's peak and the median
            // work window's, each counted from a reset of the peak mark.
            metrics["peak_rss_mb"] = std::max(perfbench::median(setup_rss), med.peak_rss_mib);
            // Ingest alone moves with the host's speed more than the bounds
            // allow; it is recorded here and gated only through setup_s.
            detail["ingest_events_per_s"] = perfbench::median(ingest_rate);
            detail["ingest_cpu_us_per_event"] = perfbench::median(ingest_cpu);
            metrics["stored_bytes_per_user_byte"] = stored / static_cast<double>(in.user_bytes);
            // Wall-clock rates follow the host's steal time, so they are
            // recorded here, and the gated cost is CPU time per unit.
            metrics["work_cpu_us_per_unit"] = med.cpu_us_per_unit;
            detail["work_units_per_s"] = med.units_per_s;
            detail["work_units_per_s_overall"] = r.units / r.wall_s;
            detail["work_cpu_us_per_unit_overall"] = r.cpu_s * 1e6 / r.units;
            for (const auto& win : r.windows) {
                json::Value row = json::Value::make_array();
                row.push_back(win.units / win.wall_s);
                row.push_back(win.cpu_s * 1e6 / win.units);
                row.push_back(win.steal);
                row.push_back(win.peak_rss_mib);
                detail["windows_rate_cpu_steal_rss"].push_back(std::move(row));
            }
            std::vector<double> op_us;
            for (double s : r.op_s) op_us.push_back(s * 1e6);
            const auto sum = perfbench::summarize(op_us);
            detail["work_op_us"]["n"] = static_cast<std::uint64_t>(sum.n);
            detail["work_op_us"]["p50"] = sum.p50;
            detail["work_op_us"]["top_pct"] = sum.top_pct;
            detail["work_op_us"]["top"] = sum.top;
        }
        cross_checks(c, checks);
        attempted += checks.attempted;
        failed += checks.failed;
        d.reset();

        const double steal = perfbench::steal_share(cpu_start, perfbench::host_cpu_times());
        const double proc_cpu = perfbench::process_cpu_seconds() - proc_cpu0;
        if (args.trace) {
            metrics["host.steal_frac"] = steal;
            metrics["process.cpu_s"] = proc_cpu;
        } else {
            metrics["ok_op_frac"] =
                static_cast<double>(attempted - failed) / static_cast<double>(attempted);
        }
        detail["host_steal_frac"] = steal;
        detail["process_cpu_s"] = proc_cpu;
        detail["workload"] = w->name;
        detail["seed"] = args.seed;
        std::printf("detail %s\n", detail.dump().c_str());

        const bool correct = failed == 0;
        std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(attempted) +
                           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
        bool first = true;
        for (const auto& [name, value] : metrics) {
            line += std::string(first ? "" : ", ") + "\"" + name + "\": " + number(value);
            first = false;
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        rc = correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    fs::remove_all(root, ec);
    return rc;
}
