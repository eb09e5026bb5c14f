// Ablation: zero-copy buffer pipeline vs the legacy string pipeline on the
// same ingest workload.
//
// Before the hep::Buffer refactor every stored product was memcpy'd at each
// layer boundary: into the serialization archive, into the packed batch, into
// the RPC request, out of it on the server, and finally into the backend. The
// service no longer has that path, so this bench carries it as its baseline:
// a bench-local "abl_legacy_put_multi" handler on the service's engine pulls
// a contiguous packed KeyValue batch with one bulk read, unpacks it and puts
// every value. The bench ingests the SAME serialized nova products twice —
// once through that legacy path and once through the chain-based
// put_multi(vector<BatchItem>) path — against both the map and the lsm
// backend, and reports bytes-memcpy'd per stored event for each (every copy
// is counted through the global BufferCounters). Acceptance: >= 2x fewer
// copied bytes per event, and bit-identical stored values (same keys, same
// bytes) after the zero-copy ingest.
// Results land in BENCH_zerocopy.json in the working directory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bedrock/service.hpp"
#include "bench_table.hpp"
#include "hepnos/hepnos.hpp"
#include "nova/generator.hpp"
#include "serial/archive.hpp"
#include "yokan/client.hpp"

namespace {

using namespace hep;

struct CopyDelta {
    std::uint64_t copies = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t allocations = 0;
};

CopyDelta snapshot() {
    const auto& c = hep::buffer_counters();
    return {c.copies.load(), c.bytes_copied.load(), c.allocations.load()};
}

CopyDelta operator-(const CopyDelta& a, const CopyDelta& b) {
    return {a.copies - b.copies, a.bytes_copied - b.bytes_copied,
            a.allocations - b.allocations};
}

/// Legacy batched put request, with the wire layout the service used to
/// accept: the packed (klen, vlen, key, value)* batch lives in a
/// client-exposed region.
struct LegacyPutMultiReq {
    std::string db;
    rpc::BulkRef bulk;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;  // packed size
    bool overwrite = true;
    std::uint32_t epoch = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & bulk & count & bytes & overwrite & epoch;
    }
};

constexpr rpc::ProviderId kLegacyProvider = 77;  // not used by the service
constexpr std::string_view kLegacyPutMulti = "abl_legacy_put_multi";

/// Server half of the legacy path: one bulk pull into a fresh string, then
/// unpack and store each value as a view into the adopted pull buffer.
void register_legacy_put_multi(bedrock::ServiceProcess& service) {
    yokan::Provider* provider = service.find_provider(1);
    service.engine().define_with_context(
        kLegacyPutMulti, kLegacyProvider,
        [provider](const std::string& payload, rpc::RequestContext& ctx) -> Result<std::string> {
            LegacyPutMultiReq req;
            try {
                serial::from_string(payload, req);
            } catch (const serial::SerializationError& e) {
                return Status::InvalidArgument(e.what());
            }
            yokan::Database* db = provider->find_database(req.db);
            if (db == nullptr) return Status::NotFound("no database " + req.db);
            std::string packed(req.bytes, '\0');
            Status st = ctx.bulk_get(req.bulk, 0, packed.data(), req.bytes);
            if (!st.ok()) return st;
            const hep::Buffer packed_buf = hep::Buffer::adopt(std::move(packed));
            const char* base = packed_buf.view().sv().data();
            yokan::proto::PutMultiResp resp;
            const bool well_formed = yokan::proto::unpack_entries(
                packed_buf.view().sv(), [&](std::string_view k, std::string_view v) {
                    const auto offset = static_cast<std::size_t>(v.data() - base);
                    Status put_st = db->put_stamped(k, packed_buf.view(offset, v.size()),
                                                    req.overwrite, req.epoch);
                    if (put_st.ok()) ++resp.stored;
                    else if (put_st.code() == StatusCode::kAlreadyExists) ++resp.already_existed;
                });
            if (!well_formed) return Status::InvalidArgument("malformed packed batch");
            return serial::to_string(resp);
        });
}

/// Client half: pack the batch into one contiguous string, expose it, call.
Result<std::uint64_t> legacy_put_multi(margo::Engine& engine, const yokan::DatabaseHandle& db,
                                       const std::vector<yokan::KeyValue>& items) {
    std::string packed;
    yokan::proto::pack_entries(packed, items);
    rpc::BulkRef bulk = engine.endpoint().expose(packed.data(), packed.size());
    auto raw = engine.endpoint().call(
        db.server(), kLegacyPutMulti, kLegacyProvider,
        serial::to_string(LegacyPutMultiReq{db.name(), bulk, items.size(), packed.size()}));
    engine.endpoint().unexpose(bulk);
    if (!raw.ok()) return raw.status();
    yokan::proto::PutMultiResp resp;
    serial::from_string(*raw, resp);
    return resp.stored;
}

struct LiveService {
    LiveService() {
        lsm_path = (std::filesystem::temp_directory_path() / "abl_zerocopy_lsm").string();
        std::filesystem::remove_all(lsm_path);
        auto cfg = json::parse(R"({
          "address": "bench-server",
          "margo": {"rpc_xstreams": 4},
          "providers": [{"type": "yokan", "provider_id": 1, "config": {"databases": [
            {"name": "ds", "type": "map", "role": "datasets"},
            {"name": "r0", "type": "map", "role": "runs"},
            {"name": "s0", "type": "map", "role": "subruns"},
            {"name": "e0", "type": "map", "role": "events"},
            {"name": "pm", "type": "map", "role": "products"},
            {"name": "pl", "type": "lsm", "path": ")" + lsm_path + R"(",
             "role": "products"}]}}]
        })");
        service = bedrock::ServiceProcess::create(network, *cfg).value();
        register_legacy_put_multi(*service);
        store = hepnos::DataStore::connect(network, service->descriptor());
    }
    rpc::Network network;
    std::unique_ptr<bedrock::ServiceProcess> service;
    hepnos::DataStore store;
    std::string lsm_path;
};

LiveService& live() {
    static LiveService instance;
    return instance;
}

/// The ingest payload: one slices product per event. Serialization happens
/// INSIDE each measured mode (that is where the two pipelines diverge:
/// to_string + pack + store copies vs to_buffer + shared views).
std::vector<std::vector<nova::Slice>> make_products(std::size_t count) {
    nova::Generator gen({.num_files = 4, .events_per_file = 64});
    std::vector<std::vector<nova::Slice>> products;
    products.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        products.push_back(gen.make_event(1, 1, i).slices);
    }
    return products;
}

std::string event_key(std::size_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "evt/%08zu", i);
    return buf;
}

struct ModeResult {
    CopyDelta delta;
    double per_event = 0;
};

/// Legacy pipeline, exactly what the pre-refactor ingest did per product:
/// serialize into a contiguous string, pack KeyValue batches into one
/// contiguous buffer, bulk transfer, unpack, puts into the backend. Every
/// stage re-copies the value bytes.
ModeResult ingest_legacy(margo::Engine& engine, const yokan::DatabaseHandle& db,
                         const std::vector<std::vector<nova::Slice>>& products,
                         std::size_t batch) {
    hep::reset_buffer_counters();
    const CopyDelta before = snapshot();
    std::vector<yokan::KeyValue> items;
    for (std::size_t i = 0; i < products.size(); ++i) {
        items.push_back(yokan::KeyValue{event_key(i), serial::to_string(products[i])});
        if (items.size() == batch || i + 1 == products.size()) {
            auto r = legacy_put_multi(engine, db, items);
            if (!r.ok()) std::printf("ERROR: legacy put_multi: %s\n", r.status().to_string().c_str());
            items.clear();
        }
    }
    ModeResult out;
    out.delta = snapshot() - before;
    out.per_event = static_cast<double>(out.delta.bytes_copied) /
                    static_cast<double>(products.size());
    return out;
}

/// Zero-copy pipeline: serialize into a Buffer once; from there the bytes are
/// only ever referenced — BatchItem batches through "yokan_put_packed" ride
/// the request as refcounted views and the backend parks them by reference.
ModeResult ingest_zerocopy(const yokan::DatabaseHandle& db,
                           const std::vector<std::vector<nova::Slice>>& products,
                           std::size_t batch) {
    hep::reset_buffer_counters();
    const CopyDelta before = snapshot();
    std::vector<yokan::BatchItem> items;
    for (std::size_t i = 0; i < products.size(); ++i) {
        items.push_back(yokan::BatchItem{event_key(i), serial::to_buffer(products[i])});
        if (items.size() == batch || i + 1 == products.size()) {
            auto r = db.put_multi(items, /*overwrite=*/true);
            if (!r.ok()) std::printf("ERROR: packed put_multi: %s\n", r.status().to_string().c_str());
            items.clear();
        }
    }
    ModeResult out;
    out.delta = snapshot() - before;
    out.per_event = static_cast<double>(out.delta.bytes_copied) /
                    static_cast<double>(products.size());
    return out;
}

/// Every stored value must be byte-identical to the serialized source.
bool verify_bit_identical(const yokan::DatabaseHandle& db,
                          const std::vector<std::vector<nova::Slice>>& products) {
    for (std::size_t i = 0; i < products.size(); ++i) {
        auto v = db.get_view(event_key(i));
        if (!v.ok() || v->sv() != serial::to_string(products[i])) return false;
    }
    return true;
}

void print_reproduction() {
    using namespace hep::bench;
    auto& svc = live();

    constexpr std::size_t kEvents = 2000;
    constexpr std::size_t kBatch = 64;  // the write-batch flush shape
    const auto products = make_products(kEvents);
    std::size_t payload_bytes = 0;
    for (const auto& p : products) payload_bytes += serial::serialized_size(p);

    print_header(
        "Ablation — zero-copy buffer pipeline vs legacy string pipeline\n"
        "expect: >=2x fewer bytes memcpy'd per stored event, identical bytes stored");

    auto& impl = *svc.store.impl();
    const auto& product_dbs = impl.databases(hepnos::Role::kProducts);

    json::Value doc = json::Value::make_object();
    doc["bench"] = "zerocopy";
    doc["events"] = static_cast<std::uint64_t>(kEvents);
    doc["batch"] = static_cast<std::uint64_t>(kBatch);
    doc["payload_bytes"] = static_cast<std::uint64_t>(payload_bytes);

    print_row({"backend", "mode", "bytes-copied", "copies", "allocs", "bytes/event"});
    double min_ratio = 1e300;
    bool all_identical = true;
    const char* names[] = {"map", "lsm"};
    for (std::size_t d = 0; d < 2; ++d) {
        const auto& db = product_dbs[d];

        // Legacy first; the zero-copy pass then overwrites the SAME keys, so
        // the final database contents must equal the source bytes anyway.
        const ModeResult legacy = ingest_legacy(impl.engine(), db, products, kBatch);
        const ModeResult zc = ingest_zerocopy(db, products, kBatch);
        const bool identical = verify_bit_identical(db, products);
        all_identical = all_identical && identical;
        if (!identical) std::printf("ERROR: %s backend stored different bytes!\n", names[d]);

        const double ratio = zc.delta.bytes_copied
                                 ? static_cast<double>(legacy.delta.bytes_copied) /
                                       static_cast<double>(zc.delta.bytes_copied)
                                 : 0.0;
        min_ratio = std::min(min_ratio, ratio);

        print_row({names[d], "legacy", std::to_string(legacy.delta.bytes_copied),
                   std::to_string(legacy.delta.copies),
                   std::to_string(legacy.delta.allocations), fmt(legacy.per_event, 0)});
        print_row({names[d], "zerocopy", std::to_string(zc.delta.bytes_copied),
                   std::to_string(zc.delta.copies), std::to_string(zc.delta.allocations),
                   fmt(zc.per_event, 0)});
        std::printf("  %s: %.1fx fewer bytes copied per stored event (identical=%s)\n",
                    names[d], ratio, identical ? "yes" : "NO");

        json::Value& b = doc["backends"][names[d]];
        b["legacy"]["bytes_copied"] = legacy.delta.bytes_copied;
        b["legacy"]["copies"] = legacy.delta.copies;
        b["legacy"]["allocations"] = legacy.delta.allocations;
        b["legacy"]["bytes_copied_per_event"] = legacy.per_event;
        b["zerocopy"]["bytes_copied"] = zc.delta.bytes_copied;
        b["zerocopy"]["copies"] = zc.delta.copies;
        b["zerocopy"]["allocations"] = zc.delta.allocations;
        b["zerocopy"]["bytes_copied_per_event"] = zc.per_event;
        b["copy_reduction_ratio"] = ratio;
        b["bit_identical"] = identical;
    }

    doc["min_copy_reduction_ratio"] = min_ratio;
    doc["pass"] = all_identical && min_ratio >= 2.0;
    std::ofstream("BENCH_zerocopy.json") << doc.dump(2) << "\n";
    std::printf("\nmin ratio %.1fx, bit-identical=%s -> %s\n", min_ratio,
                all_identical ? "yes" : "NO",
                (all_identical && min_ratio >= 2.0) ? "PASS" : "FAIL");
    std::printf("wrote BENCH_zerocopy.json\n");
}

// Micro-benchmark: batch assembly cost — legacy contiguous pack_entries vs
// the scatter-gather pack_items chain (one metadata allocation, zero value
// copies).
void BM_PackEntriesContiguous(benchmark::State& state) {
    std::vector<yokan::KeyValue> items;
    for (int i = 0; i < 64; ++i) {
        items.push_back(yokan::KeyValue{"key-" + std::to_string(i), std::string(4096, 'v')});
    }
    for (auto _ : state) {
        std::string out;
        yokan::proto::pack_entries(out, items);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 4096);
}
BENCHMARK(BM_PackEntriesContiguous);

void BM_PackItemsChain(benchmark::State& state) {
    std::vector<yokan::BatchItem> items;
    for (int i = 0; i < 64; ++i) {
        items.push_back(yokan::BatchItem{"key-" + std::to_string(i),
                                         hep::Buffer::adopt(std::string(4096, 'v'))});
    }
    for (auto _ : state) {
        hep::BufferChain chain = yokan::proto::pack_items(items);
        benchmark::DoNotOptimize(chain);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 4096);
}
BENCHMARK(BM_PackItemsChain);

// Single-value store path: serialize-into-string-and-copy vs
// serialize-into-buffer-and-share.
void BM_SerializeToString(benchmark::State& state) {
    const std::vector<double> value(512, 3.14);
    for (auto _ : state) {
        std::string bytes = serial::to_string(value);
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_SerializeToString);

void BM_SerializeToBuffer(benchmark::State& state) {
    const std::vector<double> value(512, 3.14);
    for (auto _ : state) {
        hep::Buffer bytes = serial::to_buffer(value);
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_SerializeToBuffer);

}  // namespace

HEP_BENCH_MAIN(print_reproduction)
