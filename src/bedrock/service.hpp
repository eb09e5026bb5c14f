// Bedrock substitute: bootstraps a service process from a JSON description
// (paper §II-B). The description covers the Margo/Argobots configuration
// (rpc xstreams), the provider list with their pools, and each provider's
// databases — the same knobs the paper tunes (16 rpc-xstreams, 16 providers,
// 8 event + 8 product databases per server).
//
// Example config:
// {
//   "address": "hepnos-server-0",
//   "margo": { "rpc_xstreams": 4 },
//   "providers": [
//     { "type": "yokan", "provider_id": 1,
//       "pool": { "name": "pool-1", "xstreams": 1 },
//       "config": { "databases": [
//          { "name": "events-0",   "type": "map", "role": "events" },
//          { "name": "products-0", "type": "map", "role": "products" } ] } }
//   ]
// }
//
// Database "role" classifies what HEPnOS stores there: one of "datasets",
// "runs", "subruns", "events", "products". ServiceProcess::descriptor()
// aggregates (address, provider, db, role, type) tuples; hepnos::DataStore
// connects from a JSON document listing those descriptors for every server.
//
// An optional top-level "replication" section — {"factor": 2,
// "read_from_replicas": false, ...retry policy knobs...} — is passed through
// into the descriptor verbatim; the connecting DataStore uses it to wire each
// database into a replica group (round-robin backups across the other
// servers) and to build its client-side retry/failover policy.
//
// An optional top-level "query" section — {"enabled": true, "max_cursors":
// 1024, "prefetch": true} — co-locates a query-pushdown provider (src/query)
// with every yokan provider and advertises "query": true in the descriptor,
// which DataStore::query requires.
//
// An optional top-level "qos" section arms admission control (src/qos):
//
//   "qos": {
//     "enabled": true,
//     "weights": [32, 16, 4, 1],        // control/interactive/batch/bulk
//     "slowdown_inflight": 64,          // tier 1: bulk classes start yielding
//     "shed_inflight": 256,             // tier 2: shed with Overloaded
//     "retry_after_ms": 25,             // hint attached to queue-depth sheds
//     "slowdown_min_class": "batch",    // first class the slowdown applies to
//     "max_slowdown_ms": 20,
//     "default_limit": { "rate": 0, "burst": 0 },   // tokens/sec; 0 = off
//     "tenants": { "ingest": { "rate": 500, "burst": 100 } }
//   }
//
// With qos enabled, every handler pool becomes a weighted-fair PriorityPool,
// requests are admitted (token buckets, deadline expiry, two-tier overload
// control) before any handler ULT is created, and the descriptor advertises
// "qos": true. Under "monitoring", a "qos/<provider_id>" source exposes
// admitted/shed/expired counts, per-class queue-delay histograms and
// token-bucket levels.
//
// A provider entry with "type": "cache" boots a hot-product cache node
// (src/cache) instead of a yokan provider. The process advertises every such
// node under "cache_tier" in its descriptor; connecting clients consistent-
// hash product keys over all advertised nodes and read through them. An
// optional top-level "cache" section — {"enabled": true, "capacity_bytes":
// 67108864, "max_entries": 65536, "lease_ms": 1000, "tier": true, "bypass":
// false} — configures the cache-provider tables AND is passed through to the
// descriptor, so clients build their local lease caches with the same knobs.
// Under "monitoring", a "cache/<provider_id>" source exposes hit/miss/fill/
// eviction/invalidation counters and hit-latency histograms.
//
// An optional top-level "columnar" section — {"enabled": true, "chunk_rows":
// 256, "min_batch": 16, "compression": "auto"} — turns on the columnar
// layout (src/columnar): query providers serve the vectorized column-pruned
// scan path, and the section is passed through to the descriptor so
// connecting clients shred their ingest batches into column chunks with the
// same knobs. Requires "query"; it is advertised to clients only when EVERY
// process in the merged connection document enables it (a mixed deployment
// would answer Unimplemented from some servers, so clients fall back to blob
// scans entirely).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/provider.hpp"
#include "common/json.hpp"
#include "margo/engine.hpp"
#include "qos/admission.hpp"
#include "query/provider.hpp"
#include "symbio/provider.hpp"
#include "yokan/provider.hpp"

namespace hep::bedrock {

/// One database as seen by clients.
struct DatabaseDescriptor {
    std::string address;
    rpc::ProviderId provider_id = 0;
    std::string name;
    std::string role;  // datasets | runs | subruns | events | products
    std::string type;  // backend ("map" | "lsm"); clients creating backup
                       // replicas must match it
};

class ServiceProcess {
  public:
    /// Boot a service from its JSON description. `base_dir` anchors relative
    /// lsm paths.
    static Result<std::unique_ptr<ServiceProcess>> create(rpc::Fabric& network,
                                                          const json::Value& config,
                                                          const std::string& base_dir = ".");

    ~ServiceProcess();

    [[nodiscard]] const std::string& address() const noexcept { return engine_->address(); }
    [[nodiscard]] margo::Engine& engine() noexcept { return *engine_; }
    [[nodiscard]] const std::vector<DatabaseDescriptor>& databases() const noexcept {
        return databases_;
    }

    /// Client-facing descriptor: {"databases": [{address, provider_id, name,
    /// role}, ...]}. Multiple processes' descriptors merge into one
    /// connection file.
    [[nodiscard]] json::Value descriptor() const;

    /// Direct access for tests/ingestion tools.
    [[nodiscard]] yokan::Provider* find_provider(rpc::ProviderId id);

    /// The query-pushdown provider co-located with yokan provider `id`
    /// (nullptr when the "query" knob is off).
    [[nodiscard]] query::QueryProvider* find_query_provider(rpc::ProviderId id);

    /// A cache-tier provider hosted by this process ({"type": "cache"} in the
    /// provider list); nullptr when `id` hosts none.
    [[nodiscard]] cache::Provider* find_cache_provider(rpc::ProviderId id);

    /// Monitoring registry, if the config enabled a "monitoring" section
    /// (null otherwise). Remote access goes through symbio::fetch_all.
    [[nodiscard]] symbio::MetricsRegistry* metrics() noexcept { return registry_.get(); }

    /// Admission controller, if the config enabled a "qos" section.
    [[nodiscard]] qos::AdmissionController* admission() noexcept { return admission_.get(); }

    void shutdown();

  private:
    ServiceProcess() = default;

    std::unique_ptr<margo::Engine> engine_;
    std::vector<std::unique_ptr<yokan::Provider>> providers_;
    std::vector<std::unique_ptr<query::QueryProvider>> query_providers_;
    std::vector<std::unique_ptr<cache::Provider>> cache_providers_;
    std::vector<DatabaseDescriptor> databases_;
    bool query_enabled_ = false;
    json::Value cache_cfg_;     // "cache" config section, passed through to the
                                // descriptor so clients pick up the same knobs
    json::Value columnar_cfg_;  // "columnar" config section, passed through so
                                // clients shred ingest with the same knobs
    std::shared_ptr<qos::AdmissionController> admission_;
    json::Value replication_;  // "replication" config section, passed through
                               // to the descriptor so clients wire the groups
    std::shared_ptr<symbio::MetricsRegistry> registry_;
    std::unique_ptr<symbio::Provider> symbio_provider_;
};

/// Merge several process descriptors into one client connection document.
json::Value merge_descriptors(const std::vector<json::Value>& descriptors);

}  // namespace hep::bedrock
