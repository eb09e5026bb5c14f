// Internal connection state shared by all HEPnOS handles.
//
// Holds the client engine plus, for each role (datasets / runs / subruns /
// events / products), the list of database handles and a consistent-hash ring
// used for placement (paper §II-C3: a child container's database is chosen by
// hashing its PARENT's key).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/lease_cache.hpp"
#include "cache/tier.hpp"
#include "columnar/writer.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "margo/engine.hpp"
#include "qos/client.hpp"
#include "replica/failover.hpp"
#include "symbio/metrics.hpp"
#include "yokan/client.hpp"

namespace hep::hepnos {

enum class Role : std::size_t {
    kDatasets = 0,
    kRuns = 1,
    kSubRuns = 2,
    kEvents = 3,
    kProducts = 4,
};
inline constexpr std::size_t kNumRoles = 5;

std::string_view to_string(Role role) noexcept;
Result<Role> parse_role(std::string_view name) noexcept;

/// A consistent client-side read position: one MVCC pin per database of each
/// role, all sharing the publish-epoch filter captured at the epoch registry.
/// Plain value — cheap to copy, never expires, nothing is locked server-side.
/// Reads through it observe exactly the published epochs and per-db sequence
/// positions of the capture moment, regardless of concurrent ingest.
struct Snapshot {
    std::array<std::vector<yokan::proto::ReadPin>, kNumRoles> pins;

    [[nodiscard]] const yokan::proto::ReadPin& pin(Role role, std::size_t db_index) const {
        return pins[static_cast<std::size_t>(role)][db_index];
    }
    [[nodiscard]] bool valid() const noexcept {
        return !pins[static_cast<std::size_t>(Role::kProducts)].empty();
    }
};

class DataStoreImpl {
  public:
    /// Build from a connection document: {"databases": [{address,
    /// provider_id, name, role, type}, ...], "replication": {...}?}. Owns a
    /// fresh client engine. When the document carries a "replication" section
    /// with factor >= 2, connect() wires every database into a replica group
    /// (round-robin backups over the other providers) and attaches a shared
    /// failover state to each handle, so all subsequent operations retry and
    /// fail over transparently.
    static Result<std::shared_ptr<DataStoreImpl>> connect(rpc::Fabric& network,
                                                          const json::Value& config,
                                                          const std::string& client_address);

    ~DataStoreImpl();

    [[nodiscard]] margo::Engine& engine() noexcept { return *engine_; }

    /// All databases serving `role`.
    [[nodiscard]] const std::vector<yokan::DatabaseHandle>& databases(Role role) const noexcept {
        return dbs_[static_cast<std::size_t>(role)];
    }

    /// Placement: database responsible for children of `parent_key`.
    [[nodiscard]] const yokan::DatabaseHandle& locate(Role role,
                                                      std::string_view parent_key) const {
        const auto idx = static_cast<std::size_t>(role);
        return dbs_[idx][rings_[idx].lookup(parent_key)];
    }

    /// Index of the database responsible for children of `parent_key`.
    [[nodiscard]] std::size_t locate_index(Role role, std::string_view parent_key) const {
        return rings_[static_cast<std::size_t>(role)].lookup(parent_key);
    }

    [[nodiscard]] std::size_t database_count(Role role) const noexcept {
        return dbs_[static_cast<std::size_t>(role)].size();
    }

    // ---- storage rescaling support (see hepnos/rescale.hpp) -----------------
    /// Register an additional storage target for `role`; returns its index.
    /// The ring is extended, so subsequent placements may choose it. Callers
    /// are responsible for migrating the keys that changed owner.
    std::size_t add_database(Role role, yokan::DatabaseHandle handle) {
        const auto idx = static_cast<std::size_t>(role);
        if (qos_) handle.set_qos(qos_);
        dbs_[idx].push_back(std::move(handle));
        active_[idx].push_back(true);
        rings_[idx].add_target(dbs_[idx].size() - 1);
        return dbs_[idx].size() - 1;
    }

    /// Remove a target from `role`'s ring. The handle stays addressable (so
    /// migration can drain it) but receives no new placements.
    void deactivate_database(Role role, std::size_t index) {
        const auto idx = static_cast<std::size_t>(role);
        rings_[idx].remove_target(index);
        active_[idx][index] = false;
    }

    [[nodiscard]] bool is_active(Role role, std::size_t index) const {
        const auto idx = static_cast<std::size_t>(role);
        return index < active_[idx].size() && active_[idx][index];
    }

    // ---- replication / failover ---------------------------------------------
    /// Replication factor the connection document asked for (1 = off).
    [[nodiscard]] std::size_t replication_factor() const noexcept {
        return replication_factor_;
    }

    /// True when the service advertised query pushdown ("query": true in the
    /// connection document; Bedrock emits it when the knob is enabled).
    [[nodiscard]] bool query_enabled() const noexcept { return query_enabled_; }

    // ---- columnar layout (see src/columnar) ---------------------------------
    /// Writer knobs from the connection document's "columnar" section
    /// (advertised by bedrock only when every process enables the knob);
    /// enabled=false when the service never advertised it.
    [[nodiscard]] const columnar::WriterOptions& columnar_options() const noexcept {
        return columnar_opts_;
    }
    [[nodiscard]] bool columnar_enabled() const noexcept { return columnar_opts_.enabled; }
    /// Shredding counters shared by every WriteBatch of this connection;
    /// exposed through metrics() as "columnar/client".
    [[nodiscard]] const std::shared_ptr<columnar::WriterCounters>& columnar_counters()
        const noexcept {
        return columnar_counters_;
    }

    /// Retry/failover counters aggregated over every database handle.
    [[nodiscard]] const std::shared_ptr<replica::FailoverCounters>& failover_counters()
        const noexcept {
        return failover_counters_;
    }

    /// Client-side metrics registry; carries a "replica/client" source with
    /// the retry/failover counters when replication is on and a "qos/client"
    /// source with shed/fast-fail/breaker counters.
    [[nodiscard]] symbio::MetricsRegistry& metrics() noexcept { return *metrics_; }

    /// Client QoS state: classification policy, Overloaded-retry counters and
    /// the per-server circuit breaker, shared by every database handle of
    /// this connection. Configured by the connection document's "qos" section
    /// (defaults apply when absent — tagging is harmless for servers without
    /// admission control).
    [[nodiscard]] const std::shared_ptr<qos::ClientQos>& qos() const noexcept { return qos_; }

    // ---- hot-product read cache (see src/cache) -----------------------------
    /// The client-side lease cache; null when the "cache" section disabled it.
    [[nodiscard]] const std::shared_ptr<cache::LeaseCache>& product_cache() const noexcept {
        return cache_;
    }
    /// The dedicated cache-provider tier; null when the service advertises
    /// none (or "cache.tier" turned it off).
    [[nodiscard]] cache::TierClient* tier() const noexcept { return tier_.get(); }

    /// Read-through product load: local cache, then the cache tier, then the
    /// owning provider (filling both caches on the way back). `key` is the
    /// full product key; `container_key` only drives placement. Honors the
    /// cache's bypass mode (straight to the owner) and lease revalidation
    /// (one mutation_seq probe instead of a refetch when the value is
    /// unchanged). NotFound passes through un-cached. A non-null pinned `pin`
    /// bypasses the cache entirely (it holds latest values) and resolves the
    /// read at that snapshot on the owner.
    Result<hep::BufferView> read_product(std::string_view container_key, const std::string& key,
                                         const yokan::proto::ReadPin* pin = nullptr);

    /// Bulk read-through for the prefetch paths (Prefetcher / parallel event
    /// processor): serve what the local cache can, fetch the rest with one
    /// batch-class get_multi on products database `db_index`, and fill the
    /// cache with the result. Expired entries of the page revalidate with
    /// one mutation_seq probe; only those whose seq moved are refetched.
    /// Result order matches `keys`. A pinned `pin` skips the cache and
    /// resolves the whole batch at that snapshot.
    Result<std::vector<std::optional<hep::BufferView>>> load_products_bulk(
        std::size_t db_index, const std::vector<std::string>& keys,
        const yokan::proto::ReadPin* pin = nullptr);

    // ---- MVCC: ingest epochs, publish, snapshots (see DESIGN.md) ------------
    /// The epoch WriteBatches created from now on tag their writes with
    /// (0 = publish-on-write, the default).
    [[nodiscard]] std::uint32_t active_epoch() const noexcept {
        return active_epoch_.load(std::memory_order_relaxed);
    }

    /// Allocate a fresh ingest epoch from the registry database's counter and
    /// make it the connection's active epoch: writes batched under it stay
    /// invisible to every reader until publish(). Returns the epoch.
    Result<std::uint32_t> begin_ingest();

    /// Commit `epoch` atomically across every database: ONE marker put on the
    /// epoch registry is the commit point (replicated like any write), then
    /// the marker is broadcast to all event/product/... databases so their
    /// latest-readers see it without consulting the registry. A crash between
    /// the two leaves the registry authoritative — connect() re-broadcasts
    /// markers on every connection, so the epoch is never half-published.
    Status publish(std::uint32_t epoch);

    /// Capture a consistent read position: the registry's published-epoch set
    /// FIRST, then every database's current sequence. Any epoch published
    /// before the capture is fully visible; everything later is invisible.
    Result<Snapshot> snapshot();

    /// A mutation landed on the logical database behind `handle`: bump the
    /// local cache's db epoch synchronously (same-client read-after-write is
    /// never stale) and tell the tier to drop `keys` (all its entries for the
    /// database when empty — used by erase paths that don't know the keys).
    void invalidate_products(const yokan::DatabaseHandle& handle,
                             const std::vector<std::string>& keys);
    /// Same, for a just-flushed write batch (keys extracted only when a tier
    /// invalidation actually needs them).
    void invalidate_products(const yokan::DatabaseHandle& handle,
                             const std::vector<yokan::BatchItem>& items);

  private:
    DataStoreImpl() = default;

    /// The epoch registry: the first datasets database — one deterministic
    /// choice every client derives identically from the connection document.
    [[nodiscard]] const yokan::DatabaseHandle& registry() const {
        return dbs_[static_cast<std::size_t>(Role::kDatasets)][0];
    }
    /// Published epochs recorded on the registry (sorted ascending).
    Result<std::vector<std::uint32_t>> published_epochs() const;
    /// Best-effort re-broadcast of every registry marker to every database —
    /// heals publishes interrupted between commit point and broadcast.
    void repair_markers();
    /// get_multi_views with a receive buffer sized from the running estimate
    /// below; updates the estimate from the reply.
    Result<std::vector<std::optional<hep::BufferView>>> get_multi_sized(
        const yokan::DatabaseHandle& db, const std::vector<std::string>& keys,
        std::uint64_t* seq_out = nullptr);

    std::unique_ptr<margo::Engine> engine_;
    /// Bytes per requested key of the last bulk product reply (0 = none yet).
    std::atomic<std::size_t> bulk_bytes_per_key_{0};
    std::atomic<std::uint32_t> active_epoch_{0};
    std::array<std::vector<yokan::DatabaseHandle>, kNumRoles> dbs_;
    std::array<std::vector<bool>, kNumRoles> active_;
    std::array<HashRing, kNumRoles> rings_;
    std::size_t replication_factor_ = 1;
    bool query_enabled_ = false;
    columnar::WriterOptions columnar_opts_;
    std::shared_ptr<columnar::WriterCounters> columnar_counters_;
    std::shared_ptr<replica::FailoverCounters> failover_counters_;
    std::shared_ptr<symbio::MetricsRegistry> metrics_;
    std::shared_ptr<qos::ClientQos> qos_;
    std::shared_ptr<cache::LeaseCache> cache_;
    std::unique_ptr<cache::TierClient> tier_;
};

}  // namespace hep::hepnos
