#include "hepnos/datastore_impl.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>

#include "replica/bootstrap.hpp"
#include "symbio/buffers.hpp"
#include "yokan/backend.hpp"

namespace hep::hepnos {

std::string_view to_string(Role role) noexcept {
    switch (role) {
        case Role::kDatasets: return "datasets";
        case Role::kRuns: return "runs";
        case Role::kSubRuns: return "subruns";
        case Role::kEvents: return "events";
        case Role::kProducts: return "products";
    }
    return "?";
}

Result<Role> parse_role(std::string_view name) noexcept {
    if (name == "datasets") return Role::kDatasets;
    if (name == "runs") return Role::kRuns;
    if (name == "subruns") return Role::kSubRuns;
    if (name == "events") return Role::kEvents;
    if (name == "products") return Role::kProducts;
    return Status::InvalidArgument("unknown database role: " + std::string(name));
}

Result<std::shared_ptr<DataStoreImpl>> DataStoreImpl::connect(rpc::Fabric& network,
                                                              const json::Value& config,
                                                              const std::string& client_address) {
    auto impl = std::shared_ptr<DataStoreImpl>(new DataStoreImpl());
    try {
        impl->engine_ =
            std::make_unique<margo::Engine>(network, client_address, margo::EngineConfig{1});
    } catch (const std::exception& e) {
        return Status::AlreadyExists(e.what());
    }

    const json::Value& dbs = config["databases"];
    if (!dbs.is_array() || dbs.size() == 0) {
        return Status::InvalidArgument("connection config has no \"databases\"");
    }
    struct ParsedDb {
        std::size_t role;
        std::size_t index_in_role;
        std::string address;
        rpc::ProviderId provider;
        std::string name;
        std::string type;
    };
    std::vector<ParsedDb> parsed;
    for (std::size_t i = 0; i < dbs.size(); ++i) {
        const json::Value& entry = dbs.at(i);
        auto role = parse_role(entry["role"].as_string());
        if (!role.ok()) return role.status();
        const std::string address = entry["address"].as_string();
        const auto provider = static_cast<rpc::ProviderId>(entry["provider_id"].as_int());
        const std::string name = entry["name"].as_string();
        if (address.empty() || name.empty()) {
            return Status::InvalidArgument("database entry needs address and name");
        }
        std::string type = entry["type"].as_string();
        if (type.empty()) type = "map";
        const auto idx = static_cast<std::size_t>(*role);
        impl->dbs_[idx].emplace_back(*impl->engine_, address, provider, name);
        impl->active_[idx].push_back(true);
        parsed.push_back(
            ParsedDb{idx, impl->dbs_[idx].size() - 1, address, provider, name, type});
    }

    for (std::size_t r = 0; r < kNumRoles; ++r) {
        if (impl->dbs_[r].empty()) {
            return Status::InvalidArgument(std::string("no databases with role \"") +
                                           std::string(to_string(static_cast<Role>(r))) + '"');
        }
        impl->rings_[r] = HashRing(impl->dbs_[r].size());
    }

    impl->metrics_ = std::make_shared<symbio::MetricsRegistry>();
    symbio::add_buffer_source(*impl->metrics_);
    impl->failover_counters_ = std::make_shared<replica::FailoverCounters>();
    impl->query_enabled_ = config["query"].as_bool(false);

    // Columnar layout: the merged descriptor carries the service's "columnar"
    // section only when every process enabled the knob, so write batches of
    // this connection shred with exactly the deployment's chunk/compression
    // settings (and not at all against a service that cannot serve chunks).
    impl->columnar_opts_ = columnar::WriterOptions::from_json(config["columnar"]);
    impl->columnar_counters_ = std::make_shared<columnar::WriterCounters>();
    if (impl->columnar_opts_.enabled) {
        auto cc = impl->columnar_counters_;
        impl->metrics_->add_source("columnar/client", [cc]() { return cc->snapshot(); });
    }

    // Client QoS: one shared policy + circuit breaker for the connection.
    // Always on — an untagged-by-policy server simply ignores the stamp, and
    // the connection document's "qos" section overrides tenant/classes.
    impl->qos_ = std::make_shared<qos::ClientQos>(qos::QosPolicy::from_json(config["qos"]));
    for (auto& role_dbs : impl->dbs_) {
        for (auto& handle : role_dbs) handle.set_qos(impl->qos_);
    }
    // Requests issued outside DatabaseHandle (raw endpoint calls) still carry
    // the tenant: stamp the engine-wide default with the interactive tag.
    impl->engine_->endpoint().set_default_qos(impl->qos_->point_tag());
    {
        auto q = impl->qos_;
        impl->metrics_->add_source("qos/client", [q]() { return q->stats_json(); });
    }

    // Hot-product read cache: a bounded client-side LRU consulted by every
    // product read, plus (optionally) the dedicated cache-provider tier the
    // service advertises in its connection document. Created BEFORE the
    // replication wiring below so failover promotions can be hooked into the
    // cache's target epochs.
    const json::Value& cache_cfg = config["cache"];
    const cache::CacheOptions cache_opts = cache::CacheOptions::from_json(cache_cfg);
    if (cache_opts.enabled) {
        impl->cache_ = std::make_shared<cache::LeaseCache>(cache_opts);
        auto c = impl->cache_;
        impl->metrics_->add_source("cache/client", [c]() { return c->stats_json(); });
        const bool tier_on = !cache_cfg.is_object() || cache_cfg["tier"].as_bool(true);
        auto tier_nodes = cache::parse_tier_nodes(config);
        if (tier_on && !tier_nodes.empty()) {
            impl->tier_ =
                std::make_unique<cache::TierClient>(*impl->engine_, std::move(tier_nodes));
        }
    }

    const json::Value& rep = config["replication"];
    auto factor = static_cast<std::size_t>(rep["factor"].as_int(1));
    if (factor < 1) factor = 1;
    impl->replication_factor_ = factor;
    if (factor > 1) {
        const replica::RetryPolicy policy = replica::RetryPolicy::from_json(rep);
        // Placement nodes: every distinct (server, provider) pair, in
        // document order so all clients derive the same groups.
        std::vector<replica::Node> nodes;
        for (const auto& e : parsed) {
            replica::Node node{e.address, e.provider};
            if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
                nodes.push_back(node);
            }
        }
        for (std::size_t ord = 0; ord < parsed.size(); ++ord) {
            const auto& e = parsed[ord];
            const auto primary_idx = static_cast<std::size_t>(
                std::find(nodes.begin(), nodes.end(), replica::Node{e.address, e.provider}) -
                nodes.begin());
            auto group = replica::assign_group(nodes, primary_idx, ord, factor, e.name);
            if (group.size() < 2) continue;  // single-node service: nothing to wire
            // Idempotent: servers already wired with the same group no-op, so
            // any number of clients can connect in any order.
            auto wired = replica::wire_replication(*impl->engine_, group, e.type, "");
            if (!wired.ok()) return wired;
            auto state = std::make_shared<replica::FailoverState>(group, policy,
                                                                  impl->failover_counters_);
            if (impl->cache_) {
                // A promoted replica may have missed mutations the demoted
                // primary acknowledged to OTHER clients: drop everything the
                // demoted target ever served us.
                auto c = impl->cache_;
                state->on_promote(
                    [c](const replica::Target& demoted) { c->bump_target(demoted.str()); });
            }
            impl->dbs_[e.role][e.index_in_role].set_failover(std::move(state));
        }
        auto counters = impl->failover_counters_;
        impl->metrics_->add_source("replica/client", [counters]() {
            json::Value out = json::Value::make_object();
            out["retries"] = counters->retries.load();
            out["failovers"] = counters->failovers.load();
            return out;
        });
    }
    // Publishes interrupted between the registry commit point and the marker
    // broadcast leave some databases without the marker; every connection
    // repairs that idempotently (a re-put of an existing marker is a no-op).
    impl->repair_markers();
    return impl;
}

DataStoreImpl::~DataStoreImpl() {
    if (engine_) engine_->finalize();
}

namespace {

std::string cache_db_id(const yokan::DatabaseHandle& db) {
    return cache::db_epoch_key(db.server(), db.provider(), db.name());
}

/// The target a fill is attributed to: the replica group's current primary
/// when failover is wired (promotions then kill the entry), the handle's own
/// identity otherwise. Reads rotated to a backup by read_from_replicas are
/// attributed to the primary too — over-invalidation on its demotion, never
/// under-invalidation.
std::string cache_fill_target(const yokan::DatabaseHandle& db) {
    if (const auto& fo = db.failover()) return fo->target(fo->primary()).str();
    return cache_db_id(db);
}

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

Result<hep::BufferView> DataStoreImpl::read_product(std::string_view container_key,
                                                    const std::string& key,
                                                    const yokan::proto::ReadPin* pin) {
    const yokan::DatabaseHandle& db = locate(Role::kProducts, container_key);
    if (pin != nullptr && pin->pinned()) {
        // Pinned reads bypass the cache: it holds latest values, and a
        // snapshot must not observe them. The owner filters by the pin.
        return db.with_snapshot(*pin).get_view(key);
    }
    if (!cache_ || cache_->bypass()) return db.get_view(key);

    const auto start = std::chrono::steady_clock::now();
    auto found = cache_->lookup(key);
    if (found.state == cache::LeaseCache::LookupState::kHit) {
        cache_->hit_latency().observe(ms_since(start));
        return std::move(found.value);
    }
    if (found.state == cache::LeaseCache::LookupState::kExpired) {
        // The lease ran out but the value may well still be current: confirm
        // the owner's mutation seq and renew instead of refetching the bytes.
        // The ticket is captured BEFORE the probe — if a failover promotion
        // (or any local invalidation) lands between probe and renew, the
        // epochs moved and the renew is refused instead of resurrecting a
        // lease against the demoted primary's stale seq.
        const auto renew_ticket = cache_->ticket(cache_db_id(db), cache_fill_target(db));
        auto seq = db.mutation_seq();
        if (seq.ok() && *seq == found.seq && cache_->renew(key, *seq, renew_ticket)) {
            cache_->hit_latency().observe(ms_since(start));
            return std::move(found.value);
        }
    }

    // Miss: epochs are captured BEFORE the read goes out, so a mutation that
    // lands while the fill is in flight makes the entry born-stale.
    const std::string db_id = cache_db_id(db);
    if (tier_) {
        auto ticket = cache_->ticket(db_id, cache_fill_target(db));
        auto r = tier_->get(db.server(), db.provider(), db.name(), key,
                            qos_ ? qos_->point_tag() : qos::QosTag{});
        if (r.ok()) {
            cache_->fill(key, r->value, r->seq, ticket);
            cache_->miss_latency().observe(ms_since(start));
            return std::move(r->value);
        }
        if (r.status().code() == StatusCode::kNotFound) return r.status();
        // Tier unreachable: not fatal to a read, fall through to the owner.
    }
    auto ticket = cache_->ticket(db_id, cache_fill_target(db));
    auto r = db.get_view_vs(key);
    if (!r.ok()) return r.status();
    cache_->fill(key, r->value, r->seq, ticket);
    cache_->miss_latency().observe(ms_since(start));
    return std::move(r->value);
}

Result<std::vector<std::optional<hep::BufferView>>> DataStoreImpl::load_products_bulk(
    std::size_t db_index, const std::vector<std::string>& keys,
    const yokan::proto::ReadPin* pin) {
    // Prefetch traffic self-classifies as batch so it never starves
    // interactive readers (paper §II-D).
    const auto db =
        dbs_[static_cast<std::size_t>(Role::kProducts)][db_index].with_class(qos::kClassBatch);
    if (pin != nullptr && pin->pinned()) {
        // Snapshot-pinned bulk loads never touch the (latest-value) cache.
        return get_multi_sized(db.with_snapshot(*pin), keys);
    }
    if (!cache_ || cache_->bypass() || keys.empty()) return get_multi_sized(db, keys);

    std::vector<std::optional<hep::BufferView>> out(keys.size());
    std::vector<std::string> missing;
    std::vector<std::size_t> slots;
    std::vector<std::string> expired;
    std::vector<std::uint64_t> expired_seqs;
    std::vector<std::size_t> expired_slots;
    auto found = cache_->lookup_many(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        switch (found[i].state) {
            case cache::LeaseCache::LookupState::kHit:
                out[i] = std::move(found[i].value);
                break;
            case cache::LeaseCache::LookupState::kExpired:
                expired.push_back(keys[i]);
                expired_seqs.push_back(found[i].seq);
                expired_slots.push_back(i);
                break;
            case cache::LeaseCache::LookupState::kMiss:
                missing.push_back(keys[i]);
                slots.push_back(i);
                break;
        }
    }
    if (missing.empty() && expired.empty()) return out;

    // One ticket, captured before any read of this page goes out, brackets
    // both the seq probe and the get_multi (see read_product).
    const auto ticket = cache_->ticket(cache_db_id(db), cache_fill_target(db));
    if (!expired.empty()) {
        // Lapsed leases revalidate with one seq probe for the whole page;
        // only entries whose seq moved (or whose renewal is refused) are
        // refetched with the misses. The seqs this lookup saw go along, so
        // an entry another reader refetched in place since is not renewed
        // under the value held here.
        auto probed = db.mutation_seq();
        const auto renewed = probed.ok()
                                 ? cache_->renew_many(expired, expired_seqs, *probed, ticket)
                                 : std::vector<bool>(expired.size(), false);
        for (std::size_t j = 0; j < expired.size(); ++j) {
            const std::size_t i = expired_slots[j];
            if (renewed[j]) {
                out[i] = std::move(found[i].value);
            } else {
                missing.push_back(std::move(expired[j]));
                slots.push_back(i);
            }
        }
        if (missing.empty()) return out;
    }

    // The seq rides the get_multi response (sampled server-side before the
    // reads), so versioned bulk fills cost no extra RPC.
    std::uint64_t seq = 0;
    auto fetched = get_multi_sized(db, missing, &seq);
    if (!fetched.ok()) return fetched.status();
    cache_->fill_many(std::move(missing), *fetched, seq, ticket);
    for (std::size_t j = 0; j < slots.size(); ++j) out[slots[j]] = std::move((*fetched)[j]);
    return out;
}

Result<std::vector<std::optional<hep::BufferView>>> DataStoreImpl::get_multi_sized(
    const yokan::DatabaseHandle& db, const std::vector<std::string>& keys,
    std::uint64_t* seq_out) {
    // The last reply's bytes per key plus 1/8 headroom: the receive slab
    // holds about what is fetched, so cached views pin little else, and the
    // retry at the exact size in get_multi_views catches a page that runs
    // larger. A page of a few keys (the misses left among hits) varies
    // most per key, so the headroom is at least a few keys' worth, and such
    // a page does not move the estimate.
    constexpr std::size_t kMinHeadroomKeys = 4;
    constexpr std::size_t kMinEstimateKeys = 64;
    const std::size_t n = keys.size();
    const std::size_t per_key = bulk_bytes_per_key_.load(std::memory_order_relaxed);
    auto r = db.get_multi_views(keys, per_key * (n + std::max(n / 8, kMinHeadroomKeys)),
                                seq_out);
    if (r.ok() && n > 0 && (n >= kMinEstimateKeys || per_key == 0)) {
        std::size_t bytes = 0;
        for (const auto& v : *r) bytes += v ? v->size() : 0;
        bulk_bytes_per_key_.store((bytes + n - 1) / n, std::memory_order_relaxed);
    }
    return r;
}

void DataStoreImpl::invalidate_products(const yokan::DatabaseHandle& handle,
                                        const std::vector<std::string>& keys) {
    if (cache_) cache_->bump_db(cache_db_id(handle));
    if (tier_) tier_->invalidate(handle.server(), handle.provider(), handle.name(), keys);
}

void DataStoreImpl::invalidate_products(const yokan::DatabaseHandle& handle,
                                        const std::vector<yokan::BatchItem>& items) {
    if (cache_) cache_->bump_db(cache_db_id(handle));
    if (!tier_) return;
    std::vector<std::string> keys;
    keys.reserve(items.size());
    for (const auto& item : items) keys.push_back(item.key);
    tier_->invalidate(handle.server(), handle.provider(), handle.name(), keys);
}

// ---- MVCC: ingest epochs, publish, snapshots --------------------------------

Result<std::vector<std::uint32_t>> DataStoreImpl::published_epochs() const {
    constexpr std::size_t kPage = 256;
    std::vector<std::uint32_t> epochs;
    std::string after;
    while (true) {
        // The marker prefix starts with the internal-key byte, so the scan
        // explicitly reaches into the internal range and sees the markers.
        auto page = registry().list_keys(after, yokan::kPublishMarkerPrefix, kPage);
        if (!page.ok()) return page.status();
        if (page->empty()) break;
        for (const auto& key : *page) {
            if (std::uint32_t e = yokan::parse_publish_marker(key); e != 0) {
                epochs.push_back(e);
            }
        }
        after = page->back();
        if (page->size() < kPage) break;
    }
    std::sort(epochs.begin(), epochs.end());
    return epochs;
}

Result<std::uint32_t> DataStoreImpl::begin_ingest() {
    // Epoch allocation is a read-modify-write on the registry counter. Two
    // clients racing here could draw the same epoch — ingest sessions are
    // expected to be coordinated (one loader per run), like HEPnOS's own
    // DataLoader; the markers themselves stay correct either way.
    const auto& reg = registry();
    std::uint32_t next = 1;
    auto cur = reg.get(std::string(yokan::kEpochCounterKey));
    if (cur.ok()) {
        next = static_cast<std::uint32_t>(std::strtoul(cur->c_str(), nullptr, 10)) + 1;
    } else if (cur.status().code() != StatusCode::kNotFound) {
        return cur.status();
    }
    if (Status st = reg.put(std::string(yokan::kEpochCounterKey), std::to_string(next));
        !st.ok()) {
        return st;
    }
    active_epoch_.store(next, std::memory_order_relaxed);
    return next;
}

Status DataStoreImpl::publish(std::uint32_t epoch) {
    if (epoch == 0) return Status::InvalidArgument("epoch 0 is always published");
    const std::string marker = yokan::publish_marker_key(epoch);
    // Commit point: ONE marker put on the registry (replicated and WAL-logged
    // like any write). Once it lands the epoch IS published — snapshots take
    // their filter from the registry, so how far the broadcast below gets
    // never splits visibility.
    if (Status st = registry().put(marker, ""); !st.ok()) return st;
    std::uint32_t expected = epoch;
    active_epoch_.compare_exchange_strong(expected, 0, std::memory_order_relaxed);
    // Broadcast so unpinned ("latest") readers of every database see the
    // epoch without a registry hop. Failures here are healed by the next
    // connect()'s repair_markers(); publish() is idempotent, retry freely.
    Status first;
    for (auto& role_dbs : dbs_) {
        for (auto& db : role_dbs) {
            Status st = db.put(marker, "");
            if (!st.ok() && first.ok()) first = st;
        }
    }
    return first;
}

Result<Snapshot> DataStoreImpl::snapshot() {
    // Order matters: the published set is captured BEFORE any seq probe. An
    // epoch published after the capture is excluded by the filter no matter
    // what the probes see; one published before it had all its writes landed
    // (publish follows the batch flush), so the later probes cover them.
    auto epochs = published_epochs();
    if (!epochs.ok()) return epochs.status();
    Snapshot snap;
    for (std::size_t r = 0; r < kNumRoles; ++r) {
        snap.pins[r].reserve(dbs_[r].size());
        for (auto& db : dbs_[r]) {
            auto seq = db.mutation_seq();
            if (!seq.ok()) return seq.status();
            yokan::proto::ReadPin pin;
            // SeqSource floors at 1 so even a never-written database probes
            // to a valid pin (seq 0 would mean "latest"); the max() only
            // guards against a pre-floor server.
            pin.seq = std::max<std::uint64_t>(*seq, 1);
            pin.extras = *epochs;
            snap.pins[r].push_back(std::move(pin));
        }
    }
    return snap;
}

void DataStoreImpl::repair_markers() {
    auto epochs = published_epochs();
    if (!epochs.ok() || epochs->empty()) return;
    for (std::uint32_t e : *epochs) {
        const std::string marker = yokan::publish_marker_key(e);
        for (auto& role_dbs : dbs_) {
            for (auto& db : role_dbs) (void)db.put(marker, "");
        }
    }
}

}  // namespace hep::hepnos
