#include "yokan/provider.hpp"

#include <cctype>
#include <mutex>

namespace hep::yokan {

using namespace proto;

namespace {
/// Filesystem-safe member tag used to derive per-member lsm paths and the
/// replica sidecar file name from a Target ("tcp://h:1/3/db" -> "tcp_h_1_3_db").
/// Reject pins that run ahead of the database: a snapshot can only be taken
/// at a seq the db has actually reached (fuzzed/malformed pins answer with an
/// error, never crash or serve garbage).
Status validate_pin(Database* db, const proto::ReadPin& pin) {
    if (pin.pinned() && pin.seq > db->seq()) {
        return Status::InvalidArgument("read_seq " + std::to_string(pin.seq) +
                                       " is ahead of database seq " +
                                       std::to_string(db->seq()));
    }
    return Status::OK();
}

std::string path_tag(const replica::Target& t) {
    std::string tag = t.str();
    for (char& c : tag) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.')) c = '_';
    }
    return tag;
}
}  // namespace

Provider::Provider(margo::Engine& engine, rpc::ProviderId provider_id,
                   std::shared_ptr<abt::Pool> pool)
    : margo::Provider(engine, provider_id, std::move(pool)) {}

Result<std::unique_ptr<Provider>> Provider::create(margo::Engine& engine,
                                                   rpc::ProviderId provider_id,
                                                   const json::Value& config,
                                                   std::shared_ptr<abt::Pool> pool,
                                                   const std::string& base_dir) {
    auto provider =
        std::unique_ptr<Provider>(new Provider(engine, provider_id, std::move(pool)));
    provider->base_dir_ = base_dir;
    if (config.contains("lsm")) provider->lsm_defaults_ = config["lsm"];
    const json::Value& dbs = config["databases"];
    for (std::size_t i = 0; i < dbs.size(); ++i) {
        const json::Value db_cfg = provider->merged_db_config(dbs.at(i));
        std::string name = db_cfg["name"].as_string();
        if (name.empty()) name = "db" + std::to_string(i);
        auto db = create_database(db_cfg, base_dir, provider->compaction_pool_for(db_cfg));
        if (!db.ok()) return db.status();
        provider->databases_.emplace(std::move(name), std::move(db.value()));
    }
    provider->register_rpcs();
    return provider;
}

json::Value Provider::merged_db_config(const json::Value& db_cfg) const {
    if (db_cfg["type"].as_string() != "lsm" || !lsm_defaults_.is_object()) return db_cfg;
    // Database-level settings win over the provider-level "lsm" section.
    static constexpr const char* kKnobs[] = {
        "background_compaction", "group_commit",       "max_immutable_memtables",
        "l0_slowdown_trigger",   "l0_stop_trigger",    "wal_sync_every_put",
        "memtable_bytes",        "block_bytes",        "l0_compaction_trigger",
        "level_base_bytes",      "block_cache_bytes",  "target_file_bytes",
        "memtable",              "block_compression",  "compressed_cache_bytes",
        "arena_block_bytes",     "skiplist_max_height",
    };
    json::Value merged = db_cfg;
    for (const char* knob : kKnobs) {
        if (!merged.contains(knob) && lsm_defaults_.contains(knob)) {
            merged[std::string(knob)] = lsm_defaults_[knob];
        }
    }
    return merged;
}

std::shared_ptr<abt::Pool> Provider::compaction_pool_for(const json::Value& db_cfg) {
    if (db_cfg["type"].as_string() != "lsm") return nullptr;
    if (!db_cfg["background_compaction"].as_bool(true)) return nullptr;
    if (!compaction_pool_) {
        compaction_pool_ = abt::Pool::create("yokan-compaction-" + std::to_string(id_));
        const auto n = static_cast<std::size_t>(
            std::max<std::int64_t>(1, lsm_defaults_["compaction_xstreams"].as_int(1)));
        for (std::size_t i = 0; i < n; ++i) {
            compaction_xstreams_.push_back(abt::Xstream::create(
                {compaction_pool_}, "yokan-compaction-" + std::to_string(id_) + "-" +
                                        std::to_string(i)));
        }
    }
    return compaction_pool_;
}

Database* Provider::find_database(const std::string& name) {
    std::shared_lock lock(tables_mutex_);
    auto it = databases_.find(name);
    return it == databases_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Provider::database_names() const {
    std::shared_lock lock(tables_mutex_);
    std::vector<std::string> names;
    names.reserve(databases_.size());
    for (const auto& [name, db] : databases_) names.push_back(name);
    return names;
}

replica::ReplicaSet* Provider::find_replica_set(const std::string& name) {
    std::shared_lock lock(tables_mutex_);
    auto it = replica_sets_.find(name);
    return it == replica_sets_.end() ? nullptr : it->second.get();
}

json::Value Provider::replica_stats() const {
    std::vector<replica::ReplicaSet*> sets;
    {
        std::shared_lock lock(tables_mutex_);
        sets.reserve(replica_sets_.size());
        for (const auto& [name, set] : replica_sets_) sets.push_back(set.get());
    }
    json::Value out = json::Value::make_array();
    for (auto* set : sets) out.push_back(set->stats_json());
    return out;
}

std::uint64_t Provider::mutation_seq(const std::string& name) {
    // One seq authority per database: the backend's SeqSource. Replicated
    // databases advance the same counter (every replicated mutation lands via
    // put_stamped/erase on the backend), so the replica path needs no special
    // case any more.
    if (Database* db = find_database(name)) return db->seq();
    return 0;
}

Result<Database*> Provider::resolve(const std::string& name) {
    Database* db = find_database(name);
    if (!db) {
        return Status::NotFound("no database named '" + name + "' in provider " +
                                std::to_string(id_));
    }
    return db;
}

Result<replica::ReplicaSet*> Provider::resolve_replica(const std::string& name) {
    replica::ReplicaSet* set = find_replica_set(name);
    if (!set) {
        return Status::NotFound("database '" + name + "' is not replicated in provider " +
                                std::to_string(id_));
    }
    return set;
}

Status Provider::configure_replica(const replica::ConfigureReq& req) {
    std::unique_lock lock(tables_mutex_);
    auto db_it = databases_.find(req.db);
    if (db_it == databases_.end()) {
        if (req.create_type.empty()) {
            return Status::NotFound("database '" + req.db + "' does not exist and no " +
                                    "create_type was given");
        }
        json::Value cfg = json::Value::make_object();
        cfg["name"] = json::Value(req.db);
        cfg["type"] = json::Value(req.create_type);
        if (req.create_type != "map") {
            std::string path = req.create_path.empty() ? "replicas" : req.create_path;
            cfg["path"] = json::Value(path + "/" + path_tag(req.self));
        }
        const json::Value merged = merged_db_config(cfg);
        auto db = create_database(merged, base_dir_, compaction_pool_for(merged));
        if (!db.ok()) return db.status();
        db_it = databases_.emplace(req.db, std::move(db.value())).first;
    }
    auto set_it = replica_sets_.find(req.db);
    if (set_it != replica_sets_.end()) {
        // Re-wiring with the same membership is an idempotent no-op (e.g. a
        // second client connecting runs the same bootstrap).
        if (set_it->second->self() == req.self && set_it->second->peers() == req.peers) {
            return Status::OK();
        }
        replica_sets_.erase(set_it);
    }
    Database* db = db_it->second.get();
    std::string meta_path;
    if (db->type() == "lsm") {
        meta_path = base_dir_ + "/" + path_tag(req.self) + ".replica.json";
    }
    replica_sets_.emplace(
        req.db, std::make_unique<replica::ReplicaSet>(engine_, req.self, req.peers, db,
                                                      req.log_capacity, std::move(meta_path)));
    return Status::OK();
}

void Provider::register_rpcs() {
    auto& eng = engine_;
    const auto pid = id_;

    // Single put: the request's Buffer value arrives as a view anchored to
    // the receive frame and is parked in the backend by reference.
    eng.define<PutViewReq, Ack>(
        "yokan_put_owned", pid,
        [this](const PutViewReq& req) -> Result<Ack> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status st;
            if (auto* rs = find_replica_set(req.db)) {
                st = rs->put(req.key, req.value, req.overwrite, req.epoch);  // shares the buffer
            } else {
                st = (*db)->put_stamped(req.key, req.value.view(), req.overwrite, req.epoch);
            }
            if (!st.ok()) return st;
            return Ack{};
        },
        pool_);

    eng.define<KeyReq, GetResp>(
        "yokan_get", pid,
        [this](const KeyReq& req) -> Result<GetResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            // Unpinned requests still go through the _at path: an unpinned
            // ReadView filters by the db-local published set, so unpublished
            // epochs are invisible from every read RPC.
            auto v = (*db)->get_view_at(req.key, req.pin.view());
            if (!v.ok()) return v.status();
            // The stored view rides the response by reference; the response
            // chain keeps its storage alive until the frame is sent.
            return GetResp{std::move(v.value())};
        },
        pool_);

    eng.define<KeyReq, ExistsResp>(
        "yokan_exists", pid,
        [this](const KeyReq& req) -> Result<ExistsResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            auto v = (*db)->exists_at(req.key, req.pin.view());
            if (!v.ok()) return v.status();
            return ExistsResp{*v};
        },
        pool_);

    eng.define<KeyReq, LengthResp>(
        "yokan_length", pid,
        [this](const KeyReq& req) -> Result<LengthResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            auto v = (*db)->length_at(req.key, req.pin.view());
            if (!v.ok()) return v.status();
            return LengthResp{*v};
        },
        pool_);

    eng.define<KeyReq, Ack>(
        "yokan_erase", pid,
        [this](const KeyReq& req) -> Result<Ack> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status st;
            if (auto* rs = find_replica_set(req.db)) st = rs->erase(req.key);
            else st = (*db)->erase(req.key);
            if (!st.ok()) return st;
            return Ack{};
        },
        pool_);

    eng.define<ListReq, ListKeysResp>(
        "yokan_list_keys", pid,
        [this](const ListReq& req) -> Result<ListKeysResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            auto keys = (*db)->list_keys_at(req.after, req.prefix, req.max, req.pin.view());
            if (!keys.ok()) return keys.status();
            return ListKeysResp{std::move(keys.value())};
        },
        pool_);

    eng.define<ListReq, ListKeyValsResp>(
        "yokan_list_keyvals", pid,
        [this](const ListReq& req) -> Result<ListKeyValsResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            auto items = (*db)->list_keyvals_at(req.after, req.prefix, req.max, req.pin.view());
            if (!items.ok()) return items.status();
            return ListKeyValsResp{std::move(items.value())};
        },
        pool_);

    eng.define<ListReq, ScanResp>(
        "yokan_scan", pid,
        [this](const ListReq& req) -> Result<ScanResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            ScanResp resp;
            auto chunk = (*db)->scan_chunk_at(
                req.after, req.prefix, req.max, req.with_values, req.pin.view(),
                [&](std::string_view key, std::string_view value) {
                    resp.items.push_back(KeyValue{std::string(key), std::string(value)});
                    return true;
                });
            if (!chunk.ok()) return chunk.status();
            resp.last_key = std::move(chunk->last_key);
            resp.exhausted = chunk->exhausted;
            return resp;
        },
        pool_);

    eng.define<CountReq, SeqResp>(
        "yokan_seq", pid,
        [this](const CountReq& req) -> Result<SeqResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            return SeqResp{mutation_seq(req.db)};
        },
        pool_);

    // Versioned get for cache fills: the seq is sampled BEFORE the read (see
    // proto::GetSeqResp), so a racing mutation can only make a filled entry
    // revalidate too eagerly, never serve past the mutation.
    eng.define<KeyReq, GetSeqResp>(
        "yokan_get_vs", pid,
        [this](const KeyReq& req) -> Result<GetSeqResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            const std::uint64_t seq = mutation_seq(req.db);
            auto v = (*db)->get_stamped(req.key);
            if (!v.ok()) return v.status();
            if (!(*db)->visible(v->second, req.pin.view())) {
                return Status::NotFound("key not visible at this snapshot");
            }
            // `seq` is the pre-read lease sample; vseq/vepoch are the value's
            // exact stamp so pinned caches can compare against their pin.
            return GetSeqResp{std::move(v->first), seq, v->second.seq, v->second.epoch};
        },
        pool_);

    eng.define<CountReq, CountResp>(
        "yokan_count", pid,
        [this](const CountReq& req) -> Result<CountResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            return CountResp{(*db)->size()};
        },
        pool_);

    eng.define<EraseMultiReq, EraseMultiResp>(
        "yokan_erase_multi", pid,
        [this](const EraseMultiReq& req) -> Result<EraseMultiResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            EraseMultiResp resp;
            if (auto* rs = find_replica_set(req.db)) {
                auto erased = rs->erase_multi(req.keys);
                if (!erased.ok()) return erased.status();
                resp.erased = *erased;
                return resp;
            }
            for (const auto& key : req.keys) {
                if ((*db)->erase(key).ok()) ++resp.erased;
            }
            return resp;
        },
        pool_);

    // Batched put: the packed entries ride the request payload as a
    // scatter-gather chain anchored to the receive frame; each value slice is
    // parked in the backend by reference. Replicated databases forward the
    // batch as ONE record.
    eng.define<PutPackedReq, PutMultiResp>(
        "yokan_put_packed", pid,
        [this](const PutPackedReq& req) -> Result<PutMultiResp> {
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            PutMultiResp resp;
            if (auto* rs = find_replica_set(req.db)) {
                // The replication log needs one contiguous record; adopt the
                // flattened bytes so log + peer ships share them from here on.
                auto counts = rs->put_packed(hep::Buffer::adopt(req.entries.flatten()),
                                             req.overwrite, req.epoch);
                if (!counts.ok()) return counts.status();
                resp.stored = counts->first;
                resp.already_existed = counts->second;
                return resp;
            }
            bool well_formed =
                unpack_entries_chain(req.entries, [&](std::string_view k, hep::BufferView v) {
                    Status put_st = (*db)->put_stamped(k, v, req.overwrite, req.epoch);
                    if (put_st.ok()) ++resp.stored;
                    else if (put_st.code() == StatusCode::kAlreadyExists) ++resp.already_existed;
                });
            if (!well_formed) return Status::InvalidArgument("malformed packed batch");
            return resp;
        },
        pool_);

    // Batched get: push the values into the client's region with one bulk
    // write; sizes travel inline.
    eng.define_with_context(
        "yokan_get_multi", pid,
        [this](const std::string& payload, rpc::RequestContext& ctx) -> Result<std::string> {
            GetMultiReq req;
            try {
                serial::from_string(payload, req);
            } catch (const serial::SerializationError& e) {
                return Status::InvalidArgument(e.what());
            }
            auto db = resolve(req.db);
            if (!db.ok()) return db.status();
            Status pin_ok = validate_pin(*db, req.pin);
            if (!pin_ok.ok()) return pin_ok;
            GetMultiResp resp;
            resp.seq = mutation_seq(req.db);
            resp.sizes.reserve(req.keys.size());
            const ReadView view = req.pin.view();
            // Gather the stored values as views — no server-side packing copy;
            // the fabric writes them into the client's region as one gathered
            // transfer.
            hep::BufferChain values;
            for (const auto& key : req.keys) {
                auto v = (*db)->get_view_at(key, view);
                if (!v.ok()) {
                    resp.sizes.push_back(kMissing);
                    continue;
                }
                resp.sizes.push_back(static_cast<std::uint32_t>(v->size()));
                values.append(std::move(v.value()));
            }
            resp.needed = values.size();
            if (values.size() <= req.dest.size) {
                if (!values.empty()) {
                    Status st = ctx.bulk_put_chain(values, req.dest, 0);
                    if (!st.ok()) return st;
                }
                resp.written = true;
            }
            return serial::to_string(resp);
        },
        pool_);

    // ---- replication protocol ---------------------------------------------

    eng.define<replica::ConfigureReq, replica::Ack>(
        "replica_configure", pid,
        [this](const replica::ConfigureReq& req) -> Result<replica::Ack> {
            Status st = configure_replica(req);
            if (!st.ok()) return st;
            return replica::Ack{};
        },
        pool_);

    eng.define<replica::ApplyReq, replica::ApplyResp>(
        "replica_apply", pid,
        [this](const replica::ApplyReq& req) -> Result<replica::ApplyResp> {
            auto set = resolve_replica(req.db);
            if (!set.ok()) return set.status();
            return (*set)->handle_apply(req);
        },
        pool_);

    eng.define<replica::SnapshotReq, replica::Ack>(
        "replica_snapshot", pid,
        [this](const replica::SnapshotReq& req) -> Result<replica::Ack> {
            auto set = resolve_replica(req.db);
            if (!set.ok()) return set.status();
            Status st = (*set)->handle_snapshot(req);
            if (!st.ok()) return st;
            return replica::Ack{};
        },
        pool_);

    eng.define<replica::ProbeReq, replica::Ack>(
        "replica_probe", pid,
        [this](const replica::ProbeReq& req) -> Result<replica::Ack> {
            auto set = resolve_replica(req.db);
            if (!set.ok()) return set.status();
            (*set)->probe_peers();
            return replica::Ack{};
        },
        pool_);
}

}  // namespace hep::yokan
