#include "yokan/backend.hpp"

#include "common/endian.hpp"
#include "yokan/lsm/lsm_db.hpp"
#include "yokan/map_backend.hpp"

namespace hep::yokan {

std::string publish_marker_key(std::uint32_t epoch) {
    std::string key(kPublishMarkerPrefix);
    append_be32(key, epoch);
    return key;
}

std::uint32_t parse_publish_marker(std::string_view key) {
    if (key.size() != kPublishMarkerPrefix.size() + 4) return 0;
    if (key.substr(0, kPublishMarkerPrefix.size()) != kPublishMarkerPrefix) return 0;
    return decode_be32(key.data() + kPublishMarkerPrefix.size());
}

Result<std::string> Database::get(std::string_view key) {
    auto r = get_stamped(key);
    if (!r.ok()) return r.status();
    hep::count_buffer_copy(r->first.size());
    return std::string(r->first.sv());
}

Result<hep::BufferView> Database::get_view(std::string_view key) {
    auto r = get_stamped(key);
    if (!r.ok()) return r.status();
    return std::move(r->first);
}

Result<bool> Database::exists(std::string_view key) {
    auto r = get_stamped(key);
    if (r.ok()) return true;
    if (r.status().code() == StatusCode::kNotFound) return false;
    return r.status();
}

Result<std::uint64_t> Database::length(std::string_view key) {
    auto r = get_stamped(key);
    if (!r.ok()) return r.status();
    return static_cast<std::uint64_t>(r->first.size());
}

ReadView Database::snapshot_at(std::uint64_t seq) const {
    ReadView view;
    view.seq = seq == 0 ? seq_.current() : seq;
    // A snapshot at seq 0 of an empty database would be unpinned; pin at 1 so
    // it stays empty forever, as a snapshot must.
    if (view.seq == 0) view.seq = 1;
    view.epochs = published();
    return view;
}

void Database::observe_marker(std::uint32_t epoch) {
    if (epoch == 0) return;
    std::lock_guard<std::mutex> lock(pub_mu_);
    if (epoch <= pub_floor_) return;
    auto it = std::lower_bound(pub_extra_.begin(), pub_extra_.end(), epoch);
    if (it != pub_extra_.end() && *it == epoch) return;
    pub_extra_.insert(it, epoch);
    while (!pub_extra_.empty() && pub_extra_.front() == pub_floor_ + 1) {
        ++pub_floor_;
        pub_extra_.erase(pub_extra_.begin());
    }
}

bool Database::epoch_visible(std::uint32_t epoch) const {
    if (epoch == 0) return true;
    std::lock_guard<std::mutex> lock(pub_mu_);
    if (epoch <= pub_floor_) return true;
    return std::binary_search(pub_extra_.begin(), pub_extra_.end(), epoch);
}

EpochFilter Database::published() const {
    std::lock_guard<std::mutex> lock(pub_mu_);
    return EpochFilter{pub_floor_, pub_extra_};
}

bool Database::visible(const Stamp& stamp, const ReadView& view) const {
    if (view.pinned()) {
        if (stamp.seq > view.seq) return false;
        return stamp.epoch == 0 || view.epochs.visible(stamp.epoch);
    }
    return stamp.epoch == 0 || epoch_visible(stamp.epoch);
}

Result<hep::BufferView> Database::get_view_at(std::string_view key, const ReadView& view) {
    auto r = get_stamped(key);
    if (!r.ok()) return r.status();
    if (!visible(r->second, view)) return Status::NotFound("key not visible at this snapshot");
    return std::move(r->first);
}

Result<std::string> Database::get_at(std::string_view key, const ReadView& view) {
    auto r = get_view_at(key, view);
    if (!r.ok()) return r.status();
    return std::string(r->sv());
}

Result<bool> Database::exists_at(std::string_view key, const ReadView& view) {
    auto r = get_stamped(key);
    if (!r.ok()) {
        if (r.status().code() == StatusCode::kNotFound) return false;
        return r.status();
    }
    return visible(r->second, view);
}

Result<std::uint64_t> Database::length_at(std::string_view key, const ReadView& view) {
    auto r = get_view_at(key, view);
    if (!r.ok()) return r.status();
    return static_cast<std::uint64_t>(r->size());
}

Status Database::scan_at(std::string_view after, std::string_view prefix, bool with_values,
                         const ReadView& view, const ScanFn& fn) {
    // Internal (marker/counter) keys are hidden unless the caller's prefix
    // explicitly reaches into the internal range.
    const bool hide_internal = prefix.empty() || prefix.front() != kInternalKeyPrefix;
    return scan_stamped(after, prefix, with_values,
                        [&](std::string_view key, std::string_view value, const Stamp& stamp) {
                            if (hide_internal && !key.empty() &&
                                key.front() == kInternalKeyPrefix) {
                                return true;
                            }
                            if (!visible(stamp, view)) return true;
                            return fn(key, value);
                        });
}

Result<Database::ScanChunk> Database::scan_chunk_at(std::string_view after,
                                                    std::string_view prefix,
                                                    std::uint64_t max_keys, bool with_values,
                                                    const ReadView& view, const ScanFn& fn) {
    // Invisible keys still count against max_keys and advance last_key —
    // resume must make progress even across a large unpublished range.
    ScanChunk out;
    bool limited = false;
    bool callee_stopped = false;
    const bool hide_internal = prefix.empty() || prefix.front() != kInternalKeyPrefix;
    Status st = scan_stamped(
        after, prefix, with_values,
        [&](std::string_view key, std::string_view value, const Stamp& stamp) {
            if (out.examined >= max_keys) {
                limited = true;
                return false;  // not examined; resume revisits it
            }
            ++out.examined;
            out.last_key.assign(key);
            if (hide_internal && !key.empty() && key.front() == kInternalKeyPrefix) return true;
            if (!visible(stamp, view)) return true;
            if (!fn(key, value)) {
                callee_stopped = true;
                return false;
            }
            return true;
        });
    if (!st.ok()) return st;
    out.exhausted = !limited && !callee_stopped;
    return out;
}

Result<std::vector<std::string>> Database::list_keys_at(std::string_view after,
                                                        std::string_view prefix, std::size_t max,
                                                        const ReadView& view) {
    std::vector<std::string> keys;
    Status st = scan_at(after, prefix, /*with_values=*/false, view,
                        [&](std::string_view key, std::string_view) {
                            keys.emplace_back(key);
                            return keys.size() < max;
                        });
    if (!st.ok()) return st;
    return keys;
}

Result<std::vector<KeyValue>> Database::list_keyvals_at(std::string_view after,
                                                        std::string_view prefix, std::size_t max,
                                                        const ReadView& view) {
    std::vector<KeyValue> out;
    Status st = scan_at(after, prefix, /*with_values=*/true, view,
                        [&](std::string_view key, std::string_view value) {
                            out.push_back(KeyValue{std::string(key), std::string(value)});
                            return out.size() < max;
                        });
    if (!st.ok()) return st;
    return out;
}

Result<std::vector<std::string>> Database::list_keys(std::string_view after,
                                                     std::string_view prefix, std::size_t max) {
    std::vector<std::string> keys;
    Status st = scan(after, prefix, /*with_values=*/false,
                     [&](std::string_view key, std::string_view) {
                         keys.emplace_back(key);
                         return keys.size() < max;
                     });
    if (!st.ok()) return st;
    return keys;
}

Result<std::vector<KeyValue>> Database::list_keyvals(std::string_view after,
                                                     std::string_view prefix, std::size_t max) {
    std::vector<KeyValue> out;
    Status st = scan(after, prefix, /*with_values=*/true,
                     [&](std::string_view key, std::string_view value) {
                         out.push_back(KeyValue{std::string(key), std::string(value)});
                         return out.size() < max;
                     });
    if (!st.ok()) return st;
    return out;
}

Result<Database::ScanChunk> Database::scan_chunk(std::string_view after, std::string_view prefix,
                                                 std::uint64_t max_keys, bool with_values,
                                                 const ScanFn& fn) {
    ScanChunk out;
    bool limited = false;
    bool callee_stopped = false;
    Status st = scan(after, prefix, with_values,
                     [&](std::string_view key, std::string_view value) {
                         if (out.examined >= max_keys) {
                             limited = true;
                             return false;  // not examined; resume revisits it
                         }
                         ++out.examined;
                         out.last_key.assign(key);
                         if (!fn(key, value)) {
                             callee_stopped = true;
                             return false;
                         }
                         return true;
                     });
    if (!st.ok()) return st;
    out.exhausted = !limited && !callee_stopped;
    return out;
}

Result<std::unique_ptr<Database>> create_database(const json::Value& config,
                                                  const std::string& base_dir,
                                                  std::shared_ptr<abt::Pool> compaction_pool) {
    const std::string type = config["type"].as_string();
    if (type == "map" || type.empty()) {
        return std::unique_ptr<Database>(std::make_unique<MapBackend>());
    }
    if (type == "lsm") {
        lsm::LsmOptions opts;
        std::string path = config["path"].as_string();
        if (path.empty()) {
            return Status::InvalidArgument("lsm backend requires a \"path\"");
        }
        opts.path = path.front() == '/' ? path : base_dir + "/" + path;
        if (config.contains("memtable_bytes")) {
            opts.memtable_bytes = static_cast<std::size_t>(config["memtable_bytes"].as_int());
        }
        if (config.contains("block_bytes")) {
            opts.block_bytes = static_cast<std::size_t>(config["block_bytes"].as_int());
        }
        if (config.contains("l0_compaction_trigger")) {
            opts.l0_compaction_trigger =
                static_cast<std::size_t>(config["l0_compaction_trigger"].as_int());
        }
        if (config.contains("level_base_bytes")) {
            opts.level_base_bytes =
                static_cast<std::size_t>(config["level_base_bytes"].as_int());
        }
        if (config.contains("block_cache_bytes")) {
            opts.block_cache_bytes =
                static_cast<std::size_t>(config["block_cache_bytes"].as_int());
            // Unless overridden, the compressed tier follows the decoded one.
            opts.compressed_cache_bytes = opts.block_cache_bytes;
        }
        if (config.contains("compressed_cache_bytes")) {
            opts.compressed_cache_bytes =
                static_cast<std::size_t>(config["compressed_cache_bytes"].as_int());
        }
        if (config.contains("memtable")) {
            opts.memtable = config["memtable"].as_string();
        }
        if (config.contains("block_compression")) {
            opts.block_compression = config["block_compression"].as_string();
        }
        if (config.contains("arena_block_bytes")) {
            opts.arena_block_bytes =
                static_cast<std::size_t>(config["arena_block_bytes"].as_int());
        }
        if (config.contains("skiplist_max_height")) {
            opts.skiplist_max_height =
                static_cast<std::size_t>(config["skiplist_max_height"].as_int());
        }
        if (config.contains("target_file_bytes")) {
            opts.target_file_bytes =
                static_cast<std::size_t>(config["target_file_bytes"].as_int());
        }
        if (config.contains("wal_sync_every_put")) {
            opts.wal_sync_every_put = config["wal_sync_every_put"].as_bool();
        }
        if (config.contains("background_compaction")) {
            opts.background_compaction = config["background_compaction"].as_bool();
        }
        if (config.contains("group_commit")) {
            opts.group_commit = config["group_commit"].as_bool();
        }
        if (config.contains("max_immutable_memtables")) {
            opts.max_immutable_memtables =
                static_cast<std::size_t>(config["max_immutable_memtables"].as_int());
        }
        if (config.contains("l0_slowdown_trigger")) {
            opts.l0_slowdown_trigger =
                static_cast<std::size_t>(config["l0_slowdown_trigger"].as_int());
        }
        if (config.contains("l0_stop_trigger")) {
            opts.l0_stop_trigger = static_cast<std::size_t>(config["l0_stop_trigger"].as_int());
        }
        opts.compaction_pool = std::move(compaction_pool);
        auto db = lsm::LsmDb::open(std::move(opts));
        if (!db.ok()) return db.status();
        return std::unique_ptr<Database>(std::move(db.value()));
    }
    return Status::InvalidArgument("unknown backend type: " + type);
}

}  // namespace hep::yokan
