#include "hepnos/rescale.hpp"

#include "hepnos/keys.hpp"

namespace hep::hepnos {

namespace {

/// Parent key of a container key, by role (see header).
Result<std::string> parent_key_of(Role role, std::string_view key) {
    switch (role) {
        case Role::kDatasets:
            return std::string(parent_of(key));
        case Role::kRuns:
            if (key.size() != 24) return Status::Corruption("run key must be 24 bytes");
            return std::string(key.substr(0, 16));
        case Role::kSubRuns:
            if (key.size() != 32) return Status::Corruption("subrun key must be 32 bytes");
            return std::string(key.substr(0, 24));
        case Role::kEvents:
            if (key.size() != 40) return Status::Corruption("event key must be 40 bytes");
            return std::string(key.substr(0, 32));
        case Role::kProducts:
            return Status::Unimplemented(
                "product keys have no fixed-width parent; product rescaling requires "
                "descriptor-tagged keys");
    }
    return Status::Internal("bad role");
}

/// Drain every key of `source` whose (recomputed) owner differs, shipping it
/// in batches. `may_keep` = false forces all keys out (target removal).
Result<RescaleStats> migrate_from(DataStoreImpl& impl, Role role, std::size_t source_index,
                                  bool may_keep, std::size_t batch_size) {
    RescaleStats stats;
    // Migration is pure background traffic: bulk class, the first to be
    // slowed/shed when the service is under interactive load.
    const yokan::DatabaseHandle source =
        impl.databases(role)[source_index].with_class(qos::kClassBulk);

    // Collect the full moving set first so migration does not race the scan
    // cursor. Container values are empty, so keys are all we need; the
    // datasets role also carries UUID values — use keyvals uniformly.
    std::vector<std::vector<yokan::BatchItem>> outbound(impl.database_count(role));
    std::string after;
    while (true) {
        auto page = source.list_keyvals(after, "", batch_size);
        if (!page.ok()) return page.status();
        if (page->empty()) break;
        after = page->back().key;
        for (auto& kv : *page) {
            ++stats.keys_scanned;
            auto parent = parent_key_of(role, kv.key);
            if (!parent.ok()) return parent.status();
            const std::size_t owner = impl.locate_index(role, *parent);
            if (may_keep && owner == source_index) continue;
            outbound[owner].push_back(
                yokan::BatchItem{std::move(kv.key), hep::Buffer::adopt(std::move(kv.value))});
        }
        if (page->size() < batch_size) break;
    }

    // Ship per destination, then erase from the source.
    std::vector<std::string> moved_keys;
    for (std::size_t dest = 0; dest < outbound.size(); ++dest) {
        auto& items = outbound[dest];
        if (items.empty()) continue;
        for (std::size_t start = 0; start < items.size(); start += batch_size) {
            const std::size_t end = std::min(start + batch_size, items.size());
            std::vector<yokan::BatchItem> chunk(items.begin() + static_cast<long>(start),
                                                items.begin() + static_cast<long>(end));
            auto stored = impl.databases(role)[dest]
                              .with_class(qos::kClassBulk)
                              .put_multi(chunk, /*overwrite=*/true);
            if (!stored.ok()) return stored.status();
            ++stats.batches;
        }
        for (auto& kv : items) moved_keys.push_back(std::move(kv.key));
        stats.keys_moved += items.size();
    }
    for (std::size_t start = 0; start < moved_keys.size(); start += batch_size) {
        const std::size_t end = std::min(start + batch_size, moved_keys.size());
        std::vector<std::string> chunk(moved_keys.begin() + static_cast<long>(start),
                                       moved_keys.begin() + static_cast<long>(end));
        auto erased = source.erase_multi(chunk);
        if (!erased.ok()) return erased.status();
    }
    return stats;
}

}  // namespace

Result<RescaleStats> add_storage_target(DataStoreImpl& impl, Role role,
                                        yokan::DatabaseHandle handle,
                                        std::size_t batch_size) {
    if (role == Role::kProducts) {
        return Status::Unimplemented("product rescaling is not supported (see header)");
    }
    const std::size_t new_index = impl.add_database(role, std::move(handle));
    RescaleStats total;
    for (std::size_t s = 0; s < impl.database_count(role); ++s) {
        if (s == new_index || !impl.is_active(role, s)) continue;
        auto stats = migrate_from(impl, role, s, /*may_keep=*/true, batch_size);
        if (!stats.ok()) return stats.status();
        total.keys_scanned += stats->keys_scanned;
        total.keys_moved += stats->keys_moved;
        total.batches += stats->batches;
    }
    return total;
}

Result<RescaleStats> remove_storage_target(DataStoreImpl& impl, Role role, std::size_t index,
                                           std::size_t batch_size) {
    if (role == Role::kProducts) {
        return Status::Unimplemented("product rescaling is not supported (see header)");
    }
    if (index >= impl.database_count(role) || !impl.is_active(role, index)) {
        return Status::InvalidArgument("no active database at that index");
    }
    // Need at least one remaining target.
    std::size_t active = 0;
    for (std::size_t s = 0; s < impl.database_count(role); ++s) {
        if (impl.is_active(role, s)) ++active;
    }
    if (active <= 1) {
        return Status::InvalidArgument("cannot remove the last storage target of a role");
    }
    impl.deactivate_database(role, index);
    return migrate_from(impl, role, index, /*may_keep=*/false, batch_size);
}

}  // namespace hep::hepnos
