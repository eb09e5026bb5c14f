#include "yokan/map_backend.hpp"

#include <mutex>

namespace hep::yokan {

Status MapBackend::put_stamped(std::string_view key, hep::BufferView value, bool overwrite,
                               std::uint32_t epoch) {
    hep::BufferView owned = value.to_owned();
    {
        std::unique_lock lock(mutex_);
        puts_.fetch_add(1, std::memory_order_relaxed);
        auto it = map_.find(key);
        if (it != map_.end()) {
            if (!overwrite) return Status::AlreadyExists(std::string(key));
            it->second = Slot{std::move(owned), Stamp{seq_source().next(), epoch}};
        } else {
            map_.emplace(std::string(key), Slot{std::move(owned), Stamp{seq_source().next(), epoch}});
        }
    }
    // Publish markers flip the local published set the moment they commit.
    if (const std::uint32_t published = parse_publish_marker(key)) observe_marker(published);
    return Status::OK();
}

Result<std::pair<hep::BufferView, Stamp>> MapBackend::get_stamped(std::string_view key) {
    std::shared_lock lock(mutex_);
    gets_.fetch_add(1, std::memory_order_relaxed);
    auto it = map_.find(key);
    if (it == map_.end()) return Status::NotFound(std::string(key));
    return std::make_pair(it->second.value, it->second.stamp);
}

Status MapBackend::erase(std::string_view key) {
    std::unique_lock lock(mutex_);
    erases_.fetch_add(1, std::memory_order_relaxed);
    auto it = map_.find(key);
    if (it == map_.end()) return Status::NotFound(std::string(key));
    map_.erase(it);
    seq_source().next();  // erases are mutations too: lease probes must see them
    return Status::OK();
}

Status MapBackend::scan_stamped(std::string_view after, std::string_view prefix,
                                bool with_values, const StampedScanFn& fn) {
    std::shared_lock lock(mutex_);
    scans_.fetch_add(1, std::memory_order_relaxed);
    // Start strictly after `after`, but never before `prefix`.
    auto it = after < prefix ? map_.lower_bound(prefix) : map_.upper_bound(after);
    for (; it != map_.end(); ++it) {
        std::string_view key = it->first;
        if (!prefix.empty()) {
            if (key.size() < prefix.size() || key.compare(0, prefix.size(), prefix) != 0) break;
        }
        if (!fn(key, with_values ? it->second.value.sv() : std::string_view{},
                it->second.stamp)) {
            break;
        }
    }
    return Status::OK();
}

std::uint64_t MapBackend::size() const {
    std::shared_lock lock(mutex_);
    return map_.size();
}

BackendStats MapBackend::stats() const {
    BackendStats out;
    out.puts = puts_.load(std::memory_order_relaxed);
    out.gets = gets_.load(std::memory_order_relaxed);
    out.scans = scans_.load(std::memory_order_relaxed);
    out.erases = erases_.load(std::memory_order_relaxed);
    return out;
}

}  // namespace hep::yokan
