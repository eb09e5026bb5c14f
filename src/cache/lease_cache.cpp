#include "cache/lease_cache.hpp"

#include <algorithm>

namespace hep::cache {

CacheOptions CacheOptions::from_json(const json::Value& cfg) {
    CacheOptions opts;
    if (!cfg.is_object()) return opts;
    opts.enabled = cfg["enabled"].as_bool(opts.enabled);
    if (cfg.contains("capacity_bytes")) {
        opts.capacity_bytes = static_cast<std::size_t>(cfg["capacity_bytes"].as_int());
    }
    if (cfg.contains("max_entries")) {
        opts.max_entries = static_cast<std::size_t>(cfg["max_entries"].as_int());
    }
    if (cfg.contains("lease_ms")) {
        opts.lease_ms = static_cast<std::uint32_t>(cfg["lease_ms"].as_int());
    }
    opts.bypass = cfg["bypass"].as_bool(opts.bypass);
    if (opts.max_entries == 0) opts.max_entries = 1;
    return opts;
}

LeaseCache::LeaseCache(CacheOptions opts) : opts_(opts) {
    bypass_.store(opts_.bypass, std::memory_order_relaxed);
    // Bulk prefetch pages mostly miss. At this load factor most missed keys
    // hash to an empty bucket, so a probe costs one cache miss, not a walk
    // along a cold chain.
    index_.max_load_factor(0.5f);
}

LeaseCache::Lookup LeaseCache::lookup(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    return lookup_locked(key, Clock::now());
}

std::vector<LeaseCache::Lookup> LeaseCache::lookup_many(const std::vector<std::string>& keys) {
    std::vector<Lookup> out;
    out.reserve(keys.size());
    for (std::size_t start = 0; start < keys.size(); start += kLockChunk) {
        const std::size_t end = std::min(start + kLockChunk, keys.size());
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (std::size_t i = start; i < end; ++i) out.push_back(lookup_locked(keys[i], now));
    }
    return out;
}

LeaseCache::Lookup LeaseCache::lookup_locked(std::string_view key, Clock::time_point now) {
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++counters_.misses;
        return {};
    }
    Entry& e = *it->second;
    if (!current(e.epochs)) {
        ++counters_.stale_drops;
        ++counters_.misses;
        unlink_locked(it->second);
        return {};
    }
    if (expired(e, now)) {
        ++counters_.lease_expiries;
        return {LookupState::kExpired, e.value, e.seq, e.vseq, e.vepoch};
    }
    ++counters_.hits;
    promote_locked(it->second);
    return {LookupState::kHit, e.value, e.seq, e.vseq, e.vepoch};
}

LeaseCache::Ticket LeaseCache::ticket(const std::string& db_id, const std::string& target) {
    std::lock_guard<std::mutex> lock(mu_);
    return Ticket(db_epochs_[db_id], target_epochs_[target]);
}

void LeaseCache::fill(std::string key, hep::BufferView value, std::uint64_t seq,
                      const Ticket& t, std::uint64_t vseq, std::uint32_t vepoch) {
    std::lock_guard<std::mutex> lock(mu_);
    fill_locked(std::move(key), std::move(value), seq, t, vseq, vepoch, Clock::now());
}

void LeaseCache::fill_many(std::vector<std::string>&& keys,
                           const std::vector<std::optional<hep::BufferView>>& values,
                           std::uint64_t seq, const Ticket& t) {
    const std::size_t n = std::min(keys.size(), values.size());
    for (std::size_t start = 0; start < n; start += kLockChunk) {
        const std::size_t end = std::min(start + kLockChunk, n);
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (std::size_t i = start; i < end; ++i) {
            if (values[i]) fill_cold_locked(std::move(keys[i]), *values[i], seq, t, now);
        }
    }
}

void LeaseCache::fill_cold_locked(std::string&& key, hep::BufferView value, std::uint64_t seq,
                                  const Ticket& t, Clock::time_point now) {
    if (auto it = index_.find(key); it != index_.end()) {
        // A refetch of a cached key (its lease lapsed and the seq moved):
        // update in place, keeping the entry's position and mark.
        Entry& e = *it->second;
        bytes_ -= entry_bytes(e);
        e.value = std::move(value);
        e.seq = seq;
        e.vseq = 0;
        e.vepoch = 0;
        e.epochs = t;
        e.filled_at = now;
        bytes_ += entry_bytes(e);
        ++counters_.fills;
        evict_locked();
        return;
    }
    const std::size_t need = key.size() + value.size();
    while (!lru_.empty() &&
           (lru_.size() >= opts_.max_entries || bytes_ + need > opts_.capacity_bytes)) {
        const Entry& tail = lru_.back();
        if (tail.cold && current(tail.epochs) && !expired(tail, now)) {
            // The tail is an earlier fill of this scan that nothing has used
            // yet: evicting it for this one would only trade one unused
            // entry for another.
            ++counters_.skipped_fills;
            return;
        }
        ++counters_.evictions;
        unlink_locked(std::prev(lru_.end()));
    }
    cold_begin_ = lru_.insert(cold_begin_,
                              Entry{std::move(key), std::move(value), seq, 0, 0, true, t, now});
    index_.emplace(cold_begin_->key, cold_begin_);
    bytes_ += need;
    ++counters_.fills;
    evict_locked();  // only an entry larger than the whole byte bound is left over
}

void LeaseCache::fill_locked(std::string&& key, hep::BufferView value, std::uint64_t seq,
                             const Ticket& t, std::uint64_t vseq, std::uint32_t vepoch,
                             Clock::time_point now) {
    lru_.push_front(Entry{std::move(key), std::move(value), seq, vseq, vepoch, false, t, now});
    bytes_ += entry_bytes(lru_.front());
    // One probe finds-or-inserts; replacing an entry (rare) re-keys the
    // index to the new entry's string.
    auto [slot, inserted] = index_.try_emplace(lru_.front().key, lru_.begin());
    if (!inserted) {
        const auto old = slot->second;
        index_.erase(slot);
        bytes_ -= entry_bytes(*old);
        if (old == cold_begin_) ++cold_begin_;
        lru_.erase(old);
        index_.emplace(lru_.front().key, lru_.begin());
    }
    ++counters_.fills;
    evict_locked();
}

bool LeaseCache::renew(std::string_view key, std::uint64_t seq, const Ticket& t) {
    std::lock_guard<std::mutex> lock(mu_);
    return renew_locked(key, seq, t, Clock::now());
}

std::vector<bool> LeaseCache::renew_many(const std::vector<std::string>& keys,
                                         const std::vector<std::uint64_t>& seen,
                                         std::uint64_t seq, const Ticket& t) {
    std::vector<bool> out;
    out.reserve(keys.size());
    for (std::size_t start = 0; start < keys.size(); start += kLockChunk) {
        const std::size_t end = std::min(start + kLockChunk, keys.size());
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (std::size_t i = start; i < end; ++i) {
            out.push_back(seen[i] == seq && renew_locked(keys[i], seq, t, now));
        }
    }
    return out;
}

bool LeaseCache::renew_locked(std::string_view key, std::uint64_t seq, const Ticket& t,
                              Clock::time_point now) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Entry& e = *it->second;
    if (e.seq != seq) return false;
    // The ticket was captured before the seq probe. If either epoch moved
    // since — a mutation, or a failover promotion demoting the target this
    // entry was filled from — the probe's answer may have come from a stale
    // primary; refuse and let the caller refetch from the current one.
    if (!current(t)) return false;
    if (e.epochs.db_epoch_ != t.db_epoch_ || e.epochs.target_epoch_ != t.target_epoch_) {
        return false;
    }
    e.filled_at = now;
    promote_locked(it->second);
    ++counters_.renewals;
    return true;
}

void LeaseCache::promote_locked(List::iterator it) {
    if (it == cold_begin_) ++cold_begin_;
    it->cold = false;
    lru_.splice(lru_.begin(), lru_, it);
}

void LeaseCache::erase(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) unlink_locked(it->second);
}

void LeaseCache::bump_db(const std::string& db_id) {
    std::lock_guard<std::mutex> lock(mu_);
    ++db_epochs_[db_id];
    ++counters_.invalidations;
}

void LeaseCache::bump_target(const std::string& target) {
    std::lock_guard<std::mutex> lock(mu_);
    ++target_epochs_[target];
    ++counters_.invalidations;
}

void LeaseCache::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    cold_begin_ = lru_.end();
    index_.clear();
    bytes_ = 0;
}

std::size_t LeaseCache::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

std::size_t LeaseCache::bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

LeaseCache::Counters LeaseCache::counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

json::Value LeaseCache::stats_json() const {
    Counters c;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        c = counters_;
        entries = lru_.size();
        bytes = bytes_;
    }
    json::Value out = json::Value::make_object();
    out["enabled"] = opts_.enabled;
    out["bypass"] = bypass();
    out["entries"] = static_cast<std::int64_t>(entries);
    out["bytes"] = static_cast<std::int64_t>(bytes);
    out["capacity_bytes"] = static_cast<std::int64_t>(opts_.capacity_bytes);
    out["lease_ms"] = static_cast<std::int64_t>(opts_.lease_ms);
    out["hits"] = c.hits;
    out["misses"] = c.misses;
    out["fills"] = c.fills;
    out["evictions"] = c.evictions;
    out["invalidations"] = c.invalidations;
    out["stale_drops"] = c.stale_drops;
    out["lease_expiries"] = c.lease_expiries;
    out["renewals"] = c.renewals;
    out["skipped_fills"] = c.skipped_fills;
    out["hit_latency_ms"] = hit_latency_.to_json();
    out["miss_latency_ms"] = miss_latency_.to_json();
    return out;
}

void LeaseCache::unlink_locked(List::iterator it) {
    bytes_ -= entry_bytes(*it);
    index_.erase(it->key);
    if (it == cold_begin_) ++cold_begin_;
    lru_.erase(it);
}

void LeaseCache::evict_locked() {
    while (!lru_.empty() &&
           (bytes_ > opts_.capacity_bytes || lru_.size() > opts_.max_entries)) {
        ++counters_.evictions;
        unlink_locked(std::prev(lru_.end()));
    }
}

}  // namespace hep::cache
