// Hot-product read cache core: a byte-bounded LRU over zero-copy
// hep::BufferView values with lease/epoch freshness (the "Read cache tier"
// of DESIGN.md).
//
// One class serves both deployments of the tier:
//   * the per-DataStore client cache ("cache/client" symbio source), and
//   * the dedicated cache::Provider's table ("cache/<provider>" source).
//
// Freshness contract. Every entry records
//   - the owning database's mutation sequence number observed at fill
//     (replica::ReplicaSet seqs when the db is replicated, the backend's
//     put+erase count otherwise),
//   - the *db epoch* and *target epoch* current when the fill was issued, and
//   - the fill timestamp.
// A lookup serves the entry only while both epochs still match and the lease
// window has not elapsed. Mutations bump the db epoch (put/erase/write-batch
// flush → every cached value of that database is dropped at once), failover
// promotions bump the demoted target's epoch (entries filled from a demoted
// primary die immediately), and an expired lease demands revalidation against
// the owner's current seq before the entry may be served again. A cached
// read is therefore never stale past the lease window, and never stale AT
// ALL with respect to mutations issued through the same client.
//
// Epochs are captured in a Ticket BEFORE the fill's read is issued: if a
// mutation lands between the read and the insert, the entry is born with an
// outdated epoch and the next lookup rejects it — the classic
// read-fill/write race cannot resurrect an overwritten value.
//
// Insertion policy. Single-key fills (point reads) insert at the MRU end:
// plain LRU. Bulk fills (fill_many: the PEP and Prefetcher pages) insert at
// the cold end with a "cold" mark, the LIP/BIP family of Qureshi et al.,
// "Adaptive Insertion Policies for High Performance Caching" (ISCA 2007): a
// lookup hit or a renewal promotes an entry to MRU and clears the mark.
// Cold entries sit together at the LRU end, newest first, so the tail is
// the oldest cold entry. To make room, a bulk fill evicts the tail only if
// it is hot, stale or expired; a current, never-hit bulk fill at the tail
// means the new fill could only displace another fill of the same scan, so
// it is skipped (Counters::skipped_fills). A scan that cycles over more keys
// than the cache holds then keeps a resident set across passes instead of
// evicting every entry before its next use, and cold entries left stale by
// an epoch bump are the first a later bulk pass replaces.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"

namespace hep::cache {

struct CacheOptions {
    bool enabled = true;
    std::size_t capacity_bytes = 64ull << 20;
    std::size_t max_entries = 1ull << 16;
    std::uint32_t lease_ms = 1000;
    /// Start in bypass mode: lookups and fills are skipped (invalidations
    /// still apply), for callers that demand read-your-writes from OTHER
    /// clients too. Toggleable at runtime via LeaseCache::set_bypass.
    bool bypass = false;

    /// Parse {"enabled": true, "capacity_bytes": ..., "max_entries": ...,
    /// "lease_ms": ..., "bypass": false}; missing fields keep defaults.
    static CacheOptions from_json(const json::Value& cfg);
};

/// Canonical identity of one logical database as the cache keys its epochs.
inline std::string db_epoch_key(std::string_view server, std::uint16_t provider,
                                std::string_view db) {
    std::string out(server);
    out += '/';
    out += std::to_string(provider);
    out += '/';
    out += db;
    return out;
}

class LeaseCache {
  public:
    explicit LeaseCache(CacheOptions opts = {});

    /// Keys per lock hold in the batch calls: a bulk page never makes a
    /// concurrent single-key read wait behind all of its keys.
    static constexpr std::size_t kLockChunk = 256;

    enum class LookupState { kMiss, kHit, kExpired };

    struct Lookup {
        LookupState state = LookupState::kMiss;
        hep::BufferView value;  // valid for kHit and kExpired
        std::uint64_t seq = 0;  // owner mutation seq observed at fill
        std::uint64_t vseq = 0;    // the value's own MVCC stamp: snapshot
        std::uint32_t vepoch = 0;  // readers check it against their pin
    };

    /// Epochs captured before a fill's read is issued (see file comment).
    /// It points at this cache's interned epoch counters, so it is only
    /// meaningful to the cache that issued it.
    class Ticket {
      private:
        friend class LeaseCache;
        Ticket(const std::uint64_t& db, const std::uint64_t& target)
            : db_slot_(&db), target_slot_(&target), db_epoch_(db), target_epoch_(target) {}

        const std::uint64_t* db_slot_;
        const std::uint64_t* target_slot_;
        std::uint64_t db_epoch_;
        std::uint64_t target_epoch_;
    };

    /// Serve `key` if present: kHit moves the entry to the MRU end (clearing
    /// its cold mark) and hands out its (refcounted, zero-copy) view;
    /// kExpired returns the value, without a touch, so the caller may
    /// revalidate-and-renew; epoch-stale entries are dropped and reported as
    /// a miss.
    Lookup lookup(std::string_view key);

    /// lookup() of every key, in order: result i answers keys[i], with the
    /// same states, LRU touches and counters as one lookup() per key. The
    /// lock is taken, and the clock read, once per kLockChunk keys.
    std::vector<Lookup> lookup_many(const std::vector<std::string>& keys);

    /// Capture the current epochs of (db_id, target) for a fill in flight.
    Ticket ticket(const std::string& db_id, const std::string& target);

    /// Insert (or replace) an entry carrying the ticket's epochs. vseq/vepoch
    /// are the value's own MVCC stamp (0,0 = unknown: pinned lookups bypass).
    void fill(std::string key, hep::BufferView value, std::uint64_t seq, const Ticket& t,
              std::uint64_t vseq = 0, std::uint32_t vepoch = 0);

    /// Bulk fill of one bulk read's reply: keys[i] gets values[i], all with
    /// `seq` and `t`; a value the owner did not have (nullopt) is not
    /// cached. Unlike fill(), a new key enters the cold segment at the LRU
    /// end, and is skipped when making room would evict a current cold entry
    /// (see the file comment); a key already cached is updated in place,
    /// keeping its position and mark. Keys are moved into the entries. Same
    /// locking as lookup_many.
    void fill_many(std::vector<std::string>&& keys,
                   const std::vector<std::optional<hep::BufferView>>& values, std::uint64_t seq,
                   const Ticket& t);

    /// Refresh an expired entry's lease after the owner's seq was confirmed
    /// unchanged. `t` must have been captured BEFORE the seq probe: a
    /// failover promotion (or any mutation) between the probe and this call
    /// bumps an epoch past the ticket's and the renewal is refused — a
    /// demoted primary cannot keep its stale leases alive. A renewal moves
    /// the entry to the MRU end like a hit. Returns false if the entry is
    /// gone, its seq moved, or the ticket's epochs are stale.
    bool renew(std::string_view key, std::uint64_t seq, const Ticket& t);

    /// renew() of every key against one seq probe: result i answers keys[i].
    /// `seen[i]` is the seq that lookup_many returned with the value the
    /// caller holds for keys[i]; unless it equals `seq` the renewal is
    /// refused, since a refetch that updated the entry in place after the
    /// lookup would otherwise renew the new value's lease while the caller
    /// serves the old one. Otherwise the same contract and effects as one
    /// renew() per key; same locking as lookup_many.
    std::vector<bool> renew_many(const std::vector<std::string>& keys,
                                 const std::vector<std::uint64_t>& seen, std::uint64_t seq,
                                 const Ticket& t);

    void erase(std::string_view key);

    /// A mutation landed on `db_id`: every entry filled from it is dead.
    void bump_db(const std::string& db_id);

    /// `target` was demoted by a failover promotion: every entry it served
    /// is suspect (it may have missed mutations accepted by the new primary).
    void bump_target(const std::string& target);

    void clear();

    [[nodiscard]] bool enabled() const noexcept { return opts_.enabled; }
    [[nodiscard]] bool bypass() const noexcept {
        return bypass_.load(std::memory_order_relaxed);
    }
    void set_bypass(bool on) noexcept { bypass_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] const CacheOptions& options() const noexcept { return opts_; }

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t bytes() const;

    /// Read-latency histograms (nanoseconds), sampled by the read paths.
    [[nodiscard]] Histogram& hit_latency() noexcept { return hit_latency_; }
    [[nodiscard]] Histogram& miss_latency() noexcept { return miss_latency_; }
    /// Nanoseconds since `start`: the unit of both latency histograms.
    [[nodiscard]] static std::uint64_t ns_since(
        std::chrono::steady_clock::time_point start) noexcept {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    }

    struct Counters {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;   // epoch bumps (db + target)
        std::uint64_t stale_drops = 0;     // lookups rejected by an epoch mismatch
        std::uint64_t lease_expiries = 0;  // lookups past the lease window
        std::uint64_t renewals = 0;        // successful revalidations
        std::uint64_t skipped_fills = 0;   // bulk fills refused by a cold tail
    };
    [[nodiscard]] Counters counters() const;

    /// Snapshot for the symbio "cache/client" / "cache/<provider>" sources.
    [[nodiscard]] json::Value stats_json() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Entry {
        std::string key;  // backs the index_ key: never modified once linked
        hep::BufferView value;
        std::uint64_t seq = 0;
        std::uint64_t vseq = 0;    // value's MVCC stamp (0 = unknown)
        std::uint32_t vepoch = 0;
        bool cold = false;  // bulk-filled and neither hit nor renewed since
        Ticket epochs;      // the fill's ticket
        Clock::time_point filled_at;
    };
    using List = std::list<Entry>;

    [[nodiscard]] static std::size_t entry_bytes(const Entry& e) noexcept {
        return e.key.size() + e.value.size();
    }
    /// Neither counter the ticket captured has moved since.
    [[nodiscard]] static bool current(const Ticket& t) noexcept {
        return *t.db_slot_ == t.db_epoch_ && *t.target_slot_ == t.target_epoch_;
    }
    [[nodiscard]] bool expired(const Entry& e, Clock::time_point now) const noexcept {
        return now - e.filled_at >= std::chrono::milliseconds(opts_.lease_ms);
    }
    Lookup lookup_locked(std::string_view key, Clock::time_point now);
    void fill_locked(std::string&& key, hep::BufferView value, std::uint64_t seq,
                     const Ticket& t, std::uint64_t vseq, std::uint32_t vepoch,
                     Clock::time_point now);
    void fill_cold_locked(std::string&& key, hep::BufferView value, std::uint64_t seq,
                          const Ticket& t, Clock::time_point now);
    bool renew_locked(std::string_view key, std::uint64_t seq, const Ticket& t,
                      Clock::time_point now);
    void promote_locked(List::iterator it);
    void unlink_locked(List::iterator it);
    void evict_locked();

    CacheOptions opts_;
    std::atomic<bool> bypass_{false};

    mutable std::mutex mu_;
    List lru_;  // front = MRU; cold entries form the tail segment
    List::iterator cold_begin_ = lru_.end();  // first cold entry, or end()
    std::unordered_map<std::string_view, List::iterator> index_;  // views of Entry::key
    // Epoch counters, interned: tickets and entries point at these map
    // nodes, which never move and are never erased.
    std::unordered_map<std::string, std::uint64_t> db_epochs_;
    std::unordered_map<std::string, std::uint64_t> target_epochs_;
    std::size_t bytes_ = 0;
    Counters counters_;

    Histogram hit_latency_;
    Histogram miss_latency_;
};

}  // namespace hep::cache
