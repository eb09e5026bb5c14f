// Server-side replica group membership for one database.
//
// A ReplicaSet wraps the provider's local yokan::Database. Mutations the
// provider receives from clients go through it: the record is applied
// locally, stamped with this member's next sequence number and appended to a
// bounded in-memory replication log — all under one per-database mutex — and
// then shipped to every peer OUTSIDE that mutex (only a per-peer ship mutex
// serializes the wire). Shipping outside the database mutex is what keeps
// symmetric groups (A replicates to B while B replicates to A) deadlock-free;
// the need_from gap-repair protocol makes out-of-order arrivals converge.
//
// A ship failure does not fail the client write: replication is best-effort
// push with pull-style repair (the peer answers need_from when it detects a
// gap, and a heartbeat probe triggers the same repair after restarts). When
// the log no longer covers a gap the member streams a full snapshot instead.
//
// For persistent (lsm) databases a small sidecar JSON file records the
// sequence counter (rounded up, so a recovered member never reuses sequence
// numbers) and the per-origin applied watermarks (a stale-low watermark only
// causes idempotent replay: puts overwrite, erases tolerate NotFound).
//
// The sidecar also carries a clean-shutdown marker: every in-operation
// rewrite stamps `clean: false` and the destructor's final rewrite stamps
// `clean: true`. A member that boots from an unclean sidecar cannot prove its
// store kept every acknowledged write (a kill -9 can eat the WAL's buffered
// tail while the sidecar — already in the page cache — survives, so the
// sequence counter alone never regresses), so its first probe pass sends the
// reseed sentinel (heartbeat with first_seq = 0) and every peer streams its
// full materialized copy back — restoring both the member's lost authored
// tail and its lost replica copies in one idempotent snapshot per peer.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abt/sync.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "margo/engine.hpp"
#include "replica/protocol.hpp"
#include "yokan/backend.hpp"

namespace hep::replica {

/// Counters exported through symbio's "replica" source.
struct ReplicaStats {
    std::uint64_t records_shipped = 0;
    std::uint64_t bytes_shipped = 0;
    std::uint64_t ship_failures = 0;
    std::uint64_t records_applied = 0;
    std::uint64_t gaps_repaired = 0;
    std::uint64_t snapshots_sent = 0;
    std::uint64_t snapshot_chunks_received = 0;
    std::uint64_t reseeds_sent = 0;  // full-state pushbacks to a regressed origin
    std::uint64_t reseed_requests = 0;  // recovery probes sent after an unclean boot
};

class ReplicaSet {
  public:
    /// `db` must outlive the set (the provider owns both). `meta_path` is the
    /// sidecar persistence file ("" = in-memory only, the map-backend case).
    ReplicaSet(margo::Engine& engine, Target self, std::vector<Target> peers,
               yokan::Database* db, std::uint64_t log_capacity, std::string meta_path);
    /// Stamps the sidecar's clean-shutdown marker (kill -9 never gets here).
    ~ReplicaSet();

    [[nodiscard]] const Target& self() const noexcept { return self_; }
    [[nodiscard]] const std::vector<Target>& peers() const noexcept { return peers_; }

    // ---- mutation path (provider routes client writes here) ---------------
    /// The value buffer is shared between the local store, the log record and
    /// every peer ship — no copy is made on the replication path. `epoch`
    /// tags the mutation with an ingest epoch (0 = immediately visible) and
    /// rides the replication record.
    Status put(std::string_view key, hep::Buffer value, bool overwrite,
               std::uint32_t epoch = 0);
    Status erase(std::string_view key);
    /// One write-batch flush: `packed` is the wire format of the yokan bulk
    /// protocol and replicates as ONE record. The buffer is shared, not
    /// copied: the log record and every peer ship reference the same
    /// immutable bytes the flush arrived with. Returns (stored, already).
    Result<std::pair<std::uint64_t, std::uint64_t>> put_packed(hep::Buffer packed,
                                                               bool overwrite,
                                                               std::uint32_t epoch = 0);
    Result<std::uint64_t> erase_multi(const std::vector<std::string>& keys);

    // ---- replication protocol (provider RPC handlers call these) ----------
    Result<ApplyResp> handle_apply(const ApplyReq& req);
    Status handle_snapshot(const SnapshotReq& req);

    /// Heartbeat every peer with an empty ApplyReq at this member's current
    /// sequence; peers that are behind answer need_from and get repaired.
    /// Called once after the group is configured (catch-up after restart).
    void probe_peers();

    [[nodiscard]] ReplicaStats stats() const;
    [[nodiscard]] json::Value stats_json() const;

    /// Monotonic version of this member's materialized state. Since the MVCC
    /// refactor this is just the backend's SeqSource: every mutation — local
    /// or replayed from a peer — lands via put_stamped/erase and advances the
    /// same per-db counter ("yokan_seq" reads it through Provider::mutation_seq).
    [[nodiscard]] std::uint64_t version_seq() const { return db_->seq(); }

  private:
    struct Peer {
        Target target;
        abt::Mutex ship_mutex;       // serializes the wire to this peer
        std::uint64_t acked = 0;     // peer's applied watermark for us (under mu_)
    };

    /// Apply one record to the local database (replay side). Idempotent.
    Status apply_record(const Record& rec);

    /// Ship records [first_seq..] to one peer; on need_from, resend from the
    /// log or fall back to a snapshot stream. Must NOT hold mu_.
    void ship_to_peer(Peer& peer, std::uint64_t first_seq, const std::vector<Record>& records);

    /// ship_to_peer's body, with peer.ship_mutex held. True when the reply
    /// reveals that this member lost its state in a restart; the write gate
    /// is then closed, and the caller must call reseed_from(peer).
    bool ship_locked(Peer& peer, std::uint64_t first_seq, const std::vector<Record>& records);

    /// Repair a peer that asked for `need_from`: resend log tail, or stream a
    /// snapshot when the log no longer reaches back that far.
    void repair_peer(Peer& peer, std::uint64_t need_from);

    /// Ask `peer` to stream its full copy back to us (the first_seq = 0
    /// sentinel), replay our own log over it, then open the write gate the
    /// caller closed (++reseeding_). Caller holds peer.ship_mutex and must
    /// NOT hold mu_.
    void reseed_from(Peer& peer);

    /// Move the sequence counter past `peer_applied`, renumbering the log,
    /// when a peer has applied more of our stream than we issued (we
    /// restarted without our sidecar). True when it did. Holds mu_.
    bool skip_counter_past_locked(std::uint64_t peer_applied);

    /// Block a local mutation while a reseed streams a peer's copy over the
    /// store: that copy would overwrite it. Holds mu_ (released while waiting).
    void wait_for_reseed_locked();

    /// Reseed an origin whose stream regressed below our replay watermark
    /// (it restarted without its state): stream our full materialized copy
    /// back to it. Must NOT hold mu_.
    void push_state_to_origin(const std::string& origin);

    void append_to_log(Record rec);
    void persist_meta_locked(bool clean = false);
    void load_meta();

    margo::Engine& engine_;
    Target self_;
    std::vector<Target> peers_;
    std::vector<std::unique_ptr<Peer>> peer_states_;
    yokan::Database* db_;
    std::string meta_path_;

    mutable abt::Mutex mu_;  // guards everything below
    std::uint64_t next_seq_ = 1;
    std::uint64_t persisted_seq_ = 0;        // next_seq_ ceiling already on disk
    std::uint64_t applies_since_persist_ = 0;  // replayed records since last write
    bool recovering_ = false;  // booted from an unclean sidecar; reseed on first probe
    std::size_t reseeding_ = 0;  // reseeds in flight: local mutations wait (write gate)
    abt::CondVar reseed_done_;   // signalled when reseeding_ drops to 0
    std::deque<Record> log_;           // own-origin records, seqs contiguous
    std::uint64_t log_capacity_;
    std::map<std::string, std::uint64_t> last_applied_;  // origin str -> seq
    ReplicaStats stats_;
};

}  // namespace hep::replica
