#include "replica/replica_set.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.hpp"
#include "qos/context.hpp"
#include "yokan/protocol.hpp"

namespace hep::replica {

namespace {
/// Sequence-counter persistence granularity: the sidecar file stores the
/// counter rounded UP to the next multiple, so a member recovering from the
/// file can never reuse a sequence number it handed out before the crash.
constexpr std::uint64_t kSeqHeadroom = 256;
/// Records per repair resend batch.
constexpr std::size_t kResendBatch = 512;
/// Packed bytes per snapshot chunk.
constexpr std::size_t kSnapshotChunk = 256 * 1024;
/// Deadline on every peer RPC. A request lost to a dying connection must not
/// wedge the shipping handler (and the client call behind it) forever; a
/// timed-out ship counts as a ship_failure and the probe pass repairs it.
constexpr std::chrono::milliseconds kPeerRpcDeadline{10'000};
/// Replication traffic is control-plane: it rides kClassControl, which the
/// admission controller exempts from tenant buckets and load shedding — a
/// shed ship/snapshot would count as a ship_failure and stall repair.
const qos::QosTag kControlTag{"__replica", qos::kClassControl};

std::uint64_t ceil_to_headroom(std::uint64_t seq) {
    return ((seq / kSeqHeadroom) + 1) * kSeqHeadroom;
}
}  // namespace

ReplicaSet::ReplicaSet(margo::Engine& engine, Target self, std::vector<Target> peers,
                       yokan::Database* db, std::uint64_t log_capacity, std::string meta_path)
    : engine_(engine),
      self_(std::move(self)),
      peers_(std::move(peers)),
      db_(db),
      meta_path_(std::move(meta_path)),
      log_capacity_(log_capacity ? log_capacity : 4096) {
    peer_states_.reserve(peers_.size());
    for (const auto& p : peers_) {
        auto state = std::make_unique<Peer>();
        state->target = p;
        peer_states_.push_back(std::move(state));
    }
    load_meta();
}

ReplicaSet::~ReplicaSet() {
    // Final sidecar rewrite with the clean marker: the next boot can trust
    // that the store kept everything this member ever acknowledged.
    abt::LockGuard guard(mu_);
    persist_meta_locked(/*clean=*/true);
}

// ---- local mutation path ---------------------------------------------------

Status ReplicaSet::put(std::string_view key, hep::Buffer value, bool overwrite,
                       std::uint32_t epoch) {
    Record rec;
    {
        abt::LockGuard guard(mu_);
        wait_for_reseed_locked();
        Status st = db_->put_stamped(key, value.view(), overwrite, epoch);
        if (!st.ok()) return st;
        rec.seq = next_seq_++;
        rec.op = static_cast<std::uint8_t>(Op::kPut);
        rec.flags = overwrite ? kFlagOverwrite : 0;
        rec.epoch = epoch;
        rec.key = std::string(key);
        rec.value = std::move(value);
        append_to_log(rec);
        persist_meta_locked();
    }
    const std::uint64_t first = rec.seq;
    std::vector<Record> batch{std::move(rec)};
    for (auto& peer : peer_states_) ship_to_peer(*peer, first, batch);
    return Status::OK();
}

Status ReplicaSet::erase(std::string_view key) {
    Record rec;
    {
        abt::LockGuard guard(mu_);
        wait_for_reseed_locked();
        Status st = db_->erase(key);
        if (!st.ok()) return st;
        rec.seq = next_seq_++;
        rec.op = static_cast<std::uint8_t>(Op::kErase);
        rec.key = std::string(key);
        append_to_log(rec);
        persist_meta_locked();
    }
    const std::uint64_t first = rec.seq;
    std::vector<Record> batch{std::move(rec)};
    for (auto& peer : peer_states_) ship_to_peer(*peer, first, batch);
    return Status::OK();
}

Result<std::pair<std::uint64_t, std::uint64_t>> ReplicaSet::put_packed(hep::Buffer packed,
                                                                       bool overwrite,
                                                                       std::uint32_t epoch) {
    std::uint64_t stored = 0, already = 0;
    Record rec;
    {
        abt::LockGuard guard(mu_);
        wait_for_reseed_locked();
        // Unpack as views anchored in `packed`: the local store, the log
        // record, and every peer ship all reference the same immutable bytes.
        hep::BufferChain entries;
        entries.append(packed.view());
        bool well_formed = yokan::proto::unpack_entries_chain(
            entries, [&](std::string_view k, hep::BufferView v) {
                Status st = db_->put_stamped(k, std::move(v), overwrite, epoch);
                if (st.ok()) ++stored;
                else if (st.code() == StatusCode::kAlreadyExists) ++already;
            });
        if (!well_formed) return Status::InvalidArgument("malformed packed batch");
        rec.seq = next_seq_++;
        rec.op = static_cast<std::uint8_t>(Op::kPutBatch);
        rec.flags = overwrite ? kFlagOverwrite : 0;
        rec.epoch = epoch;
        rec.value = std::move(packed);  // the whole flush replicates as ONE record
        append_to_log(rec);
        persist_meta_locked();
    }
    const std::uint64_t first = rec.seq;
    std::vector<Record> batch{std::move(rec)};
    for (auto& peer : peer_states_) ship_to_peer(*peer, first, batch);
    return std::make_pair(stored, already);
}

Result<std::uint64_t> ReplicaSet::erase_multi(const std::vector<std::string>& keys) {
    std::uint64_t erased = 0;
    Record rec;
    {
        abt::LockGuard guard(mu_);
        wait_for_reseed_locked();
        std::string packed;
        for (const auto& key : keys) {
            if (db_->erase(key).ok()) ++erased;
            yokan::proto::pack_entry(packed, key, {});
        }
        rec.seq = next_seq_++;
        rec.op = static_cast<std::uint8_t>(Op::kEraseBatch);
        rec.value = hep::Buffer::adopt(std::move(packed));
        append_to_log(rec);
        persist_meta_locked();
    }
    const std::uint64_t first = rec.seq;
    std::vector<Record> batch{std::move(rec)};
    for (auto& peer : peer_states_) ship_to_peer(*peer, first, batch);
    return erased;
}

// ---- replay side -----------------------------------------------------------

Status ReplicaSet::apply_record(const Record& rec) {
    const bool overwrite = (rec.flags & kFlagOverwrite) != 0;
    switch (static_cast<Op>(rec.op)) {
        case Op::kPut: {
            // The backend shares the record's buffer (view anchored in it)
            // rather than copying the value out. put_stamped draws a fresh
            // local seq and carries the origin's epoch, so a backup's
            // visibility state matches the primary's.
            Status st = db_->put_stamped(rec.key, rec.value.view(), overwrite, rec.epoch);
            // Replay is idempotent: a create-mode put that already landed is ok.
            if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
            return Status::OK();
        }
        case Op::kErase: {
            Status st = db_->erase(rec.key);
            if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
            return Status::OK();
        }
        case Op::kPutBatch: {
            Status bad = Status::OK();
            hep::BufferChain entries;
            entries.append(rec.value.view());
            bool well_formed = yokan::proto::unpack_entries_chain(
                entries, [&](std::string_view k, hep::BufferView v) {
                    Status st = db_->put_stamped(k, std::move(v), overwrite, rec.epoch);
                    if (!st.ok() && st.code() != StatusCode::kAlreadyExists && bad.ok()) bad = st;
                });
            if (!well_formed) return Status::InvalidArgument("malformed replicated batch");
            return bad;
        }
        case Op::kEraseBatch: {
            bool well_formed = yokan::proto::unpack_entries(
                rec.value.sv(),
                [&](std::string_view k, std::string_view) { (void)db_->erase(k); });
            if (!well_formed) return Status::InvalidArgument("malformed replicated batch");
            return Status::OK();
        }
    }
    return Status::InvalidArgument("unknown replication op " + std::to_string(rec.op));
}

Result<ApplyResp> ReplicaSet::handle_apply(const ApplyReq& req) {
    if (req.records.empty()) {
        // Heartbeat: first_seq carries the origin's next sequence number, so
        // anything below first_seq - 1 means we missed records.
        ApplyResp resp;
        bool regressed = false;
        {
            abt::LockGuard guard(mu_);
            const std::uint64_t watermark = last_applied_[req.origin];
            if (req.first_seq > watermark + 1) resp.need_from = watermark + 1;
            resp.last_applied = watermark;
            regressed = req.first_seq <= watermark;
        }
        if (regressed) {
            // The origin's sequence counter fell BEHIND our replay watermark:
            // it restarted without its state (volatile backend, lost sidecar)
            // and its database is missing everything it ever authored. Push
            // our full materialized copy back. The origin fixes its counter
            // itself when it sees our last_applied ahead of its own stream.
            //
            // first_seq == 0 is the explicit reseed request: the origin came
            // back from an UNCLEAN sidecar, so its recovered counter may be
            // fine while its store silently lost an acked WAL tail — it asks
            // for the full pushback instead of trusting local state.
            push_state_to_origin(req.origin);
        }
        return resp;
    }
    abt::LockGuard guard(mu_);
    std::uint64_t& watermark = last_applied_[req.origin];
    ApplyResp resp;
    if (req.first_seq > watermark + 1) {
        // Gap before this batch even starts: ask for a resend, apply nothing
        // (applying out of order would reorder a put after its erase).
        resp.need_from = watermark + 1;
        resp.last_applied = watermark;
        return resp;
    }
    for (const auto& rec : req.records) {
        if (rec.seq <= watermark) continue;  // duplicate (repair overlap)
        if (rec.seq != watermark + 1) {
            resp.need_from = watermark + 1;
            break;
        }
        Status st = apply_record(rec);
        if (!st.ok()) return st;
        watermark = rec.seq;
        ++stats_.records_applied;
        ++applies_since_persist_;
    }
    resp.last_applied = watermark;
    persist_meta_locked();
    return resp;
}

Status ReplicaSet::handle_snapshot(const SnapshotReq& req) {
    abt::LockGuard guard(mu_);
    // put() routes through put_stamped(epoch=0) in both backends, so reseeded
    // entries get fresh local stamps and publish markers are observed. A full
    // reseed cannot reconstruct unpublished-epoch tags (documented limitation;
    // log-based repair, the failover path, preserves them).
    bool well_formed =
        yokan::proto::unpack_entries(req.packed, [&](std::string_view k, std::string_view v) {
            (void)db_->put(k, v, true);
        });
    if (!well_formed) return Status::InvalidArgument("malformed snapshot chunk");
    ++stats_.snapshot_chunks_received;
    if (req.last) {
        std::uint64_t& watermark = last_applied_[req.origin];
        watermark = std::max(watermark, req.upto_seq);
        applies_since_persist_ += kSeqHeadroom;  // force a sidecar rewrite
        persist_meta_locked();
    }
    return Status::OK();
}

// ---- shipping --------------------------------------------------------------

void ReplicaSet::ship_to_peer(Peer& peer, std::uint64_t first_seq,
                              const std::vector<Record>& records) {
    abt::LockGuard ship(peer.ship_mutex);
    if (ship_locked(peer, first_seq, records)) reseed_from(peer);
}

bool ReplicaSet::ship_locked(Peer& peer, std::uint64_t first_seq,
                             const std::vector<Record>& records) {
    ApplyReq req;
    req.db = peer.target.db;
    req.origin = self_.str();
    req.first_seq = first_seq;
    req.records = records;
    auto resp = engine_.forward<ApplyReq, ApplyResp>(
        peer.target.server, "replica_apply", peer.target.provider, req, kPeerRpcDeadline,
        kControlTag);
    std::uint64_t need = 0;
    bool lost_state = false;
    {
        abt::LockGuard guard(mu_);
        if (!resp.ok()) {
            ++stats_.ship_failures;
            return false;
        }
        stats_.records_shipped += records.size();
        for (const auto& rec : records) stats_.bytes_shipped += rec.bytes();
        peer.acked = std::max(peer.acked, resp->last_applied);
        need = resp->need_from;
        if (resp->last_applied >= first_seq + records.size() &&
            skip_counter_past_locked(resp->last_applied) && !records.empty()) {
            // A write, not a probe heartbeat, was the first contact since
            // the restart, so the peer skipped it as a duplicate and saw no
            // regression to reseed us for. Deliver the renumbered records
            // now, then ask for its full copy (after them, so it cannot
            // overwrite them). Local writes wait from here until the copy
            // has landed.
            need = resp->last_applied + 1;
            lost_state = true;
            ++reseeding_;
        }
    }
    if (need > 0) repair_peer(peer, need);
    return lost_state;
}

void ReplicaSet::reseed_from(Peer& peer) {
    // Caller holds peer.ship_mutex (and must NOT hold mu_) and has closed the
    // write gate: the peer streams its snapshot into our handle_snapshot
    // before the forward returns, overwriting what we hold.
    ApplyReq req;  // no records, first_seq 0: the reseed sentinel
    req.db = peer.target.db;
    req.origin = self_.str();
    auto resp = engine_.forward<ApplyReq, ApplyResp>(
        peer.target.server, "replica_apply", peer.target.provider, req, kPeerRpcDeadline,
        kControlTag);
    abt::LockGuard guard(mu_);
    if (resp.ok()) {
        ++stats_.reseed_requests;
        peer.acked = std::max(peer.acked, resp->last_applied);
        skip_counter_past_locked(resp->last_applied);
    } else {
        ++stats_.ship_failures;
    }
    // The log holds only records this set issued since it was configured,
    // none older than the peer's copy of its key, yet one applied before the
    // gate closed may still wait for its ship (and a failed stream may have
    // landed in part): replay the log over the copy so none is rolled back.
    for (const auto& rec : log_) (void)apply_record(rec);
    if (--reseeding_ == 0) reseed_done_.notify_all();
}

bool ReplicaSet::skip_counter_past_locked(std::uint64_t peer_applied) {
    // The peer has applied more of OUR stream than we ever issued: we
    // restarted without our sidecar and the counter regressed. Jump past
    // everything the peer has seen — reusing those numbers would make it
    // skip new records as duplicates — and renumber any post-restart log
    // records so gap repair can still deliver them.
    std::uint64_t next = peer_applied + 1;
    if (next <= next_seq_) return false;
    for (auto& rec : log_) {
        if (rec.seq < next) rec.seq = next++;
    }
    next_seq_ = next;
    persist_meta_locked();
    return true;
}

void ReplicaSet::wait_for_reseed_locked() {
    reseed_done_.wait(mu_, [this] { return reseeding_ == 0; });
}

void ReplicaSet::repair_peer(Peer& peer, std::uint64_t need_from) {
    // Caller holds peer.ship_mutex (and must NOT hold mu_).
    for (int round = 0; round < 8 && need_from > 0; ++round) {
        std::vector<Record> resend;
        std::uint64_t log_first = 0;
        bool use_snapshot = false;
        std::vector<std::string> chunks;
        std::uint64_t upto = 0;
        {
            abt::LockGuard guard(mu_);
            log_first = log_.empty() ? next_seq_ : log_.front().seq;
            if (need_from >= next_seq_) return;  // peer is already caught up
            if (need_from < log_first) {
                // The log was trimmed past the gap: stream the full state.
                use_snapshot = true;
                upto = next_seq_ - 1;
                std::string chunk;
                chunk.reserve(kSnapshotChunk + 4096);
                (void)db_->scan({}, {}, true, [&](std::string_view k, std::string_view v) {
                    yokan::proto::pack_entry(chunk, k, v);
                    if (chunk.size() >= kSnapshotChunk) {
                        chunks.push_back(std::move(chunk));
                        chunk.clear();
                        chunk.reserve(kSnapshotChunk + 4096);
                    }
                    return true;
                });
                chunks.push_back(std::move(chunk));  // final (possibly empty) chunk
            } else {
                for (const auto& rec : log_) {
                    if (rec.seq < need_from) continue;
                    resend.push_back(rec);
                    if (resend.size() >= kResendBatch) break;
                }
            }
        }
        if (use_snapshot) {
            for (std::size_t i = 0; i < chunks.size(); ++i) {
                SnapshotReq snap;
                snap.db = peer.target.db;
                snap.origin = self_.str();
                snap.upto_seq = upto;
                snap.packed = std::move(chunks[i]);
                snap.last = (i + 1 == chunks.size());
                auto ack =
                    engine_.forward<SnapshotReq, Ack>(peer.target.server, "replica_snapshot",
                                                      peer.target.provider, snap,
                                                      kPeerRpcDeadline, kControlTag);
                if (!ack.ok()) {
                    abt::LockGuard guard(mu_);
                    ++stats_.ship_failures;
                    return;
                }
            }
            abt::LockGuard guard(mu_);
            ++stats_.snapshots_sent;
            ++stats_.gaps_repaired;
            peer.acked = std::max(peer.acked, upto);
            return;
        }
        if (resend.empty()) return;
        ApplyReq req;
        req.db = peer.target.db;
        req.origin = self_.str();
        req.first_seq = resend.front().seq;
        req.records = std::move(resend);
        auto resp = engine_.forward<ApplyReq, ApplyResp>(
            peer.target.server, "replica_apply", peer.target.provider, req, kPeerRpcDeadline,
            kControlTag);
        {
            abt::LockGuard guard(mu_);
            if (!resp.ok()) {
                ++stats_.ship_failures;
                return;
            }
            stats_.records_shipped += req.records.size();
            for (const auto& rec : req.records) stats_.bytes_shipped += rec.bytes();
            peer.acked = std::max(peer.acked, resp->last_applied);
            if (resp->need_from == 0 || resp->need_from <= need_from) {
                // Either repaired, or no forward progress is possible.
                if (resp->need_from == 0) ++stats_.gaps_repaired;
                return;
            }
            need_from = resp->need_from;
        }
    }
}

void ReplicaSet::push_state_to_origin(const std::string& origin) {
    Peer* peer = nullptr;
    for (auto& p : peer_states_) {
        if (p->target.str() == origin) {
            peer = p.get();
            break;
        }
    }
    if (!peer) return;  // origin is not in our group (stale wiring)
    abt::LockGuard ship(peer->ship_mutex);
    std::vector<std::string> chunks;
    std::uint64_t upto = 0;
    {
        abt::LockGuard guard(mu_);
        upto = next_seq_ - 1;
        std::string chunk;
        chunk.reserve(kSnapshotChunk + 4096);
        (void)db_->scan({}, {}, true, [&](std::string_view k, std::string_view v) {
            yokan::proto::pack_entry(chunk, k, v);
            if (chunk.size() >= kSnapshotChunk) {
                chunks.push_back(std::move(chunk));
                chunk.clear();
                chunk.reserve(kSnapshotChunk + 4096);
            }
            return true;
        });
        chunks.push_back(std::move(chunk));  // final (possibly empty) chunk
    }
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        SnapshotReq snap;
        snap.db = peer->target.db;
        snap.origin = self_.str();
        snap.upto_seq = upto;
        snap.packed = std::move(chunks[i]);
        snap.last = (i + 1 == chunks.size());
        auto ack = engine_.forward<SnapshotReq, Ack>(peer->target.server, "replica_snapshot",
                                                     peer->target.provider, snap,
                                                     kPeerRpcDeadline, kControlTag);
        if (!ack.ok()) {
            abt::LockGuard guard(mu_);
            ++stats_.ship_failures;
            return;
        }
    }
    abt::LockGuard guard(mu_);
    ++stats_.reseeds_sent;
}

void ReplicaSet::probe_peers() {
    std::uint64_t next;
    bool reseed = false;
    {
        abt::LockGuard guard(mu_);
        next = next_seq_;
        reseed = recovering_;
        recovering_ = false;  // one reseed round per unclean boot
        if (reseed) reseeding_ += peer_states_.size();
    }
    if (reseed) {
        // The sidecar survived but lacked the clean-shutdown marker: the
        // store may have lost an acked WAL tail that the sequence counter
        // (persisted with headroom, never regressing) cannot reveal. Send
        // the first_seq = 0 sentinel so every peer treats us as regressed
        // and streams its full copy back; the snapshots are idempotent
        // overwrite-puts, so a loss-free recovery just re-applies itself.
        HEP_LOG_WARN("replica %s/%s: unclean restart, requesting reseed from %zu peer(s)",
                     self_.db.c_str(), self_.str().c_str(), peer_states_.size());
        for (auto& peer : peer_states_) {
            abt::LockGuard ship(peer->ship_mutex);
            reseed_from(*peer);
        }
        return;
    }
    static const std::vector<Record> kNone;
    for (auto& peer : peer_states_) ship_to_peer(*peer, next, kNone);
}

// ---- log + persistence -----------------------------------------------------

void ReplicaSet::append_to_log(Record rec) {
    log_.push_back(std::move(rec));
    while (log_.size() > log_capacity_) log_.pop_front();
}

void ReplicaSet::persist_meta_locked(bool clean) {
    if (meta_path_.empty()) return;
    const std::uint64_t ceiling = ceil_to_headroom(next_seq_);
    // Rewrite when the sequence counter crosses its persisted ceiling, or the
    // replay watermarks have advanced enough to be worth saving. A stale-low
    // watermark on recovery only costs idempotent replay. The destructor's
    // clean-marker rewrite always goes through.
    if (!clean && ceiling == persisted_seq_ && applies_since_persist_ < kSeqHeadroom) return;
    json::Value meta = json::Value::make_object();
    meta["next_seq"] = json::Value(ceiling);
    meta["clean"] = json::Value(clean);
    json::Value applied = json::Value::make_object();
    for (const auto& [origin, seq] : last_applied_) applied[origin] = json::Value(seq);
    meta["last_applied"] = applied;
    std::ofstream out(meta_path_, std::ios::trunc);
    if (out) {
        out << meta.dump();
        persisted_seq_ = ceiling;
        applies_since_persist_ = 0;
    }
}

void ReplicaSet::load_meta() {
    if (meta_path_.empty()) return;
    auto parsed = json::parse_file(meta_path_);
    if (!parsed.ok()) return;  // first boot: no sidecar yet
    const json::Value& meta = parsed.value();
    const std::uint64_t saved = static_cast<std::uint64_t>(meta["next_seq"].as_int());
    if (saved > next_seq_) next_seq_ = saved;
    persisted_seq_ = saved;
    // No clean-shutdown marker (crash, kill -9, pre-marker sidecar): the
    // store cannot prove it kept every acked write, so ask for a reseed on
    // the first probe pass.
    recovering_ = !meta["clean"].as_bool(false);
    const json::Value& applied = meta["last_applied"];
    if (applied.is_object()) {
        json::Value mutable_applied = applied;
        for (const auto& [origin, seq] : mutable_applied.object()) {
            last_applied_[origin] = static_cast<std::uint64_t>(seq.as_int());
        }
    }
    // Mount-dirty: re-stamp the sidecar unclean right away, so the marker is
    // only ever trusted when the destructor really ran last. Without this, a
    // set torn down and recreated mid-operation (a re-wire after a failover
    // promotion) would leave a `clean: true` file on disk while later applies
    // still sit in an unsynced WAL tail.
    applies_since_persist_ += kSeqHeadroom;  // force the rewrite
    persist_meta_locked();
}

// ---- stats -----------------------------------------------------------------

ReplicaStats ReplicaSet::stats() const {
    abt::LockGuard guard(mu_);
    return stats_;
}

json::Value ReplicaSet::stats_json() const {
    ReplicaStats s;
    std::uint64_t seq = 0;
    std::uint64_t min_acked = 0;
    {
        abt::LockGuard guard(mu_);
        s = stats_;
        seq = next_seq_ - 1;
        min_acked = seq;
        for (const auto& peer : peer_states_) min_acked = std::min(min_acked, peer->acked);
    }
    json::Value v = json::Value::make_object();
    v["db"] = json::Value(self_.db);
    v["self"] = json::Value(self_.str());
    v["seq"] = json::Value(seq);
    v["records_shipped"] = json::Value(s.records_shipped);
    v["bytes_shipped"] = json::Value(s.bytes_shipped);
    v["ship_failures"] = json::Value(s.ship_failures);
    v["records_applied"] = json::Value(s.records_applied);
    v["gaps_repaired"] = json::Value(s.gaps_repaired);
    v["snapshots_sent"] = json::Value(s.snapshots_sent);
    v["snapshot_chunks_received"] = json::Value(s.snapshot_chunks_received);
    v["reseeds_sent"] = json::Value(s.reseeds_sent);
    v["reseed_requests"] = json::Value(s.reseed_requests);
    // Replication lag: how far the slowest peer's acked watermark trails us.
    v["max_lag"] = json::Value(peer_states_.empty() ? 0 : seq - min_acked);
    json::Value peers = json::Value::make_array();
    for (const auto& p : peers_) peers.push_back(json::Value(p.str()));
    v["peers"] = peers;
    return v;
}

}  // namespace hep::replica
