// Yokan client: a remote handle to one database served by a Provider.
//
// A handle may carry replica::FailoverState: the logical database's replica
// group plus a retry policy. Every operation is then issued through a
// retry/failover loop — transport failures (Unavailable, Timeout,
// DeadlineExceeded) are retried with bounded exponential backoff, and after a
// few attempts the next replica is promoted and the operation transparently
// re-issued against it. Reads can additionally rotate across backups when
// the policy's read_from_replicas flag is set.
//
// A handle may also carry qos::ClientQos: operations are then stamped with
// the policy's tenant + per-op-kind priority class, Overloaded responses trip
// a per-server circuit breaker and are retried after the server's retry-after
// hint (without promoting a replica — the server is alive, just shedding),
// and calls to a server with an open breaker fail fast locally.
#pragma once

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "margo/engine.hpp"
#include "qos/client.hpp"
#include "replica/failover.hpp"
#include "yokan/protocol.hpp"

namespace hep::yokan {

/// Addresses one database instance: (server address, provider id, db name).
/// Cheap to copy; safe to use from many ULTs concurrently.
class DatabaseHandle {
  public:
    DatabaseHandle() = default;
    DatabaseHandle(margo::Engine& engine, std::string server, rpc::ProviderId provider,
                   std::string db_name)
        : engine_(&engine),
          server_(std::move(server)),
          provider_(provider),
          db_(std::move(db_name)) {}

    [[nodiscard]] bool valid() const noexcept { return engine_ != nullptr; }
    [[nodiscard]] const std::string& server() const noexcept { return server_; }
    [[nodiscard]] const std::string& name() const noexcept { return db_; }
    [[nodiscard]] rpc::ProviderId provider() const noexcept { return provider_; }

    /// Attach the replica group + retry policy. The state is SHARED by every
    /// copy of this handle (and every handle of the same logical database
    /// that received the same state), so one ULT's failover promotion is
    /// immediately visible to all of them.
    void set_failover(std::shared_ptr<replica::FailoverState> state) {
        failover_ = std::move(state);
    }
    [[nodiscard]] const std::shared_ptr<replica::FailoverState>& failover() const noexcept {
        return failover_;
    }

    /// Attach the client QoS state (classification policy + circuit breaker),
    /// shared across all handles of one DataStore connection.
    void set_qos(std::shared_ptr<qos::ClientQos> q) { qos_ = std::move(q); }
    [[nodiscard]] const std::shared_ptr<qos::ClientQos>& qos() const noexcept { return qos_; }

    /// A copy of this handle whose every operation is stamped with `cls`
    /// instead of the policy's per-op-kind class (prefetcher/loader use this
    /// to demote themselves to batch/bulk explicitly).
    [[nodiscard]] DatabaseHandle with_class(std::uint8_t cls) const {
        DatabaseHandle h = *this;
        h.class_override_ = cls;
        return h;
    }

    /// A copy of this handle whose every read carries the MVCC pin: the
    /// server resolves get/list/scan/get_multi against snapshot_at(pin.seq)
    /// with pin's epoch filter instead of "latest". Writes are unaffected.
    [[nodiscard]] DatabaseHandle with_snapshot(proto::ReadPin pin) const {
        DatabaseHandle h = *this;
        h.pin_ = std::move(pin);
        return h;
    }
    [[nodiscard]] const proto::ReadPin& snapshot() const noexcept { return pin_; }

    /// Single put ("yokan_put_owned"): the Buffer rides the request by
    /// reference and the server parks the received bytes directly. `epoch`
    /// tags the write with an ingest epoch invisible to snapshot readers
    /// until published (0 = immediately visible).
    Status put(std::string_view key, hep::Buffer value, bool overwrite = true,
               std::uint32_t epoch = 0) const;
    /// Contiguous put: copies `value` into a Buffer, then the same RPC.
    Status put(std::string_view key, std::string_view value, bool overwrite = true,
               std::uint32_t epoch = 0) const {
        return put(key, hep::Buffer::copy_of(value), overwrite, epoch);
    }
    Result<std::string> get(std::string_view key) const;
    /// Zero-copy get: the value comes back as a view anchored to the response
    /// frame (one receive buffer, no per-value copy).
    Result<hep::BufferView> get_view(std::string_view key) const;
    /// Versioned zero-copy get: the value plus the database's mutation seq
    /// (sampled before the read — see proto::GetSeqResp). The read-cache
    /// fills record the seq so expired leases revalidate with one cheap
    /// mutation_seq() probe instead of refetching the value.
    Result<proto::GetSeqResp> get_view_vs(std::string_view key) const;
    /// Current mutation sequence of the database (replica seqs when
    /// replicated, backend put+erase count otherwise).
    Result<std::uint64_t> mutation_seq() const;
    Result<bool> exists(std::string_view key) const;
    Result<std::uint64_t> length(std::string_view key) const;
    Status erase(std::string_view key) const;
    Result<std::vector<std::string>> list_keys(std::string_view after, std::string_view prefix,
                                               std::size_t max = 128) const;
    Result<std::vector<KeyValue>> list_keyvals(std::string_view after, std::string_view prefix,
                                               std::size_t max = 128) const;
    Result<std::uint64_t> count() const;

    /// Paged scan with explicit cursor state: examines up to `max` keys and
    /// reports the exact resume key plus whether the key space ran out.
    Result<proto::ScanResp> scan_page(std::string_view after, std::string_view prefix,
                                      std::size_t max = 128, bool with_values = false) const;

    /// Batched store ("yokan_put_packed"): headers go into one metadata
    /// buffer, the item values ride the RPC payload as referenced views — no
    /// packing copy, no bulk round-trip. Every entry in the batch is tagged
    /// with `epoch`. Returns the number of newly stored pairs.
    Result<std::uint64_t> put_multi(const std::vector<BatchItem>& items,
                                    bool overwrite = true, std::uint32_t epoch = 0) const;

    /// Batched erase; returns how many keys existed and were removed.
    Result<std::uint64_t> erase_multi(const std::vector<std::string>& keys) const;

    /// Batched load: one RPC + one bulk write from the server into a
    /// receive buffer of `buffer_hint` bytes (if that was too small, retried
    /// with the size the server reported plus 1/8, each retry counted as an
    /// undersized receive; values growing under concurrent overwrites get a
    /// few retries before the call fails). Values
    /// land in ONE receive buffer and come back as refcounted views into it
    /// (missing keys = nullopt). The views share the buffer's storage, so
    /// they stay valid independently, and keep all of it alive: a hint close
    /// to the reply's size keeps cached views from pinning unused bytes.
    /// `seq_out`, when non-null, receives the database's mutation seq sampled
    /// before the reads (so read-cache bulk fills get versioning for free).
    Result<std::vector<std::optional<hep::BufferView>>> get_multi_views(
        const std::vector<std::string>& keys, std::size_t buffer_hint,
        std::uint64_t* seq_out = nullptr) const;

  private:
    /// One wire attempt against `server`, wrapped with the circuit breaker:
    /// an open breaker fails fast locally (same Overloaded shape, remaining
    /// window as the hint), a shed response trips it, a success closes it.
    template <typename T, typename Fn>
    Result<T> attempt_once(Fn& op, const std::string& server, rpc::ProviderId provider,
                           const std::string& db) const {
        if (qos_) {
            if (auto left = qos_->breaker().open_for(server)) {
                qos_->note_fast_fail();
                return qos::make_overloaded(*left, "circuit breaker open for " + server);
            }
        }
        Result<T> r = op(server, provider, db);
        if (qos_) {
            if (r.ok()) {
                qos_->breaker().reset(server);
            } else if (r.status().code() == StatusCode::kOverloaded) {
                qos_->note_overloaded();
                qos_->breaker().trip(server, overload_wait_ms(r.status()));
            }
        }
        return r;
    }

    /// The clamped retry-after hint of an Overloaded status (milliseconds).
    [[nodiscard]] std::uint32_t overload_wait_ms(const Status& st) const {
        const std::uint32_t cap = qos_ ? qos_->policy().max_retry_after_ms : 1000;
        const std::uint32_t hint = qos::retry_after_ms(st).value_or(1);
        return std::min(std::max<std::uint32_t>(1, hint), cap);
    }

    /// Sleep out a shed's retry-after window (yielding, ULT-friendly).
    void overload_backoff(const Status& st) const {
        const auto end = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(overload_wait_ms(st));
        while (std::chrono::steady_clock::now() < end) {
            abt::yield();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /// Run `op(server, provider, db)` through the retry/failover loop (or
    /// an Overloaded-only retry loop when no failover state is attached).
    /// Overloaded retries wait the server's retry-after hint and re-issue
    /// against the SAME target — shedding is not failure, so it never
    /// promotes a replica or counts toward the per-target attempt budget.
    template <typename T, typename Fn>
    Result<T> with_failover(bool is_read, Fn&& op) const {
        if (!failover_) {
            Result<T> r = attempt_once<T>(op, server_, provider_, db_);
            if (!qos_) return r;
            std::uint32_t sheds = 0;
            while (!r.ok() && r.status().code() == StatusCode::kOverloaded &&
                   sheds < qos_->policy().max_overload_retries) {
                ++sheds;
                overload_backoff(r.status());
                r = attempt_once<T>(op, server_, provider_, db_);
            }
            if (r.ok() && sheds > 0) qos_->note_retry_success();
            return r;
        }
        auto& fo = *failover_;
        const auto& policy = fo.policy();
        std::size_t idx = is_read ? fo.read_start() : fo.primary();
        std::uint32_t tried_here = 0;
        bool was_shed = false;
        Result<T> last = Status::Unavailable("no replica of '" + db_ + "' reachable");
        for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
            const replica::Target& t = fo.target(idx);
            Result<T> r = attempt_once<T>(op, t.server, t.provider, t.db);
            if (r.ok()) {
                if (was_shed && qos_) qos_->note_retry_success();
                return r;
            }
            if (!replica::FailoverState::retryable(r.status().code())) return r;
            last = std::move(r);
            fo.count_retry();
            if (last.status().code() == StatusCode::kOverloaded) {
                was_shed = true;
                overload_backoff(last.status());
                continue;
            }
            if (++tried_here >= policy.attempts_per_target) {
                // This replica looks dead. If it was the group primary,
                // promote the next one for everybody; either way move on.
                if (idx == fo.primary()) fo.promote(idx);
                idx = is_read ? (idx + 1) % fo.size() : fo.primary();
                tried_here = 0;
            } else if (!is_read) {
                idx = fo.primary();  // another ULT may have promoted meanwhile
            }
            fo.backoff(attempt);
        }
        return last;
    }

    /// QoS stamp for one operation kind; the explicit class override (from
    /// with_class) wins over the policy's per-kind class.
    [[nodiscard]] qos::QosTag tag(qos::QosTag base) const {
        if (class_override_ != qos::kClassUnset) {
            if (base.tenant.empty() && qos_) base.tenant = qos_->policy().tenant;
            base.cls = class_override_;
        }
        return base;
    }
    [[nodiscard]] qos::QosTag point_tag() const {
        return tag(qos_ ? qos_->point_tag() : qos::QosTag{});
    }
    [[nodiscard]] qos::QosTag scan_tag() const {
        return tag(qos_ ? qos_->scan_tag() : qos::QosTag{});
    }
    [[nodiscard]] qos::QosTag bulk_tag() const {
        return tag(qos_ ? qos_->bulk_tag() : qos::QosTag{});
    }

    /// Per-attempt RPC deadline from the failover policy (zero otherwise).
    [[nodiscard]] std::chrono::milliseconds deadline() const noexcept {
        return std::chrono::milliseconds{failover_ ? failover_->policy().deadline_ms : 0};
    }

    margo::Engine* engine_ = nullptr;
    std::string server_;
    rpc::ProviderId provider_ = 0;
    std::string db_;
    std::shared_ptr<replica::FailoverState> failover_;
    std::shared_ptr<qos::ClientQos> qos_;
    std::uint8_t class_override_ = qos::kClassUnset;
    proto::ReadPin pin_;  // seq 0 = read latest
};

}  // namespace hep::yokan
