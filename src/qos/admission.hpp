// Server-side admission control & QoS (ISSUE 5 tentpole).
//
// One AdmissionController guards a service process's whole RPC surface. It
// runs in two places on the request path:
//
//  1. At RPC dispatch (on the thread that delivers the request, BEFORE a
//     handler ULT is created): validate the QoS stamp, early-drop requests whose
//     propagated deadline already expired in transit, debit the tenant's
//     token bucket, and shed with Status::Overloaded (+ retry-after hint)
//     when the service is past its shed threshold. Rejected requests never
//     burn a handler ULT.
//
//  2. In the handler ULT (margo's dispatch wrapper): measure queue wait
//     (ULT creation -> first run) separately from handler execution time,
//     early-drop requests that expired while queued, and apply the tier-1
//     slowdown (cooperative yields for bulk classes) when the inflight count
//     crosses the slowdown threshold — the same two-tier scheme as the LSM
//     write path's slowdown/stop backpressure.
//
// Class 0 (control: replication ships, failover probes) is exempt from
// token buckets and shedding, so failover never starves behind tenant load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "qos/context.hpp"

namespace hep::qos {

using Clock = std::chrono::steady_clock;

/// Continuous-refill token bucket (tokens/second + burst capacity).
class TokenBucket {
  public:
    TokenBucket(double rate, double burst) : rate_(rate), burst_(burst), tokens_(burst) {}

    /// Take one token. Returns empty on success; otherwise the milliseconds
    /// until a token will be available (the shed retry-after hint).
    std::optional<std::uint32_t> try_take(Clock::time_point now);

    [[nodiscard]] double level() const;
    [[nodiscard]] double rate() const noexcept { return rate_; }

  private:
    mutable std::mutex mutex_;
    double rate_;
    double burst_;
    double tokens_;
    Clock::time_point last_{};
    bool started_ = false;
};

/// Per-tenant rate limit; rate 0 = unlimited (no bucket).
struct TenantLimit {
    double rate = 0;
    double burst = 0;
};

struct AdmissionOptions {
    /// Weighted-fair scheduling weights per priority class (control,
    /// interactive, batch, bulk). Every weight must be >= 1 so no class can
    /// starve outright; the ratios set how handler slots divide under load.
    std::vector<std::uint32_t> weights = {32, 16, 4, 1};
    /// Tier 1: when this many admitted requests are in flight, classes >=
    /// `slowdown_min_class` pause (cooperative yields) before executing.
    std::uint32_t slowdown_inflight = 64;
    /// Tier 2: past this, non-control requests are shed with Overloaded.
    std::uint32_t shed_inflight = 256;
    /// Retry-after hint attached to queue-depth sheds.
    std::uint32_t retry_after_ms = 25;
    /// First class subject to the tier-1 slowdown (default: batch and bulk).
    std::uint8_t slowdown_min_class = kClassBatch;
    /// Upper bound on one request's slowdown pause.
    std::uint32_t max_slowdown_ms = 20;
    /// Applied to tenants without an explicit entry; rate 0 = unlimited.
    TenantLimit default_limit;
    std::map<std::string, TenantLimit> tenant_limits;

    /// Parse the bedrock "qos" knob; missing fields keep their defaults.
    static AdmissionOptions from_json(const json::Value& cfg);
};

/// Compact log2-bucketed latency histogram (microsecond samples). A local
/// clone of symbio::Histogram: the qos library sits below margo in the link
/// order, so it cannot reuse symbio's (symbio links margo links qos).
class LatencyHist {
  public:
    static constexpr std::size_t kBuckets = 40;

    void observe_us(double us) noexcept;
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double mean_us() const noexcept;
    /// Upper bound of the bucket holding the q-quantile (q in [0,1]).
    [[nodiscard]] double quantile_upper_bound_us(double q) const noexcept;
    [[nodiscard]] json::Value to_json() const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0};
};

/// Outcome of the ULT-side start check.
enum class StartVerdict { kRun, kExpiredInQueue };

class AdmissionController {
  public:
    explicit AdmissionController(AdmissionOptions opts);

    [[nodiscard]] const AdmissionOptions& options() const noexcept { return opts_; }

    /// Dispatch-time admission (delivering thread; called once per request
    /// BEFORE the handler ULT exists). OK = admitted (inflight incremented);
    /// otherwise the returned status is the error response: InvalidArgument
    /// (malformed stamp), DeadlineExceeded (expired on arrival) or
    /// Overloaded (+ retry-after hint).
    Status admit(std::uint16_t provider, const std::string& tenant, std::uint8_t cls,
                 std::uint32_t budget_ms, Clock::time_point arrival);

    /// ULT-side start check: records the class's queue delay and drops
    /// requests that expired while queued (decrements inflight itself when
    /// it returns kExpiredInQueue — do not call on_complete for those).
    StartVerdict on_start(std::uint16_t provider, std::uint8_t cls, std::uint32_t budget_ms,
                          Clock::time_point arrival, Clock::time_point enqueued);

    /// Handler finished (any outcome): records exec time, decrements inflight.
    void on_complete(std::uint8_t cls, double exec_us);

    /// Tier-1 backpressure: true while `cls` should keep yielding.
    [[nodiscard]] bool should_slow(std::uint8_t cls) const noexcept;

    /// Cooperative pause for slowed classes, bounded by max_slowdown_ms.
    /// Yields the calling ULT so higher classes run; safe on plain threads.
    void slowdown_pause(std::uint8_t cls);

    /// Normalize a wire class: unset -> batch; out-of-range -> nullopt.
    [[nodiscard]] static std::optional<std::uint8_t> normalize_class(std::uint8_t cls) noexcept;

    // ---- introspection ------------------------------------------------------
    [[nodiscard]] std::uint32_t inflight() const noexcept {
        return inflight_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t admitted() const noexcept { return total_.admitted.load(); }
    [[nodiscard]] std::uint64_t shed() const noexcept { return total_.shed.load(); }
    [[nodiscard]] std::uint64_t expired() const noexcept {
        return total_.expired_on_arrival.load() + total_.expired_in_queue.load();
    }
    [[nodiscard]] std::uint64_t malformed() const noexcept { return total_.malformed.load(); }
    [[nodiscard]] std::uint64_t slowdowns() const noexcept { return total_.slowdowns.load(); }

    /// Symbio source body for one provider: that provider's admission
    /// counters plus the shared per-class queue-delay/exec histograms,
    /// inflight level and per-tenant token-bucket levels.
    [[nodiscard]] json::Value stats_json(std::uint16_t provider) const;
    /// Aggregate over all providers.
    [[nodiscard]] json::Value stats_json() const;

  private:
    struct Counters {
        std::atomic<std::uint64_t> admitted{0};
        std::atomic<std::uint64_t> shed{0};
        std::atomic<std::uint64_t> expired_on_arrival{0};
        std::atomic<std::uint64_t> expired_in_queue{0};
        std::atomic<std::uint64_t> malformed{0};
        std::atomic<std::uint64_t> slowdowns{0};

        [[nodiscard]] json::Value to_json() const;
    };

    TokenBucket* bucket_for(const std::string& tenant);
    Counters& provider_counters(std::uint16_t provider);

    AdmissionOptions opts_;
    std::atomic<std::uint32_t> inflight_{0};

    Counters total_;
    mutable std::mutex providers_mutex_;
    std::map<std::uint16_t, std::unique_ptr<Counters>> per_provider_;

    mutable std::mutex buckets_mutex_;
    std::map<std::string, std::unique_ptr<TokenBucket>> buckets_;

    std::array<LatencyHist, kNumClasses> queue_delay_;
    std::array<LatencyHist, kNumClasses> exec_time_;
    std::array<std::atomic<std::uint64_t>, kNumClasses> admitted_by_class_{};
};

}  // namespace hep::qos
