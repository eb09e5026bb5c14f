// symbio: a monitoring component in the spirit of Symbiomon (paper §V):
//
// "HEPnOS has been used throughout its development by other teams to study
//  various aspects of data services, including work on monitoring and
//  performance diagnostics [Symbiomon]. The former helped diagnose
//  performance problems in early development of HEPnOS and led to some of
//  the optimizations listed in this work (batching, parallel event
//  processing)."
//
// A MetricsRegistry holds named counters, gauges and log2-bucketed latency
// histograms, plus pull-based "sources" (closures snapshotting a subsystem,
// e.g. a Yokan database's BackendStats). A symbio::Provider exposes the
// registry over RPC so operators can poll any service process; symbio::fetch_all
// is the client side.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace hep::symbio {

/// Monotonic event counter.
class Counter {
  public:
    void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge.
class Gauge {
  public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0};
};

/// Log2-bucketed histogram for latencies/sizes. Bucket i counts samples in
/// [2^i, 2^(i+1)) (bucket 0 additionally holds [0, 2)).
class Histogram {
  public:
    static constexpr std::size_t kBuckets = 40;

    void observe(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
    [[nodiscard]] double mean() const noexcept {
        const auto n = count();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }
    /// Upper bound of the bucket containing the q-quantile (q in [0,1]).
    [[nodiscard]] double quantile_upper_bound(double q) const noexcept;

    [[nodiscard]] json::Value to_json() const;

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0};
};

class MetricsRegistry {
  public:
    /// Find-or-create. References stay valid for the registry's lifetime.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Pull-based source: snapshot() calls `fn` and embeds its value under
    /// sources/<name>. Use for subsystems that keep their own stats.
    void add_source(const std::string& name, std::function<json::Value()> fn);

    /// Full snapshot: {counters: {...}, gauges: {...}, histograms: {...},
    /// sources: {...}}.
    [[nodiscard]] json::Value snapshot() const;

    /// Snapshot of a single registered source ({} + NotFound status encoded
    /// as a null value if no such source). Lets pollers that only care about
    /// one subsystem skip the cost of evaluating every source closure.
    [[nodiscard]] json::Value source_snapshot(const std::string& name) const;

    /// Names of every registered source, sorted.
    [[nodiscard]] std::vector<std::string> source_names() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::function<json::Value()>> sources_;
};

/// RAII latency sample into a histogram (wall time, seconds).
class ScopedTimer {
  public:
    explicit ScopedTimer(Histogram& hist);
    ~ScopedTimer();
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    Histogram& hist_;
    double start_;
};

}  // namespace hep::symbio
