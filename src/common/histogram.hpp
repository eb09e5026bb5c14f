// The one histogram type: QoS queue/exec times, lease-cache read latencies
// and the saturation harness's latency distributions all record into it.
//
// Log-linear bucketing (the HDR histogram layout): values below 32 get a bucket
// each; above that, every power-of-two octave is split into 32 linear
// sub-buckets, so a bucket's upper edge is at most ~3% above any value it
// holds. Quantiles report that upper edge — they may over-report by ~3%,
// never under-report, which is the safe direction for an SLO gate. Values
// past the top octave (2^39 and up) clamp into the top bucket, whose
// quantiles report max() instead of its edge.
//
// Values are unit-free uint64; each caller picks its unit (qos and the lease
// cache record nanoseconds, loadgen microseconds). Every field is a relaxed
// atomic, so any number of threads or ULTs can record into one histogram at
// once. A reader racing with recorders sees each field's latest value, so
// count and buckets may disagree by the samples in flight. A copy is a
// snapshot; merge() adds one histogram into another.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace hep {

class Histogram {
  public:
    static constexpr unsigned kSubBits = 5;    // 32 sub-buckets per octave
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr unsigned kSegments = 34;  // top segment holds [2^38, 2^39)
    static constexpr std::size_t kBuckets = (kSegments + 1) * kSub;

    Histogram() = default;
    Histogram(const Histogram& other) noexcept { merge(other); }
    Histogram& operator=(const Histogram& other) noexcept {
        if (this != &other) {
            for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
            count_.store(0, std::memory_order_relaxed);
            sum_.store(0, std::memory_order_relaxed);
            min_.store(~0ull, std::memory_order_relaxed);
            max_.store(0, std::memory_order_relaxed);
            merge(other);
        }
        return *this;
    }

    void record(std::uint64_t value) noexcept {
        buckets_[index_of(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        keep_max(max_, value);
        keep_min(min_, value);
    }

    /// Adds every sample of `other` into this histogram.
    void merge(const Histogram& other) noexcept {
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const auto n = other.buckets_[i].load(std::memory_order_relaxed);
            if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
        }
        count_.fetch_add(other.count(), std::memory_order_relaxed);
        sum_.fetch_add(other.sum(), std::memory_order_relaxed);
        keep_max(max_, other.max_.load(std::memory_order_relaxed));
        keep_min(min_, other.min_.load(std::memory_order_relaxed));
    }

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t max() const noexcept {
        return count() ? max_.load(std::memory_order_relaxed) : 0;
    }
    [[nodiscard]] std::uint64_t min() const noexcept {
        return count() ? min_.load(std::memory_order_relaxed) : 0;
    }
    [[nodiscard]] double mean() const noexcept {
        const auto n = count();
        return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
    }

    /// Value at quantile q in [0, 1]: the upper edge of the bucket holding
    /// the q-th sample (max() for the top bucket).
    [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
        const auto n = count();
        if (n == 0) return 0;
        q = std::clamp(q, 0.0, 1.0);
        auto target = static_cast<std::uint64_t>(q * static_cast<double>(n));
        if (target >= n) target = n - 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i + 1 < kBuckets; ++i) {
            seen += buckets_[i].load(std::memory_order_relaxed);
            if (seen > target) return upper_edge(i);
        }
        return max();
    }

    /// {count, mean, min, max, p50, p90, p99, p999}: every value but count
    /// divided by `divisor`, every key but count suffixed by `unit`
    /// (e.g. to_json("_us", 1000) for nanosecond samples).
    [[nodiscard]] json::Value to_json(std::string_view unit = "", double divisor = 1.0) const {
        json::Value v = json::Value::make_object();
        v["count"] = count();
        auto put = [&](const char* name, double value) {
            v[std::string(name).append(unit)] = value / divisor;
        };
        put("mean", mean());
        put("min", static_cast<double>(min()));
        put("max", static_cast<double>(max()));
        put("p50", static_cast<double>(quantile(0.50)));
        put("p90", static_cast<double>(quantile(0.90)));
        put("p99", static_cast<double>(quantile(0.99)));
        put("p999", static_cast<double>(quantile(0.999)));
        return v;
    }

  private:
    static void keep_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
        auto cur = slot.load(std::memory_order_relaxed);
        while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {}
    }
    static void keep_min(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
        auto cur = slot.load(std::memory_order_relaxed);
        while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {}
    }

    static std::size_t index_of(std::uint64_t v) noexcept {
        if (v < kSub) return static_cast<std::size_t>(v);  // segment 0: exact
        const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned segment = std::min(msb - kSubBits + 1, kSegments);
        const unsigned shift = segment - 1;
        const auto sub = static_cast<std::size_t>((v >> shift) - kSub);
        return static_cast<std::size_t>(segment) * kSub + std::min<std::size_t>(sub, kSub - 1);
    }

    static std::uint64_t upper_edge(std::size_t index) noexcept {
        const auto segment = static_cast<std::uint64_t>(index / kSub);
        const auto sub = static_cast<std::uint64_t>(index % kSub);
        if (segment == 0) return sub;  // exact in [0, kSub)
        const unsigned shift = static_cast<unsigned>(segment) - 1;
        return ((kSub + sub + 1) << shift) - 1;
    }

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~0ull};
    std::atomic<std::uint64_t> max_{0};
};

}  // namespace hep
