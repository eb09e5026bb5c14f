// In-memory span recorder for the benchmark's traced run. Spans are recorded
// by the benchmark around its calls into each layer's public API (nothing
// inside src/ is instrumented), kept in per-thread buffers, and folded into
// per-name self times when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0: root
    const char* name = "";     // a string literal naming the layer called
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Per-name fold of a trace: durations and self times (span minus the part
/// of its interval that its children cover).
struct SpanStats {
    std::vector<double> durations_us;
    double self_us = 0.0;
};

class Tracer {
  public:
    /// A disabled tracer records nothing; Scope costs one branch.
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    class Scope {
      public:
        Scope(Tracer& t, const char* name, std::uint32_t parent) : t_(t) {
            if (!t_.enabled_) return;
            span_.id = t_.next_id_.fetch_add(1, std::memory_order_relaxed);
            span_.parent = parent;
            span_.name = name;
            span_.start_ns = now_ns();
        }
        ~Scope() {
            if (!t_.enabled_) return;
            span_.end_ns = now_ns();
            t_.local().push_back(span_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Pass to child scopes (also across threads).
        [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

      private:
        Tracer& t_;
        Span span_;
    };

    /// Fold every recorded span into per-name statistics.
    [[nodiscard]] std::map<std::string, SpanStats> fold() const {
        std::vector<Span> all;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& buf : buffers_) all.insert(all.end(), buf->begin(), buf->end());
        }
        return fold_spans(std::move(all));
    }

    static std::map<std::string, SpanStats> fold_spans(std::vector<Span> all) {
        std::map<std::uint32_t, std::size_t> index;
        for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
        std::vector<std::vector<std::size_t>> children(all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            auto it = index.find(all[i].parent);
            if (all[i].parent != 0 && it != index.end()) children[it->second].push_back(i);
        }
        std::map<std::string, SpanStats> out;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const Span& s = all[i];
            // Children may run concurrently (ranks); their clipped intervals
            // are merged so covered time is counted once.
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (std::size_t c : children[i]) {
                const auto b = std::max(all[c].start_ns, s.start_ns);
                const auto e = std::min(all[c].end_ns, s.end_ns);
                if (e > b) iv.emplace_back(b, e);
            }
            std::sort(iv.begin(), iv.end());
            std::int64_t covered = 0, cur_b = 0, cur_e = -1;
            for (const auto& [b, e] : iv) {
                if (b > cur_e) {
                    if (cur_e > cur_b) covered += cur_e - cur_b;
                    cur_b = b;
                    cur_e = e;
                } else {
                    cur_e = std::max(cur_e, e);
                }
            }
            if (cur_e > cur_b) covered += cur_e - cur_b;
            auto& st = out[s.name];
            const double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
            st.durations_us.push_back(dur_us);
            st.self_us += dur_us - static_cast<double>(covered) * 1e-3;
        }
        return out;
    }

  private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /// This OS thread's span buffer (one tracer per process).
    std::vector<Span>& local() {
        thread_local std::vector<Span>* buf = nullptr;
        if (buf == nullptr) {
            auto owned = std::make_unique<std::vector<Span>>();
            buf = owned.get();
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::move(owned));
        }
        return *buf;
    }

    const bool enabled_;
    std::atomic<std::uint32_t> next_id_{1};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

}  // namespace perfbench
