#include "qos/admission.hpp"

#include <algorithm>
#include <cmath>

#include "abt/ult.hpp"

namespace hep::qos {

// ---- TokenBucket ------------------------------------------------------------

std::optional<std::uint32_t> TokenBucket::try_take(Clock::time_point now) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) {
        last_ = now;
        started_ = true;
    }
    if (now > last_) {
        const double elapsed = std::chrono::duration<double>(now - last_).count();
        tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
        last_ = now;
    }
    if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        return std::nullopt;
    }
    const double deficit = 1.0 - tokens_;
    const double wait_ms = rate_ > 0 ? (deficit / rate_) * 1000.0 : 1000.0;
    return static_cast<std::uint32_t>(std::max(1.0, std::ceil(wait_ms)));
}

double TokenBucket::level() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tokens_;
}

// ---- AdmissionOptions -------------------------------------------------------

AdmissionOptions AdmissionOptions::from_json(const json::Value& cfg) {
    AdmissionOptions opts;
    if (!cfg.is_object()) return opts;

    if (cfg["weights"].is_array()) {
        std::vector<std::uint32_t> weights;
        for (std::size_t i = 0; i < cfg["weights"].size() && i < kNumClasses; ++i) {
            const auto w = cfg["weights"].at(i).as_int(1);
            weights.push_back(static_cast<std::uint32_t>(std::max<std::int64_t>(1, w)));
        }
        if (!weights.empty()) {
            while (weights.size() < kNumClasses) weights.push_back(1);
            opts.weights = std::move(weights);
        }
    }
    if (cfg["slowdown_inflight"].is_number())
        opts.slowdown_inflight =
            static_cast<std::uint32_t>(std::max<std::int64_t>(1, cfg["slowdown_inflight"].as_int()));
    if (cfg["shed_inflight"].is_number())
        opts.shed_inflight =
            static_cast<std::uint32_t>(std::max<std::int64_t>(1, cfg["shed_inflight"].as_int()));
    if (cfg["retry_after_ms"].is_number())
        opts.retry_after_ms =
            static_cast<std::uint32_t>(std::max<std::int64_t>(1, cfg["retry_after_ms"].as_int()));
    if (cfg["slowdown_min_class"].is_string()) {
        if (auto cls = parse_class(cfg["slowdown_min_class"].as_string())) {
            opts.slowdown_min_class = *cls;
        }
    }
    if (cfg["max_slowdown_ms"].is_number())
        opts.max_slowdown_ms =
            static_cast<std::uint32_t>(std::max<std::int64_t>(0, cfg["max_slowdown_ms"].as_int()));

    auto parse_limit = [](const json::Value& v) {
        TenantLimit limit;
        limit.rate = std::max(0.0, v["rate"].as_double());
        limit.burst = v["burst"].is_number() ? std::max(1.0, v["burst"].as_double())
                                             : std::max(1.0, limit.rate);
        return limit;
    };
    if (cfg["default_limit"].is_object()) opts.default_limit = parse_limit(cfg["default_limit"]);
    if (cfg["tenants"].is_object()) {
        // Walk the tenant table via dump/parse-free access: json::Object is a
        // std::map but the const API only exposes operator[], so go through a
        // mutable copy.
        json::Value tenants = cfg["tenants"];
        for (const auto& [name, limit] : tenants.object()) {
            if (limit.is_object()) opts.tenant_limits[name] = parse_limit(limit);
        }
    }
    return opts;
}

// ---- AdmissionController ----------------------------------------------------

namespace {

void record_ns(Histogram& h, Clock::duration d) noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    h.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions opts) : opts_(std::move(opts)) {
    if (opts_.weights.size() < kNumClasses) opts_.weights.resize(kNumClasses, 1);
    for (auto& w : opts_.weights) w = std::max<std::uint32_t>(1, w);
}

std::optional<std::uint8_t> AdmissionController::normalize_class(std::uint8_t cls) noexcept {
    if (cls == kClassUnset) return kClassBatch;  // legacy / unclassified senders
    if (cls >= kNumClasses) return std::nullopt;
    return cls;
}

AdmissionController::Counters& AdmissionController::provider_counters(std::uint16_t provider) {
    std::lock_guard<std::mutex> lock(providers_mutex_);
    auto& slot = per_provider_[provider];
    if (!slot) slot = std::make_unique<Counters>();
    return *slot;
}

TokenBucket* AdmissionController::bucket_for(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(buckets_mutex_);
    auto it = buckets_.find(tenant);
    if (it != buckets_.end()) return it->second.get();

    TenantLimit limit = opts_.default_limit;
    if (auto lim = opts_.tenant_limits.find(tenant); lim != opts_.tenant_limits.end()) {
        limit = lim->second;
    }
    if (limit.rate <= 0) {
        buckets_.emplace(tenant, nullptr);  // unlimited: cache the decision
        return nullptr;
    }
    auto bucket = std::make_unique<TokenBucket>(limit.rate, std::max(1.0, limit.burst));
    TokenBucket* raw = bucket.get();
    buckets_.emplace(tenant, std::move(bucket));
    return raw;
}

Status AdmissionController::admit(std::uint16_t provider, const std::string& tenant,
                                  std::uint8_t cls, std::uint32_t budget_ms,
                                  Clock::time_point arrival) {
    Counters& pc = provider_counters(provider);

    // Malformed stamps are rejected before any resource is consumed. The
    // wire can carry arbitrary bytes (see fuzz_test); a bad stamp must be a
    // clean InvalidArgument, never a crash or a mis-bucketed request.
    const auto norm = normalize_class(cls);
    if (!norm || tenant.size() > kMaxTenantLen) {
        pc.malformed.fetch_add(1, std::memory_order_relaxed);
        total_.malformed.fetch_add(1, std::memory_order_relaxed);
        return Status::InvalidArgument(!norm ? "qos: priority class out of range"
                                             : "qos: tenant name too long");
    }
    const std::uint8_t klass = *norm;

    // Expired on arrival: the client's deadline budget ran out in transit
    // (or in the socket buffer). Dropping here keeps dead work away from the
    // backend entirely.
    if (budget_ms > 0 && Clock::now() >= arrival + std::chrono::milliseconds(budget_ms)) {
        pc.expired_on_arrival.fetch_add(1, std::memory_order_relaxed);
        total_.expired_on_arrival.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded("qos: deadline expired before dispatch");
    }

    if (klass != kClassControl) {
        // Tier 2 shed: queue depth says the service is past saturation.
        const auto inflight = inflight_.load(std::memory_order_relaxed);
        if (inflight >= opts_.shed_inflight) {
            pc.shed.fetch_add(1, std::memory_order_relaxed);
            total_.shed.fetch_add(1, std::memory_order_relaxed);
            return make_overloaded(opts_.retry_after_ms, "qos: inflight limit reached");
        }
        // Per-tenant token bucket.
        if (TokenBucket* bucket = bucket_for(tenant)) {
            if (auto wait_ms = bucket->try_take(Clock::now())) {
                pc.shed.fetch_add(1, std::memory_order_relaxed);
                total_.shed.fetch_add(1, std::memory_order_relaxed);
                return make_overloaded(*wait_ms, "qos: tenant rate limit");
            }
        }
    }

    inflight_.fetch_add(1, std::memory_order_relaxed);
    pc.admitted.fetch_add(1, std::memory_order_relaxed);
    total_.admitted.fetch_add(1, std::memory_order_relaxed);
    admitted_by_class_[klass].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
}

StartVerdict AdmissionController::on_start(std::uint16_t provider, std::uint8_t cls,
                                           std::uint32_t budget_ms, Clock::time_point arrival,
                                           Clock::time_point enqueued) {
    const std::uint8_t klass = normalize_class(cls).value_or(kClassBatch);
    const auto now = Clock::now();
    record_ns(queue_delay_[klass], now - enqueued);

    if (budget_ms > 0 && now >= arrival + std::chrono::milliseconds(budget_ms)) {
        Counters& pc = provider_counters(provider);
        pc.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
        total_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        return StartVerdict::kExpiredInQueue;
    }
    return StartVerdict::kRun;
}

void AdmissionController::on_complete(std::uint8_t cls, Clock::duration exec) {
    const std::uint8_t klass = normalize_class(cls).value_or(kClassBatch);
    record_ns(exec_time_[klass], exec);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
}

bool AdmissionController::should_slow(std::uint8_t cls) const noexcept {
    const std::uint8_t klass = normalize_class(cls).value_or(kClassBatch);
    if (klass < opts_.slowdown_min_class) return false;
    return inflight_.load(std::memory_order_relaxed) >= opts_.slowdown_inflight;
}

void AdmissionController::slowdown_pause(std::uint8_t cls) {
    if (!should_slow(cls)) return;
    total_.slowdowns.fetch_add(1, std::memory_order_relaxed);
    const auto give_up = Clock::now() + std::chrono::milliseconds(opts_.max_slowdown_ms);
    while (should_slow(cls) && Clock::now() < give_up) {
        abt::yield();  // let higher classes use the xstream
    }
}

json::Value AdmissionController::Counters::to_json() const {
    auto v = json::Value::make_object();
    v["admitted"] = admitted.load(std::memory_order_relaxed);
    v["shed"] = shed.load(std::memory_order_relaxed);
    v["expired_on_arrival"] = expired_on_arrival.load(std::memory_order_relaxed);
    v["expired_in_queue"] = expired_in_queue.load(std::memory_order_relaxed);
    v["malformed"] = malformed.load(std::memory_order_relaxed);
    v["slowdowns"] = slowdowns.load(std::memory_order_relaxed);
    return v;
}

json::Value AdmissionController::stats_json(std::uint16_t provider) const {
    auto v = const_cast<AdmissionController*>(this)->provider_counters(provider).to_json();
    v["inflight"] = static_cast<std::uint64_t>(inflight());
    auto classes = json::Value::make_object();
    for (unsigned c = 0; c < kNumClasses; ++c) {
        auto entry = json::Value::make_object();
        entry["admitted"] = admitted_by_class_[c].load(std::memory_order_relaxed);
        entry["queue_delay"] = queue_delay_[c].to_json("_us", 1e3);
        entry["exec_time"] = exec_time_[c].to_json("_us", 1e3);
        classes[std::string(class_name(static_cast<std::uint8_t>(c)))] = std::move(entry);
    }
    v["classes"] = std::move(classes);
    auto buckets = json::Value::make_object();
    {
        std::lock_guard<std::mutex> lock(buckets_mutex_);
        for (const auto& [tenant, bucket] : buckets_) {
            if (bucket) buckets[tenant] = bucket->level();
        }
    }
    v["token_buckets"] = std::move(buckets);
    return v;
}

json::Value AdmissionController::stats_json() const {
    auto v = total_.to_json();
    v["inflight"] = static_cast<std::uint64_t>(inflight());
    return v;
}

}  // namespace hep::qos
