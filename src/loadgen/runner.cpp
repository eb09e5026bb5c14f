#include "loadgen/runner.hpp"

#include <deque>
#include <thread>

#include "abt/abt.hpp"

namespace hep::loadgen {

using Clock = std::chrono::steady_clock;

void ClassStats::merge(ClassStats&& other) {
    intended.merge(other.intended);
    service.merge(other.service);
    ok += other.ok;
    errors += other.errors;
    items += other.items;
    acked_writes.insert(acked_writes.end(), other.acked_writes.begin(),
                        other.acked_writes.end());
}

json::Value ClassStats::to_json() const {
    json::Value v = json::Value::make_object();
    v["ops"] = ops();
    v["ok"] = ok;
    v["errors"] = errors;
    v["items"] = items;
    v["error_rate"] = error_rate();
    v["acked_writes"] = static_cast<std::uint64_t>(acked_writes.size());
    v["intended"] = intended.to_json("_ms", 1e3);
    v["service"] = service.to_json("_ms", 1e3);
    return v;
}

std::uint64_t RunStats::total_ok() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : classes) n += c.ok;
    return n;
}

json::Value SloVerdict::to_json() const {
    json::Value v = json::Value::make_object();
    v["class"] = class_name;
    v["pass"] = pass;
    v["p50_ms"] = p50_ms;
    v["p99_ms"] = p99_ms;
    v["p999_ms"] = p999_ms;
    v["error_rate"] = error_rate;
    v["ops"] = ops;
    json::Value viol = json::Value::make_array();
    for (const auto& s : violations) viol.push_back(s);
    v["violations"] = std::move(viol);
    return v;
}

std::vector<SloVerdict> evaluate_slos(const WorkloadSpec& spec, const RunStats& stats) {
    std::vector<SloVerdict> out;
    for (std::size_t c = 0; c < spec.classes.size() && c < stats.classes.size(); ++c) {
        const ClassSpec& cls = spec.classes[c];
        const ClassStats& st = stats.classes[c];
        SloVerdict v;
        v.class_name = cls.name;
        auto ms = [&](double q) { return static_cast<double>(st.intended.quantile(q)) / 1e3; };
        v.p50_ms = ms(0.50);
        v.p99_ms = ms(0.99);
        v.p999_ms = ms(0.999);
        v.error_rate = st.error_rate();
        v.ops = st.ops();
        auto gate = [&](double bound, double measured, const char* name) {
            if (bound > 0 && measured > bound) {
                v.pass = false;
                char buf[128];
                std::snprintf(buf, sizeof(buf), "%s %.3fms > bound %.3fms", name, measured,
                              bound);
                v.violations.emplace_back(buf);
            }
        };
        gate(cls.slo.p50_ms, v.p50_ms, "p50");
        gate(cls.slo.p99_ms, v.p99_ms, "p99");
        gate(cls.slo.p999_ms, v.p999_ms, "p999");
        if (v.error_rate > cls.slo.max_error_rate) {
            v.pass = false;
            char buf[128];
            std::snprintf(buf, sizeof(buf), "error rate %.4f > bound %.4f", v.error_rate,
                          cls.slo.max_error_rate);
            v.violations.emplace_back(buf);
        }
        out.push_back(std::move(v));
    }
    return out;
}

bool all_pass(const std::vector<SloVerdict>& verdicts) noexcept {
    for (const auto& v : verdicts) {
        if (!v.pass) return false;
    }
    return true;
}

double slo_penalized_throughput(const WorkloadSpec& spec, const RunStats& stats,
                                const std::vector<SloVerdict>& verdicts,
                                std::uint64_t lost_writes) noexcept {
    if (lost_writes > 0) return 0;
    double objective = stats.achieved_ops_s();
    for (std::size_t c = 0; c < verdicts.size() && c < spec.classes.size(); ++c) {
        const SloBound& slo = spec.classes[c].slo;
        const SloVerdict& v = verdicts[c];
        auto penalty = [&](double bound, double measured) {
            if (bound > 0 && measured > bound) objective *= bound / measured;
        };
        penalty(slo.p50_ms, v.p50_ms);
        penalty(slo.p99_ms, v.p99_ms);
        penalty(slo.p999_ms, v.p999_ms);
        if (v.error_rate > slo.max_error_rate) objective *= 1.0 - v.error_rate;
    }
    return objective;
}

RunStats OpenLoopRunner::run(const std::vector<Arrival>& schedule,
                             const std::vector<OpExecutor>& executors) {
    RunStats result;
    result.classes.resize(spec_.classes.size());
    if (schedule.empty()) return result;

    auto pool = abt::Pool::create("loadgen-workers");
    std::vector<std::unique_ptr<abt::Xstream>> xstreams;
    xstreams.reserve(spec_.worker_xstreams);
    for (std::size_t i = 0; i < spec_.worker_xstreams; ++i) {
        xstreams.push_back(abt::Xstream::create({pool}, "loadgen-xs-" + std::to_string(i)));
    }

    // Arrival queue: dispatcher (this thread) pushes at intended times,
    // worker ULTs pop. abt primitives suspend the ULT, not the xstream.
    abt::Mutex mutex;
    abt::CondVar cv;
    std::deque<Arrival> queue;
    bool done = false;
    std::size_t max_backlog = 0;

    const std::size_t workers = std::min(spec_.workers, schedule.size());
    std::vector<std::vector<ClassStats>> worker_stats(
        workers, std::vector<ClassStats>(spec_.classes.size()));

    const auto t0 = Clock::now();
    std::vector<std::shared_ptr<abt::Ult>> ults;
    ults.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        ults.push_back(abt::Ult::create(pool, [&, w] {
            for (;;) {
                Arrival a;
                {
                    abt::LockGuard lock(mutex);
                    while (queue.empty() && !done) cv.wait(mutex);
                    if (queue.empty()) return;
                    a = queue.front();
                    queue.pop_front();
                }
                const auto actual_send = Clock::now();
                OpOutcome out = executors[a.class_idx](a);
                const auto end = Clock::now();

                auto& st = worker_stats[w][a.class_idx];
                const auto intended_abs = t0 + std::chrono::microseconds(a.intended_us);
                const auto co_lat =
                    std::chrono::duration_cast<std::chrono::microseconds>(end - intended_abs)
                        .count();
                const auto sv_lat =
                    std::chrono::duration_cast<std::chrono::microseconds>(end - actual_send)
                        .count();
                st.intended.record(co_lat > 0 ? static_cast<std::uint64_t>(co_lat) : 0);
                st.service.record(sv_lat > 0 ? static_cast<std::uint64_t>(sv_lat) : 0);
                if (out.status.ok()) {
                    ++st.ok;
                    st.items += out.items;
                } else {
                    ++st.errors;
                }
                if (out.acked_write) st.acked_writes.push_back(a);
            }
        }));
    }

    // Dispatcher loop: release each arrival exactly at its intended time.
    for (const Arrival& a : schedule) {
        std::this_thread::sleep_until(t0 + std::chrono::microseconds(a.intended_us));
        {
            abt::LockGuard lock(mutex);
            queue.push_back(a);
            max_backlog = std::max(max_backlog, queue.size());
        }
        cv.notify_one();
        ++result.issued;
    }
    {
        abt::LockGuard lock(mutex);
        done = true;
    }
    cv.notify_all();

    for (auto& ult : ults) ult->join();
    for (auto& xs : xstreams) xs->join();

    result.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.max_backlog = max_backlog;
    for (auto& per_worker : worker_stats) {
        for (std::size_t c = 0; c < per_worker.size(); ++c) {
            result.classes[c].merge(std::move(per_worker[c]));
        }
    }
    return result;
}

}  // namespace hep::loadgen
