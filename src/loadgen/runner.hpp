// Coordinated-omission-safe open-loop runner (src/loadgen).
//
// A dispatcher (the calling thread) walks the pre-built schedule in intended-
// time order, releasing each arrival into a shared queue exactly at its
// intended send time; a fixed pool of worker ULTs on dedicated xstreams pops
// arrivals and executes them against the live cluster. Two latency
// distributions are kept per class:
//
//   intended — completion minus *intended* send time. If the servers stall,
//              arrivals queue up and every one of them accrues the stall;
//              this is the distribution SLO gates are evaluated on.
//   service  — completion minus the moment a worker actually issued the op
//              (pure server+network time). The gap between the two IS the
//              coordinated omission a closed-loop harness would hide.
//
// Workers never skip arrivals: when the backlog drains, overdue ops are
// issued immediately and still measured from their intended time. Each
// worker owns its ClassStats (no shared counters on the hot path); they are
// merged after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/status.hpp"
#include "loadgen/schedule.hpp"
#include "loadgen/spec.hpp"

namespace hep::loadgen {

/// Result of one executed operation.
struct OpOutcome {
    Status status = Status::OK();
    std::uint64_t items = 0;     // events stored / entries matched / values read
    bool acked_write = false;    // a flush was acknowledged; enters the ledger
};

/// Bound per class; receives the arrival (use op_seed() for determinism).
using OpExecutor = std::function<OpOutcome(const Arrival&)>;

struct ClassStats {
    Histogram intended;  // µs; SLO distribution (coordinated-omission-safe)
    Histogram service;   // µs; actual-send distribution (for comparison)
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t items = 0;
    std::vector<Arrival> acked_writes;  // ledger for post-run readback

    void merge(ClassStats&& other);
    [[nodiscard]] std::uint64_t ops() const noexcept { return ok + errors; }
    [[nodiscard]] double error_rate() const noexcept {
        const auto n = ops();
        return n ? static_cast<double>(errors) / static_cast<double>(n) : 0.0;
    }
    [[nodiscard]] json::Value to_json() const;
};

struct RunStats {
    double wall_s = 0;
    std::uint64_t issued = 0;
    std::size_t max_backlog = 0;  // deepest arrival queue seen (stall witness)
    std::vector<ClassStats> classes;  // indexed by spec class index

    [[nodiscard]] std::uint64_t total_ok() const noexcept;
    [[nodiscard]] double achieved_ops_s() const noexcept {
        return wall_s > 0 ? static_cast<double>(total_ok()) / wall_s : 0;
    }
};

/// One class's SLO evaluation: measured quantiles of the *intended*
/// distribution vs the spec bounds; a gate trips iff a configured bound
/// (> 0) is exceeded.
struct SloVerdict {
    std::string class_name;
    bool pass = true;
    double p50_ms = 0, p99_ms = 0, p999_ms = 0;
    double error_rate = 0;
    std::uint64_t ops = 0;
    std::vector<std::string> violations;  // human-readable gate trips

    [[nodiscard]] json::Value to_json() const;
};

[[nodiscard]] std::vector<SloVerdict> evaluate_slos(const WorkloadSpec& spec,
                                                    const RunStats& stats);
[[nodiscard]] bool all_pass(const std::vector<SloVerdict>& verdicts) noexcept;

/// The harness objective the autotuner maximizes: achieved throughput
/// (ops/s) multiplied, for every tripped latency gate, by bound/measured
/// (< 1), and by the surviving fraction for error-rate trips. Lost acked
/// writes zero it — an assignment that loses data can never win.
[[nodiscard]] double slo_penalized_throughput(const WorkloadSpec& spec, const RunStats& stats,
                                              const std::vector<SloVerdict>& verdicts,
                                              std::uint64_t lost_writes) noexcept;

class OpenLoopRunner {
  public:
    explicit OpenLoopRunner(const WorkloadSpec& spec) : spec_(spec) {}

    /// Execute `schedule` against `executors` (one per spec class). Blocks
    /// the calling thread (it becomes the dispatcher) until every arrival
    /// has completed.
    RunStats run(const std::vector<Arrival>& schedule,
                 const std::vector<OpExecutor>& executors);

  private:
    const WorkloadSpec& spec_;
};

}  // namespace hep::loadgen
