// Tests for the saturation harness (src/loadgen): deterministic schedules,
// coordinated-omission accounting, SLO gate semantics, and a smoke-scale
// live-cluster run with failover injection.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "loadgen/harness.hpp"
#include "loadgen/runner.hpp"
#include "loadgen/schedule.hpp"
#include "loadgen/spec.hpp"

namespace {

using namespace hep;
using namespace hep::loadgen;

WorkloadSpec stub_spec(double rate_hz, double duration_s) {
    WorkloadSpec spec;
    spec.duration_s = duration_s;
    ClassSpec cls;
    cls.name = "stub";
    cls.op = OpKind::kCachedRead;
    cls.clients = 1;
    cls.rate_hz = rate_hz;
    spec.classes = {cls};
    return spec;
}

TEST(ScheduleTest, SameSpecSameSchedule) {
    auto spec = WorkloadSpec::saturation_default(64, 1.0);
    spec.seed = 12345;
    const auto a = build_schedule(spec);
    const auto b = build_schedule(spec);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    auto other = spec;
    other.seed = 54321;
    const auto c = build_schedule(other);
    EXPECT_NE(a, c);
}

TEST(ScheduleTest, ArrivalsSortedAndWithinHorizon) {
    auto spec = WorkloadSpec::saturation_default(32, 0.5);
    const auto schedule = build_schedule(spec);
    ASSERT_FALSE(schedule.empty());
    const auto horizon_us = static_cast<std::uint64_t>(spec.duration_s * 1e6);
    std::uint64_t prev = 0;
    for (const auto& a : schedule) {
        EXPECT_GE(a.intended_us, prev);
        EXPECT_LT(a.intended_us, horizon_us);
        prev = a.intended_us;
        EXPECT_LT(a.class_idx, spec.classes.size());
        EXPECT_LT(a.client_idx, spec.classes[a.class_idx].clients);
    }
}

TEST(ScheduleTest, OpSeedsAreStablePerArrival) {
    auto spec = WorkloadSpec::saturation_default(16, 0.5);
    const auto schedule = build_schedule(spec);
    ASSERT_GE(schedule.size(), 2u);
    EXPECT_EQ(op_seed(spec.seed, schedule[0]), op_seed(spec.seed, schedule[0]));
    EXPECT_NE(op_seed(spec.seed, schedule[0]), op_seed(spec.seed, schedule[1]));
}

TEST(RunnerTest, CoordinatedOmissionVisibleUnderStall) {
    // One client at 400 Hz for 1s, one worker. The executor stalls 500 ms on
    // its 10th op: every arrival scheduled during the stall queues up. The
    // intended-time (CO-safe) distribution must show the stall at p90 while
    // the service-time distribution (what a closed-loop harness would
    // report) stays flat — the gap IS coordinated omission.
    auto spec = stub_spec(400.0, 1.0);
    spec.workers = 1;
    spec.worker_xstreams = 1;
    const auto schedule = build_schedule(spec);
    ASSERT_GT(schedule.size(), 100u);

    std::vector<OpExecutor> executors;
    executors.push_back([](const Arrival& a) -> OpOutcome {
        if (a.seq == 10) std::this_thread::sleep_for(std::chrono::milliseconds(500));
        return {};
    });
    OpenLoopRunner runner(spec);
    const RunStats stats = runner.run(schedule, executors);

    ASSERT_EQ(stats.classes.size(), 1u);
    const ClassStats& st = stats.classes[0];
    EXPECT_EQ(st.ops(), schedule.size());
    EXPECT_GT(stats.max_backlog, 10u);
    EXPECT_GT(st.intended.quantile(0.90), 50'000u);  // µs
    EXPECT_LT(st.service.quantile(0.90), 10'000u);
}

TEST(RunnerTest, SloGateTripsExactlyAtBound) {
    auto spec = stub_spec(100.0, 1.0);
    RunStats stats;
    stats.wall_s = 1.0;
    stats.classes.resize(1);
    ClassStats& st = stats.classes[0];
    for (int i = 0; i < 1000; ++i) {
        st.intended.record(1000);  // 1ms
        ++st.ok;
    }
    const double measured_p99 = static_cast<double>(st.intended.quantile(0.99)) / 1e3;

    // Bound just above the measured quantile: passes.
    spec.classes[0].slo = {.p50_ms = 0, .p99_ms = measured_p99 + 1e-9, .p999_ms = 0,
                           .max_error_rate = 1.0};
    auto verdicts = evaluate_slos(spec, stats);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_TRUE(verdicts[0].pass);
    EXPECT_TRUE(all_pass(verdicts));
    EXPECT_DOUBLE_EQ(slo_penalized_throughput(spec, stats, verdicts, 0),
                     stats.achieved_ops_s());

    // Bound just below: trips, and the objective is penalized by exactly
    // bound/measured.
    spec.classes[0].slo.p99_ms = measured_p99 - 1e-9;
    verdicts = evaluate_slos(spec, stats);
    EXPECT_FALSE(verdicts[0].pass);
    EXPECT_FALSE(all_pass(verdicts));
    EXPECT_EQ(verdicts[0].violations.size(), 1u);
    const double penalized = slo_penalized_throughput(spec, stats, verdicts, 0);
    EXPECT_LT(penalized, stats.achieved_ops_s());
    EXPECT_NEAR(penalized,
                stats.achieved_ops_s() * spec.classes[0].slo.p99_ms / measured_p99, 1e-6);

    // Lost acked writes zero the objective no matter how fast the run was.
    EXPECT_DOUBLE_EQ(slo_penalized_throughput(spec, stats, verdicts, 1), 0.0);
}

TEST(RunnerTest, ErrorRateGate) {
    auto spec = stub_spec(100.0, 1.0);
    spec.classes[0].slo = {.p50_ms = 0, .p99_ms = 0, .p999_ms = 0, .max_error_rate = 0.10};
    RunStats stats;
    stats.wall_s = 1.0;
    stats.classes.resize(1);
    stats.classes[0].ok = 89;
    stats.classes[0].errors = 11;  // 11% > 10%
    auto verdicts = evaluate_slos(spec, stats);
    EXPECT_FALSE(verdicts[0].pass);
    stats.classes[0].errors = 9;
    stats.classes[0].ok = 91;
    verdicts = evaluate_slos(spec, stats);
    EXPECT_TRUE(verdicts[0].pass);
}

TEST(SpecTest, JsonRoundTrip) {
    auto spec = WorkloadSpec::saturation_default(128, 2.0);
    spec.failures.push_back({0.5, 1});
    spec.backend = "lsm";
    auto parsed = WorkloadSpec::from_json(spec.to_json());
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->to_json().dump(), spec.to_json().dump());
    EXPECT_EQ(parsed->total_clients(), spec.total_clients());
    EXPECT_DOUBLE_EQ(parsed->offered_ops_s(), spec.offered_ops_s());
}

TEST(SpecTest, RejectsBadSpecs) {
    auto spec = WorkloadSpec::saturation_default(16, 1.0);
    json::Value bad = spec.to_json();
    bad["backend"] = "rocksdb";
    EXPECT_FALSE(WorkloadSpec::from_json(bad).ok());
    bad = spec.to_json();
    bad["failures"].push_back([] {
        json::Value f = json::Value::make_object();
        f["at_s"] = 0.1;
        f["server"] = 99;
        return f;
    }());
    EXPECT_FALSE(WorkloadSpec::from_json(bad).ok());
}

TEST(KnobsTest, ApplyAndParamSpace) {
    Knobs knobs;
    knobs.apply({{"qos_interactive_weight", 64},
                 {"cache_capacity_kb", 4096},
                 {"replication", 1},
                 {"unknown_param", 7}});
    EXPECT_EQ(knobs.qos_weights[1], 64u);
    EXPECT_EQ(knobs.cache_capacity_kb, 4096u);
    EXPECT_EQ(knobs.replication, 1u);

    auto spec = WorkloadSpec::saturation_default(16, 1.0);
    auto params = Knobs::default_param_space(spec);
    EXPECT_FALSE(params.empty());
    for (const auto& p : params) EXPECT_NE(p.name, "lsm_memtable_kb");
    spec.backend = "lsm";
    params = Knobs::default_param_space(spec);
    bool has_lsm = false;
    for (const auto& p : params) has_lsm |= p.name == "lsm_memtable_kb";
    EXPECT_TRUE(has_lsm);
}

// Smoke-scale live run: 2 servers, every op class, a mid-run failover of
// server 1. Replication keeps every acked write durable across the restart.
TEST(HarnessTest, SmokeRunWithFailover) {
    auto spec = WorkloadSpec::saturation_default(48, 1.2);
    spec.seed = 777;
    spec.servers = 2;
    spec.hot_keys = 64;
    spec.query_events = 32;
    spec.workers = 32;
    spec.worker_xstreams = 2;
    spec.connections = 2;
    spec.scrape_interval_ms = 100;
    spec.failures = {{0.5, 1}};

    Knobs knobs;
    knobs.replication = 2;
    knobs.cache_capacity_kb = 4096;

    Harness harness(spec, knobs, ".");
    auto report = harness.run();
    ASSERT_TRUE(report.ok()) << report.status().to_string();

    EXPECT_GT(report->issued, 0u);
    EXPECT_EQ(report->failovers, 1u);
    EXPECT_GT(report->acked_writes, 0u);
    EXPECT_EQ(report->lost_writes, 0u) << report->to_json().dump(2);
    EXPECT_EQ(report->verified_writes, report->acked_writes);
    EXPECT_EQ(report->verdicts.size(), spec.classes.size());

    // The scraper actually folded live server counters.
    EXPECT_GT(report->scrape.scrapes_ok, 0u);
    EXPECT_GT(report->scrape.qos_admitted, 0u);
    EXPECT_GT(report->scrape.cache_hits + report->scrape.cache_misses, 0u);
    EXPECT_GT(report->scrape.replica_records_shipped, 0u);

    // Round-trippable report.
    const json::Value doc = report->to_json();
    EXPECT_TRUE(doc["scrape"]["qos_admitted"].as_int() > 0);
    EXPECT_EQ(doc["classes"].size(), spec.classes.size());
}

}  // namespace
