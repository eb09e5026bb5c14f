// Tests for the multi-tenant QoS & admission-control subsystem (src/qos):
// token buckets, the weighted-fair PriorityPool, the AdmissionController's
// malformed/expired/shed verdicts, the Overloaded retry-after convention,
// the client circuit breaker, and the end-to-end behavior over the RPC
// fabric — a saturating bulk backlog cannot starve interactive requests,
// shed requests surface a hint and succeed on retry, and no dropped request
// is ever silently lost.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "hepnos/hepnos.hpp"
#include "margo/engine.hpp"
#include "qos/admission.hpp"
#include "qos/client.hpp"
#include "test_service.hpp"
#include "yokan/client.hpp"
#include "yokan/provider.hpp"

namespace {

using namespace hep;
using Clock = qos::Clock;
using std::chrono::milliseconds;

// ------------------------------------------------------------- TokenBucket

TEST(TokenBucketTest, BurstThenExhaustThenRefill) {
    qos::TokenBucket bucket(/*rate=*/100.0, /*burst=*/2.0);
    const auto t0 = Clock::now();
    EXPECT_FALSE(bucket.try_take(t0).has_value());
    EXPECT_FALSE(bucket.try_take(t0).has_value());
    // Burst spent: the next take at the same instant fails with a hint.
    auto wait = bucket.try_take(t0);
    ASSERT_TRUE(wait.has_value());
    EXPECT_GE(*wait, 1u);  // ~10ms until the next token at 100/s
    // After one refill period a token is available again.
    EXPECT_FALSE(bucket.try_take(t0 + milliseconds(15)).has_value());
}

TEST(TokenBucketTest, HintScalesWithRate) {
    qos::TokenBucket slow(/*rate=*/2.0, /*burst=*/1.0);
    const auto t0 = Clock::now();
    EXPECT_FALSE(slow.try_take(t0).has_value());
    auto wait = slow.try_take(t0);
    ASSERT_TRUE(wait.has_value());
    // One token every 500ms; the hint must be in that ballpark.
    EXPECT_GE(*wait, 400u);
    EXPECT_LE(*wait, 600u);
}

// ----------------------------------------------- Overloaded + retry-after

TEST(OverloadedStatusTest, HintRoundTrips) {
    Status st = qos::make_overloaded(125, "queue full");
    EXPECT_EQ(st.code(), StatusCode::kOverloaded);
    auto hint = qos::retry_after_ms(st);
    ASSERT_TRUE(hint.has_value());
    EXPECT_EQ(*hint, 125u);
}

TEST(OverloadedStatusTest, GarbageYieldsNoHint) {
    EXPECT_FALSE(qos::retry_after_ms(Status::OK()).has_value());
    EXPECT_FALSE(qos::retry_after_ms(Status::Unavailable("down")).has_value());
    EXPECT_FALSE(qos::retry_after_ms(Status::Overloaded("no hint here")).has_value());
    EXPECT_FALSE(
        qos::retry_after_ms(Status::Overloaded("retry_after_ms=notanumber")).has_value());
    // Absurdly large values are rejected rather than truncated.
    EXPECT_FALSE(
        qos::retry_after_ms(Status::Overloaded("retry_after_ms=99999999999999")).has_value());
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, TripOpensResetCloses) {
    qos::CircuitBreaker breaker;
    EXPECT_FALSE(breaker.open_for("s1").has_value());
    breaker.trip("s1", 200);
    auto left = breaker.open_for("s1");
    ASSERT_TRUE(left.has_value());
    EXPECT_GE(*left, 1u);
    EXPECT_LE(*left, 200u);
    EXPECT_FALSE(breaker.open_for("s2").has_value());  // per-server isolation
    breaker.reset("s1");
    EXPECT_FALSE(breaker.open_for("s1").has_value());
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, WindowExpiresOnItsOwn) {
    qos::CircuitBreaker breaker;
    breaker.trip("s1", 20);
    std::this_thread::sleep_for(milliseconds(40));
    EXPECT_FALSE(breaker.open_for("s1").has_value());
}

// ------------------------------------------------------------ PriorityPool

TEST(PriorityPoolTest, DeficitRoundRobinOrdering) {
    // weights {2, 1}: each round, class 0 may pop twice before class 1 pops
    // once. Push the LOW class first so FIFO order would be the inverse.
    auto pool = abt::PriorityPool::create({2, 1}, "drr-test");
    std::vector<std::shared_ptr<abt::Ult>> keep_alive;
    for (int i = 0; i < 4; ++i) {
        keep_alive.push_back(
            abt::Ult::create(pool, [] {}, abt::Ult::kDefaultStackSize, /*sched_class=*/1));
    }
    for (int i = 0; i < 4; ++i) {
        keep_alive.push_back(
            abt::Ult::create(pool, [] {}, abt::Ult::kDefaultStackSize, /*sched_class=*/0));
    }
    EXPECT_EQ(pool->size(), 8u);
    EXPECT_EQ(pool->size_for(0), 4u);
    EXPECT_EQ(pool->size_for(1), 4u);

    std::vector<std::uint8_t> order;
    while (auto item = pool->try_pop()) {
        auto* ult = std::get_if<std::shared_ptr<abt::Ult>>(&*item);
        ASSERT_NE(ult, nullptr);
        order.push_back((*ult)->sched_class());
    }
    // Rounds: 0,0,1 | 0,0,1 | (class 0 empty) 1 | 1
    EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 0, 1, 0, 0, 1, 1, 1}));
}

TEST(PriorityPoolTest, OutOfRangeClassLandsInLowestClass) {
    auto pool = abt::PriorityPool::create({1, 1}, "clamp-test");
    auto ult = abt::Ult::create(pool, [] {}, abt::Ult::kDefaultStackSize, /*sched_class=*/9);
    EXPECT_EQ(pool->size_for(1), 1u);
    EXPECT_EQ(pool->size_for(0), 0u);
    (void)pool->try_pop();
}

TEST(PriorityPoolTest, RunsUltsUnderXstreamWithPriority) {
    // Under a real xstream, yields keep each ULT's class: the pool stays a
    // valid scheduler home across suspend/requeue.
    auto pool = abt::PriorityPool::create({4, 1}, "xs-test");
    std::atomic<int> done{0};
    std::vector<std::shared_ptr<abt::Ult>> ults;
    for (int i = 0; i < 16; ++i) {
        ults.push_back(abt::Ult::create(
            pool,
            [&done] {
                abt::yield();
                done.fetch_add(1);
            },
            abt::Ult::kDefaultStackSize, static_cast<std::uint8_t>(i % 2)));
    }
    auto xs = abt::Xstream::create({pool});
    for (auto& u : ults) u->join();
    EXPECT_EQ(done.load(), 16);
}

// ----------------------------------------------------- AdmissionController

qos::AdmissionOptions lenient_options() {
    qos::AdmissionOptions opts;
    opts.slowdown_inflight = 100000;
    opts.shed_inflight = 100000;
    return opts;
}

TEST(AdmissionTest, AdmitHappyPathTracksInflight) {
    qos::AdmissionController ctrl(lenient_options());
    const auto now = Clock::now();
    ASSERT_TRUE(ctrl.admit(1, "alice", qos::kClassInteractive, 0, now).ok());
    EXPECT_EQ(ctrl.inflight(), 1u);
    EXPECT_EQ(ctrl.admitted(), 1u);
    EXPECT_EQ(ctrl.on_start(1, qos::kClassInteractive, 0, now, now), qos::StartVerdict::kRun);
    ctrl.on_complete(qos::kClassInteractive, std::chrono::microseconds(50));
    EXPECT_EQ(ctrl.inflight(), 0u);
}

TEST(AdmissionTest, MalformedStampsRejected) {
    qos::AdmissionController ctrl(lenient_options());
    const auto now = Clock::now();
    // Class out of range (and not the unset sentinel).
    EXPECT_EQ(ctrl.admit(1, "t", 7, 0, now).code(), StatusCode::kInvalidArgument);
    // Tenant name too long.
    EXPECT_EQ(ctrl.admit(1, std::string(qos::kMaxTenantLen + 1, 'x'), qos::kClassBatch, 0, now)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ctrl.malformed(), 2u);
    EXPECT_EQ(ctrl.inflight(), 0u);
    // The unset sentinel is NOT malformed: it normalizes to batch.
    EXPECT_TRUE(ctrl.admit(1, "t", qos::kClassUnset, 0, now).ok());
}

TEST(AdmissionTest, ExpiredOnArrivalDropped) {
    qos::AdmissionController ctrl(lenient_options());
    // The request spent 100ms in transit but only had a 10ms budget.
    Status st = ctrl.admit(1, "t", qos::kClassInteractive, 10, Clock::now() - milliseconds(100));
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(ctrl.expired(), 1u);
    EXPECT_EQ(ctrl.inflight(), 0u);
}

TEST(AdmissionTest, ShedPastThresholdWithRetryAfterHint) {
    qos::AdmissionOptions opts = lenient_options();
    opts.shed_inflight = 2;
    opts.retry_after_ms = 33;
    qos::AdmissionController ctrl(opts);
    const auto now = Clock::now();
    ASSERT_TRUE(ctrl.admit(1, "t", qos::kClassInteractive, 0, now).ok());
    ASSERT_TRUE(ctrl.admit(1, "t", qos::kClassInteractive, 0, now).ok());
    Status st = ctrl.admit(1, "t", qos::kClassInteractive, 0, now);
    EXPECT_EQ(st.code(), StatusCode::kOverloaded);
    EXPECT_EQ(qos::retry_after_ms(st).value_or(0), 33u);
    EXPECT_EQ(ctrl.shed(), 1u);
    // Control-plane traffic is exempt: replication must never shed.
    EXPECT_TRUE(ctrl.admit(1, "__replica", qos::kClassControl, 0, now).ok());
}

TEST(AdmissionTest, TokenBucketLimitsOneTenantNotOthers) {
    qos::AdmissionOptions opts = lenient_options();
    opts.tenant_limits["ingest"] = qos::TenantLimit{10.0, 2.0};
    qos::AdmissionController ctrl(opts);
    const auto now = Clock::now();
    ASSERT_TRUE(ctrl.admit(1, "ingest", qos::kClassBulk, 0, now).ok());
    ASSERT_TRUE(ctrl.admit(1, "ingest", qos::kClassBulk, 0, now).ok());
    Status st = ctrl.admit(1, "ingest", qos::kClassBulk, 0, now);
    EXPECT_EQ(st.code(), StatusCode::kOverloaded);
    EXPECT_TRUE(qos::retry_after_ms(st).has_value());
    // A different tenant (default limit: unlimited) is not affected.
    EXPECT_TRUE(ctrl.admit(1, "analysis", qos::kClassBulk, 0, now).ok());
}

TEST(AdmissionTest, ExpiredInQueueDecrementsInflight) {
    qos::AdmissionController ctrl(lenient_options());
    const auto arrival = Clock::now() - milliseconds(100);
    // Accepted with a 150ms budget...
    ASSERT_TRUE(ctrl.admit(1, "t", qos::kClassBatch, 150, arrival).ok());
    EXPECT_EQ(ctrl.inflight(), 1u);
    // ...but by the time the ULT runs, the budget has been blown in-queue.
    auto verdict = ctrl.on_start(1, qos::kClassBatch, 150, arrival - milliseconds(100),
                                 Clock::now() - milliseconds(90));
    EXPECT_EQ(verdict, qos::StartVerdict::kExpiredInQueue);
    EXPECT_EQ(ctrl.inflight(), 0u);
    EXPECT_EQ(ctrl.expired(), 1u);
}

TEST(AdmissionTest, NormalizeClass) {
    EXPECT_EQ(qos::AdmissionController::normalize_class(qos::kClassControl).value_or(99),
              qos::kClassControl);
    EXPECT_EQ(qos::AdmissionController::normalize_class(qos::kClassUnset).value_or(99),
              qos::kClassBatch);
    EXPECT_FALSE(qos::AdmissionController::normalize_class(4).has_value());
    EXPECT_FALSE(qos::AdmissionController::normalize_class(200).has_value());
}

TEST(AdmissionTest, OptionsFromJson) {
    auto cfg = json::parse(R"({
        "weights": [8, 4, 2, 1],
        "slowdown_inflight": 10,
        "shed_inflight": 20,
        "retry_after_ms": 55,
        "slowdown_min_class": "interactive",
        "max_slowdown_ms": 7,
        "default_limit": { "rate": 100, "burst": 10 },
        "tenants": { "ingest": { "rate": 5, "burst": 2 } }
    })");
    ASSERT_TRUE(cfg.ok());
    auto opts = qos::AdmissionOptions::from_json(*cfg);
    EXPECT_EQ(opts.weights, (std::vector<std::uint32_t>{8, 4, 2, 1}));
    EXPECT_EQ(opts.slowdown_inflight, 10u);
    EXPECT_EQ(opts.shed_inflight, 20u);
    EXPECT_EQ(opts.retry_after_ms, 55u);
    EXPECT_EQ(opts.slowdown_min_class, qos::kClassInteractive);
    EXPECT_EQ(opts.max_slowdown_ms, 7u);
    EXPECT_DOUBLE_EQ(opts.default_limit.rate, 100.0);
    ASSERT_EQ(opts.tenant_limits.count("ingest"), 1u);
    EXPECT_DOUBLE_EQ(opts.tenant_limits["ingest"].rate, 5.0);
}

TEST(AdmissionTest, StatsJsonCarriesCountersAndHistograms) {
    qos::AdmissionController ctrl(lenient_options());
    const auto now = Clock::now();
    ASSERT_TRUE(ctrl.admit(7, "t", qos::kClassInteractive, 0, now).ok());
    EXPECT_EQ(ctrl.on_start(7, qos::kClassInteractive, 0, now, now), qos::StartVerdict::kRun);
    ctrl.on_complete(qos::kClassInteractive, std::chrono::microseconds(123));
    json::Value stats = ctrl.stats_json(7);
    EXPECT_EQ(stats["admitted"].as_int(), 1);
    EXPECT_EQ(stats["inflight"].as_int(), 0);
    // Recorded in ns, exported in µs: the quantiles sit within ~3% above the
    // sample instead of at its log2 bucket's bound.
    const json::Value& cls = stats["classes"]["interactive"];
    EXPECT_EQ(cls["queue_delay"]["count"].as_int(), 1);
    const json::Value& exec = cls["exec_time"];
    EXPECT_EQ(exec["count"].as_int(), 1);
    EXPECT_DOUBLE_EQ(exec["mean_us"].as_double(), 123.0);
    for (const char* key : {"p50_us", "p99_us"}) {
        EXPECT_GE(exec[key].as_double(), 123.0) << key;
        EXPECT_LE(exec[key].as_double(), 123.0 * 1.03) << key;
    }
}

// ---------------------------------------------------------- QosPolicy json

TEST(QosPolicyTest, FromJsonDefaultsAndOverrides) {
    qos::QosPolicy defaults = qos::QosPolicy::from_json(json::Value());
    EXPECT_EQ(defaults.tenant, "default");
    EXPECT_EQ(defaults.point_class, qos::kClassInteractive);
    EXPECT_EQ(defaults.scan_class, qos::kClassBatch);
    EXPECT_EQ(defaults.bulk_class, qos::kClassBulk);

    auto cfg = json::parse(R"({
        "tenant": "analysis",
        "point_class": "batch",
        "bulk_class": "batch",
        "max_overload_retries": 3,
        "max_retry_after_ms": 250
    })");
    ASSERT_TRUE(cfg.ok());
    qos::QosPolicy p = qos::QosPolicy::from_json(*cfg);
    EXPECT_EQ(p.tenant, "analysis");
    EXPECT_EQ(p.point_class, qos::kClassBatch);
    EXPECT_EQ(p.bulk_class, qos::kClassBatch);
    EXPECT_EQ(p.max_overload_retries, 3u);
    EXPECT_EQ(p.max_retry_after_ms, 250u);
}

// ------------------------------------------------------ over the RPC fabric

class QosServiceTest : public ::testing::Test {
  protected:
    /// Boot a 1-xstream server with admission armed and a client engine.
    void boot(qos::AdmissionOptions opts, std::size_t rpc_xstreams = 1) {
        margo::EngineConfig cfg;
        cfg.rpc_xstreams = rpc_xstreams;
        cfg.qos_weights = opts.weights;
        server_ = std::make_unique<margo::Engine>(net_, "server", cfg);
        ctrl_ = std::make_shared<qos::AdmissionController>(std::move(opts));
        server_->enable_qos(ctrl_);
        client_ = std::make_unique<margo::Engine>(net_, "client");
    }

    rpc::Network net_;
    std::unique_ptr<margo::Engine> server_;
    std::unique_ptr<margo::Engine> client_;
    std::shared_ptr<qos::AdmissionController> ctrl_;
};

TEST_F(QosServiceTest, MalformedHeaderRejectedBeforeHandlerRuns) {
    boot(lenient_options());
    std::atomic<int> executed{0};
    server_->define<int, int>("echo", 1, [&](const int& x) -> Result<int> {
        ++executed;
        return x;
    });

    // Out-of-range class.
    auto r1 = client_->forward<int, int>("server", "echo", 1, 5, milliseconds{0},
                                         qos::QosTag{"t", 7});
    EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
    // Oversized tenant.
    auto r2 = client_->forward<int, int>("server", "echo", 1, 5, milliseconds{0},
                                         qos::QosTag{std::string(200, 'x'), qos::kClassBatch});
    EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(executed.load(), 0);  // rejected before any handler ULT ran
    EXPECT_EQ(ctrl_->malformed(), 2u);

    // A well-formed stamp still goes through.
    auto ok = client_->forward<int, int>("server", "echo", 1, 5, milliseconds{0},
                                         qos::QosTag{"t", qos::kClassInteractive});
    ASSERT_TRUE(ok.ok()) << ok.status().to_string();
    EXPECT_EQ(*ok, 5);
    EXPECT_EQ(executed.load(), 1);
}

TEST_F(QosServiceTest, ShedRequestSurfacesHintAndRetrySucceeds) {
    // Tenant "ingest" may hold 1 token, refilled 20/s: back-to-back puts
    // shed, the handle waits out the hint and every put still lands.
    qos::AdmissionOptions opts = lenient_options();
    opts.tenant_limits["ingest"] = qos::TenantLimit{20.0, 1.0};
    boot(std::move(opts));
    auto cfg = json::parse(R"({"databases": [{"name": "events", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(*server_, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();

    qos::QosPolicy policy;
    policy.tenant = "ingest";
    auto cq = std::make_shared<qos::ClientQos>(policy);
    yokan::DatabaseHandle db(*client_, "server", 1, "events");
    db.set_qos(cq);

    for (int i = 0; i < 4; ++i) {
        Status st = db.put("k" + std::to_string(i), "v");
        ASSERT_TRUE(st.ok()) << i << ": " << st.to_string();
    }
    // The bucket really shed (and the client really recovered): nothing lost.
    EXPECT_GE(ctrl_->shed(), 1u);
    EXPECT_GE(cq->overloaded_seen(), 1u);
    EXPECT_GE(cq->retry_successes(), 1u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(*db.exists("k" + std::to_string(i))) << i;
    }
}

TEST_F(QosServiceTest, OpenBreakerFailsFastWithSameShape) {
    qos::AdmissionOptions opts = lenient_options();
    opts.tenant_limits["ingest"] = qos::TenantLimit{0.5, 1.0};  // one token per 2s
    boot(std::move(opts));
    auto cfg = json::parse(R"({"databases": [{"name": "events", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(*server_, 1, *cfg);
    ASSERT_TRUE(provider.ok());

    qos::QosPolicy policy;
    policy.tenant = "ingest";
    policy.max_overload_retries = 0;  // surface the shed instead of retrying
    auto cq = std::make_shared<qos::ClientQos>(policy);
    yokan::DatabaseHandle db(*client_, "server", 1, "events");
    db.set_qos(cq);

    ASSERT_TRUE(db.put("k0", "v").ok());  // burns the single token
    Status shed = db.put("k1", "v");
    EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
    EXPECT_TRUE(qos::retry_after_ms(shed).has_value());
    EXPECT_EQ(cq->breaker().trips(), 1u);

    // The breaker is open: the next call fails locally, same status shape,
    // without reaching the server.
    const auto sheds_before = ctrl_->shed();
    Status fast = db.put("k2", "v");
    EXPECT_EQ(fast.code(), StatusCode::kOverloaded);
    EXPECT_TRUE(qos::retry_after_ms(fast).has_value());
    EXPECT_EQ(cq->fast_fails(), 1u);
    EXPECT_EQ(ctrl_->shed(), sheds_before);  // never hit the wire
}

TEST_F(QosServiceTest, InteractiveOvertakesSaturatingBulkBacklog) {
    boot(lenient_options(), /*rpc_xstreams=*/1);
    server_->define<int, int>("bulk", 1, [](const int& x) -> Result<int> {
        std::this_thread::sleep_for(milliseconds(10));
        return x;
    });
    server_->define<int, int>("ping", 1, [](const int& x) -> Result<int> { return x; });

    // Saturate the single handler xstream with ~500ms of queued bulk work.
    constexpr int kBulk = 50;
    std::vector<std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>>> pending;
    for (int i = 0; i < kBulk; ++i) {
        pending.push_back(client_->endpoint().call_async_chain(
            "server", "bulk", 1, serial::to_chain(i), milliseconds{0},
            qos::QosTag{"loader", qos::kClassBulk}));
    }

    // An interactive request issued into that backlog must overtake it.
    const auto t0 = Clock::now();
    auto ping = client_->forward<int, int>("server", "ping", 1, 7, milliseconds{0},
                                           qos::QosTag{"analysis", qos::kClassInteractive});
    const auto ping_ms =
        std::chrono::duration_cast<milliseconds>(Clock::now() - t0).count();
    ASSERT_TRUE(ping.ok()) << ping.status().to_string();
    EXPECT_EQ(*ping, 7);
    // FIFO would make the ping wait out the whole ~500ms backlog; the DRR
    // pool must serve it after at most a few bulk slots.
    EXPECT_LT(ping_ms, 250);

    // Fairness, not starvation: every queued bulk request still completes.
    for (auto& ev : pending) {
        auto& result = ev->wait();
        EXPECT_TRUE(result.ok()) << result.status().to_string();
    }
}

TEST_F(QosServiceTest, ExpiredInQueueRequestsAnswerDeadlineExceeded) {
    boot(lenient_options(), /*rpc_xstreams=*/1);
    std::atomic<int> executed{0};
    server_->define<int, int>("slow", 1, [&](const int& x) -> Result<int> {
        ++executed;
        std::this_thread::sleep_for(milliseconds(60));
        return x;
    });

    // 6 x 60ms of work behind one xstream with a 150ms budget each: the tail
    // of the queue must be dropped as expired, never silently lost.
    constexpr int kCalls = 6;
    std::vector<std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>>> pending;
    for (int i = 0; i < kCalls; ++i) {
        pending.push_back(client_->endpoint().call_async_chain(
            "server", "slow", 1, serial::to_chain(i), milliseconds{150},
            qos::QosTag{"t", qos::kClassBatch}));
    }
    int ok = 0, deadline = 0;
    for (auto& ev : pending) {
        auto& result = ev->wait();
        if (result.ok()) {
            ++ok;
        } else {
            EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
                << result.status().to_string();
            ++deadline;
        }
    }
    EXPECT_EQ(ok + deadline, kCalls);  // every request got an answer
    EXPECT_GE(deadline, 1);
    // The client's own deadline timer resolves the waits above before the
    // server has worked through its queue; wait for the backlog to drain
    // before inspecting the server-side verdicts.
    const auto give_up = Clock::now() + milliseconds(3000);
    while (ctrl_->inflight() > 0 && Clock::now() < give_up) {
        std::this_thread::sleep_for(milliseconds(10));
    }
    EXPECT_GE(ctrl_->expired(), 1u);
    // Dropped requests never reached the handler.
    EXPECT_LT(executed.load(), kCalls);
}

// ------------------------------------------------- bedrock + hepnos wiring

TEST(QosBedrockTest, ServiceBootsWithQosKnobAndAdvertisesIt) {
    test_util::TestServiceOptions opts;
    opts.num_servers = 1;
    auto qcfg = json::parse(R"({"enabled": true, "shed_inflight": 128,
                                "weights": [16, 8, 2, 1]})");
    ASSERT_TRUE(qcfg.ok());
    opts.qos = *qcfg;
    test_util::TestService service(opts);
    auto* ctrl = service.servers[0]->admission();
    ASSERT_NE(ctrl, nullptr);
    EXPECT_EQ(ctrl->options().shed_inflight, 128u);
    EXPECT_EQ(ctrl->options().weights, (std::vector<std::uint32_t>{16, 8, 2, 1}));
    EXPECT_TRUE(service.servers[0]->descriptor()["qos"].as_bool(false));
}

TEST(QosBedrockTest, QosDisabledLeavesServiceUnarmed) {
    test_util::TestServiceOptions opts;
    auto qcfg = json::parse(R"({"enabled": false})");
    ASSERT_TRUE(qcfg.ok());
    opts.qos = *qcfg;
    test_util::TestService service(opts);
    EXPECT_EQ(service.servers[0]->admission(), nullptr);
    EXPECT_FALSE(service.servers[0]->descriptor()["qos"].as_bool(false));
}

TEST(QosEndToEndTest, DataStoreWorksAgainstQosService) {
    test_util::TestServiceOptions opts;
    auto qcfg = json::parse(R"({"enabled": true})");
    ASSERT_TRUE(qcfg.ok());
    opts.qos = *qcfg;
    test_util::TestService service(opts);

    // Give the connection a client-side qos policy too.
    json::Value conn = service.connection;
    auto client_qos = json::parse(R"({"tenant": "analysis"})");
    ASSERT_TRUE(client_qos.ok());
    conn["qos"] = *client_qos;

    auto store = hepnos::DataStore::connect(service.network, conn);
    ASSERT_TRUE(store.impl()->qos() != nullptr);
    EXPECT_EQ(store.impl()->qos()->policy().tenant, "analysis");

    hepnos::DataSet ds = store.createDataSet("qos/e2e");
    hepnos::Run run = ds.createRun(1);
    hepnos::SubRun sr = run.createSubRun(2);
    hepnos::Event ev = sr.createEvent(3);
    std::vector<double> stored{1.5, 2.5};
    ev.store(stored);
    std::vector<double> loaded;
    ASSERT_TRUE(ev.load(loaded));
    EXPECT_EQ(stored, loaded);

    // Every yokan RPC was classified: the server-side controller saw them.
    auto* ctrl = service.servers[0]->admission();
    ASSERT_NE(ctrl, nullptr);
    EXPECT_GE(ctrl->admitted(), 5u);
    json::Value stats = store.impl()->qos()->stats_json();
    EXPECT_TRUE(stats.is_object());
}

}  // namespace
