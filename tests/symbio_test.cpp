// Tests for the symbio monitoring component (Symbiomon substitute) and its
// Bedrock integration.
#include <gtest/gtest.h>

#include <thread>

#include "bedrock/service.hpp"
#include "symbio/provider.hpp"
#include "yokan/client.hpp"

namespace {

using namespace hep;
using namespace hep::symbio;

TEST(MetricsTest, CounterAccumulates) {
    MetricsRegistry reg;
    reg.counter("rpcs").add();
    reg.counter("rpcs").add(41);
    EXPECT_EQ(reg.counter("rpcs").value(), 42u);
    EXPECT_EQ(reg.counter("other").value(), 0u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
    MetricsRegistry reg;
    reg.gauge("queue_depth").set(5.5);
    reg.gauge("queue_depth").set(2.0);
    EXPECT_DOUBLE_EQ(reg.gauge("queue_depth").value(), 2.0);
}

TEST(MetricsTest, CountersAreThreadSafe) {
    MetricsRegistry reg;
    auto& c = reg.counter("hits");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 10000; ++i) c.add();
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(c.value(), 40000u);
}

TEST(MetricsTest, HistogramBucketsAndMoments) {
    MetricsRegistry reg;
    auto& h = reg.histogram("latency_us");
    for (double v : {1.0, 3.0, 5.0, 100.0, 1000.0}) h.observe(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 1109.0);
    EXPECT_DOUBLE_EQ(h.mean(), 221.8);
    // Median sample is 5.0, which lives in bucket [4,8) -> upper bound 8.
    EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.5), 8.0);
    // p99 upper bound must cover the 1000.0 sample: [512, 1024) -> 1024.
    EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.99), 1024.0);
}

TEST(MetricsTest, HistogramJson) {
    MetricsRegistry reg;
    auto& h = reg.histogram("x");
    h.observe(10.0);
    auto j = h.to_json();
    EXPECT_EQ(j["count"].as_int(), 1);
    EXPECT_DOUBLE_EQ(j["sum"].as_double(), 10.0);
    EXPECT_EQ(j["buckets"].size(), Histogram::kBuckets);
}

TEST(MetricsTest, ScopedTimerObserves) {
    MetricsRegistry reg;
    auto& h = reg.histogram("op_us");
    {
        ScopedTimer t(h);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 1500.0);  // >= 1.5ms in microseconds
}

TEST(MetricsTest, SnapshotContainsEverything) {
    MetricsRegistry reg;
    reg.counter("c").add(3);
    reg.gauge("g").set(1.5);
    reg.histogram("h").observe(4);
    reg.add_source("src", [] {
        json::Value v = json::Value::make_object();
        v["alive"] = true;
        return v;
    });
    auto snap = reg.snapshot();
    EXPECT_EQ(snap["counters"]["c"].as_int(), 3);
    EXPECT_DOUBLE_EQ(snap["gauges"]["g"].as_double(), 1.5);
    EXPECT_EQ(snap["histograms"]["h"]["count"].as_int(), 1);
    EXPECT_TRUE(snap["sources"]["src"]["alive"].as_bool());
}

TEST(SymbioServiceTest, RemoteFetchReflectsDatabaseActivity) {
    rpc::Network net;
    auto cfg = json::parse(R"({
      "address": "mon-server",
      "monitoring": { "provider_id": 99 },
      "providers": [{ "type": "yokan", "provider_id": 1, "config": { "databases": [
          { "name": "events", "type": "map", "role": "events" } ] } }]
    })");
    ASSERT_TRUE(cfg.ok());
    auto svc = bedrock::ServiceProcess::create(net, *cfg);
    ASSERT_TRUE(svc.ok()) << svc.status().to_string();
    ASSERT_NE((*svc)->metrics(), nullptr);

    margo::Engine client(net, "mon-client");
    yokan::DatabaseHandle db(client, "mon-server", 1, "events");
    for (int i = 0; i < 25; ++i) {
        ASSERT_TRUE(db.put("k" + std::to_string(i), "v").ok());
    }
    (void)db.get("k3");
    (void)db.get("k4");
    (void)db.list_keys("", "", 10);

    auto snap = symbio::fetch_all(client, "mon-server", 99);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    const json::Value& events = (*snap)["sources"]["db/events"];
    EXPECT_EQ(events["puts"].as_int(), 25);
    EXPECT_EQ(events["gets"].as_int(), 2);
    EXPECT_EQ(events["scans"].as_int(), 1);
    EXPECT_EQ(events["keys"].as_int(), 25);
    EXPECT_EQ(events["backend"].as_string(), "map");
}

TEST(SymbioServiceTest, StatsAllAndPerSourceFetch) {
    rpc::Network net;
    auto cfg = json::parse(R"({
      "address": "mon-all-server",
      "monitoring": { "provider_id": 99 },
      "providers": [{ "type": "yokan", "provider_id": 1, "config": { "databases": [
          { "name": "events", "type": "map", "role": "events" },
          { "name": "products", "type": "map", "role": "products" } ] } }]
    })");
    ASSERT_TRUE(cfg.ok());
    auto svc = bedrock::ServiceProcess::create(net, *cfg);
    ASSERT_TRUE(svc.ok()) << svc.status().to_string();

    margo::Engine client(net, "mon-all-client");
    yokan::DatabaseHandle db(client, "mon-all-server", 1, "events");
    ASSERT_TRUE(db.put("k", "v").ok());

    // stats_all: one blob merging every source, stamped with the server.
    auto all = symbio::fetch_all(client, "mon-all-server", 99);
    ASSERT_TRUE(all.ok()) << all.status().to_string();
    EXPECT_EQ((*all)["server"].as_string(), "mon-all-server");
    EXPECT_GE((*all)["sources_n"].as_int(), 2);
    EXPECT_EQ((*all)["sources"]["db/events"]["puts"].as_int(), 1);
    EXPECT_EQ((*all)["sources"]["db/products"]["puts"].as_int(), 0);

    // Per-source fetch still works and matches the merged blob.
    auto one = symbio::fetch_source(client, "mon-all-server", 99, "db/events");
    ASSERT_TRUE(one.ok()) << one.status().to_string();
    EXPECT_EQ((*one)["puts"].as_int(), 1);
    EXPECT_EQ((*one)["backend"].as_string(), "map");

    // Unknown sources and requests are errors, not empty blobs.
    EXPECT_FALSE(symbio::fetch_source(client, "mon-all-server", 99, "db/nope").ok());

    // The empty payload is no request at all: InvalidArgument, like any
    // unknown one.
    for (const char* request : {"", "stats"}) {
        auto raw = client.endpoint().call("mon-all-server", "symbio_fetch", 99, request);
        ASSERT_FALSE(raw.ok()) << "request \"" << request << '"';
        EXPECT_EQ(raw.status().code(), StatusCode::kInvalidArgument) << raw.status().to_string();
    }
}

TEST(SymbioServiceTest, MonitoringAbsentWhenNotConfigured) {
    rpc::Network net;
    auto cfg = json::parse(R"({"address": "plain", "providers": []})");
    auto svc = bedrock::ServiceProcess::create(net, *cfg);
    ASSERT_TRUE(svc.ok());
    EXPECT_EQ((*svc)->metrics(), nullptr);
    margo::Engine client(net, "c");
    EXPECT_FALSE(symbio::fetch_all(client, "plain", 99).ok());
}

}  // namespace
