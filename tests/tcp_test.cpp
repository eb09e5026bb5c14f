// Tests for the TCP fabric: RPC and bulk over real sockets, and the full
// HEPnOS stack running across two fabrics (i.e. deployable across OS
// processes — here two fabric instances in one test binary).
#include <gtest/gtest.h>

#include <numeric>

#include "bedrock/service.hpp"
#include "hepnos/hepnos.hpp"
#include "margo/engine.hpp"
#include "rpc/tcp_fabric.hpp"
#include "rpc/wire_format.hpp"

namespace {

using namespace hep;
using namespace hep::rpc;

TEST(TcpFabricTest, BaseAddressHasBoundPort) {
    TcpFabric fabric;
    EXPECT_EQ(fabric.base_address().rfind("tcp://127.0.0.1:", 0), 0u);
    // An ephemeral port was assigned.
    EXPECT_GT(fabric.base_address().size(), std::string("tcp://127.0.0.1:").size());
}

TEST(TcpFabricTest, EchoAcrossTwoFabrics) {
    TcpFabric server_fabric;  // "process" A
    TcpFabric client_fabric;  // "process" B
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
    server->register_handler("echo", 0, [](RequestContext& ctx) {
        ctx.respond("tcp:" + ctx.payload());
    });
    auto r = client->call(server->address(), "echo", 0, "hello");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, "tcp:hello");
}

TEST(TcpFabricTest, TrafficAccountingMatchesFramedBytes) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");
    server->register_handler("echo", 0,
                             [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    const std::string payload = "0123456789";
    auto r = client->call(server->address(), "echo", 0, payload);
    ASSERT_TRUE(r.ok()) << r.status().to_string();

    // Reconstruct the one request message the client fabric shipped and pin
    // the byte counter against its real framed size (wire_size only depends
    // on the string fields and payload length, not on seq/rpc values).
    Message req;
    req.type = MessageType::kRequest;
    req.rpc = rpc_id_of("echo");
    req.origin = client->address();
    req.payload.append_copy(payload);
    EXPECT_EQ(client_fabric.stats().messages, 1u);
    EXPECT_EQ(client_fabric.stats().message_bytes, wire::framed_size(req, "server"));
    EXPECT_EQ(client_fabric.stats().message_bytes, req.wire_size(std::string("server").size()));
}

TEST(TcpFabricTest, LocalShortcutWithinOneFabric) {
    TcpFabric fabric;
    auto a = fabric.create_endpoint("a");
    auto b = fabric.create_endpoint("b");
    b->register_handler("ping", 0, [](RequestContext& ctx) { ctx.respond("pong"); });
    auto r = a->call(b->address(), "ping", 0, "");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "pong");
}

TEST(TcpFabricTest, UnknownEndpointFailsCleanly) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto client = client_fabric.create_endpoint("client");
    auto r = client->call(server_fabric.base_address() + "/ghost", "echo", 0, "");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(TcpFabricTest, UnreachableHostFailsCleanly) {
    TcpFabric client_fabric;
    auto client = client_fabric.create_endpoint("client");
    // Nothing listens on this port (we grabbed and released an ephemeral one).
    auto r = client->call("tcp://127.0.0.1:1/ghost", "echo", 0, "");
    ASSERT_FALSE(r.ok());
}

TEST(TcpFabricTest, DuplicateEndpointNameRejected) {
    TcpFabric fabric;
    auto a = fabric.create_endpoint("dup");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(fabric.create_endpoint("dup"), nullptr);
}

TEST(TcpFabricTest, BulkReadAcrossFabrics) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");

    std::vector<std::uint8_t> data(64 * 1024);
    std::iota(data.begin(), data.end(), 0);
    BulkRef ref = client->expose(data.data(), data.size());

    std::vector<std::uint8_t> received;
    server->register_handler("pull", 0, [&](RequestContext& ctx) {
        BulkRef r{};
        serial::from_string(ctx.payload(), r);
        received.resize(r.size);
        Status st = ctx.bulk_get(r, 0, received.data(), r.size);
        ctx.respond(st.ok() ? "ok" : st.to_string());
    });
    auto r = client->call(server->address(), "pull", 0, serial::to_string(ref));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "ok");
    EXPECT_EQ(received, data);
    EXPECT_GE(server_fabric.stats().bulk_bytes, data.size());
}

TEST(TcpFabricTest, BulkWriteAcrossFabrics) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");

    std::string sink(32, '_');
    BulkRef ref = client->expose(sink.data(), sink.size());
    server->register_handler("push", 0, [&](RequestContext& ctx) {
        BulkRef r{};
        serial::from_string(ctx.payload(), r);
        const char msg[] = "written-over-tcp";
        Status st = ctx.bulk_put(msg, r, 4, sizeof(msg) - 1);
        ctx.respond(st.ok() ? "ok" : st.to_string());
    });
    auto r = client->call(server->address(), "push", 0, serial::to_string(ref));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "ok");
    EXPECT_EQ(sink.substr(4, 16), "written-over-tcp");
}

TEST(TcpFabricTest, BulkAgainstMissingRegionFails) {
    TcpFabric a_fabric;
    TcpFabric b_fabric;
    auto a = a_fabric.create_endpoint("a");
    auto b = b_fabric.create_endpoint("b");
    (void)a;
    BulkRef bogus{a->address(), 999, 16};
    char buf[16];
    auto st = b->bulk_get(bogus, 0, buf, 16);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(TcpFabricTest, ConcurrentCallsAcrossFabrics) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    server->register_handler("inc", 0, [](RequestContext& ctx) {
        ctx.respond(std::to_string(std::stoi(ctx.payload()) + 1));
    });
    auto client = client_fabric.create_endpoint("client");
    std::vector<std::shared_ptr<abt::Eventual<Result<std::string>>>> futs;
    for (int i = 0; i < 64; ++i) {
        futs.push_back(client->call_async(server->address(), "inc", 0, std::to_string(i)));
    }
    for (int i = 0; i < 64; ++i) {
        auto& r = futs[static_cast<std::size_t>(i)]->wait();
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_EQ(*r, std::to_string(i + 1));
    }
}

TEST(TcpFabricTest, MargoTypedRpcOverTcp) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    margo::Engine server(server_fabric, "server");
    margo::Engine client(client_fabric, "client");
    server.define<int, int>("square", 0, [](const int& x) -> Result<int> { return x * x; });
    auto r = client.forward<int, int>(server.address(), "square", 0, 12);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, 144);
}

TEST(TcpFabricTest, YokanBatchGetOverTcp) {
    // get_multi's server-side bulk WRITE into a client buffer, across sockets.
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    margo::Engine server(server_fabric, "server");
    margo::Engine client(client_fabric, "client");
    auto cfg = json::parse(R"({"databases": [{"name": "db", "type": "map"}]})");
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok());
    yokan::DatabaseHandle db(client, server.address(), 1, "db");
    std::vector<yokan::BatchItem> batch;
    for (int i = 0; i < 300; ++i) {
        batch.push_back(
            {"k" + std::to_string(i), hep::Buffer::adopt("value-" + std::to_string(i))});
    }
    ASSERT_TRUE(db.put_multi(batch).ok());
    auto out = db.get_multi_views({"k7", "missing", "k250"}, /*buffer_hint=*/4096);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ((*out)[0]->sv(), "value-7");
    EXPECT_FALSE((*out)[1].has_value());
    EXPECT_EQ((*out)[2]->sv(), "value-250");
}

TEST(TcpFabricTest, FullHepnosStackOverTcp) {
    // The paper's deployment shape: service in one process, clients in
    // another, connected only by a JSON descriptor document.
    TcpFabric server_fabric;   // the "server job"
    TcpFabric client_fabric;   // the "client job"

    auto cfg = json::parse(R"({
      "address": "hepnos-0",
      "providers": [{ "type": "yokan", "provider_id": 1, "config": { "databases": [
          { "name": "d0", "type": "map", "role": "datasets" },
          { "name": "r0", "type": "map", "role": "runs" },
          { "name": "s0", "type": "map", "role": "subruns" },
          { "name": "e0", "type": "map", "role": "events" },
          { "name": "p0", "type": "map", "role": "products" } ] } }]
    })");
    auto svc = bedrock::ServiceProcess::create(server_fabric, *cfg);
    ASSERT_TRUE(svc.ok()) << svc.status().to_string();
    // The descriptor carries full tcp:// URLs.
    const json::Value descriptor = (*svc)->descriptor();
    EXPECT_EQ(descriptor["databases"].at(0)["address"].as_string().rfind("tcp://", 0), 0u);

    auto store = hepnos::DataStore::connect(client_fabric, descriptor);
    auto ds = store.createDataSet("tcp/dataset");
    auto ev = ds.createRun(1).createSubRun(2).createEvent(3);
    ev.store("x", std::vector<double>{1.5, 2.5});
    std::vector<double> out;
    ASSERT_TRUE(ev.load("x", out));
    EXPECT_EQ(out, (std::vector<double>{1.5, 2.5}));

    // Batched (bulk) path over TCP too.
    hepnos::WriteBatch batch(store.impl());
    auto sr = ds.createRun(9).createSubRun(0);
    for (std::uint64_t e = 0; e < 200; ++e) sr.createEvent(batch, e);
    batch.flush();
    std::uint64_t count = 0;
    for (const auto& e : sr) {
        (void)e;
        ++count;
    }
    EXPECT_EQ(count, 200u);
}

TEST(TcpFabricTest, PerRpcDeadlineSurfacesDeadlineExceeded) {
    // A handler that never responds must not strand the caller when a
    // deadline is armed — and the resulting status must be DeadlineExceeded,
    // NOT Unavailable: the retry policy treats "server reachable but slow"
    // differently from "server gone".
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");
    server->register_handler("blackhole", 0, [](RequestContext&) { /* no respond() */ });

    const auto t0 = std::chrono::steady_clock::now();
    auto r = client->call(server->address(), "blackhole", 0, "x",
                          std::chrono::milliseconds(100));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().to_string();
    EXPECT_LT(elapsed, std::chrono::seconds(5));

    // A dead address still fails fast as Unavailable (distinct code).
    auto gone = client->call("tcp://127.0.0.1:1/nobody", "blackhole", 0, "x",
                             std::chrono::milliseconds(100));
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), StatusCode::kUnavailable) << gone.status().to_string();

    // Endpoint-wide default deadline covers calls that do not pass one.
    client->set_default_deadline(std::chrono::milliseconds(100));
    auto r2 = client->call(server->address(), "blackhole", 0, "y");
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
    client->set_default_deadline(std::chrono::milliseconds(0));

    // A responsive handler under a deadline still succeeds.
    server->register_handler("echo2", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    auto ok = client->call(server->address(), "echo2", 0, "fast",
                           std::chrono::milliseconds(2000));
    ASSERT_TRUE(ok.ok()) << ok.status().to_string();
    EXPECT_EQ(*ok, "fast");
}

}  // namespace
