// Tests for the Mercury-substitute RPC layer: registration/dispatch, calls,
// bulk transfers, and failure injection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "rpc/rpc.hpp"
#include "rpc/tcp_fabric.hpp"
#include "rpc/wire_format.hpp"
#include "serial/archive.hpp"

namespace {

using namespace hep;
using namespace hep::rpc;

TEST(RpcIdTest, StableAndDistinct) {
    EXPECT_EQ(rpc_id_of("yokan_put"), rpc_id_of("yokan_put"));
    EXPECT_NE(rpc_id_of("yokan_put"), rpc_id_of("yokan_get"));
}

// Message::wire_size() used to be a flat `64 + payload` guess that ignored
// the origin string entirely; it is now pinned against the exact frame the
// TCP fabric writes: [u32 len][u8 kind][serialized header][payload tail].
TEST(WireSizeTest, MatchesFramedBytesExactly) {
    Message msg;
    msg.type = MessageType::kRequest;
    msg.seq = 0x0123456789abcdefULL;
    msg.rpc = rpc_id_of("echo");
    msg.provider = 7;
    msg.origin = "tcp://127.0.0.1:54321/client";
    msg.payload.append_copy("hello, wire accounting");
    for (const auto& to_name :
         {std::string(), std::string("server"), std::string(60, 'n')}) {
        // framed_size is computed from the serialized header…
        EXPECT_EQ(msg.wire_size(to_name.size()), wire::framed_size(msg, to_name));
        // …and the serialized header is literally what the fabric writes.
        const std::string header = serial::to_string(wire::make_header(msg, to_name));
        EXPECT_EQ(msg.wire_size(to_name.size()),
                  4 + 1 + header.size() + msg.payload.size());
    }
}

TEST(WireSizeTest, CoversStatusMessageAndEmptyFields) {
    Message resp;
    resp.type = MessageType::kResponse;
    resp.seq = 9;
    resp.origin = "net://client";
    resp.status = Status::NotFound("no such key in any database");
    EXPECT_EQ(resp.wire_size(0), wire::framed_size(resp, ""));

    Message empty;  // all defaults: no origin, no payload, OK status
    EXPECT_EQ(empty.wire_size(), wire::framed_size(empty, ""));

    Message chained;  // multi-segment payloads count their total size
    chained.payload.append_copy("abc");
    chained.payload.append_copy("defgh");
    EXPECT_EQ(chained.wire_size(4), wire::framed_size(chained, "peer"));
}

class RpcTest : public ::testing::Test {
  protected:
    Network net;
};

TEST_F(RpcTest, EchoCall) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("echo", 0, [](RequestContext& ctx) {
        ctx.respond("echo:" + ctx.payload());
    });
    auto r = client->call("server", "echo", 0, "hello");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, "echo:hello");
}

TEST_F(RpcTest, ProviderIdsRouteToDistinctHandlers) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("who", 1, [](RequestContext& ctx) { ctx.respond("one"); });
    server->register_handler("who", 2, [](RequestContext& ctx) { ctx.respond("two"); });
    EXPECT_EQ(*client->call("server", "who", 1, ""), "one");
    EXPECT_EQ(*client->call("server", "who", 2, ""), "two");
}

TEST_F(RpcTest, WildcardProviderFallback) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("who", 0, [](RequestContext& ctx) { ctx.respond("any"); });
    EXPECT_EQ(*client->call("server", "who", 7, ""), "any");
}

TEST_F(RpcTest, UnknownRpcFails) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    auto r = client->call("server", "nope", 0, "");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RpcTest, UnknownTargetFailsFast) {
    auto client = net.create_endpoint("client");
    auto r = client->call("ghost", "echo", 0, "x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST_F(RpcTest, HandlerErrorPropagates) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("fail", 0, [](RequestContext& ctx) {
        ctx.respond_error(Status::NotFound("no such key"));
    });
    auto r = client->call("server", "fail", 0, "");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(r.status().message(), "no such key");
}

TEST_F(RpcTest, ManyConcurrentCallsFromThreads) {
    auto server = net.create_endpoint("server");
    server->register_handler("inc", 0, [](RequestContext& ctx) {
        int v = std::stoi(ctx.payload());
        ctx.respond(std::to_string(v + 1));
    });
    constexpr int kThreads = 4, kCalls = 50;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto client = net.create_endpoint("client-" + std::to_string(t));
            for (int i = 0; i < kCalls; ++i) {
                auto r = client->call("server", "inc", 0, std::to_string(i));
                if (!r.ok() || *r != std::to_string(i + 1)) failures.fetch_add(1);
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST_F(RpcTest, AsyncCallsOverlap) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("id", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    std::vector<std::shared_ptr<abt::Eventual<Result<std::string>>>> futs;
    for (int i = 0; i < 32; ++i) {
        futs.push_back(client->call_async("server", "id", 0, std::to_string(i)));
    }
    for (int i = 0; i < 32; ++i) {
        auto& r = futs[i]->wait();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r, std::to_string(i));
    }
}

// ------------------------------------------------------------------ bulk ---

TEST_F(RpcTest, BulkGetFromServerSide) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");

    // Client exposes a buffer, ships the ref; server pulls it (RDMA read).
    std::vector<std::uint8_t> data(4096);
    std::iota(data.begin(), data.end(), 0);
    BulkRef ref = client->expose(data.data(), data.size());

    std::vector<std::uint8_t> received;
    server->register_handler("pull", 0, [&](RequestContext& ctx) {
        BulkRef r{};
        hep::serial::from_string(ctx.payload(), r);
        received.resize(r.size);
        Status st = ctx.bulk_get(r, 0, received.data(), r.size);
        ctx.respond(st.ok() ? "ok" : "fail");
    });

    auto r = client->call("server", "pull", 0, hep::serial::to_string(ref));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "ok");
    EXPECT_EQ(received, data);
    EXPECT_GE(net.stats().bulk_bytes, 4096u);
    EXPECT_EQ(net.stats().bulk_transfers, 1u);
}

TEST_F(RpcTest, BulkPutToClientBuffer) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    std::vector<char> sink(16, '_');
    BulkRef ref = client->expose(sink.data(), sink.size());

    server->register_handler("push", 0, [&](RequestContext& ctx) {
        BulkRef r{};
        hep::serial::from_string(ctx.payload(), r);
        const char msg[] = "rdma-write!";
        Status st = ctx.bulk_put(msg, r, 2, sizeof(msg) - 1);
        ctx.respond(st.ok() ? "ok" : st.to_string());
    });
    auto r = client->call("server", "push", 0, hep::serial::to_string(ref));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "ok");
    EXPECT_EQ(std::string(sink.begin() + 2, sink.begin() + 13), "rdma-write!");
}

TEST_F(RpcTest, BulkOutOfRangeRejected) {
    auto a = net.create_endpoint("a");
    auto b = net.create_endpoint("b");
    char buf[8];
    BulkRef ref = a->expose(buf, sizeof(buf));
    char out[16];
    EXPECT_EQ(b->bulk_get(ref, 4, out, 8).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(b->bulk_get(ref, 0, out, 8).code(), StatusCode::kOk);
}

TEST_F(RpcTest, BulkAfterUnexposeFails) {
    auto a = net.create_endpoint("a");
    auto b = net.create_endpoint("b");
    char buf[8];
    BulkRef ref = a->expose(buf, sizeof(buf));
    a->unexpose(ref);
    char out[8];
    EXPECT_EQ(b->bulk_get(ref, 0, out, 8).code(), StatusCode::kNotFound);
}

// ------------------------------------------------- failure injection -------

TEST_F(RpcTest, DropInjectionFailsCalls) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("echo", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    net.set_drop_rate(1.0);
    auto r = client->call("server", "echo", 0, "x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
    EXPECT_GE(net.stats().dropped, 1u);
    net.set_drop_rate(0.0);
    EXPECT_TRUE(client->call("server", "echo", 0, "x").ok());
}

TEST_F(RpcTest, PartitionBlocksTraffic) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("echo", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    net.set_partitioned("server", true);
    auto r = client->call("server", "echo", 0, "x");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    net.set_partitioned("server", false);
    EXPECT_TRUE(client->call("server", "echo", 0, "x").ok());
}

// ------------------------------------------------ delivery path ------------

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

TEST_F(RpcTest, ResponseCompletesWhileClientProgressThreadIsBusy) {
    // Responses complete on the delivering thread, so a client whose own
    // progress thread is stuck in a blocking handler still gets its answers.
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    auto poker = net.create_endpoint("poker");
    server->register_handler("echo", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    std::promise<void> entered;
    std::latch gate{1};
    client->register_handler("hold", 0, [&](RequestContext& ctx) {
        entered.set_value();
        gate.wait();
        ctx.respond("released");
    });
    auto held = poker->call_async("client", "hold", 0, "");
    entered.get_future().wait();
    // Watchdog: if the response needed the client's progress thread, it
    // arrives only after this release and the call fails its deadline.
    std::promise<void> answered;
    std::thread watchdog([&gate, done = answered.get_future()] {
        (void)done.wait_for(milliseconds(2000));
        gate.count_down();
    });
    const auto t0 = Clock::now();
    auto r = client->call("server", "echo", 0, "ping", milliseconds(1000));
    const auto elapsed = Clock::now() - t0;
    answered.set_value();
    watchdog.join();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, "ping");
    EXPECT_LT(elapsed, milliseconds(1000));
    EXPECT_TRUE(held->wait().ok());
}

TEST_F(RpcTest, EarlyDeadlineExpiresAmongManyLongOnes) {
    // Armed deadlines are kept in expiry order: one short deadline among a
    // thousand long ones still fires on time.
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("blackhole", 0, [](RequestContext&) { /* no respond() */ });
    std::vector<std::shared_ptr<abt::Eventual<Result<std::string>>>> parked;
    for (int i = 0; i < 1000; ++i) {
        parked.push_back(client->call_async("server", "blackhole", 0, "", milliseconds(10000)));
    }
    const auto t0 = Clock::now();
    auto r = client->call("server", "blackhole", 0, "", milliseconds(20));
    const auto elapsed = Clock::now() - t0;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status().to_string();
    EXPECT_LT(elapsed, milliseconds(200));
    for (const auto& call : parked) EXPECT_FALSE(call->ready());
    client->shutdown();
    for (const auto& call : parked) {
        EXPECT_EQ(call->wait().status().code(), StatusCode::kCancelled);
    }
}

// Shutdown contract, the same over every fabric: calls in flight (and calls
// made after the stop) fail Cancelled, and a stopped endpoint answers new
// requests Unavailable.
void check_shutdown_contract(Endpoint& server, Endpoint& client, Endpoint& other_client) {
    server.register_handler("blackhole", 0, [](RequestContext&) { /* no respond() */ });
    server.register_handler("echo", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    ASSERT_TRUE(client.call(server.address(), "echo", 0, "x", milliseconds(5000)).ok());
    std::vector<std::shared_ptr<abt::Eventual<Result<std::string>>>> inflight;
    for (int i = 0; i < 8; ++i) {
        inflight.push_back(
            client.call_async(server.address(), "blackhole", 0, "", milliseconds(5000)));
    }
    client.shutdown();
    inflight.push_back(client.call_async(server.address(), "echo", 0, "late"));
    for (const auto& call : inflight) {
        ASSERT_TRUE(call->ready());
        EXPECT_EQ(call->wait().status().code(), StatusCode::kCancelled)
            << call->wait().status().to_string();
    }
    server.shutdown();
    auto r = other_client.call(server.address(), "echo", 0, "x", milliseconds(5000));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << r.status().to_string();
}

TEST_F(RpcTest, ShutdownCancelsInflightAndRejectsNew) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    auto other = net.create_endpoint("other");
    check_shutdown_contract(*server, *client, *other);
}

TEST(RpcTcpTest, ShutdownCancelsInflightAndRejectsNewOverTcp) {
    TcpFabric server_fabric;
    TcpFabric client_fabric;
    auto server = server_fabric.create_endpoint("server");
    auto client = client_fabric.create_endpoint("client");
    auto other = client_fabric.create_endpoint("other");
    check_shutdown_contract(*server, *client, *other);
}

TEST_F(RpcTest, TrafficAccounting) {
    auto server = net.create_endpoint("server");
    auto client = net.create_endpoint("client");
    server->register_handler("echo", 0, [](RequestContext& ctx) { ctx.respond(ctx.payload()); });
    const auto before = net.stats();
    (void)client->call("server", "echo", 0, std::string(1000, 'x'));
    const auto after = net.stats();
    EXPECT_EQ(after.messages - before.messages, 2u);  // request + response
    EXPECT_GE(after.message_bytes - before.message_bytes, 2000u);
}

TEST_F(RpcTest, DuplicateAddressRejected) {
    auto a = net.create_endpoint("dup");
    EXPECT_NE(a, nullptr);
    EXPECT_EQ(net.create_endpoint("dup"), nullptr);
}

}  // namespace
