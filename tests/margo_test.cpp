// Tests for the Margo-substitute engine: typed RPCs, provider pools, ULT
// handler execution, nested forwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "margo/engine.hpp"

namespace {

using namespace hep;
using namespace hep::margo;

struct PutReq {
    std::string key;
    std::string value;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & key & value;
    }
};

struct PutResp {
    bool created = false;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & created;
    }
};

class MargoTest : public ::testing::Test {
  protected:
    rpc::Network net;
};

TEST_F(MargoTest, TypedDefineAndForward) {
    Engine server(net, "server");
    Engine client(net, "client");
    std::map<std::string, std::string> store;
    abt::Mutex store_mutex;
    server.define<PutReq, PutResp>("put", 1, [&](const PutReq& req) -> Result<PutResp> {
        abt::LockGuard lock(store_mutex);
        const bool created = store.emplace(req.key, req.value).second;
        return PutResp{created};
    });
    auto r1 = client.forward<PutReq, PutResp>("server", "put", 1, {"k", "v"});
    ASSERT_TRUE(r1.ok()) << r1.status().to_string();
    EXPECT_TRUE(r1->created);
    auto r2 = client.forward<PutReq, PutResp>("server", "put", 1, {"k", "v2"});
    ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2->created);
    EXPECT_EQ(store["k"], "v");
}

TEST_F(MargoTest, HandlerRunsInUlt) {
    Engine server(net, "server");
    Engine client(net, "client");
    std::atomic<bool> was_ult{false};
    server.define<int, int>("probe", 0, [&](const int& x) -> Result<int> {
        was_ult = abt::in_ult();
        return x;
    });
    ASSERT_TRUE((client.forward<int, int>("server", "probe", 0, 5).ok()));
    EXPECT_TRUE(was_ult.load());
}

TEST_F(MargoTest, HandlerErrorStatusPropagates) {
    Engine server(net, "server");
    Engine client(net, "client");
    server.define<int, int>("reject", 0, [](const int&) -> Result<int> {
        return Status::NotFound("nope");
    });
    auto r = client.forward<int, int>("server", "reject", 0, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(MargoTest, HandlerExceptionBecomesInternalError) {
    Engine server(net, "server");
    Engine client(net, "client");
    server.define<int, int>("throw", 0, [](const int&) -> Result<int> {
        throw std::runtime_error("kaboom");
    });
    auto r = client.forward<int, int>("server", "throw", 0, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST_F(MargoTest, MalformedRequestRejected) {
    Engine server(net, "server");
    Engine client(net, "client");
    server.define<PutReq, PutResp>("put", 0, [](const PutReq&) -> Result<PutResp> {
        return PutResp{true};
    });
    // Send garbage bytes directly through the raw endpoint.
    auto r = client.endpoint().call("server", "put", 0, "\x01\x02");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MargoTest, DedicatedProviderPool) {
    Engine server(net, "server", {.rpc_xstreams = 1});
    Engine client(net, "client");
    auto db_pool = server.create_pool("db-pool", 2);
    std::atomic<int> handled{0};
    server.define<int, int>(
        "work", 3,
        [&](const int& x) -> Result<int> {
            handled.fetch_add(1);
            return x * 2;
        },
        db_pool);
    for (int i = 0; i < 20; ++i) {
        auto r = client.forward<int, int>("server", "work", 3, i);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r, i * 2);
    }
    EXPECT_EQ(handled.load(), 20);
    EXPECT_GE(db_pool->total_pushed(), 20u);
}

TEST_F(MargoTest, NestedForwardFromHandler) {
    // Handler on B forwards to C while servicing A — classic Margo pattern;
    // the handler ULT suspends without blocking its xstream.
    Engine a(net, "A");
    Engine b(net, "B", {.rpc_xstreams = 1});
    Engine c(net, "C");
    c.define<int, int>("leaf", 0, [](const int& x) -> Result<int> { return x + 1; });
    b.define<int, int>("mid", 0, [&](const int& x) -> Result<int> {
        auto r = b.forward<int, int>("C", "leaf", 0, x * 10);
        if (!r.ok()) return r.status();
        return *r;
    });
    auto r = a.forward<int, int>("B", "mid", 0, 4);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, 41);
}

TEST_F(MargoTest, SelfForwardWorks) {
    // An engine calling its own provider must not deadlock even with a
    // single rpc xstream (the caller is an OS thread here).
    Engine e(net, "solo", {.rpc_xstreams = 1});
    e.define<int, int>("inc", 0, [](const int& x) -> Result<int> { return x + 1; });
    auto r = e.forward<int, int>("solo", "inc", 0, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 2);
}

TEST_F(MargoTest, FinalizeIsIdempotentAndStopsService) {
    auto server = std::make_unique<Engine>(net, "server");
    Engine client(net, "client");
    server->define<int, int>("inc", 0, [](const int& x) -> Result<int> { return x + 1; });
    EXPECT_TRUE((client.forward<int, int>("server", "inc", 0, 1).ok()));
    server->finalize();
    server->finalize();
    auto r = client.forward<int, int>("server", "inc", 0, 1);
    EXPECT_FALSE(r.ok());
}

TEST_F(MargoTest, RawDefineWithContextDoesBulk) {
    Engine server(net, "server");
    Engine client(net, "client");
    std::string blob(1 << 16, 'z');
    rpc::BulkRef ref = client.endpoint().expose(blob.data(), blob.size());
    std::atomic<std::uint64_t> pulled{0};
    server.define_with_context(
        "pull", 0, [&](const std::string& payload, rpc::RequestContext& ctx) -> Result<std::string> {
            rpc::BulkRef r{};
            serial::from_string(payload, r);
            std::string local(r.size, '\0');
            Status st = ctx.bulk_get(r, 0, local.data(), r.size);
            if (!st.ok()) return st;
            pulled = local.size();
            return std::string("done");
        });
    auto r = client.endpoint().call("server", "pull", 0, serial::to_string(ref));
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(pulled.load(), blob.size());
}

TEST_F(MargoTest, RpcCompletesWhileServerProgressThreadIsBusy) {
    // Margo requests are dispatched on the delivering thread: a plain
    // handler blocking the server endpoint's progress thread cannot stall
    // them.
    Engine server(net, "server");
    Engine client(net, "client");
    server.define<int, int>("inc", 0, [](const int& x) -> Result<int> { return x + 1; });
    std::promise<void> entered;
    std::latch gate{1};
    server.endpoint().register_handler("hold", 0, [&](rpc::RequestContext& ctx) {
        entered.set_value();
        gate.wait();
        ctx.respond("released");
    });
    auto held = client.endpoint().call_async("server", "hold", 0, "");
    entered.get_future().wait();
    const auto t0 = std::chrono::steady_clock::now();
    auto r = client.forward<int, int>("server", "inc", 0, 41, std::chrono::milliseconds(1000));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    gate.count_down();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, 42);
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
    EXPECT_TRUE(held->wait().ok());
}

TEST_F(MargoTest, HandlersRunInSendOrder) {
    // Sends from one thread reach a one-xstream pool in send order.
    EngineConfig one_xstream;
    one_xstream.rpc_xstreams = 1;
    Engine server(net, "server", one_xstream);
    Engine client(net, "client");
    std::mutex order_mutex;
    std::vector<int> order;
    server.define<int, bool>("record", 0, [&](const int& i) -> Result<bool> {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(i);
        return true;
    });
    std::vector<std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>>> calls;
    for (int i = 0; i < 100; ++i) {
        calls.push_back(client.endpoint().call_async_chain(
            "server", "record", 0, serial::to_chain(i), std::chrono::milliseconds(5000)));
    }
    for (const auto& call : calls) {
        ASSERT_TRUE(call->wait().ok()) << call->wait().status().to_string();
    }
    std::vector<int> expected(100);
    std::iota(expected.begin(), expected.end(), 0);
    std::lock_guard<std::mutex> lock(order_mutex);
    EXPECT_EQ(order, expected);
}

}  // namespace
