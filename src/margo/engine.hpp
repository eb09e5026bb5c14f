// Margo substitute: couples the RPC endpoint with argolite scheduling
// (paper §II-B: "Margo [combines] Argobots and Mercury into a simpler
// programming model").
//
// An Engine owns one rpc::Endpoint plus a set of pools and xstreams. RPC
// handlers are *typed*: define<Req, Resp>() deserializes the request, runs the
// handler as a ULT in the pool the provider was mapped to, and serializes the
// response. forward<Req, Resp>() is the sync-over-async client call: it blocks
// the calling ULT (cooperatively) or OS thread until the response arrives.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abt/abt.hpp"
#include "common/status.hpp"
#include "qos/admission.hpp"
#include "rpc/rpc.hpp"
#include "serial/archive.hpp"

namespace hep::margo {

struct EngineConfig {
    /// Number of xstreams servicing the default handler pool
    /// (paper: 16 "rpc-xstreams" per HEPnOS server process).
    std::size_t rpc_xstreams = 2;
    /// ULT stack size for handlers.
    std::size_t handler_stack_size = 256 * 1024;
    /// Default per-RPC deadline in milliseconds for calls issued through this
    /// engine's endpoint (0 = wait forever). Expired calls complete with
    /// Status::DeadlineExceeded; the replica failover policy keys off it.
    std::uint64_t rpc_deadline_ms = 0;
    /// Non-empty: handler pools (the default pool and any create_pool()) are
    /// weighted-fair PriorityPools with these per-class weights, so
    /// latency-sensitive handlers overtake queued bulk work (bedrock "qos"
    /// knob). Empty keeps the historical FIFO pools.
    std::vector<std::uint32_t> qos_weights{};
};

class Engine {
  public:
    /// Create an engine listening at `address` on `network`.
    Engine(rpc::Fabric& network, std::string address, EngineConfig config = {});
    ~Engine();
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    [[nodiscard]] const std::string& address() const noexcept { return endpoint_->address(); }
    [[nodiscard]] rpc::Endpoint& endpoint() noexcept { return *endpoint_; }
    [[nodiscard]] rpc::Fabric& network() noexcept { return network_; }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

    /// The pool handlers run in unless a dedicated pool is given at define().
    [[nodiscard]] std::shared_ptr<abt::Pool> default_pool() const noexcept { return pool_; }

    /// Create a dedicated pool serviced by `xstreams` new xstreams — the
    /// "map each provider to its own execution stream" configuration the
    /// paper uses for Yokan providers (§IV-D).
    std::shared_ptr<abt::Pool> create_pool(const std::string& name, std::size_t xstreams = 1);

    /// Arm admission control: every request dispatched by this engine passes
    /// `ctrl->admit()` on the thread that delivers it, before its handler ULT
    /// is created, and handler ULTs report queue-wait / execution time back.
    /// Call before providers start serving traffic.
    void enable_qos(std::shared_ptr<qos::AdmissionController> ctrl);
    [[nodiscard]] std::shared_ptr<qos::AdmissionController> qos_controller() const {
        return qos_->get();
    }

    /// Register a typed RPC handler for (name, provider_id).
    /// The handler runs as a ULT in `pool` (default: the engine pool).
    /// Requests decode straight from the payload chain and responses are
    /// serialized to a chain, so hep::Buffer fields in Req/Resp travel by
    /// reference the whole way.
    template <typename Req, typename Resp>
    void define(std::string_view name, rpc::ProviderId provider_id,
                std::function<Result<Resp>(const Req&)> handler,
                std::shared_ptr<abt::Pool> pool = nullptr) {
        define_chain(
            name, provider_id,
            [handler = std::move(handler)](const hep::BufferChain& payload,
                                           rpc::RequestContext&) -> Result<hep::BufferChain> {
                Req req{};
                try {
                    serial::from_chain(payload, req);
                } catch (const serial::SerializationError& e) {
                    return Status::InvalidArgument(std::string("bad request payload: ") +
                                                   e.what());
                }
                Result<Resp> out = handler(req);
                if (!out.ok()) return out.status();
                return serial::to_chain(out.value());
            },
            std::move(pool));
    }

    /// Untyped chain handler: scatter-gather payload in, scatter-gather
    /// payload out. The handler may also use the context for bulk transfers.
    /// The chain (and any views sliced from it) owns its bytes, so it is safe
    /// to keep across the ULT switch and beyond the handler's return.
    using ChainHandler = std::function<Result<hep::BufferChain>(const hep::BufferChain& payload,
                                                                rpc::RequestContext& ctx)>;
    void define_chain(std::string_view name, rpc::ProviderId provider_id, ChainHandler handler,
                      std::shared_ptr<abt::Pool> pool = nullptr);

    /// Untyped variant over contiguous strings. Compatibility shim: the
    /// request chain is flattened (a counted copy) before the handler runs —
    /// prefer define_chain() on hot paths.
    using RawHandler =
        std::function<Result<std::string>(const std::string& payload, rpc::RequestContext& ctx)>;
    void define_with_context(std::string_view name, rpc::ProviderId provider_id,
                             RawHandler handler, std::shared_ptr<abt::Pool> pool = nullptr);

    void define_raw(std::string_view name, rpc::ProviderId provider_id,
                    std::function<Result<std::string>(const std::string&)> handler,
                    std::shared_ptr<abt::Pool> pool = nullptr);

    /// Typed synchronous call. `deadline` caps the wait for the response
    /// (zero = the endpoint default); `tag` is the QoS stamp (unset = the
    /// endpoint default).
    template <typename Req, typename Resp>
    Result<Resp> forward(const std::string& to, std::string_view name,
                         rpc::ProviderId provider_id, const Req& req,
                         std::chrono::milliseconds deadline = std::chrono::milliseconds{0},
                         const qos::QosTag& tag = {}) {
        auto raw =
            endpoint_->call_chain(to, name, provider_id, serial::to_chain(req), deadline, tag);
        if (!raw.ok()) return raw.status();
        Resp resp{};
        try {
            serial::from_chain(raw.value(), resp);
        } catch (const serial::SerializationError& e) {
            return Status::Corruption(std::string("bad response payload: ") + e.what());
        }
        return resp;
    }

    /// Stop xstreams and shut the endpoint down. Idempotent.
    void finalize();

  private:
    /// The admission controller slot, shared with every registered handler
    /// closure so enable_qos() can arrive after (or before) define() calls.
    struct QosSlot {
        mutable std::mutex mutex;
        std::shared_ptr<qos::AdmissionController> ctrl;
        [[nodiscard]] std::shared_ptr<qos::AdmissionController> get() const {
            std::lock_guard<std::mutex> lock(mutex);
            return ctrl;
        }
    };

    rpc::Fabric& network_;
    EngineConfig config_;
    std::shared_ptr<rpc::Endpoint> endpoint_;
    std::shared_ptr<abt::Pool> pool_;
    std::vector<std::unique_ptr<abt::Xstream>> xstreams_;
    std::shared_ptr<QosSlot> qos_ = std::make_shared<QosSlot>();
    bool finalized_ = false;
};

/// Base for Mochi-style providers: an object answering RPCs under a provider
/// id, mapped to an Argobots pool (paper footnote 4).
class Provider {
  public:
    Provider(Engine& engine, rpc::ProviderId id, std::shared_ptr<abt::Pool> pool = nullptr)
        : engine_(engine), id_(id), pool_(pool ? std::move(pool) : engine.default_pool()) {}
    virtual ~Provider() = default;

    [[nodiscard]] rpc::ProviderId provider_id() const noexcept { return id_; }
    [[nodiscard]] Engine& engine() noexcept { return engine_; }
    [[nodiscard]] const std::shared_ptr<abt::Pool>& pool() const noexcept { return pool_; }

  protected:
    Engine& engine_;
    rpc::ProviderId id_;
    std::shared_ptr<abt::Pool> pool_;
};

}  // namespace hep::margo
