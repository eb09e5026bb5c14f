#include "margo/engine.hpp"

#include "common/logging.hpp"

namespace hep::margo {

Engine::Engine(rpc::Fabric& network, std::string address, EngineConfig config)
    : network_(network), config_(config) {
    endpoint_ = network_.create_endpoint(address);
    if (!endpoint_) {
        throw std::runtime_error("margo::Engine: address already in use: " + address);
    }
    if (config_.rpc_deadline_ms > 0) {
        endpoint_->set_default_deadline(std::chrono::milliseconds(config_.rpc_deadline_ms));
    }
    if (!config_.qos_weights.empty()) {
        pool_ = abt::PriorityPool::create(config_.qos_weights, address + ":rpc-pool");
    } else {
        pool_ = abt::Pool::create(address + ":rpc-pool");
    }
    for (std::size_t i = 0; i < config_.rpc_xstreams; ++i) {
        xstreams_.push_back(
            abt::Xstream::create({pool_}, address + ":rpc-es-" + std::to_string(i)));
    }
}

Engine::~Engine() { finalize(); }

void Engine::finalize() {
    if (finalized_) return;
    finalized_ = true;
    // Stop accepting new requests first, then drain the xstreams.
    endpoint_->shutdown();
    for (auto& xs : xstreams_) xs->join();
    xstreams_.clear();
}

std::shared_ptr<abt::Pool> Engine::create_pool(const std::string& name, std::size_t xstreams) {
    std::shared_ptr<abt::Pool> pool;
    if (!config_.qos_weights.empty()) {
        pool = abt::PriorityPool::create(config_.qos_weights, name);
    } else {
        pool = abt::Pool::create(name);
    }
    for (std::size_t i = 0; i < xstreams; ++i) {
        xstreams_.push_back(abt::Xstream::create({pool}, name + ":es-" + std::to_string(i)));
    }
    return pool;
}

void Engine::enable_qos(std::shared_ptr<qos::AdmissionController> ctrl) {
    {
        std::lock_guard<std::mutex> lock(qos_->mutex);
        qos_->ctrl = std::move(ctrl);
    }
    // The dispatch-time gate runs on the thread that delivers the request,
    // before any handler ULT exists; margo's dispatch wrapper (define_chain)
    // does the ULT-side half of the accounting.
    auto slot = qos_;
    endpoint_->set_admission([slot](const rpc::Message& msg) -> Status {
        auto ctrl = slot->get();
        if (!ctrl) return Status::OK();
        return ctrl->admit(msg.provider, msg.qos_tenant, msg.qos_class, msg.qos_budget_ms,
                           msg.arrival);
    });
}

void Engine::define_chain(std::string_view name, rpc::ProviderId provider_id,
                          ChainHandler handler, std::shared_ptr<abt::Pool> pool) {
    auto target_pool = pool ? std::move(pool) : pool_;
    const std::size_t stack_size = config_.handler_stack_size;
    endpoint_->register_handler(
        name, provider_id,
        [target_pool, handler = std::move(handler), stack_size,
         slot = qos_](rpc::RequestContext& ctx) {
            // The rpc layer owns the context only for the duration of this
            // callback; move it into the ULT so the handler can respond later.
            // The payload chain's segments own their bytes (receive buffer /
            // sender's buffers), so they survive the ULT switch.
            auto owned = std::make_shared<rpc::RequestContext>(std::move(ctx));
            // Read the controller here (at dispatch), so the ULT sees the same
            // controller the admission gate just charged this request to.
            auto ctrl = slot->get();
            const std::uint8_t sched_class =
                qos::AdmissionController::normalize_class(owned->qos_class())
                    .value_or(qos::kClassBatch);
            const auto enqueued = std::chrono::steady_clock::now();
            abt::Ult::create(
                target_pool,
                [owned, handler, ctrl, sched_class, enqueued] {
                    if (ctrl) {
                        // Queue-wait accounting + in-queue expiry, charged
                        // separately from handler execution time.
                        if (ctrl->on_start(owned->provider(), sched_class,
                                           owned->qos_budget_ms(), owned->arrival(),
                                           enqueued) == qos::StartVerdict::kExpiredInQueue) {
                            owned->respond_error(Status::DeadlineExceeded(
                                "qos: deadline expired while queued"));
                            return;
                        }
                        // Tier-1 overload response: bulk classes briefly give
                        // their xstream slots to higher classes.
                        ctrl->slowdown_pause(sched_class);
                    }
                    const auto exec_start = std::chrono::steady_clock::now();
                    Result<hep::BufferChain> out = [&]() -> Result<hep::BufferChain> {
                        try {
                            return handler(owned->payload_chain(), *owned);
                        } catch (const std::exception& e) {
                            return Status::Internal(std::string("handler exception: ") +
                                                    e.what());
                        }
                    }();
                    if (ctrl) {
                        ctrl->on_complete(sched_class,
                                          std::chrono::steady_clock::now() - exec_start);
                    }
                    if (out.ok()) {
                        owned->respond(std::move(out.value()));
                    } else {
                        owned->respond_error(out.status());
                    }
                },
                stack_size, sched_class);
        },
        // Lookup, admission and a ULT spawn never block: dispatch on the
        // delivering thread instead of hopping through the progress thread.
        rpc::HandlerKind::kDispatcher);
}

void Engine::define_with_context(std::string_view name, rpc::ProviderId provider_id,
                                 RawHandler handler, std::shared_ptr<abt::Pool> pool) {
    // String compatibility shim over define_chain: flattens the request,
    // adopts the response.
    define_chain(
        name, provider_id,
        [handler = std::move(handler)](const hep::BufferChain&,
                                       rpc::RequestContext& ctx) -> Result<hep::BufferChain> {
            Result<std::string> out = handler(ctx.payload(), ctx);
            if (!out.ok()) return out.status();
            hep::BufferChain resp;
            if (!out.value().empty()) {
                resp.append(hep::Buffer::adopt(std::move(out.value())));
            }
            return resp;
        },
        std::move(pool));
}

void Engine::define_raw(std::string_view name, rpc::ProviderId provider_id,
                        std::function<Result<std::string>(const std::string&)> handler,
                        std::shared_ptr<abt::Pool> pool) {
    define_with_context(
        name, provider_id,
        [handler = std::move(handler)](const std::string& payload, rpc::RequestContext&) {
            return handler(payload);
        },
        std::move(pool));
}

}  // namespace hep::margo
