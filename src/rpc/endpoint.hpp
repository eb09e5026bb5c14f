// Endpoint: one communication party (a simulated "process") on the fabric.
//
// Provides the Mercury surface HEPnOS needs:
//  - register RPC handlers keyed by (rpc id, provider id)   [HG_Register]
//  - synchronous call() that blocks the calling ULT/thread  [margo_forward]
//  - expose()/bulk_get()/bulk_put() one-sided transfers      [HG_Bulk_*]
//
// Incoming messages are handled on the thread that delivers them: the
// sender's thread for the loopback fabric and TcpFabric's local shortcut, a
// connection's reader thread for remote TcpFabric traffic. A response completes its
// pending call right there. A request whose handler was registered as a
// dispatcher (margo's define_chain: handler lookup, QoS admission, then a
// ULT spawned into the provider's pool; it never blocks) is dispatched
// right there too, so each sender's requests reach the pool in send order.
// Each endpoint also runs a progress thread (like Mercury's progress loop)
// with two jobs: it runs plain handlers, which may block (a TCP handler that
// does a bulk pull needs the reader thread to stay free), and it fails calls
// whose deadline has passed.
//
// Payloads are hep::BufferChain scatter-gather lists end to end. The
// std::string call()/respond() overloads are compatibility shims that adopt
// (never copy) the string into a single-segment chain; new code should build
// chains so product bytes travel by reference. Chains handed to call_*() or
// respond() are promoted to owned segments before they cross the scheduling
// boundary (the sender may unwind while the message sits in a queue).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "abt/sync.hpp"
#include "common/buffer.hpp"
#include "common/status.hpp"
#include "rpc/fabric.hpp"
#include "rpc/message.hpp"

namespace hep::rpc {

class Endpoint;

/// Handler-side view of one incoming request.
class RequestContext {
  public:
    RequestContext(Endpoint& ep, Message msg) : endpoint_(ep), msg_(std::move(msg)) {}

    /// The request body as a scatter-gather chain (zero-copy: segments are
    /// views into the receive buffer / the caller's product bytes).
    [[nodiscard]] const hep::BufferChain& payload_chain() const noexcept {
        return msg_.payload;
    }
    /// Contiguous request body. Compatibility shim: flattens the chain into a
    /// cached string on first use (a counted copy) — prefer payload_chain().
    [[nodiscard]] const std::string& payload() const {
        if (!flat_valid_) {
            flat_payload_ = msg_.payload.flatten();
            flat_valid_ = true;
        }
        return flat_payload_;
    }
    [[nodiscard]] const std::string& origin() const noexcept { return msg_.origin; }
    [[nodiscard]] ProviderId provider() const noexcept { return msg_.provider; }

    // QoS stamp the client attached (see qos/context.hpp) plus the local
    // arrival time; margo's dispatch wrapper feeds these to the admission
    // controller's ULT-side accounting.
    [[nodiscard]] const std::string& qos_tenant() const noexcept { return msg_.qos_tenant; }
    [[nodiscard]] std::uint8_t qos_class() const noexcept { return msg_.qos_class; }
    [[nodiscard]] std::uint32_t qos_budget_ms() const noexcept { return msg_.qos_budget_ms; }
    [[nodiscard]] std::chrono::steady_clock::time_point arrival() const noexcept {
        return msg_.arrival;
    }

    /// Send the response. Must be called exactly once per request.
    void respond(hep::BufferChain payload);
    /// Compatibility shim: adopts the string (no copy) into a chain.
    void respond(std::string payload);
    void respond_error(Status status);

    /// One-sided transfers against a client-exposed region (RDMA semantics).
    Status bulk_get(const BulkRef& remote, std::uint64_t remote_offset, void* dst,
                    std::uint64_t len);
    Status bulk_put(const void* src, const BulkRef& remote, std::uint64_t remote_offset,
                    std::uint64_t len);
    /// Gathered write of a chain into the remote region (no local flatten).
    Status bulk_put_chain(const hep::BufferChain& src, const BulkRef& remote,
                          std::uint64_t remote_offset);

  private:
    Endpoint& endpoint_;
    Message msg_;
    mutable std::string flat_payload_;  // lazy flatten cache for payload()
    mutable bool flat_valid_ = false;
    bool responded_ = false;
};

using Handler = std::function<void(RequestContext&)>;

/// Where a request's handler runs. kBlocking handlers run on the endpoint's
/// progress thread and may block. kDispatcher handlers run on the delivering
/// thread and must never block: they hand the request on (margo spawns a ULT)
/// and return.
enum class HandlerKind : std::uint8_t { kBlocking, kDispatcher };

/// Admission gate run at dispatch, after handler lookup and before any
/// handler work: a non-OK status becomes the error response and the handler
/// never runs (src/qos wires this up). Runs on the thread that runs the
/// handler, so it must never block.
using AdmissionHook = std::function<Status(const Message&)>;

class Endpoint {
  public:
    ~Endpoint();
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;

    [[nodiscard]] const std::string& address() const noexcept { return address_; }
    [[nodiscard]] Fabric& network() noexcept { return fabric_; }

    /// Register a handler for (rpc name, provider id). Handlers for provider
    /// id 0 act as wildcard fallbacks for that rpc name.
    void register_handler(std::string_view rpc_name, ProviderId provider, Handler handler,
                          HandlerKind kind = HandlerKind::kBlocking);

    /// Install the admission gate (default: admit everything).
    void set_admission(AdmissionHook hook);

    /// Synchronous RPC: send and block until the response arrives. Blocks a
    /// ULT cooperatively or an OS thread natively. `deadline` caps how long
    /// the caller waits for the response: on expiry the call completes with
    /// Status::DeadlineExceeded (a late response is dropped as a duplicate).
    /// A zero deadline falls back to the endpoint default; a zero default
    /// means "wait forever" (the seed behavior).
    /// Compatibility shim over call_chain(): adopts the payload, flattens the
    /// response. `tag` is the QoS stamp for the wire header; an unset tag
    /// falls back to the endpoint default (set_default_qos).
    Result<std::string> call(const std::string& to, std::string_view rpc_name,
                             ProviderId provider, std::string payload,
                             std::chrono::milliseconds deadline = std::chrono::milliseconds{0},
                             const qos::QosTag& tag = {});

    /// Synchronous RPC carrying scatter-gather payloads both ways (zero-copy
    /// fast path).
    Result<hep::BufferChain> call_chain(
        const std::string& to, std::string_view rpc_name, ProviderId provider,
        hep::BufferChain payload,
        std::chrono::milliseconds deadline = std::chrono::milliseconds{0},
        const qos::QosTag& tag = {});

    /// Asynchronous RPC: returns an eventual delivering payload-or-status.
    /// Compatibility shim: the response chain is flattened into a string.
    std::shared_ptr<abt::Eventual<Result<std::string>>> call_async(
        const std::string& to, std::string_view rpc_name, ProviderId provider,
        std::string payload, std::chrono::milliseconds deadline = std::chrono::milliseconds{0},
        const qos::QosTag& tag = {});

    /// Asynchronous chain-payload RPC (zero-copy fast path).
    std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>> call_async_chain(
        const std::string& to, std::string_view rpc_name, ProviderId provider,
        hep::BufferChain payload,
        std::chrono::milliseconds deadline = std::chrono::milliseconds{0},
        const qos::QosTag& tag = {});

    /// Default per-RPC deadline applied when call()/call_async() is given a
    /// zero deadline. Zero (the default) disables deadline tracking.
    void set_default_deadline(std::chrono::milliseconds deadline) noexcept {
        default_deadline_ms_.store(deadline.count(), std::memory_order_relaxed);
    }
    [[nodiscard]] std::chrono::milliseconds default_deadline() const noexcept {
        return std::chrono::milliseconds{default_deadline_ms_.load(std::memory_order_relaxed)};
    }

    /// Connection-wide QoS stamp applied to calls issued with an unset tag
    /// (hepnos::DataStore sets this from its client policy).
    void set_default_qos(qos::QosTag tag) {
        std::lock_guard<std::mutex> lock(default_qos_mutex_);
        default_qos_ = std::move(tag);
    }
    [[nodiscard]] qos::QosTag default_qos() const {
        std::lock_guard<std::mutex> lock(default_qos_mutex_);
        return default_qos_;
    }

    // ---- bulk (one-sided) --------------------------------------------------
    /// Expose a local memory region; the returned ref can be shipped inside
    /// an RPC payload so the peer can bulk_get/bulk_put against it.
    BulkRef expose(void* data, std::uint64_t size);
    /// Expose a scatter-gather chain as one logical read-only region (peers
    /// bulk_get linear offsets; the segments are never flattened locally).
    /// The region keeps the chain's storage alive until unexpose().
    BulkRef expose(hep::BufferChain chain);
    /// Withdraw a region (refs become invalid).
    void unexpose(const BulkRef& ref);

    /// Local side of one-sided ops (also usable from client code).
    Status bulk_get(const BulkRef& remote, std::uint64_t remote_offset, void* dst,
                    std::uint64_t len);
    Status bulk_put(const void* src, const BulkRef& remote, std::uint64_t remote_offset,
                    std::uint64_t len);
    Status bulk_put_chain(const hep::BufferChain& src, const BulkRef& remote,
                          std::uint64_t remote_offset);

    /// Stop accepting deliveries (requests are answered Unavailable), wait for
    /// deliveries already under way, stop the progress loop, deregister from
    /// the fabric and fail every call still in flight with Cancelled.
    /// Idempotent; also called by the destructor.
    void shutdown();

    [[nodiscard]] bool stopped() const noexcept { return stopped_.load(); }

    // ---- fabric-facing internals (fabrics live in other TUs) ---------------
    /// Construct an endpoint bound to `fabric`; fabrics call this from their
    /// create_endpoint() and register the result.
    static std::shared_ptr<Endpoint> make(Fabric& fabric, std::string address) {
        return std::shared_ptr<Endpoint>(new Endpoint(fabric, std::move(address)));
    }

    /// The owning fabric delivers incoming messages here (thread-safe). Runs
    /// responses and dispatcher requests on the calling thread; queues
    /// requests for blocking handlers to the progress thread.
    void enqueue(Message msg);

    /// Serve a one-sided access against a LOCALLY exposed region (fabrics
    /// call this on the owner side of a bulk transfer).
    Status access_region(std::uint64_t region_id, std::uint64_t offset, std::uint64_t len,
                         bool write, void* local_dst, const void* local_src);

  private:
    friend class RequestContext;

    Endpoint(Fabric& fabric, std::string address);

    struct HandlerEntry {
        Handler fn;
        HandlerKind kind;
    };
    using HandlerPtr = std::shared_ptr<const HandlerEntry>;

    void progress_loop();
    /// The handler for (msg.rpc, msg.provider), else the provider-0 wildcard.
    HandlerPtr find_handler(const Message& msg);
    /// Admission, then the handler, on the calling thread.
    void dispatch_request(Message msg, const HandlerEntry& handler);
    void complete_response(Message msg);

    /// Fail every pending call whose deadline has passed; returns the time
    /// the progress thread must wake by (time_point::max() = no deadline).
    std::chrono::steady_clock::time_point expire_deadlines();

    Fabric& fabric_;
    std::string address_;

    std::mutex handlers_mutex_;
    std::unordered_map<std::uint64_t, HandlerPtr> handlers_;  // key: rpc<<16|provider

    AdmissionHook admission_;

    mutable std::mutex default_qos_mutex_;
    qos::QosTag default_qos_;

    // Requests for blocking handlers + the progress thread.
    struct Queued {
        Message msg;
        HandlerPtr handler;
    };
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Queued> queue_;
    bool deadline_dirty_ = false;  // guarded by queue_mutex_: re-arm the sleep
    std::thread progress_thread_;
    std::atomic<bool> stopped_{false};
    std::atomic<bool> shut_down_{false};
    // enqueue() calls under way; shutdown() waits for them to drain, so no
    // dispatch starts after it returns.
    std::atomic<std::uint32_t> deliveries_in_flight_{0};

    // Outstanding calls. Exactly one of the two eventuals is armed per call:
    // the chain one for call_*_chain() callers, the string one for the
    // compatibility shims (the response is flattened at completion).
    struct PendingCall {
        std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>> chain_eventual;
        std::shared_ptr<abt::Eventual<Result<std::string>>> string_eventual;
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();  // max() = none
        std::string describe;  // "rpc 'x' to addr" for errors

        void fail(Status st) {
            if (chain_eventual) chain_eventual->set(std::move(st));
            else string_eventual->set(std::move(st));
        }
    };
    std::mutex pending_mutex_;
    std::unordered_map<std::uint64_t, PendingCall> pending_;
    // Armed deadlines in expiry order, (deadline, seq); an entry leaves when
    // its call completes. Guarded by pending_mutex_, like progress_wake_at_:
    // the time the progress thread sleeps toward. A new deadline wakes the
    // progress thread only when it is earlier than that.
    std::set<std::pair<std::chrono::steady_clock::time_point, std::uint64_t>> deadlines_;
    std::chrono::steady_clock::time_point progress_wake_at_ =
        std::chrono::steady_clock::time_point::max();
    std::atomic<std::uint64_t> next_seq_{1};
    std::atomic<std::int64_t> default_deadline_ms_{0};

    std::uint64_t send_request(const std::string& to, std::string_view rpc_name,
                               ProviderId provider, hep::BufferChain payload,
                               std::chrono::milliseconds deadline, const qos::QosTag& tag,
                               PendingCall call);
    /// Remove `seq` from the pending map (and its deadline); false if gone.
    bool take_pending(std::uint64_t seq, PendingCall& out);

    // Exposed bulk regions: either a contiguous caller-owned range (data) or
    // a read-only scatter-gather chain whose storage the region pins.
    std::mutex bulk_mutex_;
    struct Region {
        void* data = nullptr;
        std::uint64_t size = 0;
        hep::BufferChain chain;  // used when data == nullptr
    };
    std::unordered_map<std::uint64_t, Region> regions_;
    std::atomic<std::uint64_t> next_bulk_id_{1};
};

}  // namespace hep::rpc
