#include "rpc/endpoint.hpp"

#include "rpc/network.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace hep::rpc {

RpcId rpc_id_of(std::string_view name) noexcept {
    return static_cast<RpcId>(fnv1a64(name) & 0xFFFFFFFFu);
}

namespace {
std::uint64_t handler_key(RpcId rpc, ProviderId provider) noexcept {
    return (static_cast<std::uint64_t>(rpc) << 16) | provider;
}

// Counts one delivery under way, for Endpoint::shutdown() to wait out.
class DeliveryScope {
  public:
    explicit DeliveryScope(std::atomic<std::uint32_t>& count) : count_(count) {
        count_.fetch_add(1);
    }
    ~DeliveryScope() { count_.fetch_sub(1); }
    DeliveryScope(const DeliveryScope&) = delete;
    DeliveryScope& operator=(const DeliveryScope&) = delete;

  private:
    std::atomic<std::uint32_t>& count_;
};
}  // namespace

// ----------------------------------------------------------- RequestContext

void RequestContext::respond(hep::BufferChain payload) {
    assert(!responded_ && "respond() called twice");
    responded_ = true;
    // The handler's frame is about to unwind while the response sits in the
    // target's queue: every segment must own its bytes.
    payload.ensure_owned();
    hep::count_chain_sent(payload.depth());
    Message resp;
    resp.type = MessageType::kResponse;
    resp.seq = msg_.seq;
    resp.origin = endpoint_.address();
    resp.payload = std::move(payload);
    Status st = endpoint_.network().deliver(msg_.origin, std::move(resp));
    if (!st.ok()) {
        HEP_LOG_DEBUG("response to %s undeliverable: %s", msg_.origin.c_str(),
                      st.to_string().c_str());
    }
}

void RequestContext::respond(std::string payload) {
    hep::BufferChain chain;
    if (!payload.empty()) chain.append(hep::Buffer::adopt(std::move(payload)));
    respond(std::move(chain));
}

void RequestContext::respond_error(Status status) {
    assert(!responded_ && "respond() called twice");
    responded_ = true;
    Message resp;
    resp.type = MessageType::kResponse;
    resp.seq = msg_.seq;
    resp.origin = endpoint_.address();
    resp.status = std::move(status);
    (void)endpoint_.network().deliver(msg_.origin, std::move(resp));
}

Status RequestContext::bulk_get(const BulkRef& remote, std::uint64_t remote_offset, void* dst,
                                std::uint64_t len) {
    return endpoint_.bulk_get(remote, remote_offset, dst, len);
}

Status RequestContext::bulk_put(const void* src, const BulkRef& remote,
                                std::uint64_t remote_offset, std::uint64_t len) {
    return endpoint_.bulk_put(src, remote, remote_offset, len);
}

Status RequestContext::bulk_put_chain(const hep::BufferChain& src, const BulkRef& remote,
                                      std::uint64_t remote_offset) {
    return endpoint_.bulk_put_chain(src, remote, remote_offset);
}

// ------------------------------------------------------------------ Endpoint

Endpoint::Endpoint(Fabric& fabric, std::string address)
    : fabric_(fabric), address_(std::move(address)) {
    progress_thread_ = std::thread([this] { progress_loop(); });
}

Endpoint::~Endpoint() { shutdown(); }

void Endpoint::shutdown() {
    bool expected = false;
    if (!shut_down_.compare_exchange_strong(expected, true)) return;
    {
        // Under queue_mutex_, so a request is either queued before the stop
        // (and the progress thread drains it) or refused by enqueue().
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stopped_.store(true);
    }
    queue_cv_.notify_all();
    // A delivery that saw the endpoint running may still be dispatching;
    // none can start now (enqueue() counts itself before it reads stopped_).
    while (deliveries_in_flight_.load() != 0) std::this_thread::yield();
    if (progress_thread_.joinable()) progress_thread_.join();
    fabric_.remove_endpoint(address_);
    // Fail any calls still in flight.
    std::unordered_map<std::uint64_t, PendingCall> pending;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        pending.swap(pending_);
        deadlines_.clear();
    }
    for (auto& [seq, call] : pending) {
        call.fail(Status::Cancelled("endpoint shut down with call in flight"));
    }
}

void Endpoint::register_handler(std::string_view rpc_name, ProviderId provider,
                                Handler handler, HandlerKind kind) {
    auto entry = std::make_shared<const HandlerEntry>(HandlerEntry{std::move(handler), kind});
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers_[handler_key(rpc_id_of(rpc_name), provider)] = std::move(entry);
}

void Endpoint::set_admission(AdmissionHook hook) { admission_ = std::move(hook); }

Endpoint::HandlerPtr Endpoint::find_handler(const Message& msg) {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    auto it = handlers_.find(handler_key(msg.rpc, msg.provider));
    if (it == handlers_.end()) {
        // Wildcard fallback on provider 0.
        it = handlers_.find(handler_key(msg.rpc, 0));
    }
    return it == handlers_.end() ? nullptr : it->second;
}

void Endpoint::enqueue(Message msg) {
    msg.arrival = std::chrono::steady_clock::now();
    // Counted before stopped_ is read: shutdown() sets stopped_ before it
    // waits for the count, so every delivery either sees the stop or is
    // waited for.
    DeliveryScope in_flight(deliveries_in_flight_);

    if (msg.type != MessageType::kRequest) {
        // A response to a stopped endpoint is dropped: shutdown() fails the
        // call with Cancelled.
        if (!stopped_.load()) complete_response(std::move(msg));
        return;
    }
    HandlerPtr handler;
    if (!stopped_.load()) {
        handler = find_handler(msg);
        if (!handler) {
            RequestContext ctx(*this, std::move(msg));
            ctx.respond_error(Status::Unimplemented("no handler for rpc on " + address_));
            return;
        }
        if (handler->kind == HandlerKind::kDispatcher) {
            dispatch_request(std::move(msg), *handler);
            return;
        }
        std::unique_lock<std::mutex> lock(queue_mutex_);
        if (!stopped_.load()) {
            queue_.push_back(Queued{std::move(msg), std::move(handler)});
            lock.unlock();
            queue_cv_.notify_one();
            return;
        }
    }
    RequestContext ctx(*this, std::move(msg));
    ctx.respond_error(Status::Unavailable("endpoint " + address_ + " is shut down"));
}

void Endpoint::progress_loop() {
    while (true) {
        // Deadline expiry rides the progress loop: between messages we sleep
        // only until the nearest armed deadline (Mercury's trigger/timeout).
        const auto wake_at = expire_deadlines();
        Queued item;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            // Single (non-predicated) wait: any wake — message, shutdown,
            // spurious, or an earlier deadline armed (deadline_dirty_) —
            // loops back through expire_deadlines() so the sleep re-arms.
            if (queue_.empty() && !stopped_.load() && !deadline_dirty_) {
                if (wake_at == std::chrono::steady_clock::time_point::max()) {
                    queue_cv_.wait(lock);
                } else {
                    queue_cv_.wait_until(lock, wake_at);
                }
            }
            deadline_dirty_ = false;
            if (queue_.empty()) {
                if (stopped_.load()) return;
                continue;
            }
            item = std::move(queue_.front());
            queue_.pop_front();
        }
        dispatch_request(std::move(item.msg), *item.handler);
    }
}

void Endpoint::dispatch_request(Message msg, const HandlerEntry& handler) {
    // Admission gate: runs after handler lookup (an unknown rpc is not an
    // admission decision) and before any handler resources are committed.
    if (admission_) {
        Status verdict = admission_(msg);
        if (!verdict.ok()) {
            RequestContext ctx(*this, std::move(msg));
            ctx.respond_error(std::move(verdict));
            return;
        }
    }
    RequestContext ctx(*this, std::move(msg));
    try {
        handler.fn(ctx);
    } catch (const std::exception& e) {
        HEP_LOG_ERROR("handler threw on %s: %s", address_.c_str(), e.what());
    }
}

bool Endpoint::take_pending(std::uint64_t seq, PendingCall& out) {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) return false;
    out = std::move(it->second);
    pending_.erase(it);
    if (out.deadline != std::chrono::steady_clock::time_point::max()) {
        deadlines_.erase({out.deadline, seq});
    }
    return true;
}

void Endpoint::complete_response(Message msg) {
    PendingCall call;
    if (!take_pending(msg.seq, call)) return;  // late/duplicate/expired response
    if (!msg.status.ok()) {
        call.fail(std::move(msg.status));
    } else {
        call.eventual->set(std::move(msg.payload));
    }
}

std::chrono::steady_clock::time_point Endpoint::expire_deadlines() {
    const auto now = std::chrono::steady_clock::now();
    std::vector<PendingCall> expired;
    std::chrono::steady_clock::time_point wake_at;
    {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
            auto it = pending_.find(deadlines_.begin()->second);
            deadlines_.erase(deadlines_.begin());
            expired.push_back(std::move(it->second));
            pending_.erase(it);
        }
        if (!deadlines_.empty()) {
            progress_wake_at_ = deadlines_.begin()->first;
        } else if (progress_wake_at_ <= now) {
            progress_wake_at_ = std::chrono::steady_clock::time_point::max();
        }
        // else: every armed call completed early. Keep sleeping toward the
        // old target: one spurious wake then is cheaper than being woken by
        // the next call that arms a deadline.
        wake_at = progress_wake_at_;
    }
    for (auto& call : expired) {
        const std::string describe = call.describe;
        call.fail(Status::DeadlineExceeded(describe + " exceeded its deadline"));
    }
    return wake_at;
}

std::uint64_t Endpoint::send_request(const std::string& to, std::string_view rpc_name,
                                     ProviderId provider, hep::BufferChain payload,
                                     std::chrono::milliseconds deadline, const qos::QosTag& tag,
                                     PendingCall call) {
    if (deadline.count() == 0) deadline = default_deadline();
    // The caller may return (deadline expiry, shutdown) while the request
    // still sits in the target's queue: the payload must own its bytes.
    payload.ensure_owned();
    hep::count_chain_sent(payload.depth());
    Message req;
    req.type = MessageType::kRequest;
    req.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    req.rpc = rpc_id_of(rpc_name);
    req.provider = provider;
    req.origin = address_;
    req.payload = std::move(payload);
    // QoS stamp: explicit tag wins, else the endpoint-wide default. The
    // armed deadline doubles as the propagated budget, so the server can see
    // how much time the caller is still willing to wait.
    if (tag.set() || !tag.tenant.empty()) {
        req.qos_tenant = tag.tenant;
        req.qos_class = tag.cls;
    } else {
        qos::QosTag def = default_qos();
        req.qos_tenant = std::move(def.tenant);
        req.qos_class = def.cls;
    }
    if (deadline.count() > 0) {
        req.qos_budget_ms = static_cast<std::uint32_t>(std::min<std::int64_t>(
            deadline.count(), std::numeric_limits<std::uint32_t>::max()));
    }
    const std::uint64_t seq = req.seq;
    bool wake_progress = false;
    {
        std::unique_lock<std::mutex> lock(pending_mutex_);
        // shutdown() sets stopped_ before it takes pending_ under this lock,
        // so a call is either taken and cancelled there or refused here.
        if (stopped_.load()) {
            lock.unlock();
            call.fail(Status::Cancelled("endpoint " + address_ + " is shut down"));
            return seq;
        }
        if (deadline.count() > 0) {
            call.deadline = std::chrono::steady_clock::now() + deadline;
            call.describe = "rpc '" + std::string(rpc_name) + "' to " + to;
            deadlines_.emplace(call.deadline, seq);
            if (call.deadline < progress_wake_at_) {
                progress_wake_at_ = call.deadline;
                wake_progress = true;
            }
        }
        pending_.emplace(seq, std::move(call));
    }
    if (wake_progress) {
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            deadline_dirty_ = true;
        }
        queue_cv_.notify_one();
    }
    Status st = fabric_.deliver(to, std::move(req));
    if (!st.ok()) {
        PendingCall failed;
        if (take_pending(seq, failed)) failed.fail(std::move(st));
    }
    return seq;
}

std::shared_ptr<abt::Eventual<Result<hep::BufferChain>>> Endpoint::call_async_chain(
    const std::string& to, std::string_view rpc_name, ProviderId provider,
    hep::BufferChain payload, std::chrono::milliseconds deadline, const qos::QosTag& tag) {
    auto ev = std::make_shared<abt::Eventual<Result<hep::BufferChain>>>();
    PendingCall call;
    call.eventual = ev;
    send_request(to, rpc_name, provider, std::move(payload), deadline, tag, std::move(call));
    return ev;
}

Result<hep::BufferChain> Endpoint::call_chain(const std::string& to, std::string_view rpc_name,
                                              ProviderId provider, hep::BufferChain payload,
                                              std::chrono::milliseconds deadline,
                                              const qos::QosTag& tag) {
    auto ev = call_async_chain(to, rpc_name, provider, std::move(payload), deadline, tag);
    return ev->wait();
}

Result<std::string> Endpoint::call(const std::string& to, std::string_view rpc_name,
                                   ProviderId provider, std::string payload,
                                   std::chrono::milliseconds deadline, const qos::QosTag& tag) {
    hep::BufferChain chain;
    if (!payload.empty()) chain.append(hep::Buffer::adopt(std::move(payload)));
    auto out = call_chain(to, rpc_name, provider, std::move(chain), deadline, tag);
    if (!out.ok()) return out.status();
    // Contiguity is bought back here, once (zero-copy when the payload is a
    // single whole-buffer segment).
    return std::move(out.value()).into_string();
}

BulkRef Endpoint::expose(void* data, std::uint64_t size) {
    const std::uint64_t id = next_bulk_id_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(bulk_mutex_);
        Region region;
        region.data = data;
        region.size = size;
        regions_[id] = std::move(region);
    }
    return BulkRef{address_, id, size};
}

BulkRef Endpoint::expose(hep::BufferChain chain) {
    chain.ensure_owned();  // the region pins the bytes until unexpose()
    const std::uint64_t size = chain.size();
    const std::uint64_t id = next_bulk_id_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(bulk_mutex_);
        Region region;
        region.size = size;
        region.chain = std::move(chain);
        regions_[id] = std::move(region);
    }
    return BulkRef{address_, id, size};
}

void Endpoint::unexpose(const BulkRef& ref) {
    std::lock_guard<std::mutex> lock(bulk_mutex_);
    regions_.erase(ref.id);
}

Status Endpoint::access_region(std::uint64_t region_id, std::uint64_t offset,
                               std::uint64_t len, bool write, void* local_dst,
                               const void* local_src) {
    std::lock_guard<std::mutex> lock(bulk_mutex_);
    auto it = regions_.find(region_id);
    if (it == regions_.end()) {
        return Status::NotFound("bulk region " + std::to_string(region_id) + " not exposed");
    }
    const Region& region = it->second;
    if (offset + len > region.size) {
        return Status::OutOfRange("bulk access beyond exposed region");
    }
    if (region.data == nullptr) {
        // Chain-backed region: read-only, gathered from the segments.
        if (write) {
            return Status::InvalidArgument("bulk write into a read-only chain region");
        }
        auto* dst = static_cast<char*>(local_dst);
        for (const auto& seg : region.chain.segments()) {
            if (len == 0) break;
            if (offset >= seg.size()) {
                offset -= seg.size();
                continue;
            }
            const std::uint64_t take = std::min<std::uint64_t>(len, seg.size() - offset);
            std::memcpy(dst, seg.data() + offset, take);
            dst += take;
            offset = 0;
            len -= take;
        }
        return Status::OK();
    }
    if (write) {
        std::memcpy(static_cast<char*>(region.data) + offset, local_src, len);
    } else {
        std::memcpy(local_dst, static_cast<const char*>(region.data) + offset, len);
    }
    return Status::OK();
}

Status Endpoint::bulk_get(const BulkRef& remote, std::uint64_t remote_offset, void* dst,
                          std::uint64_t len) {
    return fabric_.bulk_access(remote, remote_offset, len, /*write=*/false, dst, nullptr);
}

Status Endpoint::bulk_put(const void* src, const BulkRef& remote, std::uint64_t remote_offset,
                          std::uint64_t len) {
    return fabric_.bulk_access(remote, remote_offset, len, /*write=*/true, nullptr, src);
}

Status Endpoint::bulk_put_chain(const hep::BufferChain& src, const BulkRef& remote,
                                std::uint64_t remote_offset) {
    return fabric_.bulk_access_chain(remote, remote_offset, src);
}

}  // namespace hep::rpc
