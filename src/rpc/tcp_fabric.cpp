#include "rpc/tcp_fabric.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.hpp"
#include "rpc/endpoint.hpp"
#include "serial/archive.hpp"

namespace hep::rpc {

using wire::kFrameBulkReq;
using wire::kFrameBulkResp;
using wire::kFrameMessage;

namespace {

bool read_exact(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
        const ssize_t got = ::recv(fd, p, n, 0);
        if (got <= 0) return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/// Gathered write of every iovec in [iov, iov+count). Mutates the iovecs to
/// track partial sends; batches by IOV_MAX for large chains.
bool writev_exact(int fd, struct iovec* iov, std::size_t count) {
#ifdef IOV_MAX
    constexpr std::size_t kIovBatch = IOV_MAX < 1024 ? IOV_MAX : 1024;
#else
    constexpr std::size_t kIovBatch = 1024;
#endif
    while (count > 0) {
        // Skip fully-sent entries.
        if (iov->iov_len == 0) {
            ++iov;
            --count;
            continue;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = count < kIovBatch ? count : kIovBatch;
        ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (sent <= 0) return false;
        while (sent > 0 && count > 0) {
            const std::size_t take =
                static_cast<std::size_t>(sent) < iov->iov_len
                    ? static_cast<std::size_t>(sent)
                    : iov->iov_len;
            iov->iov_base = static_cast<char*>(iov->iov_base) + take;
            iov->iov_len -= take;
            sent -= static_cast<ssize_t>(take);
            if (iov->iov_len == 0) {
                ++iov;
                --count;
            }
        }
    }
    return true;
}

}  // namespace

TcpFabric::TcpFabric(const std::string& host, std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("TcpFabric: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw std::runtime_error("TcpFabric: bad host " + host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("TcpFabric: cannot bind/listen on " + host + ":" +
                                 std::to_string(port));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    hostport_ = host + ":" + std::to_string(ntohs(addr.sin_port));
    base_address_ = "tcp://" + hostport_;
    accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpFabric::~TcpFabric() {
    stopping_.store(true);
    // Shut the local endpoints down first so their progress threads stop.
    std::map<std::string, std::shared_ptr<Endpoint>> locals;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        locals = locals_;
    }
    for (auto& [name, ep] : locals) ep->shutdown();

    if (listen_fd_ >= 0) {
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
    }
    if (accept_thread_.joinable()) accept_thread_.join();

    std::vector<Connection*> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [hp, c] : outbound_) conns.push_back(c.get());
        for (auto& c : inbound_) conns.push_back(c.get());
        for (auto& c : dead_) conns.push_back(c.get());
    }
    for (auto* c : conns) {
        std::lock_guard<std::mutex> lock(c->write_mutex);
        if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
    // Join readers outside the locks; reader_loop never takes mutex_ while
    // blocked in recv.
    for (auto* c : conns) {
        if (c->reader.joinable()) c->reader.join();
        std::lock_guard<std::mutex> lock(c->write_mutex);
        if (c->fd >= 0) ::close(c->fd);
        c->fd = -1;
    }
}

bool TcpFabric::parse_address(const std::string& address, std::string& hostport,
                              std::string& name) {
    constexpr std::string_view kScheme = "tcp://";
    if (address.compare(0, kScheme.size(), kScheme) != 0) return false;
    const auto slash = address.find('/', kScheme.size());
    if (slash == std::string::npos || slash + 1 >= address.size()) return false;
    hostport = address.substr(kScheme.size(), slash - kScheme.size());
    name = address.substr(slash + 1);
    return !hostport.empty();
}

std::shared_ptr<Endpoint> TcpFabric::create_endpoint(const std::string& name) {
    // Accept either a bare name or a full URL naming THIS fabric.
    std::string bare = name;
    std::string hostport, parsed_name;
    if (parse_address(name, hostport, parsed_name)) {
        if (hostport != hostport_) {
            HEP_LOG_ERROR("create_endpoint: %s is not on this fabric (%s)", name.c_str(),
                          hostport_.c_str());
            return nullptr;
        }
        bare = parsed_name;
    }
    auto ep = Endpoint::make(*this, base_address_ + "/" + bare);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = locals_.emplace(bare, ep);
    if (!inserted) {
        HEP_LOG_ERROR("duplicate endpoint name %s", bare.c_str());
        return nullptr;
    }
    return ep;
}

void TcpFabric::remove_endpoint(const std::string& address) {
    std::string hostport, name;
    if (!parse_address(address, hostport, name)) name = address;
    std::lock_guard<std::mutex> lock(mutex_);
    locals_.erase(name);
}

NetworkStats TcpFabric::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

Status TcpFabric::send_frame(Connection* conn, std::uint8_t kind, const std::string& header,
                             const hep::BufferChain& tail) {
    const auto len = static_cast<std::uint32_t>(header.size() + tail.size());
    // One gathered write: preamble + header + the chain's segments, straight
    // from wherever they live (no contiguous frame is ever assembled).
    std::vector<struct iovec> iov;
    iov.reserve(2 + 1 + tail.depth());
    iov.push_back({const_cast<std::uint32_t*>(&len), 4});
    iov.push_back({const_cast<std::uint8_t*>(&kind), 1});
    if (!header.empty()) {
        iov.push_back({const_cast<char*>(header.data()), header.size()});
    }
    for (const auto& seg : tail.segments()) {
        iov.push_back({const_cast<char*>(seg.data()), seg.size()});
    }
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd < 0) return Status::Unavailable("connection closed");
    if (!writev_exact(conn->fd, iov.data(), iov.size())) {
        return Status::Unavailable("tcp send failed");
    }
    return Status::OK();
}

Result<TcpFabric::Connection*> TcpFabric::connection_to(const std::string& hostport) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = outbound_.find(hostport);
        if (it != outbound_.end()) return it->second.get();
    }
    const auto colon = hostport.rfind(':');
    if (colon == std::string::npos) return Status::InvalidArgument("bad host:port " + hostport);
    const std::string host = hostport.substr(0, colon);
    const int port = std::atoi(hostport.c_str() + colon + 1);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return Status::Unavailable("cannot connect to " + hostport);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = outbound_.emplace(hostport, std::move(conn));
        if (!inserted) {
            // Lost a race; use the winner and drop ours.
            ::close(fd);
            return it->second.get();
        }
    }
    raw->reader = std::thread([this, raw] { reader_loop(raw); });
    return raw;
}

Status TcpFabric::deliver(const std::string& to, Message msg) {
    std::string hostport, name;
    if (!parse_address(to, hostport, name)) {
        return Status::InvalidArgument("not a tcp:// address: " + to);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.messages;
        // Count the real framed size (header with to_name + payload tail);
        // the local shortcut charges the same so ratios stay comparable.
        stats_.message_bytes += msg.wire_size(name.size());
    }

    if (hostport == hostport_) {
        // Local shortcut: the payload chain is handed over as-is — the
        // receiver's views share the sender's buffers (shared memory).
        std::shared_ptr<Endpoint> target;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = locals_.find(name);
            if (it != locals_.end()) target = it->second;
        }
        if (!target || target->stopped()) {
            return Status::Unavailable("no endpoint " + name + " on " + hostport_);
        }
        target->enqueue(std::move(msg));
        return Status::OK();
    }

    const std::string header = serial::to_string(wire::make_header(msg, name));
    auto conn = connection_to(hostport);
    if (!conn.ok()) return conn.status();
    Status st = send_frame(*conn, kFrameMessage, header, msg.payload);
    if (st.ok()) return st;
    // The cached connection is dead (its peer went away). Evict it and retry
    // once on a fresh dial — the peer may have restarted on the same port.
    abandon(hostport, *conn);
    auto fresh = connection_to(hostport);
    if (!fresh.ok()) return fresh.status();
    return send_frame(*fresh, kFrameMessage, header, msg.payload);
}

Status TcpFabric::bulk_roundtrip(const std::string& hostport, wire::BulkReqHeader req,
                                 const hep::BufferChain& tail, void* local_dst) {
    auto slot = std::make_shared<BulkSlot>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bulk_pending_[req.bulk_seq] = slot;
    }
    auto conn = connection_to(hostport);
    if (!conn.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        bulk_pending_.erase(req.bulk_seq);
        return conn.status();
    }
    const std::string header = serial::to_string(req);
    Status st = send_frame(*conn, kFrameBulkReq, header, tail);
    if (!st.ok()) {
        // Same dead-connection recovery as deliver(): redial once.
        abandon(hostport, *conn);
        auto fresh = connection_to(hostport);
        if (fresh.ok()) st = send_frame(*fresh, kFrameBulkReq, header, tail);
        if (!st.ok()) {
            std::lock_guard<std::mutex> lock(mutex_);
            bulk_pending_.erase(req.bulk_seq);
            return st;
        }
    }

    std::unique_lock<std::mutex> lock(slot->m);
    if (!slot->cv.wait_for(lock, std::chrono::duration<double>(bulk_timeout_s_),
                           [&] { return slot->done; })) {
        std::lock_guard<std::mutex> plock(mutex_);
        bulk_pending_.erase(req.bulk_seq);
        return Status::Timeout("bulk transfer to " + hostport + " timed out");
    }
    if (!slot->status.ok()) return slot->status;
    if (!req.write) {
        if (slot->data.size() != req.len) return Status::Corruption("bulk read size mismatch");
        std::memcpy(local_dst, slot->data.data(), req.len);
        hep::count_buffer_copy(req.len);
    }
    {
        std::lock_guard<std::mutex> plock(mutex_);
        ++stats_.bulk_transfers;
        stats_.bulk_bytes += req.len;
    }
    return Status::OK();
}

Status TcpFabric::bulk_access(const BulkRef& ref, std::uint64_t offset, std::uint64_t len,
                              bool write, void* local_dst, const void* local_src) {
    std::string hostport, name;
    if (!parse_address(ref.endpoint, hostport, name)) {
        return Status::InvalidArgument("bulk ref has a non-tcp address: " + ref.endpoint);
    }

    // Local shortcut: direct memory access, like the loopback fabric.
    if (hostport == hostport_) {
        std::shared_ptr<Endpoint> owner;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = locals_.find(name);
            if (it != locals_.end()) owner = it->second;
        }
        if (!owner) return Status::Unavailable("bulk owner " + name + " gone");
        Status st = owner->access_region(ref.id, offset, len, write, local_dst, local_src);
        if (st.ok()) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.bulk_transfers;
            stats_.bulk_bytes += len;
        }
        return st;
    }

    wire::BulkReqHeader req;
    req.bulk_seq = next_bulk_seq_.fetch_add(1);
    req.endpoint_name = name;
    req.region_id = ref.id;
    req.offset = offset;
    req.len = len;
    req.write = write ? 1 : 0;
    hep::BufferChain tail;
    if (write) {
        // Borrowed view is safe: the send happens synchronously below and
        // the redial path reuses the same still-live caller bytes.
        tail.append(hep::BufferView(
            std::string_view(static_cast<const char*>(local_src), len)));
    }
    return bulk_roundtrip(hostport, std::move(req), tail, local_dst);
}

Status TcpFabric::bulk_access_chain(const BulkRef& ref, std::uint64_t offset,
                                    const hep::BufferChain& src) {
    std::string hostport, name;
    if (!parse_address(ref.endpoint, hostport, name)) {
        return Status::InvalidArgument("bulk ref has a non-tcp address: " + ref.endpoint);
    }

    if (hostport == hostport_) {
        std::shared_ptr<Endpoint> owner;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = locals_.find(name);
            if (it != locals_.end()) owner = it->second;
        }
        if (!owner) return Status::Unavailable("bulk owner " + name + " gone");
        std::uint64_t at = offset;
        for (const auto& seg : src.segments()) {
            Status st = owner->access_region(ref.id, at, seg.size(), /*write=*/true, nullptr,
                                             seg.data());
            if (!st.ok()) return st;
            at += seg.size();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.bulk_transfers;
            stats_.bulk_bytes += src.size();
        }
        return Status::OK();
    }

    wire::BulkReqHeader req;
    req.bulk_seq = next_bulk_seq_.fetch_add(1);
    req.endpoint_name = name;
    req.region_id = ref.id;
    req.offset = offset;
    req.len = src.size();
    req.write = 1;
    return bulk_roundtrip(hostport, std::move(req), src, nullptr);
}

void TcpFabric::accept_loop() {
    while (!stopping_.load()) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load()) return;
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        Connection* raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inbound_.push_back(std::move(conn));
        }
        raw->reader = std::thread([this, raw] { reader_loop(raw); });
    }
}

void TcpFabric::reader_loop(Connection* conn) {
    while (true) {
        std::uint32_t len = 0;
        std::uint8_t kind = 0;
        if (!read_exact(conn->fd, &len, 4) || !read_exact(conn->fd, &kind, 1)) break;
        if (len > (256u << 20)) break;  // refuse absurd frames
        // One receive buffer per frame; everything downstream (payload chain,
        // bulk data) is a refcounted view into it — no further copies.
        hep::Buffer frame = hep::Buffer::allocate(len);
        if (!read_exact(conn->fd, frame.mutable_data(), len)) break;
        try {
            handle_frame(conn, kind, std::move(frame));
        } catch (const serial::SerializationError& e) {
            HEP_LOG_ERROR("tcp frame decode failed: %s", e.what());
            break;
        }
    }
    retire(conn);
}

void TcpFabric::retire(Connection* conn) {
    {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load()) return;  // the destructor owns cleanup from here
    for (auto it = outbound_.begin(); it != outbound_.end(); ++it) {
        if (it->second.get() == conn) {
            dead_.push_back(std::move(it->second));
            outbound_.erase(it);
            return;
        }
    }
    for (auto it = inbound_.begin(); it != inbound_.end(); ++it) {
        if (it->get() == conn) {
            dead_.push_back(std::move(*it));
            inbound_.erase(it);
            return;
        }
    }
}

void TcpFabric::abandon(const std::string& hostport, Connection* conn) {
    {
        // shutdown (not close) so the blocked reader wakes and retires the
        // socket itself; closing here could invalidate the fd under recv.
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = outbound_.find(hostport);
    if (it != outbound_.end() && it->second.get() == conn) {
        dead_.push_back(std::move(it->second));
        outbound_.erase(it);
    }
}

void TcpFabric::handle_frame(Connection* conn, std::uint8_t kind, hep::Buffer frame) {
    hep::BufferChain frame_chain;
    frame_chain.append(frame.view());
    serial::BinaryIArchive in(frame_chain);
    switch (kind) {
        case kFrameMessage: {
            wire::MessageHeader header;
            in >> header;
            Message msg;
            msg.type = static_cast<MessageType>(header.type);
            msg.seq = header.seq;
            msg.rpc = header.rpc;
            msg.provider = header.provider;
            msg.origin = std::move(header.origin);
            msg.qos_tenant = std::move(header.qos_tenant);
            msg.qos_class = header.qos_class;
            msg.qos_budget_ms = header.qos_budget_ms;
            // Zero-copy: the payload is a view into the frame buffer, which
            // stays alive (refcounted) for as long as any consumer needs it.
            msg.payload = in.read_chain(header.payload_len);
            if (header.status_code != 0) {
                msg.status = Status(static_cast<StatusCode>(header.status_code),
                                    std::move(header.status_message));
            }
            std::shared_ptr<Endpoint> target;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = locals_.find(header.to_name);
                if (it != locals_.end()) target = it->second;
            }
            if (target && !target->stopped()) {
                // Completes a response, or dispatches a margo request, right
                // on this reader thread; plain handlers go to the progress
                // thread, so a bulk pull inside one never stalls this reader.
                target->enqueue(std::move(msg));
            } else if (msg.type == MessageType::kRequest) {
                // Best effort: tell the caller nobody is home.
                Message resp;
                resp.type = MessageType::kResponse;
                resp.seq = msg.seq;
                resp.origin = base_address_ + "/" + header.to_name;
                resp.status = Status::Unavailable("no endpoint " + header.to_name);
                (void)deliver(msg.origin, std::move(resp));
            }
            break;
        }
        case kFrameBulkReq: {
            wire::BulkReqHeader req;
            in >> req;
            wire::BulkRespHeader resp;
            resp.bulk_seq = req.bulk_seq;
            std::shared_ptr<Endpoint> owner;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = locals_.find(req.endpoint_name);
                if (it != locals_.end()) owner = it->second;
            }
            Status st;
            hep::BufferChain resp_tail;
            if (!owner) {
                st = Status::NotFound("no endpoint " + req.endpoint_name);
            } else if (req.write) {
                if (in.remaining() != req.len) {
                    st = Status::InvalidArgument("bulk write size mismatch");
                } else {
                    // The write data is contiguous within the frame.
                    hep::BufferView data = in.read_view(req.len);
                    st = owner->access_region(req.region_id, req.offset, req.len, true,
                                              nullptr, data.data());
                }
            } else {
                hep::Buffer out = hep::Buffer::allocate(req.len);
                st = owner->access_region(req.region_id, req.offset, req.len, false,
                                          out.mutable_data(), nullptr);
                if (st.ok()) {
                    resp_tail.append(out.view());
                    resp.data_len = req.len;
                }
            }
            resp.status_code = static_cast<std::uint8_t>(st.code());
            resp.status_message = st.message();
            // Reply on the same socket the request arrived on.
            (void)send_frame(conn, kFrameBulkResp, serial::to_string(resp), resp_tail);
            break;
        }
        case kFrameBulkResp: {
            wire::BulkRespHeader resp;
            in >> resp;
            std::shared_ptr<BulkSlot> slot;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = bulk_pending_.find(resp.bulk_seq);
                if (it != bulk_pending_.end()) {
                    slot = it->second;
                    bulk_pending_.erase(it);
                }
            }
            if (slot) {
                std::lock_guard<std::mutex> lock(slot->m);
                slot->done = true;
                if (resp.status_code != 0) {
                    slot->status = Status(static_cast<StatusCode>(resp.status_code),
                                          std::move(resp.status_message));
                }
                // Anchored into the frame buffer: outlives this handler.
                slot->data = in.read_view(resp.data_len);
                slot->cv.notify_all();
            }
            break;
        }
        default:
            HEP_LOG_WARN("unknown tcp frame kind %u", kind);
    }
}

}  // namespace hep::rpc
