#include "yokan/lsm/wal.hpp"

#include <cstring>

#include "common/compression.hpp"
#include "common/crc32.hpp"
#include "yokan/lsm/block.hpp"

namespace hep::yokan::lsm {

Wal::~Wal() { close(); }

Status Wal::open(const std::string& path) {
    close();
    path_ = path;
    prev_key_.clear();
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) return Status::IOError("cannot open WAL " + path);
    return Status::OK();
}

void Wal::close() {
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

Status Wal::append(RecordType type, std::string_view key, std::uint32_t epoch,
                   std::string_view value) {
    if (!file_) return Status::IOError("WAL not open");
    const std::size_t shared = shared_prefix(prev_key_, key);
    const std::string_view suffix = key.substr(shared);
    // Build the whole frame in a reused scratch buffer and hand it to stdio
    // as ONE fwrite: no per-record allocation, one stdio lock round-trip.
    unsigned char head[30];
    unsigned char* p = head;
    *p++ = static_cast<unsigned char>(type);
    p = compress::put_varint(p, shared);
    p = compress::put_varint(p, suffix.size());
    unsigned char tail[10];
    unsigned char* t = tail;
    if (type == RecordType::kPut) t = compress::put_varint(t, epoch);
    const std::size_t body_len = (p - head) + suffix.size() + (t - tail) + value.size();

    frame_.clear();
    frame_.append(4, '\0');  // crc patched below
    compress::put_varint(frame_, body_len);
    frame_.append(reinterpret_cast<const char*>(head), p - head);
    frame_.append(suffix);
    frame_.append(reinterpret_cast<const char*>(tail), t - tail);
    frame_.append(value);
    const std::uint32_t crc = crc32(std::string_view(frame_).substr(4));
    std::memcpy(frame_.data(), &crc, 4);
    if (std::fwrite(frame_.data(), 1, frame_.size(), file_) != frame_.size()) {
        return Status::IOError("WAL append failed on " + path_);
    }
    prev_key_.assign(key);
    bytes_written_.fetch_add(frame_.size(), std::memory_order_relaxed);
    return Status::OK();
}

Status Wal::append_put(std::string_view key, std::string_view value, std::uint32_t epoch) {
    return append(RecordType::kPut, key, epoch, value);
}

Status Wal::append_delete(std::string_view key) {
    return append(RecordType::kDelete, key, 0, {});
}

Status Wal::sync() {
    if (file_ && std::fflush(file_) != 0) return Status::IOError("WAL flush failed");
    return Status::OK();
}

Result<std::uint64_t> Wal::replay(const std::string& path, const ReplayFn& fn) {
    std::string data;
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
        char buf[1 << 16];
        for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) data.append(buf, got);
        std::fclose(f);
    }  // no log yet: nothing to replay

    std::uint64_t applied = 0;
    std::string key;  // rebuilt record by record
    std::size_t pos = 0;
    while (pos + 4 < data.size()) {
        std::uint32_t crc = 0;
        std::memcpy(&crc, data.data() + pos, 4);
        std::size_t at = pos + 4;
        std::uint64_t len = 0;
        if (!compress::get_varint(data, at, len) || len > data.size() - at) break;  // torn tail
        if (crc32(std::string_view(data).substr(pos + 4, at - pos - 4 + len)) != crc) break;
        const std::string_view body = std::string_view(data).substr(at, len);
        if (body.empty()) break;
        const auto type = static_cast<RecordType>(body[0]);
        std::size_t b = 1;
        std::uint64_t shared = 0, non_shared = 0, epoch = 0;
        if ((type != RecordType::kPut && type != RecordType::kDelete) ||
            !compress::get_varint(body, b, shared) || !compress::get_varint(body, b, non_shared) ||
            shared > key.size() || non_shared > body.size() - b) {
            break;
        }
        key.resize(shared);
        key.append(body.substr(b, non_shared));
        b += non_shared;
        if (type == RecordType::kPut) {
            if (!compress::get_varint(body, b, epoch) || epoch > UINT32_MAX) break;
        } else if (b != body.size()) {
            break;
        }
        fn(type, key, body.substr(b), static_cast<std::uint32_t>(epoch));
        ++applied;
        pos = at + len;
    }
    return applied;
}

}  // namespace hep::yokan::lsm
