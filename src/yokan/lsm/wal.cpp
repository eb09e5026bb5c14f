#include "yokan/lsm/wal.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hpp"

namespace hep::yokan::lsm {

Wal::~Wal() { close(); }

Status Wal::open(const std::string& path) {
    close();
    path_ = path;
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

Status Wal::append(RecordType type, std::string_view key, std::string_view epoch_prefix,
                   std::string_view value) {
    if (!file_) return Status::IOError("WAL not open");
    // Build the whole frame in a reused scratch buffer and hand it to stdio
    // as ONE fwrite: no per-record allocation, one stdio lock round-trip.
    frame_.clear();
    frame_.reserve(8 + 1 + 4 + key.size() + epoch_prefix.size() + value.size());
    frame_.append(8, '\0');  // crc + len patched below
    frame_.push_back(static_cast<char>(type));
    const std::uint32_t klen = static_cast<std::uint32_t>(key.size());
    frame_.append(reinterpret_cast<const char*>(&klen), 4);
    frame_.append(key);
    frame_.append(epoch_prefix);
    frame_.append(value);

    const std::string_view body(frame_.data() + 8, frame_.size() - 8);
    const std::uint32_t crc = crc32(body);
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    std::memcpy(frame_.data(), &crc, 4);
    std::memcpy(frame_.data() + 4, &len, 4);
    if (std::fwrite(frame_.data(), 1, frame_.size(), file_) != frame_.size()) {
        return Status::IOError("WAL append failed on " + path_);
    }
    bytes_written_.fetch_add(frame_.size(), std::memory_order_relaxed);
    return Status::OK();
}

Status Wal::append_put(std::string_view key, std::string_view value) {
    return append(RecordType::kPut, key, {}, value);
}

Status Wal::append_put_epoch(std::string_view key, std::string_view value,
                             std::uint32_t epoch) {
    const std::string_view prefix(reinterpret_cast<const char*>(&epoch), 4);
    return append(RecordType::kPutEpoch, key, prefix, value);
}

Status Wal::append_delete(std::string_view key) {
    return append(RecordType::kDelete, key, {}, {});
}

Status Wal::sync() {
    if (file_ && std::fflush(file_) != 0) return Status::IOError("WAL flush failed");
    return Status::OK();
}

Result<std::uint64_t> Wal::replay(const std::string& path, const ReplayFn& fn) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::uint64_t{0};  // no log yet: nothing to replay
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string data = ss.str();

    std::uint64_t applied = 0;
    std::size_t pos = 0;
    while (pos + 8 <= data.size()) {
        std::uint32_t crc = 0, len = 0;
        std::memcpy(&crc, data.data() + pos, 4);
        std::memcpy(&len, data.data() + pos + 4, 4);
        if (pos + 8 + len > data.size()) break;  // torn tail record
        std::string_view body(data.data() + pos + 8, len);
        if (crc32(body) != crc) break;  // corrupt record: stop replay
        if (len < 5) break;
        const auto type = static_cast<RecordType>(body[0]);
        std::uint32_t klen = 0;
        std::memcpy(&klen, body.data() + 1, 4);
        if (5 + klen > len) break;
        std::string_view key = body.substr(5, klen);
        std::string_view value = body.substr(5 + klen);
        if (type != RecordType::kPut && type != RecordType::kDelete &&
            type != RecordType::kPutEpoch) {
            break;
        }
        if (type == RecordType::kPutEpoch && value.size() < 4) break;
        fn(type, key, value);
        ++applied;
        pos += 8 + len;
    }
    return applied;
}

}  // namespace hep::yokan::lsm
