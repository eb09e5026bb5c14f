// Write-ahead log: every mutation is appended (CRC-framed) before it is
// applied to the memtable, so a crash loses nothing that was acknowledged.
//
// Record framing:  [crc32 u32][len u32][type u8][klen u32][key][value]
// type: 1 = put, 2 = delete (value empty), 3 = epoch-tagged put whose value
// is [epoch u32][payload]. Replay stops at the first corrupt or truncated
// record (standard torn-write handling).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace hep::yokan::lsm {

class Wal {
  public:
    enum class RecordType : std::uint8_t { kPut = 1, kDelete = 2, kPutEpoch = 3 };

    Wal() = default;
    ~Wal();
    Wal(const Wal&) = delete;
    Wal& operator=(const Wal&) = delete;

    /// Open (creating if missing) the log at `path` for appending.
    Status open(const std::string& path);

    Status append_put(std::string_view key, std::string_view value);
    /// Epoch-tagged put: the record value is [epoch u32][value].
    Status append_put_epoch(std::string_view key, std::string_view value, std::uint32_t epoch);
    Status append_delete(std::string_view key);

    /// Flush userspace buffers (fsync is out of scope for the simulator).
    Status sync();

    /// Close the file handle.
    void close();

    /// Bytes appended over this object's lifetime, across every segment it
    /// opened. Safe to read while another thread appends.
    [[nodiscard]] std::uint64_t bytes_written() const noexcept {
        return bytes_written_.load(std::memory_order_relaxed);
    }

    /// Replay records from `path` in order. Invokes `fn(type, key, value)`.
    /// Returns the number of complete records applied; stops quietly at the
    /// first torn/corrupt record.
    using ReplayFn = std::function<void(RecordType, std::string_view key, std::string_view value)>;
    static Result<std::uint64_t> replay(const std::string& path, const ReplayFn& fn);

  private:
    /// `value` is written as epoch_prefix + value; an empty prefix means the
    /// record value is just `value`. Splitting the two pieces keeps the
    /// epoch-tagged path from building a temporary concatenation per put.
    Status append(RecordType type, std::string_view key, std::string_view epoch_prefix,
                  std::string_view value);

    std::FILE* file_ = nullptr;
    std::string path_;
    std::string frame_;  // reused [crc][len][body] scratch; grows to max record
    std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace hep::yokan::lsm
