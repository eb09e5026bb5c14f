// Write-ahead log: every mutation is appended (CRC-framed) before it is
// applied to the memtable, so a crash loses nothing that was acknowledged.
//
// Record framing:  [crc32 u32][varint len][body], the crc over the len
// varint and the body, with
//   body = [type u8][varint shared][varint non_shared][key suffix]
//          and, for a put, [varint epoch][value]
// type: 1 = put, 2 = delete. Like a table record (sstable.hpp), a record
// stores only the key bytes it does not share with the previous record of
// the same segment (the first record of a segment shares none), so replay
// rebuilds keys in order. Replay stops at the first corrupt or truncated
// record (standard torn-write handling); nothing after it can be decoded.
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
    enum class RecordType : std::uint8_t { kPut = 1, kDelete = 2 };

    Wal() = default;
    ~Wal();
    Wal(const Wal&) = delete;
    Wal& operator=(const Wal&) = delete;

    /// Open (creating if missing) the log at `path` for appending; the first
    /// record appended shares no key prefix.
    Status open(const std::string& path);

    /// Put of `value` under MVCC `epoch` (0 = unstaged).
    Status append_put(std::string_view key, std::string_view value, std::uint32_t epoch = 0);
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

    /// Replay records from `path` in order. Invokes `fn(type, key, value,
    /// epoch)`; a delete has an empty value and epoch 0, and `key` is valid
    /// only during the call. Returns the number of complete records applied;
    /// stops quietly at the first torn/corrupt record.
    using ReplayFn = std::function<void(RecordType, std::string_view key, std::string_view value,
                                        std::uint32_t epoch)>;
    static Result<std::uint64_t> replay(const std::string& path, const ReplayFn& fn);

  private:
    Status append(RecordType type, std::string_view key, std::uint32_t epoch,
                  std::string_view value);

    std::FILE* file_ = nullptr;
    std::string path_;
    std::string frame_;     // reused [crc][len][body] scratch; grows to max record
    std::string prev_key_;  // key of this segment's last record
    std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace hep::yokan::lsm
