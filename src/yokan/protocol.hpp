// RPC request/response types shared by the Yokan provider and client.
//
// One RPC per operation shape. Single-item operations ride inline in the RPC
// payload ("RPC for single small objects", paper §II-B). Batched reads land
// in a client-exposed region with one bulk write ("RDMA for ... batches of
// multiple objects"); batched writes ride the payload as a scatter-gather
// chain of referenced values.
//
// Packed batch format (put batches, replication records):
//   repeated (klen u32, vlen u32, key bytes, value bytes)
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "rpc/message.hpp"
#include "serial/archive.hpp"
#include "yokan/backend.hpp"

namespace hep::yokan::proto {

inline constexpr std::uint32_t kMissing = 0xFFFFFFFFu;

/// Optional MVCC pin carried by read RPCs. seq == 0 means "read latest"
/// (the pre-MVCC behaviour); a non-zero seq asks the server to resolve the
/// read against snapshot_at(seq) with the client-supplied epoch visibility
/// filter. Shipping the filter explicitly makes pinned reads immune to a
/// backend whose local published set lags the registry's commit point.
struct ReadPin {
    std::uint64_t seq = 0;
    std::uint32_t floor = 0;                // epochs 1..floor visible
    std::vector<std::uint32_t> extras;      // sparse visible epochs > floor
    [[nodiscard]] bool pinned() const noexcept { return seq != 0; }
    [[nodiscard]] ReadView view() const {
        ReadView v;
        v.seq = seq;
        v.epochs.floor = floor;
        v.epochs.extras = extras;
        return v;
    }
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & seq & floor & extras;
    }
};

/// Single put ("yokan_put_owned"): the value is a refcounted Buffer, so
/// serializing the request references the product bytes instead of copying
/// them, and the server hands the received Buffer straight to the backend.
/// A Buffer serializes exactly like a std::string.
struct PutViewReq {
    std::string db;
    std::string key;
    hep::Buffer value;
    bool overwrite = true;
    std::uint32_t epoch = 0;  // 0 = immediately visible; else ingest epoch
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & key & value & overwrite & epoch;
    }
};

struct Ack {
    std::uint8_t ok = 1;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & ok;
    }
};

struct KeyReq {
    std::string db;
    std::string key;
    ReadPin pin;  // optional snapshot pin (seq 0 = latest)
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & key & pin;
    }
};

/// The value travels as a BufferView: serialized like a std::string on the
/// wire, but the server references the stored bytes (no copy out of the
/// backend) and the client receives a view anchored to the response frame.
struct GetResp {
    hep::BufferView value;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & value;
    }
};

struct ExistsResp {
    bool exists = false;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & exists;
    }
};

struct LengthResp {
    std::uint64_t length = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & length;
    }
};

struct ListReq {
    std::string db;
    std::string after;   // resume strictly after this key
    std::string prefix;  // restrict to keys with this prefix
    std::uint64_t max = 128;
    bool with_values = false;
    ReadPin pin;  // optional snapshot pin (seq 0 = latest)
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & after & prefix & max & with_values & pin;
    }
};

struct ListKeysResp {
    std::vector<std::string> keys;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & keys;
    }
};

struct ListKeyValsResp {
    std::vector<KeyValue> items;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & items;
    }
};

/// Paged scan with explicit cursor state: unlike the list RPCs (which leave
/// the client inferring exhaustion from a short page), the response reports
/// the exact resume key and whether the key space ran out. The pushdown
/// cursors (src/query) and pagination-aware clients build on this contract.
struct ScanResp {
    std::vector<KeyValue> items;  // values empty unless ListReq::with_values
    std::string last_key;         // resume with after=last_key
    bool exhausted = true;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & items & last_key & exhausted;
    }
};

struct CountReq {
    std::string db;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db;
    }
};

/// Mutation sequence of a database ("yokan_seq"): the replica group's
/// monotonic sequence numbers when the db is replicated, the backend's
/// put+erase count otherwise. Any committed mutation advances it, so the
/// cache tier (src/cache) uses it to revalidate expired leases with one
/// cheap probe instead of refetching the value.
struct SeqResp {
    std::uint64_t seq = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & seq;
    }
};

/// Versioned get ("yokan_get_vs"): the value plus the db's mutation seq,
/// sampled BEFORE the read. A mutation racing the read can only make the
/// returned seq older than the value — a cache filling under this seq then
/// revalidates too eagerly, never too lazily.
struct GetSeqResp {
    hep::BufferView value;
    std::uint64_t seq = 0;
    std::uint64_t vseq = 0;    // the VALUE's own MVCC stamp (exact, unlike
    std::uint32_t vepoch = 0;  // `seq` which is a pre-read lease sample)
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & value & seq & vseq & vepoch;
    }
};

struct CountResp {
    std::uint64_t count = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & count;
    }
};

/// Zero-copy batched put ("yokan_put_packed"): the packed entries ride the
/// RPC payload as a scatter-gather chain — per-entry (klen, vlen, key)
/// headers live in one metadata buffer, the values are referenced views of
/// the caller's product buffers (see pack_items()). The server iterates the
/// received chain and parks each value slice by reference.
struct PutPackedReq {
    std::string db;
    std::uint64_t count = 0;
    bool overwrite = true;
    std::uint32_t epoch = 0;  // applied to every entry in the batch
    hep::BufferChain entries;  // packed (klen u32, vlen u32, key, value)*
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & count & overwrite & epoch & entries;
    }
};

struct PutMultiResp {
    std::uint64_t stored = 0;
    std::uint64_t already_existed = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & stored & already_existed;
    }
};

/// Batched get: the server packs the found values into the client-exposed
/// region with one RDMA write and returns per-key sizes (kMissing = absent).
/// If the region is too small nothing is written and `needed` tells the
/// client how much to expose on retry.
struct GetMultiReq {
    std::string db;
    std::vector<std::string> keys;
    rpc::BulkRef dest;
    ReadPin pin;  // optional snapshot pin (seq 0 = latest)
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & keys & dest & pin;
    }
};

struct GetMultiResp {
    std::vector<std::uint32_t> sizes;  // parallel to keys; kMissing = absent
    std::uint64_t needed = 0;          // total bytes required
    bool written = false;              // data was bulk_put into dest
    std::uint64_t seq = 0;             // db mutation seq, sampled BEFORE the
                                       // reads (read-cache bulk fills record
                                       // it; same ordering as GetSeqResp)
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & sizes & needed & written & seq;
    }
};

/// Batched erase (inline keys; erase payloads are small).
struct EraseMultiReq {
    std::string db;
    std::vector<std::string> keys;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & db & keys;
    }
};

struct EraseMultiResp {
    std::uint64_t erased = 0;
    template <typename A>
    void serialize(A& ar, unsigned) {
        ar & erased;
    }
};

/// Pack helpers for the batch format. Inline so other libraries (the replica
/// subsystem replays packed batches) can use them without linking yokan.
inline void pack_entry(std::string& out, std::string_view key, std::string_view value) {
    const std::uint32_t klen = static_cast<std::uint32_t>(key.size());
    const std::uint32_t vlen = static_cast<std::uint32_t>(value.size());
    out.append(reinterpret_cast<const char*>(&klen), 4);
    out.append(reinterpret_cast<const char*>(&vlen), 4);
    out.append(key);
    out.append(value);
    hep::count_buffer_copy(8 + key.size() + value.size());
}

/// Exact size of one packed entry.
inline std::size_t packed_entry_size(std::size_t klen, std::size_t vlen) {
    return 8 + klen + vlen;
}

/// Pack a whole batch with an exact-size pre-pass: one reservation, no
/// append-realloc growth (packing used to be quadratic for large batches).
inline void pack_entries(std::string& out, const std::vector<KeyValue>& items) {
    std::size_t total = out.size();
    for (const auto& kv : items) total += packed_entry_size(kv.key.size(), kv.value.size());
    out.reserve(total);
    for (const auto& kv : items) pack_entry(out, kv.key, kv.value);
}

/// Pack a batch of BatchItems as a scatter-gather chain: all (klen, vlen,
/// key) headers go into ONE exactly-sized metadata buffer; each value is
/// appended as a refcounted view of the item's Buffer. One allocation, keys
/// copied once, values never copied.
inline hep::BufferChain pack_items(const std::vector<BatchItem>& items) {
    std::size_t meta_bytes = 0;
    for (const auto& it : items) meta_bytes += 8 + it.key.size();
    std::string meta;
    meta.reserve(meta_bytes);
    std::vector<std::size_t> offsets;
    offsets.reserve(items.size());
    for (const auto& it : items) {
        offsets.push_back(meta.size());
        const std::uint32_t klen = static_cast<std::uint32_t>(it.key.size());
        const std::uint32_t vlen = static_cast<std::uint32_t>(it.value.size());
        meta.append(reinterpret_cast<const char*>(&klen), 4);
        meta.append(reinterpret_cast<const char*>(&vlen), 4);
        meta.append(it.key);
    }
    hep::count_buffer_copy(meta.size());
    hep::Buffer meta_buf = hep::Buffer::adopt(std::move(meta));
    hep::BufferChain chain;
    for (std::size_t i = 0; i < items.size(); ++i) {
        chain.append(meta_buf.view(offsets[i], 8 + items[i].key.size()));
        chain.append(items[i].value.view());
    }
    return chain;
}

/// Visit packed entries; returns false on malformed input.
inline bool unpack_entries(std::string_view data,
                           const std::function<void(std::string_view, std::string_view)>& fn) {
    std::size_t pos = 0;
    while (pos < data.size()) {
        if (pos + 8 > data.size()) return false;
        std::uint32_t klen = 0, vlen = 0;
        std::memcpy(&klen, data.data() + pos, 4);
        std::memcpy(&vlen, data.data() + pos + 4, 4);
        if (pos + 8 + klen + vlen > data.size()) return false;
        fn(data.substr(pos + 8, klen), data.substr(pos + 8 + klen, vlen));
        pos += 8 + klen + vlen;
    }
    return true;
}

/// Visit packed entries in a (possibly multi-segment) chain. Values are
/// handed out as owned views anchored to the chain's storage — safe to park
/// directly in a backend via put_view(). Returns false on malformed input.
inline bool unpack_entries_chain(
    const hep::BufferChain& entries,
    const std::function<void(std::string_view key, hep::BufferView value)>& fn) {
    serial::BinaryIArchive in(entries);
    while (!in.exhausted()) {
        if (in.remaining() < 8) return false;
        std::uint32_t klen = 0, vlen = 0;
        in.read_bytes(&klen, 4);
        in.read_bytes(&vlen, 4);
        if (in.remaining() < static_cast<std::size_t>(klen) + vlen) return false;
        hep::BufferView key = in.read_view(klen);
        hep::BufferView value = in.read_view(vlen);
        fn(key.sv(), value.to_owned());
    }
    return true;
}

}  // namespace hep::yokan::proto
