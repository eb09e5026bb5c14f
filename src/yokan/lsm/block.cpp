#include "yokan/lsm/block.hpp"

#include <cstring>

#include "common/compression.hpp"
#include "common/hash.hpp"

namespace hep::yokan::lsm {

namespace {

std::uint64_t cache_key(std::uint64_t file_number, std::uint64_t block) {
    return hep::mix64(file_number * 0x1000003 + block);
}

}  // namespace

// ------------------------------------------------------------- envelope

void encode_block(std::string& block, bool try_compress, std::string& out) {
    const auto raw_len = static_cast<std::uint32_t>(block.size());
    auto codec = compress::Codec::kRaw;
    std::uint8_t pad = 0;
    const std::size_t header_at = out.size();
    out.append(kBlockEnvelopeHeader, '\0');  // filled in once the codec is known

    if (try_compress && raw_len > 0) {
        // Zero-pad to a whole number of u64 elements; delta/varint over
        // width-8 is the only shape where these codecs can beat raw bytes.
        // The codecs are sized by counting, and only a winner that beats
        // the unpadded raw block is written.
        const std::size_t padded = (std::size_t(raw_len) + 7) & ~std::size_t(7);
        block.append(padded - raw_len, '\0');
        const auto [best, size] = compress::pick_codec(block.data(), padded / 8, 8, raw_len);
        if (best != compress::Codec::kRaw) {
            codec = best;
            pad = static_cast<std::uint8_t>(padded - raw_len);
            const std::size_t at = out.size();
            out.resize(at + size);
            compress::compress_to(best, block.data(), padded / 8, 8, out.data() + at);
        }
        block.resize(raw_len);
    }
    if (codec == compress::Codec::kRaw) out.append(block);
    out[header_at] = static_cast<char>(codec);
    out[header_at + 1] = static_cast<char>(pad);
    std::memcpy(out.data() + header_at + 2, &raw_len, 4);
}

Result<std::string_view> detail::decode_block(std::string_view stored, void* ctx,
                                              char* (*room)(void*, std::size_t)) {
    if (stored.size() < kBlockEnvelopeHeader) {
        return Status::Corruption("block envelope truncated");
    }
    const auto codec = static_cast<std::uint8_t>(stored[0]);
    const auto pad = static_cast<std::uint8_t>(stored[1]);
    std::uint32_t raw_len = 0;
    std::memcpy(&raw_len, stored.data() + 2, 4);
    const std::string_view payload = stored.substr(kBlockEnvelopeHeader);

    if (!compress::valid_codec(codec) || pad > 7) {
        return Status::Corruption("block envelope has a bad codec/pad tag");
    }
    if (codec == static_cast<std::uint8_t>(compress::Codec::kRaw)) {
        if (pad != 0 || payload.size() != raw_len) {
            return Status::Corruption("raw block envelope has wrong payload size");
        }
        return payload;
    }
    const std::size_t padded = std::size_t(raw_len) + pad;
    if (padded % 8 != 0) {
        return Status::Corruption("compressed block envelope has a bad padded length");
    }
    // Every non-raw codec emits at least one byte per u64 element, so a
    // payload shorter than padded/8 is corrupt. Checking before the
    // allocation keeps a hostile raw_len from forcing a multi-GB one.
    if (payload.size() < padded / 8) {
        return Status::Corruption("compressed block envelope shorter than element count");
    }
    char* raw = room(ctx, padded);
    Status st = compress::decompress(static_cast<compress::Codec>(codec), payload, padded / 8,
                                     8, raw);
    if (!st.ok()) return st;
    return std::string_view(raw, raw_len);
}

bool block_is_compressed(std::string_view stored) noexcept {
    return stored.size() >= kBlockEnvelopeHeader &&
           static_cast<std::uint8_t>(stored[0]) !=
               static_cast<std::uint8_t>(compress::Codec::kRaw);
}

// ------------------------------------------------------------- BlockCache

BlockCache::BlockCache(std::size_t decoded_capacity_bytes,
                       std::size_t compressed_capacity_bytes) {
    tiers_[kDecoded].capacity = decoded_capacity_bytes;
    tiers_[kCompressed].capacity = compressed_capacity_bytes;
}

std::shared_ptr<const std::string> BlockCache::lookup(Tier tier, std::uint64_t file_number,
                                                      std::uint64_t block) {
    Shard& shard = tiers_[tier];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(cache_key(file_number, block));
    if (it == shard.index.end()) return nullptr;
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->data;
}

void BlockCache::insert(Tier tier, std::uint64_t file_number, std::uint64_t block,
                        std::shared_ptr<const std::string> data) {
    Shard& shard = tiers_[tier];
    if (shard.capacity == 0) return;  // tier disabled
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint64_t key = cache_key(file_number, block);
    if (shard.index.count(key)) return;
    shard.used += data->size();
    shard.lru.push_front(Entry{key, std::move(data)});
    shard.index[key] = shard.lru.begin();
    while (shard.used > shard.capacity && !shard.lru.empty()) {
        auto& victim = shard.lru.back();
        shard.used -= victim.data->size();
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::uint64_t BlockCache::hits() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : tiers_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.hits;
    }
    return total;
}

BlockCacheStats BlockCache::stats() const {
    BlockCacheStats out;
    {
        std::lock_guard<std::mutex> lock(tiers_[kDecoded].mutex);
        out.decoded_hits = tiers_[kDecoded].hits;
        out.decoded_used_bytes = tiers_[kDecoded].used;
    }
    {
        std::lock_guard<std::mutex> lock(tiers_[kCompressed].mutex);
        out.compressed_hits = tiers_[kCompressed].hits;
        out.compressed_used_bytes = tiers_[kCompressed].used;
    }
    out.misses = misses_.load(std::memory_order_relaxed);
    out.decompressions = decompressions_.load(std::memory_order_relaxed);
    out.disk_reads = disk_reads_.load(std::memory_order_relaxed);
    out.disk_bytes_read = disk_bytes_read_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    return out;
}

}  // namespace hep::yokan::lsm
