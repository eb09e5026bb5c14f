#include "yokan/lsm/sstable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"

namespace hep::yokan::lsm {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), 4);
}
void append_u64(std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), 8);
}
std::uint32_t read_u32(const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}
std::uint64_t read_u64(const char* p) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

}  // namespace

// --------------------------------------------------------------- SstWriter

SstWriter::SstWriter(std::string path, std::uint64_t file_number, std::size_t block_bytes,
                     bool compress_blocks, std::size_t expected_bytes)
    : path_(std::move(path)), block_bytes_(block_bytes), compress_blocks_(compress_blocks) {
    meta_.file_number = file_number;
    meta_.tombstone_free = true;  // until add() writes one
    // Entries plus ~1/8 for record headers, stamps, the index and blooms;
    // padding a block for the codecs needs up to 7 bytes past it.
    file_contents_.reserve(expected_bytes + expected_bytes / 8);
    current_block_.reserve(block_bytes_ + 8);
    index_.assign(8, '\0');
}

/// Order check, restart point, record header, key and key hash; the caller
/// appends the value bytes and cuts the block once it is full.
Status SstWriter::begin_entry(std::string_view key, std::uint32_t vlen) {
    if (have_last_ && key <= last_key_) {
        return Status::InvalidArgument("SstWriter::add keys must be strictly increasing");
    }
    if (!have_last_) meta_.min_key.assign(key);
    last_key_.assign(key);
    have_last_ = true;

    if (block_entries_ % kRestartInterval == 0) {
        restarts_.push_back(static_cast<std::uint32_t>(current_block_.size()));
    }
    append_u32(current_block_, static_cast<std::uint32_t>(key.size()));
    append_u32(current_block_, vlen);
    current_block_.append(key);
    key_hashes_.push_back(BloomFilter::hash(key));
    ++block_entries_;
    ++meta_.entries;
    return Status::OK();
}

Status SstWriter::add(std::string_view key, std::string_view value, bool tombstone) {
    Status st = begin_entry(key, tombstone ? kTombstoneLen
                                           : static_cast<std::uint32_t>(value.size()));
    if (!st.ok()) return st;
    if (tombstone) meta_.tombstone_free = false;
    else current_block_.append(value);
    if (current_block_.size() >= block_bytes_) cut_block();
    return Status::OK();
}

Status SstWriter::add(std::string_view key, const Stamp& stamp, std::string_view value) {
    Status st = begin_entry(key, static_cast<std::uint32_t>(kStampBytes + value.size()));
    if (!st.ok()) return st;
    append_u64(current_block_, stamp.seq);
    append_u32(current_block_, stamp.epoch);
    current_block_.append(value);
    if (current_block_.size() >= block_bytes_) cut_block();
    return Status::OK();
}

void SstWriter::cut_block() {
    if (current_block_.empty()) return;
    block_bloom_.reset(block_entries_);
    for (auto h = key_hashes_.end() - static_cast<std::ptrdiff_t>(block_entries_);
         h != key_hashes_.end(); ++h) {
        block_bloom_.insert_hash(*h);
    }
    const std::uint64_t offset = file_contents_.size();
    encode_block(current_block_, compress_blocks_, file_contents_);
    const std::string_view stored = std::string_view(file_contents_).substr(offset);

    append_u32(index_, static_cast<std::uint32_t>(last_key_.size()));
    index_.append(last_key_);
    append_u64(index_, offset);
    append_u64(index_, stored.size());
    append_u32(index_, crc32(stored));
    append_u32(index_, static_cast<std::uint32_t>(current_block_.size()));
    append_u32(index_, static_cast<std::uint32_t>(block_bloom_.encoded_size()));
    block_bloom_.append_to(index_);
    append_u32(index_, static_cast<std::uint32_t>(restarts_.size()));
    for (std::uint32_t r : restarts_) append_u32(index_, r);
    ++blocks_;

    current_block_.clear();
    block_entries_ = 0;
    restarts_.clear();
}

Result<TableMeta> SstWriter::finish() {
    cut_block();
    meta_.max_key = last_key_;

    std::memcpy(index_.data(), &blocks_, 8);
    const std::uint64_t index_off = file_contents_.size();
    file_contents_.append(index_);
    // Sized from the real entry count, so a table cut short of its input
    // (a compaction output) does not carry a bloom sized for all of it.
    BloomFilter bloom(meta_.entries);
    for (std::uint64_t h : key_hashes_) bloom.insert_hash(h);
    const std::uint64_t bloom_off = file_contents_.size();
    bloom.append_to(file_contents_);
    append_u64(file_contents_, index_off);
    append_u64(file_contents_, index_.size());
    append_u64(file_contents_, bloom_off);
    append_u64(file_contents_, bloom.encoded_size());
    append_u64(file_contents_, meta_.entries);
    append_u64(file_contents_, compress_blocks_ ? 1 : 0);  // flags
    append_u64(file_contents_, kSstMagic2);

    std::FILE* f = std::fopen(path_.c_str(), "wb");
    if (!f) return Status::IOError("cannot create sstable " + path_);
    const bool ok =
        std::fwrite(file_contents_.data(), 1, file_contents_.size(), f) == file_contents_.size();
    std::fclose(f);
    if (!ok) return Status::IOError("short write creating sstable " + path_);
    meta_.bytes = file_contents_.size();
    return meta_;
}

// --------------------------------------------------------------- SstReader

SstReader::~SstReader() {
    if (fd_ >= 0) ::close(fd_);
}

Status SstReader::pread_exact(char* dst, std::size_t n, std::uint64_t offset) const {
    while (n > 0) {
        const ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) return Status::IOError("cannot read " + path_);
        dst += got;
        n -= static_cast<std::size_t>(got);
        offset += static_cast<std::uint64_t>(got);
    }
    return Status::OK();
}

Result<std::shared_ptr<SstReader>> SstReader::open(const std::string& path,
                                                   std::uint64_t file_number,
                                                   std::shared_ptr<BlockCache> cache) {
    auto reader = std::shared_ptr<SstReader>(new SstReader());
    reader->self_ = reader;
    reader->path_ = path;
    reader->file_number_ = file_number;
    reader->cache_ = std::move(cache);
    reader->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (reader->fd_ < 0) return Status::IOError("cannot open sstable " + path);
    struct stat st {};
    if (::fstat(reader->fd_, &st) != 0) return Status::IOError("cannot stat sstable " + path);
    const auto file_size = static_cast<std::uint64_t>(st.st_size);

    // The trailing magic word picks the footer layout: 56 bytes for v2,
    // 48 for v1 (pre-envelope tables, kept readable for upgrades).
    char footer[56];
    if (file_size < 8 || !reader->pread_exact(footer + 48, 8, file_size - 8).ok()) {
        return Status::Corruption("cannot read sstable magic: " + path);
    }
    const std::uint64_t magic = read_u64(footer + 48);
    std::size_t footer_size = 0;
    if (magic == kSstMagic2) {
        reader->version_ = 2;
        footer_size = 56;
    } else if (magic == kSstMagic) {
        reader->version_ = 1;
        footer_size = 48;
    } else {
        return Status::Corruption("bad sstable magic: " + path);
    }
    if (file_size < footer_size ||
        !reader->pread_exact(footer, footer_size, file_size - footer_size).ok()) {
        return Status::Corruption("cannot read sstable footer: " + path);
    }
    const std::uint64_t index_off = read_u64(footer);
    const std::uint64_t index_size = read_u64(footer + 8);
    const std::uint64_t bloom_off = read_u64(footer + 16);
    const std::uint64_t bloom_size = read_u64(footer + 24);
    reader->entry_count_ = read_u64(footer + 32);
    // v2: footer + 40 holds the flags word (bit 0: compression requested).
    if (index_off > file_size || index_size > file_size - index_off || bloom_off > file_size ||
        bloom_size > file_size - bloom_off) {
        return Status::Corruption("sstable footer points past the file: " + path);
    }

    // Index.
    std::string index_bytes(index_size, '\0');
    if (!reader->pread_exact(index_bytes.data(), index_size, index_off).ok()) {
        return Status::Corruption("cannot read sstable index: " + path);
    }
    std::size_t pos = 0;
    if (index_size < 8) return Status::Corruption("sstable index truncated: " + path);
    const std::uint64_t n = read_u64(index_bytes.data());
    pos = 8;
    reader->index_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (pos + 4 > index_bytes.size()) return Status::Corruption("index entry truncated");
        const std::uint32_t klen = read_u32(index_bytes.data() + pos);
        pos += 4;
        const std::size_t fixed = reader->version_ == 2 ? 24 : 20;
        if (pos + klen + fixed > index_bytes.size()) {
            return Status::Corruption("index entry truncated");
        }
        IndexEntry e;
        e.last_key.assign(index_bytes.data() + pos, klen);
        pos += klen;
        e.offset = read_u64(index_bytes.data() + pos);
        e.size = read_u64(index_bytes.data() + pos + 8);
        e.crc = read_u32(index_bytes.data() + pos + 16);
        pos += 20;
        if (reader->version_ == 2) {
            e.raw_len = read_u32(index_bytes.data() + pos);
            pos += 4;
            if (pos + 4 > index_bytes.size()) return Status::Corruption("index entry truncated");
            const std::uint32_t bloom_len = read_u32(index_bytes.data() + pos);
            pos += 4;
            if (pos + bloom_len + 4 > index_bytes.size()) {
                return Status::Corruption("index entry truncated");
            }
            if (bloom_len > 0) {
                e.bloom = BloomFilter::decode({index_bytes.data() + pos, bloom_len});
                e.has_bloom = true;
            }
            pos += bloom_len;
            const std::uint32_t n_restarts = read_u32(index_bytes.data() + pos);
            pos += 4;
            if (pos + std::size_t(n_restarts) * 4 > index_bytes.size()) {
                return Status::Corruption("index entry truncated");
            }
            e.restarts.reserve(n_restarts);
            for (std::uint32_t r = 0; r < n_restarts; ++r) {
                e.restarts.push_back(read_u32(index_bytes.data() + pos));
                pos += 4;
            }
        } else {
            // v1 blocks are stored raw: decoded size == stored size.
            e.raw_len = static_cast<std::uint32_t>(e.size);
        }
        reader->index_.push_back(std::move(e));
    }

    // Bloom.
    std::string bloom_bytes(bloom_size, '\0');
    if (!reader->pread_exact(bloom_bytes.data(), bloom_size, bloom_off).ok()) {
        return Status::Corruption("cannot read sstable bloom: " + path);
    }
    reader->bloom_ = BloomFilter::decode(bloom_bytes);
    return reader;
}

std::size_t SstReader::find_block(std::string_view key) const {
    // First block whose last_key >= key.
    std::size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (std::string_view(index_[mid].last_key) < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

Result<std::shared_ptr<const std::string>> SstReader::read_block(std::size_t idx) {
    if (idx >= index_.size()) return Status::OutOfRange("block index");
    const IndexEntry& e = index_[idx];
    if (cache_) {
        if (auto blk = cache_->lookup(BlockCache::kDecoded, file_number_, idx)) return blk;
    }

    std::shared_ptr<const std::string> stored;
    if (cache_ && version_ == 2) {
        stored = cache_->lookup(BlockCache::kCompressed, file_number_, idx);
    }
    if (!stored) {
        if (cache_) cache_->note_miss();
        auto fresh = std::make_shared<std::string>(e.size, '\0');
        Status st = read_stored(idx, fresh->data());
        if (!st.ok()) return st;
        if (cache_) {
            cache_->note_disk_read(fresh->size());
            if (version_ == 2) {
                cache_->insert(BlockCache::kCompressed, file_number_, idx, fresh);
            }
        }
        stored = std::move(fresh);
    }

    std::shared_ptr<const std::string> decoded;
    if (version_ == 2) {
        if (block_is_compressed(*stored) && cache_) cache_->note_decompression();
        // A compressed block decodes straight into the string the cache
        // keeps; a raw one is copied out of its envelope.
        auto block = std::make_shared<std::string>();
        auto raw = decode_block(*stored, [&block](std::size_t n) {
            block->resize(n);
            return block->data();
        });
        if (!raw.ok()) return Status::Corruption(raw.status().message() + " in " + path_);
        if (raw->data() == block->data()) block->resize(raw->size());
        else block->assign(*raw);
        decoded = std::move(block);
    } else {
        decoded = std::move(stored);  // v1: the stored bytes ARE the block
    }
    if (cache_) cache_->insert(BlockCache::kDecoded, file_number_, idx, decoded);
    return decoded;
}

Status SstReader::read_stored(std::size_t idx, char* dst) const {
    const IndexEntry& e = index_[idx];
    if (!pread_exact(dst, e.size, e.offset).ok()) {
        return Status::IOError("cannot read block from " + path_);
    }
    if (crc32(std::string_view(dst, e.size)) != e.crc) {
        return Status::Corruption("sstable block checksum mismatch in " + path_);
    }
    return Status::OK();
}

Result<std::optional<std::string>> SstReader::get(std::string_view key) {
    const std::uint64_t h = BloomFilter::hash(key);
    if (!bloom_.may_contain_hash(h)) return Status::NotFound("bloom miss");
    const std::size_t blk_idx = find_block(key);
    if (blk_idx >= index_.size()) return Status::NotFound("beyond last block");
    const IndexEntry& e = index_[blk_idx];
    // Per-block filter: a miss here skips the block fetch (and any decode).
    if (e.has_bloom && !e.bloom.may_contain_hash(h)) {
        return Status::NotFound("block bloom miss");
    }
    auto blk = read_block(blk_idx);
    if (!blk.ok()) return blk.status();
    const std::string& data = **blk;

    // Restart-array binary search: largest restart whose key <= target, so
    // the linear scan below touches at most kRestartInterval records.
    std::size_t pos = 0;
    if (e.restarts.size() > 1) {
        std::size_t lo = 0, hi = e.restarts.size();
        while (lo + 1 < hi) {
            const std::size_t mid = (lo + hi) / 2;
            const std::size_t off = e.restarts[mid];
            if (off + 8 > data.size()) break;
            const std::uint32_t klen = read_u32(data.data() + off);
            if (off + 8 + klen > data.size()) break;
            if (std::string_view(data.data() + off + 8, klen) <= key) lo = mid;
            else hi = mid;
        }
        pos = e.restarts[lo];
    }

    while (pos + 8 <= data.size()) {
        const std::uint32_t klen = read_u32(data.data() + pos);
        const std::uint32_t vlen = read_u32(data.data() + pos + 4);
        const bool tombstone = (vlen == kTombstoneLen);
        const std::size_t vbytes = tombstone ? 0 : vlen;
        if (pos + 8 + klen + vbytes > data.size()) break;
        std::string_view entry_key(data.data() + pos + 8, klen);
        if (entry_key == key) {
            if (tombstone) return std::optional<std::string>{};
            return std::optional<std::string>(std::string(data.data() + pos + 8 + klen, vlen));
        }
        if (entry_key > key) break;  // sorted within block
        pos += 8 + klen + vbytes;
    }
    return Status::NotFound("key not in block");
}

// ------------------------------------------------------ SstReader::Iterator

Status SstReader::Iterator::load_block(std::size_t block_idx) {
    block_idx_ = block_idx;
    pos_ = 0;
    valid_ = false;
    block_ = {};
    if (block_idx_ >= reader_->index_.size()) return Status::OK();  // exhausted
    if (cached_) {
        auto blk = reader_->read_block(block_idx_);
        if (!blk.ok()) return blk.status();
        pinned_ = std::move(blk.value());
        block_ = *pinned_;
        return Status::OK();
    }
    const std::size_t size = reader_->index_[block_idx_].size;
    char* stored = stored_.reserve(size);
    Status st = reader_->read_stored(block_idx_, stored);
    if (!st.ok()) return st;
    if (reader_->version_ != 2) {  // v1: the stored bytes ARE the block
        block_ = std::string_view(stored, size);
        return Status::OK();
    }
    auto raw = decode_block(std::string_view(stored, size), decoded_);
    if (!raw.ok()) return Status::Corruption(raw.status().message() + " in " + reader_->path_);
    block_ = *raw;
    return Status::OK();
}

bool SstReader::Iterator::parse_current() {
    if (pos_ + 8 > block_.size()) return false;
    const std::uint32_t klen = read_u32(block_.data() + pos_);
    const std::uint32_t vlen = read_u32(block_.data() + pos_ + 4);
    tombstone_ = (vlen == kTombstoneLen);
    const std::size_t vbytes = tombstone_ ? 0 : vlen;
    if (pos_ + 8 + klen + vbytes > block_.size()) return false;
    key_ = block_.substr(pos_ + 8, klen);
    value_ = block_.substr(pos_ + 8 + klen, vbytes);
    pos_ += 8 + klen + vbytes;
    return true;
}

Status SstReader::Iterator::seek(std::string_view bound, bool inclusive) {
    valid_ = false;
    std::size_t blk = reader_->find_block(bound);
    // find_block gives the first block whose last_key >= bound; earlier keys
    // in that block may still precede the bound — advance as needed.
    while (blk < reader_->index_.size()) {
        Status st = load_block(blk);
        if (!st.ok()) return st;
        while (parse_current()) {
            if (inclusive ? key_ >= bound : key_ > bound) {
                valid_ = true;
                return Status::OK();
            }
        }
        ++blk;
    }
    return Status::OK();  // exhausted: !valid()
}

Status SstReader::Iterator::next() {
    valid_ = false;
    while (true) {
        if (parse_current()) {
            valid_ = true;
            return Status::OK();
        }
        if (block_idx_ + 1 >= reader_->index_.size()) return Status::OK();
        Status st = load_block(block_idx_ + 1);
        if (!st.ok()) return st;
    }
}

}  // namespace hep::yokan::lsm
