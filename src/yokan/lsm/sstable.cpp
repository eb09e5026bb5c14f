#include "yokan/lsm/sstable.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/compression.hpp"
#include "common/crc32.hpp"

namespace hep::yokan::lsm {

namespace {

constexpr std::size_t kFooterBytes = 56;

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

/// One decoded block record; views point into the block.
struct Record {
    std::uint64_t shared = 0;
    std::string_view suffix;
    Stamp stamp;
    std::string_view value;
    bool tombstone = false;
};

/// Decodes the record at `pos` of `block` and advances `pos` past it. False
/// when a varint or a byte run goes past the block, or a field is out of
/// range; whether `shared` fits the previous key is the caller's check.
bool decode_record(std::string_view block, std::size_t& pos, Record& r) {
    std::uint64_t non_shared = 0, value_field = 0, epoch = 0;
    if (!compress::get_varint(block, pos, r.shared) ||
        !compress::get_varint(block, pos, non_shared) ||
        !compress::get_varint(block, pos, value_field) || non_shared > block.size() - pos) {
        return false;
    }
    r.suffix = block.substr(pos, non_shared);
    pos += non_shared;
    const std::uint64_t value_len = value_field >> 1;
    r.tombstone = (value_field & 1) != 0;
    if (!compress::get_varint(block, pos, r.stamp.seq) ||
        !compress::get_varint(block, pos, epoch) || epoch > UINT32_MAX ||
        (r.tombstone && value_len != 0) || value_len > block.size() - pos) {
        return false;
    }
    r.stamp.epoch = static_cast<std::uint32_t>(epoch);
    r.value = block.substr(pos, value_len);
    pos += value_len;
    return true;
}

}  // namespace

// --------------------------------------------------------------- SstWriter

SstWriter::SstWriter(std::string path, std::uint64_t file_number, std::size_t block_bytes,
                     bool compress_blocks, std::size_t expected_bytes)
    : path_(std::move(path)), block_bytes_(block_bytes), compress_blocks_(compress_blocks) {
    meta_.file_number = file_number;
    meta_.tombstone_free = true;  // until add() writes one
    // 1/8 of headroom for the entry that crosses the estimate; padding a
    // block for the codecs needs up to 7 bytes past it.
    file_contents_.reserve(expected_bytes + expected_bytes / 8);
    current_block_.reserve(block_bytes_ + 8);
    index_.assign(8, '\0');
}

Status SstWriter::add(std::string_view key, const Stamp& stamp, std::string_view value,
                      bool tombstone) {
    if (have_last_ && key <= last_key_) {
        return Status::InvalidArgument("SstWriter::add keys must be strictly increasing");
    }
    if (tombstone) {
        value = {};
        meta_.tombstone_free = false;
    }
    std::size_t shared = 0;
    if (block_entries_ % kRestartInterval == 0) {
        restarts_.push_back(static_cast<std::uint32_t>(current_block_.size()));
    } else {
        shared = shared_prefix(last_key_, key);
    }
    unsigned char head[30];
    unsigned char* p = compress::put_varint(head, shared);
    p = compress::put_varint(p, key.size() - shared);
    p = compress::put_varint(p, (std::uint64_t{value.size()} << 1) | (tombstone ? 1 : 0));
    current_block_.append(reinterpret_cast<const char*>(head), p - head);
    current_block_.append(key.substr(shared));
    p = compress::put_varint(head, stamp.seq);
    p = compress::put_varint(p, stamp.epoch);
    current_block_.append(reinterpret_cast<const char*>(head), p - head);
    current_block_.append(value);

    if (!have_last_) meta_.min_key.assign(key);
    last_key_.assign(key);
    have_last_ = true;
    key_hashes_.push_back(BloomFilter::hash(key));
    ++block_entries_;
    ++meta_.entries;
    if (current_block_.size() >= block_bytes_) cut_block();
    return Status::OK();
}

std::size_t SstWriter::encoded_bytes() const noexcept {
    return file_contents_.size() + kBlockEnvelopeHeader + current_block_.size() +
           index_.size() + BloomFilter::encoded_size_for(meta_.entries) + kFooterBytes;
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
    append_u64(file_contents_, kSstMagic);

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

    char footer[kFooterBytes];
    if (file_size < kFooterBytes ||
        !reader->pread_exact(footer, kFooterBytes, file_size - kFooterBytes).ok()) {
        return Status::Corruption("cannot read sstable footer: " + path);
    }
    if (read_u64(footer + 48) != kSstMagic) {
        return Status::Corruption("bad sstable magic: " + path);
    }
    const std::uint64_t index_off = read_u64(footer);
    const std::uint64_t index_size = read_u64(footer + 8);
    const std::uint64_t bloom_off = read_u64(footer + 16);
    const std::uint64_t bloom_size = read_u64(footer + 24);
    reader->entry_count_ = read_u64(footer + 32);
    // footer + 40 holds the flags word (bit 0: compression requested).
    if (index_off > file_size || index_size > file_size - index_off || bloom_off > file_size ||
        bloom_size > file_size - bloom_off) {
        return Status::Corruption("sstable footer points past the file: " + path);
    }

    // Index.
    std::string index_bytes(index_size, '\0');
    if (!reader->pread_exact(index_bytes.data(), index_size, index_off).ok()) {
        return Status::Corruption("cannot read sstable index: " + path);
    }
    if (index_size < 8) return Status::Corruption("sstable index truncated: " + path);
    const std::uint64_t n = read_u64(index_bytes.data());
    std::size_t pos = 8;
    const auto truncated = [&] { return Status::Corruption("sstable index truncated: " + path); };
    for (std::uint64_t i = 0; i < n; ++i) {
        if (pos + 4 > index_bytes.size()) return truncated();
        const std::uint32_t klen = read_u32(index_bytes.data() + pos);
        pos += 4;
        if (klen + std::size_t{28} > index_bytes.size() - pos) return truncated();
        IndexEntry e;
        e.last_key.assign(index_bytes.data() + pos, klen);
        pos += klen;
        e.offset = read_u64(index_bytes.data() + pos);
        e.size = read_u64(index_bytes.data() + pos + 8);
        e.crc = read_u32(index_bytes.data() + pos + 16);
        e.raw_len = read_u32(index_bytes.data() + pos + 20);
        const std::uint32_t bloom_len = read_u32(index_bytes.data() + pos + 24);
        pos += 28;
        if (bloom_len + std::size_t{4} > index_bytes.size() - pos) return truncated();
        if (bloom_len > 0) {
            e.bloom = BloomFilter::decode({index_bytes.data() + pos, bloom_len});
            e.has_bloom = true;
        }
        pos += bloom_len;
        const std::uint32_t n_restarts = read_u32(index_bytes.data() + pos);
        pos += 4;
        if (std::size_t{n_restarts} * 4 > index_bytes.size() - pos) return truncated();
        e.restarts.resize(n_restarts);
        std::memcpy(e.restarts.data(), index_bytes.data() + pos, std::size_t{n_restarts} * 4);
        pos += std::size_t{n_restarts} * 4;
        // Restarts start the block and rise strictly inside it, so every
        // offset a lookup jumps to lies within the decoded block.
        bool restarts_ok = !e.restarts.empty() && e.restarts[0] == 0;
        for (std::size_t r = 1; restarts_ok && r < e.restarts.size(); ++r) {
            restarts_ok = e.restarts[r - 1] < e.restarts[r];
        }
        if (!restarts_ok || e.restarts.back() >= e.raw_len) {
            return Status::Corruption("sstable block has bad restart offsets: " + path);
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
    if (cache_) stored = cache_->lookup(BlockCache::kCompressed, file_number_, idx);
    if (!stored) {
        if (cache_) cache_->note_miss();
        auto fresh = std::make_shared<std::string>(e.size, '\0');
        Status st = read_stored(idx, fresh->data());
        if (!st.ok()) return st;
        if (cache_) {
            cache_->note_disk_read(fresh->size());
            cache_->insert(BlockCache::kCompressed, file_number_, idx, fresh);
        }
        stored = std::move(fresh);
    }

    if (block_is_compressed(*stored) && cache_) cache_->note_decompression();
    // A compressed block decodes straight into the string the cache keeps;
    // a raw one is copied out of its envelope.
    auto block = std::make_shared<std::string>();
    auto raw = decode_block(*stored, [&block](std::size_t n) {
        block->resize(n);
        return block->data();
    });
    if (!raw.ok()) return Status::Corruption(raw.status().message() + " in " + path_);
    if (raw->size() != e.raw_len) {
        return Status::Corruption("sstable block size disagrees with its index in " + path_);
    }
    if (raw->data() == block->data()) block->resize(raw->size());
    else block->assign(*raw);
    if (cache_) cache_->insert(BlockCache::kDecoded, file_number_, idx, block);
    return std::shared_ptr<const std::string>(std::move(block));
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

Result<std::size_t> SstReader::seek_restart(const IndexEntry& e, std::string_view block,
                                            std::string_view key) const {
    // Largest restart whose key <= target, so the linear scan that follows
    // touches at most kRestartInterval records. Restart records hold their
    // whole key (shared == 0).
    std::size_t lo = 0, hi = e.restarts.size();
    while (lo + 1 < hi) {
        const std::size_t mid = (lo + hi) / 2;
        std::size_t pos = e.restarts[mid];
        Record r;
        if (!decode_record(block, pos, r) || r.shared != 0) {
            return Status::Corruption("sstable restart point is not a full key in " + path_);
        }
        if (r.suffix <= key) lo = mid;
        else hi = mid;
    }
    return std::size_t{e.restarts[lo]};
}

Result<TableHit> SstReader::get(std::string_view key, std::uint64_t hash) {
    if (!bloom_.may_contain_hash(hash)) return Status::NotFound("bloom miss");
    const std::size_t blk_idx = find_block(key);
    if (blk_idx >= index_.size()) return Status::NotFound("beyond last block");
    const IndexEntry& e = index_[blk_idx];
    // Per-block filter: a miss here skips the block fetch (and any decode).
    if (e.has_bloom && !e.bloom.may_contain_hash(hash)) {
        return Status::NotFound("block bloom miss");
    }
    auto blk = read_block(blk_idx);
    if (!blk.ok()) return blk.status();
    const std::string_view data = **blk;
    auto start = seek_restart(e, data, key);
    if (!start.ok()) return start.status();

    // Walk forward comparing each record with `key` without rebuilding it:
    // `matched` is the common prefix of the previous key and `key`, and the
    // previous key sorts below `key`. A record sharing fewer bytes than that
    // leaves the previous key upward where it still matched `key`, so it
    // sorts above `key`; one sharing more sorts below it.
    std::size_t pos = *start, prev_len = 0, matched = 0;
    while (pos < data.size()) {
        Record r;
        if (!decode_record(data, pos, r) || r.shared > prev_len) {
            return Status::Corruption("sstable record overruns its block in " + path_);
        }
        if (r.shared < matched) break;
        if (r.shared == matched) {
            const std::string_view rest = key.substr(matched);
            const std::size_t n = shared_prefix(r.suffix, rest);
            matched += n;
            if (n == r.suffix.size() && n == rest.size()) {
                TableHit hit;
                hit.stamp = r.stamp;
                if (!r.tombstone) hit.value.emplace(r.value);
                return hit;
            }
            if (n == rest.size() ||
                (n < r.suffix.size() && static_cast<unsigned char>(r.suffix[n]) >
                                            static_cast<unsigned char>(rest[n]))) {
                break;  // sorted within the block: past `key`
            }
        }
        prev_len = r.shared + r.suffix.size();
    }
    return Status::NotFound("key not in block");
}

// ------------------------------------------------------ SstReader::Iterator

Status SstReader::Iterator::load_block(std::size_t block_idx) {
    block_idx_ = block_idx;
    pos_ = 0;
    valid_ = false;
    block_ = {};
    key_len_ = 0;
    if (block_idx_ >= reader_->index_.size()) return Status::OK();  // exhausted
    if (cached_) {
        auto blk = reader_->read_block(block_idx_);
        if (!blk.ok()) return blk.status();
        pinned_ = std::move(blk.value());
        block_ = *pinned_;
        return Status::OK();
    }
    const IndexEntry& e = reader_->index_[block_idx_];
    char* stored = stored_.reserve(e.size);
    Status st = reader_->read_stored(block_idx_, stored);
    if (!st.ok()) return st;
    auto raw = decode_block(std::string_view(stored, e.size), decoded_);
    if (!raw.ok()) return Status::Corruption(raw.status().message() + " in " + reader_->path_);
    if (raw->size() != e.raw_len) {
        return Status::Corruption("sstable block size disagrees with its index in " +
                                  reader_->path_);
    }
    block_ = *raw;
    return Status::OK();
}

Status SstReader::Iterator::parse_next(bool& got) {
    got = false;
    if (pos_ >= block_.size()) return Status::OK();
    Record r;
    if (!decode_record(block_, pos_, r) || r.shared > key_len_) {
        return Status::Corruption("sstable record overruns its block in " + reader_->path_);
    }
    key_len_ = r.shared + r.suffix.size();
    if (key_len_ > key_.size()) key_.resize(std::max(key_len_, 2 * key_.size()));
    std::memcpy(key_.data() + r.shared, r.suffix.data(), r.suffix.size());
    value_ = r.value;
    stamp_ = r.stamp;
    tombstone_ = r.tombstone;
    got = true;
    return Status::OK();
}

Status SstReader::Iterator::seek(std::string_view bound, bool inclusive) {
    valid_ = false;
    std::size_t blk = reader_->find_block(bound);
    // find_block gives the first block whose last_key >= bound; the block's
    // records before the bound are skipped from the restart at or below it.
    for (bool first = true; blk < reader_->index_.size(); ++blk, first = false) {
        Status st = load_block(blk);
        if (!st.ok()) return st;
        if (first) {
            auto start = reader_->seek_restart(reader_->index_[blk], block_, bound);
            if (!start.ok()) return start.status();
            pos_ = *start;
        }
        bool got = false;
        while (true) {
            st = parse_next(got);
            if (!st.ok()) return st;
            if (!got) break;
            if (inclusive ? key() >= bound : key() > bound) {
                valid_ = true;
                return Status::OK();
            }
        }
    }
    return Status::OK();  // exhausted: !valid()
}

Status SstReader::Iterator::next() {
    valid_ = false;
    while (true) {
        bool got = false;
        Status st = parse_next(got);
        if (!st.ok()) return st;
        if (got) {
            valid_ = true;
            return Status::OK();
        }
        if (block_idx_ + 1 >= reader_->index_.size()) return Status::OK();
        st = load_block(block_idx_ + 1);
        if (!st.ok()) return st;
    }
}

}  // namespace hep::yokan::lsm
