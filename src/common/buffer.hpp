// Refcounted byte buffers and iovec-style scatter-gather chains.
//
// One ownership model for the whole write/read path: a product is serialized
// once into a Buffer, sliced into BufferViews, and those views travel through
// the RPC payload, the fabric framing, and into the Yokan backend without
// being copied again. The paper's strong-scaling wins come from keeping event
// products on the fast path between client and Yokan (§II-B); copying them at
// every layer boundary would throw that away.
//
//   Buffer       refcounted owner of a byte region (shared_ptr storage).
//   BufferView   ptr+len slice; optionally anchored to the owning storage so
//                the bytes outlive whoever produced them.
//   BufferChain  ordered sequence of views (scatter-gather list / iovec).
//
// Lifetime rule: a view that crosses a scheduling boundary (RPC queue, ULT
// handler, backend store) MUST be owning (anchored). Borrowed views are only
// legal while their source is provably alive, i.e. within one call frame.
// BufferChain::ensure_owned() promotes borrowed segments by copying.
//
// Every real memcpy through this layer is accounted in BufferCounters so the
// zero-copy refactor is observable (symbio "buffers" source, abl_zerocopy).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hep {

/// Process-global accounting of buffer traffic (all counters monotonic).
struct BufferCounters {
    std::atomic<std::uint64_t> allocations{0};     // fresh storage allocations
    std::atomic<std::uint64_t> allocated_bytes{0};
    std::atomic<std::uint64_t> copies{0};          // memcpy events
    std::atomic<std::uint64_t> bytes_copied{0};    // bytes moved by memcpy
    std::atomic<std::uint64_t> adoptions{0};       // zero-copy string takeovers
    std::atomic<std::uint64_t> flattens{0};        // chain -> contiguous rebuilds
    std::atomic<std::uint64_t> chains_sent{0};     // payload chains shipped
    std::atomic<std::uint64_t> chain_segments_sent{0};
    std::atomic<std::uint64_t> undersized_receives{0};  // receive buffers re-posted larger
};

BufferCounters& buffer_counters() noexcept;
void reset_buffer_counters() noexcept;

/// Account one memcpy of `n` bytes (call where the memcpy actually happens).
inline void count_buffer_copy(std::size_t n) noexcept {
    auto& c = buffer_counters();
    c.copies.fetch_add(1, std::memory_order_relaxed);
    c.bytes_copied.fetch_add(n, std::memory_order_relaxed);
}

inline void count_buffer_alloc(std::size_t n) noexcept {
    auto& c = buffer_counters();
    c.allocations.fetch_add(1, std::memory_order_relaxed);
    c.allocated_bytes.fetch_add(n, std::memory_order_relaxed);
}

inline void count_chain_sent(std::size_t segments) noexcept {
    auto& c = buffer_counters();
    c.chains_sent.fetch_add(1, std::memory_order_relaxed);
    c.chain_segments_sent.fetch_add(segments, std::memory_order_relaxed);
}

class BufferView;

/// Refcounted owner of an immutable-after-publish byte region. Copying a
/// Buffer bumps a refcount; the bytes are shared, never duplicated.
class Buffer {
  public:
    Buffer() = default;

    /// Fresh zero-initialized storage of `n` bytes.
    static Buffer allocate(std::size_t n) {
        count_buffer_alloc(n);
        return Buffer(std::make_shared<std::string>(n, '\0'));
    }

    /// Owning copy of `bytes` (the one place a copy is the point).
    static Buffer copy_of(std::string_view bytes) {
        count_buffer_alloc(bytes.size());
        count_buffer_copy(bytes.size());
        return Buffer(std::make_shared<std::string>(bytes));
    }

    /// Take ownership of an existing string without copying.
    static Buffer adopt(std::string&& bytes) {
        buffer_counters().adoptions.fetch_add(1, std::memory_order_relaxed);
        return Buffer(std::make_shared<std::string>(std::move(bytes)));
    }

    /// Share `storage` directly (used by deserialization to re-share a
    /// whole-buffer view instead of copying it).
    explicit Buffer(std::shared_ptr<std::string> storage) : storage_(std::move(storage)) {}

    [[nodiscard]] bool valid() const noexcept { return storage_ != nullptr; }
    [[nodiscard]] std::size_t size() const noexcept { return storage_ ? storage_->size() : 0; }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const char* data() const noexcept {
        return storage_ ? storage_->data() : nullptr;
    }
    /// Mutable access is only safe before the buffer is published (shared).
    [[nodiscard]] char* mutable_data() noexcept {
        return storage_ ? storage_->data() : nullptr;
    }
    [[nodiscard]] std::string_view sv() const noexcept {
        return storage_ ? std::string_view(*storage_) : std::string_view{};
    }
    [[nodiscard]] const std::shared_ptr<std::string>& storage() const noexcept {
        return storage_;
    }

    /// Anchored view over the whole buffer (or a slice of it).
    [[nodiscard]] BufferView view() const noexcept;
    [[nodiscard]] BufferView view(std::size_t offset, std::size_t len) const noexcept;

    /// Move the bytes out as a std::string. Zero-copy when this Buffer is the
    /// sole owner; otherwise a counted copy.
    [[nodiscard]] std::string release() && {
        if (!storage_) return {};
        if (storage_.use_count() == 1) {
            std::string out = std::move(*storage_);
            storage_.reset();
            return out;
        }
        count_buffer_copy(storage_->size());
        return *storage_;
    }

  private:
    std::shared_ptr<std::string> storage_;
};

/// A (ptr, len) slice, optionally anchored to the storage that owns the
/// bytes. owning() == false means borrowed: valid only while the source is.
class BufferView {
  public:
    BufferView() = default;
    /// Borrowed view (no lifetime anchor).
    explicit BufferView(std::string_view bytes) : data_(bytes.data()), size_(bytes.size()) {}
    /// Anchored view.
    BufferView(const char* data, std::size_t size, std::shared_ptr<std::string> owner)
        : data_(data), size_(size), owner_(std::move(owner)) {}
    /// Anchored view over a whole Buffer.
    explicit BufferView(const Buffer& buffer)
        : data_(buffer.data()), size_(buffer.size()), owner_(buffer.storage()) {}

    [[nodiscard]] const char* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::string_view sv() const noexcept { return {data_, size_}; }
    [[nodiscard]] bool owning() const noexcept { return owner_ != nullptr || size_ == 0; }
    [[nodiscard]] const std::shared_ptr<std::string>& owner() const noexcept { return owner_; }

    [[nodiscard]] BufferView slice(std::size_t offset, std::size_t len) const noexcept {
        if (offset > size_) offset = size_;
        if (len > size_ - offset) len = size_ - offset;
        return BufferView(data_ + offset, len, owner_);
    }

    /// An owning equivalent: this view if already anchored, else a counted
    /// copy into fresh storage.
    [[nodiscard]] BufferView to_owned() const {
        if (owning()) return *this;
        return BufferView(Buffer::copy_of(sv()));
    }

  private:
    const char* data_ = nullptr;
    std::size_t size_ = 0;
    std::shared_ptr<std::string> owner_;
};

inline BufferView Buffer::view() const noexcept {
    return BufferView(data(), size(), storage_);
}

inline BufferView Buffer::view(std::size_t offset, std::size_t len) const noexcept {
    const std::size_t n = size();
    if (offset > n) offset = n;
    if (len > n - offset) len = n - offset;
    return BufferView(data() + offset, len, storage_);
}

/// Ordered scatter-gather list of views — the payload type of the RPC layer.
/// Appending is O(1) and never copies bytes; flatten()/into_string() are the
/// explicit (counted) points where contiguity is bought back.
class BufferChain {
  public:
    BufferChain() = default;

    void append(BufferView view) {
        if (view.empty()) return;
        size_ += view.size();
        segments_.push_back(std::move(view));
    }
    void append(const Buffer& buffer) { append(buffer.view()); }
    void append(const BufferChain& chain) {
        segments_.reserve(segments_.size() + chain.segments_.size());
        for (const auto& seg : chain.segments_) append(seg);
    }
    /// Copy `bytes` into fresh owned storage and append it (counted).
    void append_copy(std::string_view bytes) {
        if (bytes.empty()) return;
        append(BufferView(Buffer::copy_of(bytes)));
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    /// Number of segments (the "chain depth" the symbio source reports).
    [[nodiscard]] std::size_t depth() const noexcept { return segments_.size(); }
    [[nodiscard]] const std::vector<BufferView>& segments() const noexcept { return segments_; }

    void clear() noexcept {
        segments_.clear();
        size_ = 0;
    }

    /// Copy all bytes into `out` (must hold size() bytes). Counted.
    void copy_to(char* out) const {
        for (const auto& seg : segments_) {
            std::memcpy(out, seg.data(), seg.size());
            out += seg.size();
        }
        count_buffer_copy(size_);
    }

    /// Contiguous copy of the whole chain (counted as a flatten).
    [[nodiscard]] std::string flatten() const {
        buffer_counters().flattens.fetch_add(1, std::memory_order_relaxed);
        std::string out;
        out.resize(size_);
        if (size_ > 0) copy_to(out.data());
        return out;
    }

    /// Contiguous bytes, moving instead of copying when the chain is a single
    /// segment covering the whole of a uniquely-owned buffer.
    [[nodiscard]] std::string into_string() && {
        if (segments_.size() == 1) {
            const BufferView& seg = segments_.front();
            const auto& owner = seg.owner();
            if (owner && owner.use_count() == 1 && seg.data() == owner->data() &&
                seg.size() == owner->size()) {
                std::string out = std::move(*owner);
                clear();
                return out;
            }
        }
        std::string out = flatten();
        clear();
        return out;
    }

    /// Sub-range [offset, offset+len) as a chain of (anchored) sub-views.
    [[nodiscard]] BufferChain slice(std::size_t offset, std::size_t len) const {
        BufferChain out;
        for (const auto& seg : segments_) {
            if (len == 0) break;
            if (offset >= seg.size()) {
                offset -= seg.size();
                continue;
            }
            const std::size_t take = std::min(len, seg.size() - offset);
            out.append(seg.slice(offset, take));
            offset = 0;
            len -= take;
        }
        return out;
    }

    [[nodiscard]] bool fully_owned() const noexcept {
        for (const auto& seg : segments_) {
            if (!seg.owning()) return false;
        }
        return true;
    }

    /// Promote borrowed segments to owned copies. Required before the chain
    /// crosses a scheduling boundary (RPC queue / ULT switch).
    void ensure_owned() {
        for (auto& seg : segments_) {
            if (!seg.owning()) seg = seg.to_owned();
        }
    }

  private:
    std::vector<BufferView> segments_;
    std::size_t size_ = 0;
};

}  // namespace hep
