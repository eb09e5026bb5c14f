#include "common/buffer.hpp"

namespace hep {

BufferCounters& buffer_counters() noexcept {
    static BufferCounters counters;
    return counters;
}

void reset_buffer_counters() noexcept {
    auto& c = buffer_counters();
    c.allocations.store(0, std::memory_order_relaxed);
    c.allocated_bytes.store(0, std::memory_order_relaxed);
    c.copies.store(0, std::memory_order_relaxed);
    c.bytes_copied.store(0, std::memory_order_relaxed);
    c.adoptions.store(0, std::memory_order_relaxed);
    c.flattens.store(0, std::memory_order_relaxed);
    c.chains_sent.store(0, std::memory_order_relaxed);
    c.chain_segments_sent.store(0, std::memory_order_relaxed);
    c.undersized_receives.store(0, std::memory_order_relaxed);
}

}  // namespace hep
