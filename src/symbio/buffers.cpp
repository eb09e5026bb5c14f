#include "symbio/buffers.hpp"

#include "common/buffer.hpp"

namespace hep::symbio {

void add_buffer_source(MetricsRegistry& registry) {
    registry.add_source("buffers", []() {
        const auto& c = hep::buffer_counters();
        const std::uint64_t allocations = c.allocations.load(std::memory_order_relaxed);
        const std::uint64_t allocated = c.allocated_bytes.load(std::memory_order_relaxed);
        const std::uint64_t copies = c.copies.load(std::memory_order_relaxed);
        const std::uint64_t copied = c.bytes_copied.load(std::memory_order_relaxed);
        const std::uint64_t adoptions = c.adoptions.load(std::memory_order_relaxed);
        const std::uint64_t flattens = c.flattens.load(std::memory_order_relaxed);
        const std::uint64_t chains = c.chains_sent.load(std::memory_order_relaxed);
        const std::uint64_t segments = c.chain_segments_sent.load(std::memory_order_relaxed);
        const std::uint64_t undersized = c.undersized_receives.load(std::memory_order_relaxed);
        json::Value out = json::Value::make_object();
        out["allocations"] = json::Value(allocations);
        out["allocated_bytes"] = json::Value(allocated);
        out["copies"] = json::Value(copies);
        out["bytes_copied"] = json::Value(copied);
        out["adoptions"] = json::Value(adoptions);
        out["flattens"] = json::Value(flattens);
        out["chains_sent"] = json::Value(chains);
        out["chain_segments_sent"] = json::Value(segments);
        out["undersized_receives"] = json::Value(undersized);
        out["avg_chain_depth"] =
            json::Value(chains == 0 ? 0.0
                                    : static_cast<double>(segments) / static_cast<double>(chains));
        out["bytes_copied_per_alloc"] =
            json::Value(allocations == 0
                            ? 0.0
                            : static_cast<double>(copied) / static_cast<double>(allocations));
        return out;
    });
}

}  // namespace hep::symbio
