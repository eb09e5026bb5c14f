// symbio: a monitoring component in the spirit of Symbiomon (paper §V):
//
// "HEPnOS has been used throughout its development by other teams to study
//  various aspects of data services, including work on monitoring and
//  performance diagnostics [Symbiomon]. The former helped diagnose
//  performance problems in early development of HEPnOS and led to some of
//  the optimizations listed in this work (batching, parallel event
//  processing)."
//
// A MetricsRegistry holds pull-based "sources": closures snapshotting a
// subsystem (a Yokan database's BackendStats, the QoS controller, a lease
// cache), each of which keeps its own counters and hep::Histogram latencies.
// A symbio::Provider exposes the registry over RPC so operators can poll any
// service process; symbio::fetch_all is the client side.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace hep::symbio {

class MetricsRegistry {
  public:
    /// Pull-based source: snapshot() calls `fn` and embeds its value under
    /// sources/<name>. Use for subsystems that keep their own stats.
    void add_source(const std::string& name, std::function<json::Value()> fn);

    /// Full snapshot: {sources: {<name>: <that source's value>, ...}}.
    [[nodiscard]] json::Value snapshot() const;

    /// Snapshot of a single registered source ({} + NotFound status encoded
    /// as a null value if no such source). Lets pollers that only care about
    /// one subsystem skip the cost of evaluating every source closure.
    [[nodiscard]] json::Value source_snapshot(const std::string& name) const;

    /// Names of every registered source, sorted.
    [[nodiscard]] std::vector<std::string> source_names() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::function<json::Value()>> sources_;
};

}  // namespace hep::symbio
