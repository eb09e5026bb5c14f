// RPC surface of the monitoring component: expose a MetricsRegistry so any
// client can poll a service process for its live metrics.
//
// The "symbio_fetch" RPC dispatches on its request payload:
//   "stats_all"      — merged snapshot: every counter/gauge/histogram and
//                      every registered source in one blob, plus the
//                      serving process identity ("server", "sources_n") so
//                      a scraper can tell which process answered
//   "source:<name>"  — just that source's snapshot (cheap: other source
//                      closures are not evaluated)
// Any other payload, the empty one included, is InvalidArgument.
#pragma once

#include <memory>
#include <string>

#include "margo/engine.hpp"
#include "symbio/metrics.hpp"

namespace hep::symbio {

class Provider final : public margo::Provider {
  public:
    Provider(margo::Engine& engine, rpc::ProviderId id,
             std::shared_ptr<MetricsRegistry> registry)
        : margo::Provider(engine, id), registry_(std::move(registry)) {
        engine_.define_raw(
            "symbio_fetch", id_, [this](const std::string& request) -> Result<std::string> {
                if (request == "stats_all") {
                    json::Value out = registry_->snapshot();
                    out["server"] = engine_.address();
                    out["sources_n"] =
                        static_cast<std::uint64_t>(registry_->source_names().size());
                    return out.dump();
                }
                if (request.rfind("source:", 0) == 0) {
                    json::Value v = registry_->source_snapshot(request.substr(7));
                    if (v.is_null()) {
                        return Status::NotFound("no symbio source \"" + request.substr(7) +
                                                '"');
                    }
                    return v.dump();
                }
                return Status::InvalidArgument("unknown symbio_fetch request \"" + request +
                                               '"');
            });
    }

    [[nodiscard]] MetricsRegistry& registry() noexcept { return *registry_; }

  private:
    std::shared_ptr<MetricsRegistry> registry_;
};

/// Client side: merged one-RPC snapshot of everything the server
/// registered, stamped with the server identity.
inline Result<json::Value> fetch_all(margo::Engine& engine, const std::string& server,
                                     rpc::ProviderId provider_id) {
    auto raw = engine.endpoint().call(server, "symbio_fetch", provider_id, "stats_all");
    if (!raw.ok()) return raw.status();
    return json::parse(*raw);
}

/// One named source only.
inline Result<json::Value> fetch_source(margo::Engine& engine, const std::string& server,
                                        rpc::ProviderId provider_id,
                                        const std::string& source) {
    auto raw = engine.endpoint().call(server, "symbio_fetch", provider_id, "source:" + source);
    if (!raw.ok()) return raw.status();
    return json::parse(*raw);
}

}  // namespace hep::symbio
