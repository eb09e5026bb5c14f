#include "symbio/metrics.hpp"

namespace hep::symbio {

void MetricsRegistry::add_source(const std::string& name, std::function<json::Value()> fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    sources_[name] = std::move(fn);
}

json::Value MetricsRegistry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value out = json::Value::make_object();
    json::Value sources = json::Value::make_object();
    for (const auto& [name, fn] : sources_) sources[name] = fn();
    out["sources"] = std::move(sources);
    return out;
}

json::Value MetricsRegistry::source_snapshot(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sources_.find(name);
    if (it == sources_.end()) return json::Value();  // null: no such source
    return it->second();
}

std::vector<std::string> MetricsRegistry::source_names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(sources_.size());
    for (const auto& [name, fn] : sources_) names.push_back(name);
    return names;
}

}  // namespace hep::symbio
