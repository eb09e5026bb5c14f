// Shared test helper: boot an N-server HEPnOS service on a private fabric
// and produce the merged client connection document.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bedrock/service.hpp"
#include "common/json.hpp"
#include "rpc/network.hpp"

namespace hep::test_util {

struct TestServiceOptions {
    std::size_t num_servers = 1;
    std::size_t dbs_per_role = 2;     // per server, for runs/subruns/events/products
    std::string backend = "map";      // "map" or "lsm"
    std::string base_dir = ".";      // anchor for lsm paths
    std::size_t rpc_xstreams = 2;
    std::size_t replication_factor = 1;  // >= 2 turns on primary-backup replication
    bool read_from_replicas = false;     // let reads rotate across backups
    bool monitoring = false;             // expose a symbio provider (id 99)
    bool query_pushdown = false;         // co-locate query providers (src/query)
    json::Value qos{};                   // non-null: passed through as the "qos" knob
    json::Value cache{};                 // non-null: passed through as the "cache" knob
    bool cache_tier = false;             // add a cache provider (id 90) per server
    json::Value columnar{};              // non-null: passed through as the "columnar" knob
};

/// Builds the bedrock JSON for one server.
inline json::Value make_server_config(const TestServiceOptions& opts, std::size_t server_index) {
    json::Value cfg = json::Value::make_object();
    cfg["address"] = "hepnos-server-" + std::to_string(server_index);
    cfg["margo"]["rpc_xstreams"] = opts.rpc_xstreams;
    json::Value providers = json::Value::make_array();
    json::Value provider = json::Value::make_object();
    provider["type"] = "yokan";
    provider["provider_id"] = 1;
    json::Value dbs = json::Value::make_array();
    auto add_db = [&](const std::string& role, std::size_t index) {
        json::Value db = json::Value::make_object();
        const std::string name = role + "-" + std::to_string(server_index) + "-" +
                                 std::to_string(index);
        db["name"] = name;
        db["role"] = role;
        db["type"] = opts.backend;
        if (opts.backend == "lsm") {
            db["path"] = "s" + std::to_string(server_index) + "/" + name;
            db["memtable_bytes"] = 64 * 1024;
        }
        dbs.push_back(std::move(db));
    };
    add_db("datasets", 0);  // one datasets db per server is plenty
    for (std::size_t i = 0; i < opts.dbs_per_role; ++i) add_db("runs", i);
    for (std::size_t i = 0; i < opts.dbs_per_role; ++i) add_db("subruns", i);
    for (std::size_t i = 0; i < opts.dbs_per_role; ++i) add_db("events", i);
    for (std::size_t i = 0; i < opts.dbs_per_role; ++i) add_db("products", i);
    provider["config"]["databases"] = std::move(dbs);
    providers.push_back(std::move(provider));
    if (opts.cache_tier) {
        json::Value cp = json::Value::make_object();
        cp["type"] = "cache";
        cp["provider_id"] = 90;
        providers.push_back(std::move(cp));
    }
    cfg["providers"] = std::move(providers);
    if (opts.replication_factor > 1) {
        cfg["replication"]["factor"] = opts.replication_factor;
        cfg["replication"]["read_from_replicas"] = opts.read_from_replicas;
    }
    if (opts.monitoring) cfg["monitoring"]["provider_id"] = 99;
    if (opts.query_pushdown) cfg["query"]["enabled"] = true;
    if (!opts.qos.is_null()) cfg["qos"] = opts.qos;
    if (!opts.cache.is_null()) cfg["cache"] = opts.cache;
    if (!opts.columnar.is_null()) cfg["columnar"] = opts.columnar;
    return cfg;
}

class TestService {
  public:
    explicit TestService(TestServiceOptions opts = {}) {
        std::vector<json::Value> descriptors;
        for (std::size_t s = 0; s < opts.num_servers; ++s) {
            auto cfg = make_server_config(opts, s);
            auto svc = bedrock::ServiceProcess::create(network, cfg, opts.base_dir);
            if (!svc.ok()) {
                throw std::runtime_error("TestService boot failed: " +
                                         svc.status().to_string());
            }
            descriptors.push_back((*svc)->descriptor());
            servers.push_back(std::move(svc.value()));
        }
        connection = bedrock::merge_descriptors(descriptors);
    }

    /// Simulate a crash-restart of one server: tear it down (its endpoints
    /// leave the fabric; a map backend loses all its state) and boot a fresh
    /// process with the same configuration on the same address. The merged
    /// connection document stays valid — names and addresses are unchanged.
    void restart_server(std::size_t index, const TestServiceOptions& opts) {
        servers.at(index).reset();
        auto cfg = make_server_config(opts, index);
        auto svc = bedrock::ServiceProcess::create(network, cfg, opts.base_dir);
        if (!svc.ok()) {
            throw std::runtime_error("TestService restart failed: " + svc.status().to_string());
        }
        servers[index] = std::move(svc.value());
    }

    rpc::Network network;
    std::vector<std::unique_ptr<bedrock::ServiceProcess>> servers;
    json::Value connection;
};

}  // namespace hep::test_util
