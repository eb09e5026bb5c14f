// Figure-1 walk-through: the HEPnOS architecture, component by component.
//
// Boots a multi-process HEPnOS deployment the way the paper describes it —
// Bedrock reads a JSON service description, spins up Margo engines (Mercury
// RPC + Argobots pools/xstreams) and Yokan providers with their databases —
// then pokes each architectural layer directly:
//
//   client API  ->  Yokan client (RPC + bulk)  ->  provider  ->  backend
//
//   ./examples/bedrock_service
#include <cstdio>

#include "bedrock/service.hpp"
#include "hepnos/hepnos.hpp"
#include "yokan/client.hpp"

int main() {
    using namespace hep;

    // The paper's per-server shape, scaled down: dedicated pools per provider
    // ("each [provider] mapped to its [own] execution stream"), separate
    // event/product databases, configurable backend per database.
    const char* service_json = R"({
      "address": "theta-nid0",
      "log_level": "warn",
      "margo": { "rpc_xstreams": 4 },
      "providers": [
        { "type": "yokan", "provider_id": 1,
          "pool": { "name": "meta-pool", "xstreams": 1 },
          "config": { "databases": [
            { "name": "datasets", "type": "map", "role": "datasets" },
            { "name": "runs",     "type": "map", "role": "runs" },
            { "name": "subruns",  "type": "map", "role": "subruns" } ] } },
        { "type": "yokan", "provider_id": 2,
          "pool": { "name": "event-pool", "xstreams": 2 },
          "config": { "databases": [
            { "name": "events-0", "type": "map", "role": "events" },
            { "name": "events-1", "type": "map", "role": "events" } ] } },
        { "type": "yokan", "provider_id": 3,
          "pool": { "name": "product-pool", "xstreams": 2 },
          "config": { "databases": [
            { "name": "products-0", "type": "map", "role": "products" },
            { "name": "products-1", "type": "map", "role": "products" } ] } }
      ]
    })";

    rpc::Network network;  // the fabric (libfabric/uGNI substitute)
    auto config = json::parse(service_json);
    if (!config.ok()) {
        std::fprintf(stderr, "bad config: %s\n", config.status().to_string().c_str());
        return 1;
    }
    auto service = bedrock::ServiceProcess::create(network, *config);
    if (!service.ok()) {
        std::fprintf(stderr, "bedrock boot failed: %s\n",
                     service.status().to_string().c_str());
        return 1;
    }
    std::printf("Bedrock booted '%s' from JSON:\n", (*service)->address().c_str());
    for (const auto& db : (*service)->databases()) {
        std::printf("  provider %u  db %-12s role %s\n", db.provider_id, db.name.c_str(),
                    db.role.c_str());
    }

    // --- layer 1: raw Yokan client (what HEPnOS is built on) -------------------
    margo::Engine client(network, "client-nid1");
    yokan::DatabaseHandle events(client, "theta-nid0", 2, "events-0");
    (void)events.put("raw-key", "raw-value");
    std::printf("\nYokan layer: put/get over RPC -> '%s'\n", events.get("raw-key")->c_str());

    std::vector<yokan::BatchItem> batch;
    for (int i = 0; i < 1000; ++i) {
        batch.push_back({"bulk-key-" + std::to_string(i), hep::Buffer::copy_of("v")});
    }
    auto stored = events.put_multi(batch);
    const auto stats = network.stats();
    std::printf("Yokan batch layer: put_multi stored %llu pairs — %llu RPC messages, "
                "%llu bulk transfer(s), %llu bulk bytes so far\n",
                static_cast<unsigned long long>(*stored),
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.bulk_transfers),
                static_cast<unsigned long long>(stats.bulk_bytes));

    // --- layer 2: the HEPnOS client API on top ---------------------------------
    auto store = hepnos::DataStore::connect(network, (*service)->descriptor());
    auto ds = store.createDataSet("fermilab/nova");
    auto ev = ds.createRun(1).createSubRun(2).createEvent(3);
    ev.store("note", std::string("stored through the full stack"));
    std::string note;
    ev.load("note", note);
    std::printf("HEPnOS layer: /fermilab/nova run 1 subrun 2 event 3 -> \"%s\"\n",
                note.c_str());

    // The descriptor document is what client jobs receive as "config.json".
    std::printf("\nclient connection document:\n%s\n",
                (*service)->descriptor().dump(2).c_str());
    return 0;
}
