// hepnos_ls — inspect the contents of a running HEPnOS service.
//
//   hepnos_ls <descriptor.json> [dataset-path] [--events]
//
// Lists child datasets and runs under the given path (default: the root),
// with run/subrun/event counts. Also polls the monitoring provider when the
// service exposes one (provider id 99 by convention).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "rpc/tcp_fabric.hpp"
#include "hepnos/hepnos.hpp"
#include "symbio/provider.hpp"

namespace {

void list_dataset(const hep::hepnos::DataSet& ds, bool with_events, int depth) {
    using namespace hep;
    const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    for (const auto& child : ds.datasets()) {
        std::printf("%s%s/  (uuid %s)\n", indent.c_str(), child.name().c_str(),
                    child.uuid().to_string().c_str());
        list_dataset(child, with_events, depth + 1);
    }
    for (const auto& run : ds) {
        std::uint64_t subruns = 0, events = 0;
        for (const auto& sr : run) {
            ++subruns;
            if (with_events) {
                for (const auto& ev : sr) {
                    (void)ev;
                    ++events;
                }
            }
        }
        if (with_events) {
            std::printf("%srun %llu: %llu subruns, %llu events\n", indent.c_str(),
                        static_cast<unsigned long long>(run.number()),
                        static_cast<unsigned long long>(subruns),
                        static_cast<unsigned long long>(events));
        } else {
            std::printf("%srun %llu: %llu subruns\n", indent.c_str(),
                        static_cast<unsigned long long>(run.number()),
                        static_cast<unsigned long long>(subruns));
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hep;
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <descriptor.json> [dataset-path] [--events]\n",
                     argv[0]);
        return 2;
    }
    const char* path = argc > 2 && argv[2][0] != '-' ? argv[2] : "";
    bool with_events = false;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--events") == 0) with_events = true;
    }
    try {
        rpc::TcpFabric fabric;
        auto store = hepnos::DataStore::connect(fabric, std::string(argv[1]));
        hepnos::DataSet root = *path ? store[path] : store.root();
        std::printf("%s\n", *path ? root.fullname().c_str() : "/");
        list_dataset(root, with_events, 1);

        // Best effort: show per-database stats from every server whose
        // monitoring provider is up (replication stats are per-server).
        auto doc = json::parse_file(argv[1]);
        if (doc.ok() && (*doc)["databases"].size() > 0) {
            std::vector<std::string> servers;
            for (std::size_t i = 0; i < (*doc)["databases"].size(); ++i) {
                std::string server = (*doc)["databases"].at(i)["address"].as_string();
                if (std::find(servers.begin(), servers.end(), server) == servers.end()) {
                    servers.push_back(std::move(server));
                }
            }
            margo::Engine probe(fabric, "hepnos-ls-probe");
            for (const auto& server : servers) {
                auto snap = symbio::fetch_all(probe, server, 99);
                if (!snap.ok()) continue;
                std::printf("\nmonitoring (%s):\n", server.c_str());
                const json::Value& sources = (*snap)["sources"];
                if (sources.is_object()) {
                    // Objects iterate in name order via dump; print compactly.
                    std::printf("%s\n", sources.dump(2).c_str());
                }
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hepnos_ls failed: %s\n", e.what());
        return 1;
    }
    return 0;
}
