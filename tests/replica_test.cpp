// Tests for the replication & failover subsystem (src/replica): group
// assignment, retry policy, synchronous primary-backup shipping through the
// full bedrock/hepnos stack, transparent client failover during a partition,
// gap repair after a heal, and the replication metrics surfaced via symbio.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "hepnos/hepnos.hpp"
#include "replica/bootstrap.hpp"
#include "replica/failover.hpp"
#include "replica/replica_set.hpp"
#include "symbio/provider.hpp"
#include "test_service.hpp"

namespace {

using namespace hep;
using namespace hep::hepnos;

// ---------------------------------------------------------------- unit level

TEST(ReplicaUnitTest, AssignGroupIsPrimaryFirstDistinctAndCapped) {
    std::vector<replica::Node> nodes{{"s0", 1}, {"s1", 1}, {"s2", 1}, {"s3", 1}};
    auto group = replica::assign_group(nodes, 0, 0, 3, "events-0");
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group[0].server, "s0");
    for (const auto& t : group) EXPECT_EQ(t.db, "events-0");
    for (std::size_t i = 0; i < group.size(); ++i) {
        for (std::size_t j = i + 1; j < group.size(); ++j) {
            EXPECT_FALSE(group[i] == group[j]);
        }
    }
    // A factor larger than the cluster is capped, not an error.
    EXPECT_EQ(replica::assign_group(nodes, 1, 0, 10, "db").size(), nodes.size());
    // Single-node services degenerate to "just the primary".
    std::vector<replica::Node> one{{"s0", 1}};
    EXPECT_EQ(replica::assign_group(one, 0, 0, 2, "db").size(), 1u);
}

TEST(ReplicaUnitTest, AssignGroupRotatesBackupsAcrossOrdinals) {
    std::vector<replica::Node> nodes{{"s0", 1}, {"s1", 1}, {"s2", 1}, {"s3", 1}};
    // Same primary, consecutive database ordinals: the backup choice must not
    // pile onto one neighbor.
    std::set<std::string> backups;
    for (std::size_t ord = 0; ord < 3; ++ord) {
        auto group = replica::assign_group(nodes, 0, ord, 2, "db");
        ASSERT_EQ(group.size(), 2u);
        backups.insert(group[1].server);
    }
    EXPECT_EQ(backups.size(), 3u);
}

TEST(ReplicaUnitTest, RetryPolicyFromJson) {
    auto cfg = json::parse(R"({
        "factor": 2, "max_attempts": 5, "attempts_per_target": 1,
        "base_backoff_ms": 1, "max_backoff_ms": 8, "deadline_ms": 100,
        "read_from_replicas": true })");
    ASSERT_TRUE(cfg.ok());
    auto policy = replica::RetryPolicy::from_json(*cfg);
    EXPECT_EQ(policy.max_attempts, 5u);
    EXPECT_EQ(policy.attempts_per_target, 1u);
    EXPECT_EQ(policy.base_backoff_ms, 1u);
    EXPECT_EQ(policy.max_backoff_ms, 8u);
    EXPECT_EQ(policy.deadline_ms, 100u);
    EXPECT_TRUE(policy.read_from_replicas);
    // Missing fields keep their defaults.
    auto defaults = replica::RetryPolicy::from_json(*json::parse("{}"));
    EXPECT_EQ(defaults.max_attempts, replica::RetryPolicy{}.max_attempts);
    EXPECT_FALSE(defaults.read_from_replicas);
}

TEST(ReplicaUnitTest, FailoverStatePromotesOnceAndRotatesReads) {
    replica::RetryPolicy policy;
    policy.read_from_replicas = true;
    std::vector<replica::Target> targets{{"s0", 1, "db"}, {"s1", 1, "db"}, {"s2", 1, "db"}};
    replica::FailoverState state(targets, policy, nullptr);
    EXPECT_EQ(state.primary(), 0u);

    // Two ULTs observing the same dead primary race to promote: only one
    // failover is counted and the primary advances exactly one step.
    state.promote(0);
    state.promote(0);
    EXPECT_EQ(state.primary(), 1u);
    EXPECT_EQ(state.counters()->failovers.load(), 1u);

    // read_from_replicas rotates read starting points over the whole group.
    std::set<std::size_t> starts;
    for (int i = 0; i < 9; ++i) starts.insert(state.read_start());
    EXPECT_EQ(starts.size(), targets.size());

    EXPECT_TRUE(replica::FailoverState::retryable(StatusCode::kUnavailable));
    EXPECT_TRUE(replica::FailoverState::retryable(StatusCode::kTimeout));
    EXPECT_TRUE(replica::FailoverState::retryable(StatusCode::kDeadlineExceeded));
    EXPECT_FALSE(replica::FailoverState::retryable(StatusCode::kNotFound));
    EXPECT_FALSE(replica::FailoverState::retryable(StatusCode::kAlreadyExists));
}

// ------------------------------------------------------------- service level

class ReplicaServiceTest : public ::testing::Test {
  protected:
    static test_util::TestServiceOptions make_options() {
        test_util::TestServiceOptions opts{2, 2, "map"};
        opts.replication_factor = 2;
        opts.monitoring = true;
        return opts;
    }

    ReplicaServiceTest() : service_(make_options()) {
        store_ = DataStore::connect(service_.network, service_.connection);
    }

    void populate(const std::string& path, std::uint64_t runs, std::uint64_t subruns,
                  std::uint64_t events, bool with_products = false) {
        DataSet ds = store_.createDataSet(path);
        for (std::uint64_t r = 0; r < runs; ++r) {
            auto run = ds.createRun(r);
            for (std::uint64_t s = 0; s < subruns; ++s) {
                auto sr = run.createSubRun(s);
                for (std::uint64_t e = 0; e < events; ++e) {
                    Event ev = sr.createEvent(e);
                    if (with_products) ev.store("n", e);
                }
            }
        }
    }

    std::uint64_t count_all(const std::string& path) {
        std::uint64_t n = 0;
        for (const auto& run : store_[path]) {
            for (const auto& sr : run) {
                for (const auto& ev : sr) {
                    (void)ev;
                    ++n;
                }
            }
        }
        return n;
    }

    /// For every primary database on `server`, the same-named backup copy
    /// hosted by the OTHER server must hold the same number of keys.
    void expect_backups_in_sync() {
        for (std::size_t s = 0; s < 2; ++s) {
            auto* own = service_.servers[s]->find_provider(1);
            auto* other = service_.servers[1 - s]->find_provider(1);
            for (const auto& desc : service_.servers[s]->databases()) {
                yokan::Database* primary = own->find_database(desc.name);
                yokan::Database* backup = other->find_database(desc.name);
                ASSERT_NE(primary, nullptr) << desc.name;
                ASSERT_NE(backup, nullptr) << "missing backup copy of " << desc.name;
                EXPECT_EQ(primary->size(), backup->size()) << desc.name;
            }
        }
    }

    /// Configure every group server-0 shares with the restarted server-1,
    /// as a connect does, but without the probe heartbeats that follow.
    void rewire_restarted_server_without_probe() {
        margo::Engine engine(service_.network, "test-rewire");
        auto* survivor = service_.servers[0]->find_provider(1);
        std::set<std::string> names;
        for (std::size_t s = 0; s < 2; ++s) {
            for (const auto& desc : service_.servers[s]->databases()) names.insert(desc.name);
        }
        for (const auto& name : names) {
            auto* set = survivor->find_replica_set(name);
            ASSERT_NE(set, nullptr) << name;
            for (const auto& member : set->peers()) {
                replica::ConfigureReq req;
                req.db = member.db;
                req.self = member;
                req.peers = {set->self()};
                req.create_type = "map";
                auto ack = engine.forward<replica::ConfigureReq, replica::Ack>(
                    member.server, "replica_configure", member.provider, req,
                    std::chrono::milliseconds{10'000});
                ASSERT_TRUE(ack.ok()) << ack.status().to_string();
            }
        }
    }

    test_util::TestService service_;
    DataStore store_;
};

/// Every (key, value) of `db`, in key order.
std::map<std::string, std::string> dump(yokan::Database& db) {
    std::map<std::string, std::string> out;
    EXPECT_TRUE(db.scan({}, {}, true, [&](std::string_view k, std::string_view v) {
                      out.emplace(k, v);
                      return true;
                  }).ok());
    return out;
}

TEST_F(ReplicaServiceTest, ConnectWiresEveryDatabaseIntoAGroup) {
    EXPECT_EQ(store_.impl()->replication_factor(), 2u);
    // Backups were created on the fly: each server now hosts its own 9
    // primaries plus the other server's 9 backup copies.
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(service_.servers[s]->find_provider(1)->database_names().size(), 18u);
    }
}

TEST_F(ReplicaServiceTest, EveryAcknowledgedWriteIsOnTheBackupToo) {
    populate("rep", 3, 4, 5, /*with_products=*/true);
    expect_backups_in_sync();
    // And the service-side symbio source reports the shipping.
    auto snap = symbio::fetch_all(store_.impl()->engine(), "hepnos-server-0", 99);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    const json::Value& sets = (*snap)["sources"]["replica/1"];
    ASSERT_TRUE(sets.is_array());
    std::uint64_t shipped = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
        shipped += static_cast<std::uint64_t>(sets.at(i)["records_shipped"].as_int());
    }
    EXPECT_GT(shipped, 0u);
}

TEST_F(ReplicaServiceTest, PartitionFailsOverTransparently) {
    populate("fo", 2, 10, 3, /*with_products=*/true);
    const std::uint64_t before = count_all("fo");
    ASSERT_EQ(before, 2u * 10u * 3u);

    service_.network.set_partitioned("hepnos-server-1", true);

    // Every acknowledged write stays readable: reads of data whose primary is
    // gone are transparently served by the backups.
    EXPECT_EQ(count_all("fo"), before);

    // New writes succeed too (they fail over to the surviving member) ...
    DataSet ds = store_["fo"];
    for (std::uint64_t r = 100; r < 110; ++r) {
        EXPECT_NO_THROW((void)ds.createRun(r));
    }
    // ... and are immediately readable.
    for (std::uint64_t r = 100; r < 110; ++r) EXPECT_TRUE(ds.hasRun(r));

    EXPECT_GT(store_.impl()->failover_counters()->failovers.load(), 0u);
    EXPECT_GT(store_.impl()->failover_counters()->retries.load(), 0u);
    // The client-side symbio source mirrors the counters.
    auto snap = store_.impl()->metrics().snapshot();
    EXPECT_GT(snap["sources"]["replica/client"]["failovers"].as_int(), 0);

    service_.network.set_partitioned("hepnos-server-1", false);
}

TEST_F(ReplicaServiceTest, GapIsRepairedAfterTheHeal) {
    populate("gap", 2, 6, 2);
    service_.network.set_partitioned("hepnos-server-1", true);
    // Mutations during the partition: server-0 primaries cannot ship to their
    // backups (the backups lag), and writes owned by server-1 fail over.
    populate("gap2", 2, 6, 2);
    service_.network.set_partitioned("hepnos-server-1", false);

    // A fresh connection re-wires the groups; the probe pass makes every
    // member push what its peers missed (log resend or snapshot).
    auto repair_client = DataStore::connect(service_.network, service_.connection);
    (void)repair_client;
    expect_backups_in_sync();

    // The repair shows up in the replication stats of at least one member.
    std::uint64_t repaired = 0;
    for (std::size_t s = 0; s < 2; ++s) {
        auto stats = service_.servers[s]->find_provider(1)->replica_stats();
        for (std::size_t i = 0; i < stats.size(); ++i) {
            repaired += static_cast<std::uint64_t>(stats.at(i)["gaps_repaired"].as_int()) +
                        static_cast<std::uint64_t>(stats.at(i)["snapshots_sent"].as_int());
        }
    }
    EXPECT_GT(repaired, 0u);
}

TEST_F(ReplicaServiceTest, ReseedsAPrimaryThatRestartedEmpty) {
    populate("rs", 2, 4, 3, /*with_products=*/true);
    const std::uint64_t before = count_all("rs");
    ASSERT_EQ(before, 2u * 4u * 3u);

    // Crash-restart server-1: a map backend comes back EMPTY and its
    // sequence counters reset to 1 (nothing persists across the restart).
    service_.restart_server(1, make_options());

    // A fresh connection re-wires the groups. The probe heartbeats make
    // server-0 notice that server-1's streams regressed below its replay
    // watermarks and push its full materialized copies back (reseed), while
    // server-1 jumps its counters past everything server-0 already applied.
    auto heal_client = DataStore::connect(service_.network, service_.connection);
    (void)heal_client;
    expect_backups_in_sync();
    EXPECT_EQ(count_all("rs"), before);

    std::uint64_t reseeds = 0;
    auto stats = service_.servers[0]->find_provider(1)->replica_stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
        reseeds += static_cast<std::uint64_t>(stats.at(i)["reseeds_sent"].as_int());
    }
    EXPECT_GT(reseeds, 0u);

    // Post-restart writes must replicate normally: had the counters been
    // reused, the backups would skip the new records as duplicates.
    populate("rs-after", 1, 2, 2, /*with_products=*/true);
    expect_backups_in_sync();
}

TEST_F(ReplicaServiceTest, ReseedsARestartedPrimaryWhoseFirstContactIsAWrite) {
    populate("rs", 2, 4, 3, /*with_products=*/true);
    const std::uint64_t before = count_all("rs");
    ASSERT_EQ(before, 2u * 4u * 3u);
    service_.restart_server(1, make_options());

    // Re-wire server-1's groups WITHOUT the probe pass a connect runs after
    // configuring, so the first thing each group sees is a client write: the
    // long-lived store_ still routes to server-1 as primary. Its counters
    // start over at 1, so server-0 skips those records as duplicates and
    // server-1 learns of the regression from the ship's reply, not from a
    // probe heartbeat. It must still deliver the records and get reseeded.
    rewire_restarted_server_without_probe();
    populate("rs-after", 1, 2, 2, /*with_products=*/true);

    // A later connect's probes find every stream in order and repair nothing
    // more: whatever server-1 lacks now stays missing.
    auto heal_client = DataStore::connect(service_.network, service_.connection);
    (void)heal_client;
    EXPECT_EQ(count_all("rs"), before);
    EXPECT_EQ(count_all("rs-after"), 1u * 2u * 2u);
    expect_backups_in_sync();
}

TEST_F(ReplicaServiceTest, WritesDuringAWriteTriggeredReseedAreNotRolledBack) {
    // One database whose primary is server-1, filled with enough pre-restart
    // data that server-0 streams it back in many snapshot chunks.
    const std::string name = service_.servers[1]->databases().front().name;
    auto key = [](int i) {
        char k[16];
        std::snprintf(k, sizeof k, "k%05d", i);
        return std::string(k);
    };
    constexpr int kKeys = 2000;
    const std::string old_value(8 << 10, 'o');
    {
        auto* set = service_.servers[1]->find_provider(1)->find_replica_set(name);
        ASSERT_NE(set, nullptr);
        for (int i = 0; i < kKeys; ++i) {
            ASSERT_TRUE(set->put(key(i), Buffer::adopt(std::string(old_value)), true).ok());
        }
    }
    service_.restart_server(1, make_options());
    rewire_restarted_server_without_probe();
    auto* provider = service_.servers[1]->find_provider(1);
    auto* set = provider->find_replica_set(name);
    ASSERT_NE(set, nullptr);

    // The first write reveals the regression and pulls server-0's copy back.
    std::thread first([&] {
        EXPECT_TRUE(set->put("first", Buffer::adopt(std::string("f")), true).ok());
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (set->stats().snapshot_chunks_received == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // While the copy streams in (keys arrive in order), overwrite and erase
    // pre-restart keys both already landed and still to come. Each must
    // survive the rest of the stream on server-1, and reach server-0.
    const std::string fresh = "fresh";
    EXPECT_TRUE(set->put(key(kKeys - 1), Buffer::adopt(std::string(fresh)), true).ok());
    EXPECT_TRUE(set->put(key(0), Buffer::adopt(std::string(fresh)), true).ok());
    EXPECT_TRUE(set->erase(key(kKeys - 2)).ok());
    EXPECT_TRUE(set->erase(key(1)).ok());
    first.join();

    std::map<std::string, std::string> want;
    for (int i = 0; i < kKeys; ++i) want[key(i)] = old_value;
    want[key(kKeys - 1)] = fresh;
    want[key(0)] = fresh;
    want.erase(key(kKeys - 2));
    want.erase(key(1));
    want["first"] = "f";
    yokan::Database* primary = provider->find_database(name);
    yokan::Database* backup = service_.servers[0]->find_provider(1)->find_database(name);
    ASSERT_NE(primary, nullptr);
    ASSERT_NE(backup, nullptr);
    const auto on_primary = dump(*primary);
    const auto on_backup = dump(*backup);
    EXPECT_EQ(on_primary.size(), want.size());
    EXPECT_TRUE(on_primary == want) << "server-1 rolled a write back";
    EXPECT_TRUE(on_backup == want) << "server-0 diverged";
}

TEST(ReplicaReadTest, ReadsRotateAcrossReplicasWhenEnabled) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    opts.replication_factor = 2;
    opts.read_from_replicas = true;
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    DataSet ds = store.createDataSet("rr");
    auto sr = ds.createRun(1).createSubRun(1);
    for (std::uint64_t e = 0; e < 20; ++e) sr.createEvent(e).store("n", e);

    // Synchronous replication means a backup read is never stale: every load
    // returns the acknowledged value no matter which member serves it.
    for (int round = 0; round < 4; ++round) {
        for (const auto& ev : sr) {
            std::uint64_t n = 0;
            ASSERT_TRUE(ev.load("n", n));
            EXPECT_EQ(n, ev.number());
        }
    }

    // With rotation enabled, the backup copies actually served some reads.
    std::uint64_t backup_reads = 0;
    for (std::size_t s = 0; s < 2; ++s) {
        auto* provider = service.servers[s]->find_provider(1);
        std::set<std::string> primaries;
        for (const auto& d : service.servers[s]->databases()) primaries.insert(d.name);
        for (const auto& name : provider->database_names()) {
            if (primaries.count(name)) continue;
            const auto stats = provider->find_database(name)->stats();
            backup_reads += stats.gets + stats.scans;
        }
    }
    EXPECT_GT(backup_reads, 0u);
}

TEST(ReplicaFactorOneTest, BehaviorUnchangedWithoutReplication) {
    test_util::TestServiceOptions opts{2, 2, "map"};
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);
    EXPECT_EQ(store.impl()->replication_factor(), 1u);
    // No backup copies were created anywhere.
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(service.servers[s]->find_provider(1)->database_names().size(), 9u);
    }
    // And a partition still fails fast instead of retrying forever.
    DataSet ds = store.createDataSet("plain");
    service.network.set_partitioned("hepnos-server-0", true);
    service.network.set_partitioned("hepnos-server-1", true);
    EXPECT_THROW((void)ds.createRun(1), Exception);
    service.network.set_partitioned("hepnos-server-0", false);
    service.network.set_partitioned("hepnos-server-1", false);
}

// ----------------------------------------------------- unclean-restart reseed

// A kill -9 can eat an lsm database's buffered WAL tail while the replica
// sidecar — already flushed to the page cache — survives with its (never
// regressing, headroom-ceiled) sequence counter intact. The counter alone can
// therefore never reveal the loss; the clean-shutdown marker must. This test
// forges that aftermath: tear a server down cleanly, strip the markers, and
// boot it again — the member must ask its peers for a full reseed. A clean
// restart, by contrast, must stay quiet.
TEST(ReplicaUncleanRestartTest, UncleanSidecarRequestsAFullReseed) {
    namespace fs = std::filesystem;
    test_util::TestServiceOptions opts{2, 1, "lsm"};
    opts.base_dir = "replica_unclean_scratch";
    opts.replication_factor = 2;
    fs::remove_all(opts.base_dir);
    fs::create_directories(opts.base_dir);
    test_util::TestService service(opts);
    auto store = DataStore::connect(service.network, service.connection);

    DataSet ds = store.createDataSet("ur");
    auto sr = ds.createRun(1).createSubRun(1);
    for (std::uint64_t e = 0; e < 50; ++e) sr.createEvent(e).store("n", e);
    auto count = [&store] {
        std::uint64_t n = 0;
        for (const auto& run : store["ur"]) {
            for (const auto& subrun : run) {
                for (const auto& ev : subrun) {
                    (void)ev;
                    ++n;
                }
            }
        }
        return n;
    };
    ASSERT_EQ(count(), 50u);

    auto sum_stat = [&service](std::size_t server, const char* field) {
        std::uint64_t total = 0;
        auto stats = service.servers[server]->find_provider(1)->replica_stats();
        for (std::size_t i = 0; i < stats.size(); ++i) {
            total += static_cast<std::uint64_t>(stats.at(i)[field].as_int());
        }
        return total;
    };

    // Clean teardown: every server-1 sidecar must now carry the marker.
    service.servers[1].reset();
    std::size_t tampered = 0;
    for (const auto& entry : fs::directory_iterator(opts.base_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".replica.json") == std::string::npos) continue;
        if (name.find("hepnos-server-1") == std::string::npos) continue;
        auto meta = json::parse_file(entry.path().string());
        ASSERT_TRUE(meta.ok()) << name;
        EXPECT_TRUE((*meta)["clean"].as_bool(false)) << name;
        json::Value forged = meta.value();
        forged["clean"] = json::Value(false);
        std::ofstream(entry.path(), std::ios::trunc) << forged.dump();
        ++tampered;
    }
    ASSERT_GT(tampered, 0u);

    auto boot = [&service, &opts] {
        auto cfg = test_util::make_server_config(opts, 1);
        auto svc = bedrock::ServiceProcess::create(service.network, cfg, opts.base_dir);
        ASSERT_TRUE(svc.ok()) << svc.status().to_string();
        service.servers[1] = std::move(svc.value());
    };
    boot();

    // Re-wiring probes the group: the unclean member asks for a reseed and
    // the peer streams its full copy back. Nothing is lost from the client's
    // point of view.
    auto heal_client = DataStore::connect(service.network, service.connection);
    (void)heal_client;
    EXPECT_EQ(count(), 50u);
    EXPECT_GT(sum_stat(1, "reseed_requests"), 0u);
    EXPECT_GT(sum_stat(0, "reseeds_sent"), 0u);

    // Clean restart: the marker is trusted, no reseed round.
    service.restart_server(1, opts);
    auto quiet_client = DataStore::connect(service.network, service.connection);
    (void)quiet_client;
    EXPECT_EQ(sum_stat(1, "reseed_requests"), 0u);
    EXPECT_EQ(count(), 50u);
}

}  // namespace
