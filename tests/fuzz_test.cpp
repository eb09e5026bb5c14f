// Fuzz/property tests: malformed input must produce clean errors (exceptions
// or Status), never crashes, hangs or silent corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "cache/protocol.hpp"
#include "cache/provider.hpp"
#include "common/crc32.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "htf/htf.hpp"
#include "nova/selection.hpp"
#include "nova/types.hpp"
#include "query/evaluator.hpp"
#include "query/protocol.hpp"
#include "query/provider.hpp"
#include "serial/archive.hpp"
#include "yokan/lsm/block.hpp"
#include "yokan/lsm/memtable.hpp"
#include "yokan/lsm/sstable.hpp"
#include "yokan/lsm/version_set.hpp"
#include "yokan/lsm/wal.hpp"
#include "yokan/client.hpp"
#include "yokan/protocol.hpp"
#include "yokan/provider.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hep;

std::string random_bytes(Rng& rng, std::size_t max_len) {
    std::string out(rng.uniform(0, max_len), '\0');
    for (auto& c : out) c = static_cast<char>(rng.next_u64() & 0xFF);
    return out;
}

// ----------------------------------------------------------- serialization

class SerialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerialFuzzTest, RandomBytesNeverCrashDeserializers) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 300; ++iter) {
        const std::string bytes = random_bytes(rng, 256);
        // Each target type either parses or throws SerializationError.
        try {
            std::vector<nova::Slice> slices;
            serial::from_string(bytes, slices);
        } catch (const serial::SerializationError&) {
        }
        try {
            nova::EventRecord rec;
            serial::from_string(bytes, rec);
        } catch (const serial::SerializationError&) {
        }
        try {
            std::map<std::string, std::vector<double>> m;
            serial::from_string(bytes, m);
        } catch (const serial::SerializationError&) {
        }
        try {
            std::optional<std::string> o;
            serial::from_string(bytes, o);
        } catch (const serial::SerializationError&) {
        }
    }
}

TEST_P(SerialFuzzTest, TruncationAtEveryPointIsClean) {
    Rng rng(GetParam());
    nova::EventRecord rec;
    rec.run = 1;
    rec.subrun = 2;
    rec.event = 3;
    for (int i = 0; i < 5; ++i) {
        nova::Slice s;
        s.nhits = static_cast<std::uint32_t>(rng.next_u64());
        rec.slices.push_back(s);
    }
    const std::string bytes = serial::to_string(rec);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        nova::EventRecord out;
        EXPECT_THROW(serial::from_string(std::string_view(bytes).substr(0, cut), out),
                     serial::SerializationError)
            << "cut at " << cut;
    }
}

TEST_P(SerialFuzzTest, SingleByteCorruptionNeverCrashes) {
    Rng rng(GetParam());
    std::vector<nova::Slice> slices(8);
    std::string bytes = serial::to_string(slices);
    for (int iter = 0; iter < 200; ++iter) {
        std::string corrupted = bytes;
        corrupted[rng.uniform(0, corrupted.size() - 1)] =
            static_cast<char>(rng.next_u64() & 0xFF);
        try {
            std::vector<nova::Slice> out;
            serial::from_string(corrupted, out);
            // Success is fine — payload bytes may change without breaking
            // framing. The property is "no crash, no OOM".
        } catch (const serial::SerializationError&) {
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialFuzzTest, ::testing::Values(1, 7, 42, 1234));

// ------------------------------------------- multi-segment BufferChain input

namespace {
/// Split `bytes` into a chain of owned segments with random widths, so
/// boundaries land mid-scalar and mid-length-prefix.
hep::BufferChain random_chop(Rng& rng, std::string_view bytes) {
    hep::BufferChain chain;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        const std::size_t n = std::min<std::size_t>(1 + rng.uniform(0, 9), bytes.size() - pos);
        chain.append(hep::BufferView(hep::Buffer::copy_of(bytes.substr(pos, n))));
        pos += n;
    }
    return chain;
}
}  // namespace

class ChainFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainFuzzTest, TruncatedChainsAtEveryPointAreClean) {
    Rng rng(GetParam());
    nova::EventRecord rec;
    rec.run = 1;
    rec.subrun = 2;
    rec.event = 3;
    for (int i = 0; i < 4; ++i) {
        nova::Slice s;
        s.nhits = static_cast<std::uint32_t>(rng.next_u64());
        rec.slices.push_back(s);
    }
    const std::string bytes = serial::to_string(rec);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        hep::BufferChain chain = random_chop(rng, std::string_view(bytes).substr(0, cut));
        nova::EventRecord out;
        EXPECT_THROW(serial::from_chain(chain, out), serial::SerializationError)
            << "cut at " << cut;
    }
}

TEST_P(ChainFuzzTest, CorruptedChainsNeverCrashDeserializers) {
    Rng rng(GetParam());
    std::vector<nova::Slice> slices(8);
    const std::string bytes = serial::to_string(slices);
    for (int iter = 0; iter < 200; ++iter) {
        std::string corrupted = bytes;
        corrupted[rng.uniform(0, corrupted.size() - 1)] =
            static_cast<char>(rng.next_u64() & 0xFF);
        hep::BufferChain chain = random_chop(rng, corrupted);
        try {
            std::vector<nova::Slice> out;
            serial::from_chain(chain, out);
            // Success is fine — payload bytes may change without breaking
            // framing. The property is "no crash, no OOM".
        } catch (const serial::SerializationError&) {
        }
    }
}

TEST_P(ChainFuzzTest, RandomByteChainsNeverCrashDeserializers) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 150; ++iter) {
        const std::string bytes = random_bytes(rng, 256);
        hep::BufferChain chain = random_chop(rng, bytes);
        try {
            nova::EventRecord rec;
            serial::from_chain(chain, rec);
        } catch (const serial::SerializationError&) {
        }
        try {
            std::map<std::string, std::vector<double>> m;
            serial::from_chain(chain, m);
        } catch (const serial::SerializationError&) {
        }
    }
}

TEST_P(ChainFuzzTest, MalformedPackedChainsAreRejectedNotCrashed) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 150; ++iter) {
        const std::string bytes = random_bytes(rng, 200);
        hep::BufferChain chain = random_chop(rng, bytes);
        std::size_t visited_bytes = 0;
        const bool ok = yokan::proto::unpack_entries_chain(
            chain, [&](std::string_view k, hep::BufferView v) {
                visited_bytes += 8 + k.size() + v.size();
            });
        // Whatever was visited must have framed cleanly within the input.
        if (ok) EXPECT_EQ(visited_bytes, bytes.size());
        else EXPECT_LE(visited_bytes, bytes.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzzTest, ::testing::Values(2, 19, 77, 4321));

// -------------------------------------------------------------------- JSON

class JsonFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzzTest, RandomBytesEitherParseOrError) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 400; ++iter) {
        auto r = json::parse(random_bytes(rng, 128));
        if (r.ok()) {
            (void)r->dump();  // whatever parsed must be serializable
        }
    }
}

TEST_P(JsonFuzzTest, MutatedValidDocumentsAreHandled) {
    Rng rng(GetParam());
    const std::string doc =
        R"({"margo": {"rpc_xstreams": 16}, "providers": [{"id": 1, "dbs": ["a", "b"]}],
            "ratio": 0.5, "flag": true, "none": null})";
    for (int iter = 0; iter < 400; ++iter) {
        std::string mutated = doc;
        const int mutations = 1 + static_cast<int>(rng.uniform(0, 3));
        for (int m = 0; m < mutations; ++m) {
            mutated[rng.uniform(0, mutated.size() - 1)] =
                static_cast<char>(rng.next_u64() & 0x7F);
        }
        auto r = json::parse(mutated);
        if (r.ok()) (void)r->dump();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest, ::testing::Values(5, 55, 555));

// --------------------------------------------------------------------- WAL

TEST(WalFuzzTest, CorruptOrTornLogsReplayAnExactPrefix) {
    const auto dir = fs::temp_directory_path() / "wal_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "wal.000001.log").string();
    using yokan::lsm::Wal;
    struct Row {
        Wal::RecordType type;
        std::string key, value;
        std::uint32_t epoch;
        bool operator==(const Row&) const = default;
    };

    Rng rng(99);
    for (int round = 0; round < 60; ++round) {
        // Keys share long, varying prefixes with their predecessor, as
        // event and product keys do; puts, epoch puts and deletes mix.
        std::vector<Row> rows;
        {
            Wal wal;
            ASSERT_TRUE(wal.open(path).ok());
            std::string key = "dataset-uuid/run/0001/";
            for (int i = 0; i < 20; ++i) {
                key.resize(rng.uniform(12, key.size()));
                key += std::to_string(rng.uniform(0, 999));
                Row row{Wal::RecordType::kPut, key, random_bytes(rng, 24),
                        static_cast<std::uint32_t>(rng.uniform(0, 2) == 0 ? rng.uniform(1, 1u << 31)
                                                                          : 0)};
                if (rng.uniform(0, 4) == 0) row = {Wal::RecordType::kDelete, key, "", 0};
                ASSERT_TRUE((row.type == Wal::RecordType::kDelete
                                 ? wal.append_delete(row.key)
                                 : wal.append_put(row.key, row.value, row.epoch))
                                .ok());
                rows.push_back(std::move(row));
            }
            ASSERT_TRUE(wal.sync().ok());
        }
        // Corrupt a random byte, or tear the log at a random length.
        const auto size = fs::file_size(path);
        if (round % 2 == 0) {
            std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(static_cast<std::streamoff>(rng.uniform(0, size - 1)));
            f.put(static_cast<char>(rng.next_u64() & 0xFF));
        } else {
            fs::resize_file(path, rng.uniform(0, size - 1));
        }
        // crc32 catches any single-byte change, so whatever replays is a
        // prefix of what was appended, keys rebuilt exactly.
        std::vector<Row> got;
        auto n = Wal::replay(path, [&](Wal::RecordType type, std::string_view key,
                                       std::string_view value, std::uint32_t epoch) {
            got.push_back({type, std::string(key), std::string(value), epoch});
        });
        ASSERT_TRUE(n.ok());
        ASSERT_LE(got.size(), rows.size());
        EXPECT_EQ(got, std::vector<Row>(rows.begin(), rows.begin() + got.size()));
        if (round % 2 == 1) {
            EXPECT_LT(got.size(), rows.size());  // the torn record never applies
        }
        fs::remove(path);
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------------ LSM internals

TEST(LsmInternalsFuzzTest, SkiplistMatchesMapUnderInterleavedOpsAndSeeks) {
    Rng rng(20260809);
    for (int round = 0; round < 10; ++round) {
        yokan::lsm::SkipListMemTableRep rep(4096, 12);
        std::map<std::string, std::string> ref;
        for (int i = 0; i < 500; ++i) {
            const std::string key = "k" + std::to_string(rng.uniform(0, 80));
            if (rng.uniform(0, 9) < 7) {
                const std::string val = "v" + std::to_string(rng.next_u64() & 0xFFFF);
                rep.insert(key, val, yokan::Stamp{static_cast<std::uint64_t>(i + 2), 0}, false);
                ref[key] = val;
            } else {
                const std::string probe = "k" + std::to_string(rng.uniform(0, 99));
                auto cur = rep.cursor();
                cur->seek_geq(probe);
                auto it = ref.lower_bound(probe);
                // Only compare over keys the reference has too (erases are not
                // modeled — the memtable keeps tombstones).
                if (it == ref.end()) {
                    EXPECT_FALSE(cur->valid());
                } else {
                    ASSERT_TRUE(cur->valid());
                    EXPECT_EQ(cur->key(), it->first);
                    EXPECT_EQ(cur->entry().value, it->second);
                }
            }
        }
        auto cur = rep.cursor();
        auto it = ref.begin();
        for (cur->seek_first(); cur->valid(); cur->next(), ++it) {
            ASSERT_NE(it, ref.end());
            EXPECT_EQ(cur->key(), it->first);
        }
        EXPECT_EQ(it, ref.end());
    }
}

TEST(LsmInternalsFuzzTest, DecodeBlockNeverCrashesOnHostileEnvelopes) {
    Rng rng(4242);
    yokan::lsm::BlockBuffer scratch;
    for (int i = 0; i < 2000; ++i) {
        std::string bytes(rng.uniform(0, 200), '\0');
        for (auto& c : bytes) c = static_cast<char>(rng.next_u64() & 0xFF);
        (void)yokan::lsm::decode_block(bytes, scratch);  // any Status, no crash
    }
    // Single-byte corruption of a valid envelope either round-trips (the
    // flipped byte was payload of a raw envelope) or errors — never crashes.
    std::string block(128, '\0'), good;
    yokan::lsm::encode_block(block, true, good);
    for (int i = 0; i < 500; ++i) {
        std::string bad = good;
        bad[rng.uniform(0, bad.size() - 1)] ^= static_cast<char>(1 + (rng.next_u64() & 0xFF));
        (void)yokan::lsm::decode_block(bad, scratch);
    }
}

TEST(LsmInternalsFuzzTest, SstReaderRejectsHostileRecordsWithoutOverReading) {
    // Hostile raw bytes behind a valid checksum: a table's single raw block
    // is mutated and its crc32 recomputed, so every read reaches the record
    // decoder. Each get and scan either succeeds or reports Corruption; the
    // asan preset checks that none reads past the block.
    const auto dir = fs::temp_directory_path() / "sst_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "t.sst").string();
    std::vector<std::string> keys;
    {
        yokan::lsm::SstWriter w(path, 1, 1 << 16, /*compress_blocks=*/false);
        for (int i = 0; i < 50; ++i) {
            keys.push_back("uuid/run/" + std::to_string(1000 + i * 7) + (i % 3 ? "/hits" : ""));
        }
        std::sort(keys.begin(), keys.end());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            ASSERT_TRUE(w.add(keys[i], yokan::Stamp{i + 1, static_cast<std::uint32_t>(i % 4)},
                              std::string(i % 9, 'v'), i % 11 == 5)
                            .ok());
        }
        ASSERT_TRUE(w.finish().ok());
    }
    std::string good;
    {
        std::ifstream in(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    // Block 0's envelope and its crc in the index (the first index entry).
    std::uint64_t index_off = 0, block_size = 0;
    std::uint32_t klen = 0;
    std::memcpy(&index_off, good.data() + good.size() - 56, 8);
    std::memcpy(&klen, good.data() + index_off + 8, 4);
    const std::size_t entry = index_off + 12 + klen;
    std::memcpy(&block_size, good.data() + entry + 8, 8);
    const std::size_t header = yokan::lsm::kBlockEnvelopeHeader;

    Rng rng(31);
    auto cache = std::make_shared<yokan::lsm::BlockCache>(1 << 20, 1 << 20);
    for (std::uint64_t round = 0; round < 400; ++round) {
        std::string bytes = good;
        const int flips = static_cast<int>(rng.uniform(1, 4));
        for (int f = 0; f < flips; ++f) {
            bytes[rng.uniform(header, block_size - 1)] = static_cast<char>(rng.next_u64());
        }
        const std::uint32_t crc = crc32(std::string_view(bytes).substr(0, block_size));
        std::memcpy(bytes.data() + entry + 16, &crc, 4);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

        auto reader = yokan::lsm::SstReader::open(path, 100 + round, cache);
        ASSERT_TRUE(reader.ok()) << reader.status().to_string();  // index untouched
        for (const std::string& key : keys) {
            auto hit = (*reader)->get(key);
            EXPECT_TRUE(hit.ok() || hit.status().code() == StatusCode::kNotFound ||
                        hit.status().code() == StatusCode::kCorruption)
                << hit.status().to_string();
        }
        for (bool cached : {true, false}) {
            auto it = cached ? (*reader)->make_iterator() : (*reader)->make_compaction_iterator();
            Status st = it.seek_geq(keys[rng.uniform(0, keys.size() - 1)]);
            std::size_t seen = 0;
            while (st.ok() && it.valid() && seen++ <= keys.size()) st = it.next();
            EXPECT_TRUE(st.ok() || st.code() == StatusCode::kCorruption) << st.to_string();
        }
    }
    fs::remove_all(dir);
}

TEST(LsmInternalsFuzzTest, VersionSetRecoverNeverCrashesOnGarbageManifests) {
    const auto dir = fs::temp_directory_path() / "vset_fuzz";
    Rng rng(777);
    for (int round = 0; round < 40; ++round) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        {
            std::ofstream cur(dir / "CURRENT", std::ios::binary);
            switch (rng.uniform(0, 3)) {
                case 0: cur << "A\n"; break;
                case 1: cur << "B\n"; break;
                case 2: cur << "Z\n"; break;
                default: cur << std::string(rng.uniform(0, 16), 'x'); break;
            }
        }
        {
            std::ofstream log(dir / "MANIFEST-A.log", std::ios::binary);
            std::string bytes(rng.uniform(0, 256), '\0');
            for (auto& c : bytes) c = static_cast<char>(rng.next_u64() & 0xFF);
            log << bytes;
        }
        yokan::lsm::VersionSet vs(dir.string(), 5);
        (void)vs.recover();  // OK (torn tail) or a clean error — never a crash
        const auto& st = vs.state();
        EXPECT_GE(st.levels.size(), 0u);
    }
    fs::remove_all(dir);
}

// --------------------------------------------------------------------- HTF

TEST(HtfFuzzTest, RandomAndTruncatedFilesRejectedCleanly) {
    const auto dir = fs::temp_directory_path() / "htf_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Rng rng(31337);

    // Pure garbage files.
    for (int i = 0; i < 50; ++i) {
        const std::string path = (dir / ("g" + std::to_string(i))).string();
        {
            std::ofstream f(path, std::ios::binary);
            const std::string junk = random_bytes(rng, 512);
            f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
        }
        EXPECT_FALSE(htf::File::read(path).ok());
        EXPECT_FALSE(htf::File::read_schema(path).ok());
    }

    // A valid file truncated at random points.
    htf::File file;
    auto& g = file.create_group("nova::Slice");
    ASSERT_TRUE(g.add_column("run", std::vector<std::uint64_t>(100, 1)).ok());
    ASSERT_TRUE(g.add_column("cal_e", std::vector<float>(100, 2.0f)).ok());
    const std::string valid = (dir / "valid.htf").string();
    ASSERT_TRUE(file.write(valid).ok());
    const auto full_size = fs::file_size(valid);
    for (int i = 0; i < 40; ++i) {
        const std::string path = (dir / ("t" + std::to_string(i))).string();
        fs::copy_file(valid, path);
        fs::resize_file(path, rng.uniform(0, full_size - 1));
        auto r = htf::File::read(path);
        if (r.ok()) {
            // Only an empty prefix could parse; a magic-valid truncation must
            // have dropped data and be rejected.
            ADD_FAILURE() << "truncated file parsed successfully";
        }
    }
    fs::remove_all(dir);
}

// ------------------------------------------------- query predicate pushdown

class QueryFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryFuzzTest, RandomBytesNeverCrashPredicateDeserialization) {
    // A FilterProgram arrives off the wire: random bytes must either fail the
    // serial framing or yield a program that validate() can safely judge —
    // and whatever validate() accepts, matches() must execute without
    // crashing.
    Rng rng(GetParam());
    double fields[nova::kNumSliceFields] = {};
    for (int iter = 0; iter < 400; ++iter) {
        const std::string bytes = random_bytes(rng, 256);
        query::FilterProgram program;
        try {
            serial::from_string(bytes, program);
        } catch (const serial::SerializationError&) {
            continue;
        }
        if (program.validate(nova::kNumSliceFields).ok()) {
            (void)program.matches(fields, nova::kNumSliceFields);
        }
        query::proto::QuerySpec spec;
        try {
            serial::from_string(bytes, spec);
        } catch (const serial::SerializationError&) {
        }
    }
}

TEST_P(QueryFuzzTest, CorruptedValidProgramsAreRejectedOrHarmless) {
    Rng rng(GetParam());
    const std::string valid = serial::to_string(query::nova_cuts_program({}));
    double fields[nova::kNumSliceFields] = {};
    for (int iter = 0; iter < 300; ++iter) {
        std::string corrupted = valid;
        const int mutations = 1 + static_cast<int>(rng.uniform(0, 4));
        for (int m = 0; m < mutations; ++m) {
            corrupted[rng.uniform(0, corrupted.size() - 1)] =
                static_cast<char>(rng.next_u64() & 0xFF);
        }
        query::FilterProgram program;
        try {
            serial::from_string(corrupted, program);
        } catch (const serial::SerializationError&) {
            continue;
        }
        if (program.validate(nova::kNumSliceFields).ok()) {
            (void)program.matches(fields, nova::kNumSliceFields);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Values(3, 33, 333));

TEST(QueryFuzzTest2, MalformedQueryRpcsNeverKillTheProvider) {
    // Provider-level property: arbitrary bytes thrown at the query RPCs come
    // back as error Statuses — the service keeps answering well-formed
    // queries afterwards.
    rpc::Network net;
    margo::Engine server(net, "qserver", margo::EngineConfig{2});
    margo::Engine client(net, "qclient");
    auto cfg = json::parse(R"({"databases": [{"name": "products", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();
    query::QueryProvider qp(server, 1, **provider);

    Rng rng(4242);
    const char* rpcs[] = {"query_open", "query_next", "query_close"};
    for (int iter = 0; iter < 600; ++iter) {
        const std::string payload = random_bytes(rng, 192);
        auto raw = client.endpoint().call("qserver", rpcs[iter % 3], 1, payload,
                                          std::chrono::milliseconds{0});
        // Garbage cannot produce a successful open/next: the framing or the
        // spec validation rejects it with a Status.
        if (raw.ok()) continue;  // e.g. a close of an unknown cursor id
        EXPECT_FALSE(raw.status().to_string().empty());
    }

    // Parse-valid but semantically hostile specs are rejected, not executed.
    for (int iter = 0; iter < 200; ++iter) {
        query::proto::OpenReq open;
        open.db = "products";
        open.spec.evaluator = query::kNovaSlicesEvaluator;
        open.spec.label = nova::kSliceLabel;
        open.spec.type = "t";
        const int len = static_cast<int>(rng.uniform(0, 12));
        for (int i = 0; i < len; ++i) {
            switch (rng.uniform(0, 2)) {
                case 0:
                    open.spec.filter.push_field(static_cast<std::uint32_t>(rng.next_u64()));
                    break;
                case 1:
                    open.spec.filter.push_const(static_cast<double>(rng.next_u64() % 1000));
                    break;
                default:
                    open.spec.filter.op(static_cast<query::FilterOp>(rng.next_u64() & 0x0F));
                    break;
            }
        }
        auto resp = client.forward<query::proto::OpenReq, query::proto::OpenResp>(
            "qserver", "query_open", 1, open);
        if (!resp.ok()) continue;
        // An accepted open must be drivable to completion.
        auto page = client.forward<query::proto::NextReq, query::proto::Page>(
            "qserver", "query_next", 1, {"products", resp->cursor});
        ASSERT_TRUE(page.ok()) << page.status().to_string();
    }

    // The provider survived: a well-formed query over the (empty) database
    // opens and drains cleanly.
    query::proto::OpenReq open;
    open.db = "products";
    open.spec = query::nova_selection_spec({}, "std::vector<hep::nova::Slice>");
    auto opened = client.forward<query::proto::OpenReq, query::proto::OpenResp>(
        "qserver", "query_open", 1, open);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto page = client.forward<query::proto::NextReq, query::proto::Page>(
        "qserver", "query_next", 1, {"products", opened->cursor});
    ASSERT_TRUE(page.ok()) << page.status().to_string();
    EXPECT_TRUE(page->done);
    EXPECT_TRUE(page->entries.empty());
}

// --------------------------------------------------------- batch unpacking

TEST(ProtoFuzzTest, UnpackEntriesRejectsMalformedPacks) {
    Rng rng(777);
    for (int i = 0; i < 300; ++i) {
        const std::string data = random_bytes(rng, 128);
        std::size_t total = 0;
        const bool ok = yokan::proto::unpack_entries(
            data, [&](std::string_view k, std::string_view v) { total += k.size() + v.size(); });
        if (ok) {
            EXPECT_LE(total, data.size());
        }
    }
    // Round-trip sanity alongside the fuzz.
    std::string packed;
    yokan::proto::pack_entry(packed, "key", "value");
    yokan::proto::pack_entry(packed, "", "");
    int seen = 0;
    EXPECT_TRUE(yokan::proto::unpack_entries(
        packed, [&](std::string_view k, std::string_view v) {
            if (seen == 0) {
                EXPECT_EQ(k, "key");
                EXPECT_EQ(v, "value");
            } else {
                EXPECT_TRUE(k.empty());
                EXPECT_TRUE(v.empty());
            }
            ++seen;
        }));
    EXPECT_EQ(seen, 2);
}

TEST(ProtoFuzzTest, RetiredPutRpcsAnswerUnimplemented) {
    // "yokan_put" and the bulk-pull "yokan_put_multi" are gone: every write
    // shape has one RPC. Old clients get Unimplemented — for well-formed
    // legacy requests and garbage alike — and the provider keeps serving.
    Rng rng(4242);
    rpc::Network net;
    margo::Engine server(net, "rserver", margo::EngineConfig{2});
    margo::Engine client(net, "rclient");
    auto cfg = json::parse(R"({"databases": [{"name": "db", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();

    // PutViewReq has the retired PutReq's wire bytes.
    const std::string legacy_put = serial::to_string(
        yokan::proto::PutViewReq{"db", "k", hep::Buffer::copy_of("v"), true, 0});
    for (int i = 0; i < 50; ++i) {
        for (const char* rpc_name : {"yokan_put", "yokan_put_multi"}) {
            const std::string payload = i == 0 ? legacy_put : random_bytes(rng, 128);
            auto r = client.endpoint().call("rserver", rpc_name, 1, payload);
            ASSERT_FALSE(r.ok()) << rpc_name;
            EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented) << r.status().to_string();
        }
    }
    EXPECT_FALSE((*provider)->find_database("db")->exists("k").value());

    // The provider survived and still serves the one write path.
    yokan::DatabaseHandle db(client, "rserver", 1, "db");
    ASSERT_TRUE(db.put("k", "v").ok());
    auto v = db.get("k");
    ASSERT_TRUE(v.ok()) << v.status().to_string();
    EXPECT_EQ(*v, "v");
}

// ------------------------------------------------------------- cache tier

TEST(CacheFuzzTest, MalformedCacheRpcsNeverKillTheProvider) {
    // Provider-level property: arbitrary bytes thrown at the cache-tier RPCs
    // come back as error Statuses, and garbage owner coordinates inside
    // well-formed requests fail cleanly — the node keeps serving afterwards.
    rpc::Network net;
    margo::Engine server(net, "cserver", margo::EngineConfig{2});
    margo::Engine client(net, "cclient");
    auto cfg = json::parse(R"({"databases": [{"name": "products", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto owner = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(owner.ok()) << owner.status().to_string();
    cache::Provider node(server, 90, json::Value());

    ASSERT_TRUE((*owner)->find_database("products")->put("k", "v", true).ok());

    Rng rng(20260809);
    const char* rpcs[] = {"cache_get", "cache_invalidate"};
    for (int iter = 0; iter < 400; ++iter) {
        const std::string payload = random_bytes(rng, 192);
        auto raw = client.endpoint().call("cserver", rpcs[iter % 2], 90, payload,
                                          std::chrono::milliseconds{0});
        if (raw.ok()) continue;  // e.g. an invalidate of nothing
        EXPECT_FALSE(raw.status().to_string().empty());
    }

    // Parse-valid requests with hostile owner coordinates: unknown servers,
    // providers and databases must come back as Statuses, never crashes, and
    // must not poison the table with bogus entries served as hits later.
    for (int iter = 0; iter < 60; ++iter) {
        cache::proto::GetReq req;
        req.owner_server = (iter % 3 == 0) ? "cserver" : random_bytes(rng, 16);
        req.owner_provider = static_cast<std::uint16_t>(rng.next_u64());
        req.db = (iter % 2 == 0) ? "products" : random_bytes(rng, 16);
        req.key = random_bytes(rng, 32);
        auto resp = client.forward<cache::proto::GetReq, cache::proto::GetResp>(
            "cserver", "cache_get", 90, req, std::chrono::milliseconds{0});
        if (resp.ok()) {
            // Only a reachable owner with the key can produce a value.
            EXPECT_EQ(req.owner_server, "cserver");
        }
        cache::proto::InvalidateReq inv;
        inv.owner_server = req.owner_server;
        inv.owner_provider = req.owner_provider;
        inv.db = req.db;
        if (iter % 2) inv.keys.push_back(random_bytes(rng, 32));
        auto ack = client.forward<cache::proto::InvalidateReq, cache::proto::Ack>(
            "cserver", "cache_invalidate", 90, inv, std::chrono::milliseconds{0});
        // Empty owner coordinates are rejected up front; anything else acks.
        if (!ack.ok()) {
            EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument)
                << ack.status().to_string();
        }
    }

    // The node survived: a well-formed get fills from the owner and then hits.
    cache::proto::GetReq good{"cserver", 1, "products", "k"};
    auto filled = client.forward<cache::proto::GetReq, cache::proto::GetResp>(
        "cserver", "cache_get", 90, good);
    ASSERT_TRUE(filled.ok()) << filled.status().to_string();
    EXPECT_EQ(std::string(filled->value.sv()), "v");
    auto hit = client.forward<cache::proto::GetReq, cache::proto::GetResp>(
        "cserver", "cache_get", 90, good);
    ASSERT_TRUE(hit.ok()) << hit.status().to_string();
    EXPECT_TRUE(hit->hit);
    EXPECT_EQ(std::string(hit->value.sv()), "v");
}

// ------------------------------------------------- mvcc pins & publish keys

class MvccFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MvccFuzzTest, HostileReadPinsAreRejectedNotFatal) {
    // Property: a read_seq pin the database has never reached, random epoch
    // filters, and raw garbage on the pinned read RPCs all come back as error
    // Statuses (InvalidArgument for ahead-of-db pins) — never a crash, and
    // the provider keeps serving pinned and latest reads afterwards.
    Rng rng(GetParam());
    rpc::Network net;
    margo::Engine server(net, "mserver", margo::EngineConfig{2});
    margo::Engine client(net, "mclient");
    auto cfg = json::parse(R"({"databases": [{"name": "products", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();
    auto* db = (*provider)->find_database("products");
    ASSERT_NE(db, nullptr);
    for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(db->put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    const std::uint64_t head = db->seq();

    for (int iter = 0; iter < 300; ++iter) {
        yokan::proto::ReadPin pin;
        pin.seq = rng.next_u64() >> (iter % 2 ? 0 : 60);  // huge and small pins
        pin.floor = static_cast<std::uint32_t>(rng.next_u64());
        const int extras = static_cast<int>(rng.uniform(0, 4));
        for (int e = 0; e < extras; ++e) {
            pin.extras.push_back(static_cast<std::uint32_t>(rng.next_u64()));  // unsorted
        }
        auto got = client.forward<yokan::proto::KeyReq, yokan::proto::GetResp>(
            "mserver", "yokan_get", 1, {"products", "key0", pin});
        auto listed = client.forward<yokan::proto::ListReq, yokan::proto::ListKeysResp>(
            "mserver", "yokan_list_keys", 1, {"products", "", "", 64, false, pin});
        if (pin.seq > head) {
            EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
            EXPECT_EQ(listed.status().code(), StatusCode::kInvalidArgument);
        } else {
            // A reachable pin (or 0 = latest) serves; the value, if visible,
            // is the stored one — a hostile epoch filter can hide but never
            // corrupt.
            if (got.ok()) {
                EXPECT_EQ(std::string(got->value.sv()), "v0");
            }
            ASSERT_TRUE(listed.ok()) << listed.status().to_string();
            EXPECT_LE(listed->keys.size(), 16u);
        }
    }

    // Raw garbage at the pinned read RPCs: framing or validation errors only.
    const char* rpcs[] = {"yokan_get", "yokan_list_keys", "yokan_get_multi", "yokan_seq"};
    for (int iter = 0; iter < 400; ++iter) {
        const std::string payload = random_bytes(rng, 192);
        auto raw = client.endpoint().call("mserver", rpcs[iter % 4], 1, payload,
                                          std::chrono::milliseconds{0});
        if (!raw.ok()) {
            EXPECT_FALSE(raw.status().to_string().empty());
        }
    }

    // The provider survived: latest and pinned-at-head reads still work.
    auto latest = client.forward<yokan::proto::KeyReq, yokan::proto::GetResp>(
        "mserver", "yokan_get", 1, {"products", "key3", {}});
    ASSERT_TRUE(latest.ok()) << latest.status().to_string();
    EXPECT_EQ(std::string(latest->value.sv()), "v3");
    yokan::proto::ReadPin at_head;
    at_head.seq = head;
    auto pinned = client.forward<yokan::proto::KeyReq, yokan::proto::GetResp>(
        "mserver", "yokan_get", 1, {"products", "key3", at_head});
    ASSERT_TRUE(pinned.ok()) << pinned.status().to_string();
    EXPECT_EQ(std::string(pinned->value.sv()), "v3");
}

TEST_P(MvccFuzzTest, MalformedPublishRecordsAreInertNotFatal) {
    // Publish markers ride the ordinary put path, so hostile clients can
    // write arbitrary internal-prefixed keys. Property: malformed marker
    // keys are stored as plain (internal, scan-hidden) keys without ever
    // publishing an epoch, random put epochs stage cleanly, and a
    // well-formed marker still publishes exactly its own epoch.
    Rng rng(GetParam());
    rpc::Network net;
    margo::Engine server(net, "pserver", margo::EngineConfig{2});
    margo::Engine client(net, "pclient");
    auto cfg = json::parse(R"({"databases": [{"name": "products", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();
    auto* db = (*provider)->find_database("products");

    auto put = [&](std::string key, std::string_view value, std::uint32_t epoch) {
        const yokan::proto::PutViewReq req{"products", std::move(key),
                                           hep::Buffer::copy_of(value), true, epoch};
        return client
            .forward<yokan::proto::PutViewReq, yokan::proto::Ack>("pserver", "yokan_put_owned",
                                                                  1, req)
            .status();
    };

    // Stage a value under epoch 9: the fuzz below must never publish it.
    ASSERT_TRUE(put("staged", "s", 9).ok());

    for (int iter = 0; iter < 300; ++iter) {
        // Marker-shaped keys with wrong-length or garbage suffixes (a real
        // epoch suffix is exactly 4 bytes and nonzero).
        std::string key(yokan::kPublishMarkerPrefix);
        const std::size_t len = rng.uniform(0, 8);
        if (len == 4 && iter % 2) {
            key += std::string(4, '\0');  // epoch 0: reserved, not publishable
        } else {
            key += random_bytes(rng, len);
        }
        if (yokan::parse_publish_marker(key) != 0) continue;  // rare: valid
        auto ack = put(key, "", 0);
        ASSERT_TRUE(ack.ok()) << ack.to_string();

        // Random-epoch puts stage without ever becoming visible.
        const auto epoch = static_cast<std::uint32_t>(rng.next_u64() | 1);
        ASSERT_TRUE(put("fuzz-staged", "x", epoch).ok());
    }

    // Nothing got published, nothing internal leaks from filtered reads.
    EXPECT_FALSE(db->epoch_visible(9));
    auto get = client.forward<yokan::proto::KeyReq, yokan::proto::GetResp>(
        "pserver", "yokan_get", 1, {"products", "staged", {}});
    EXPECT_EQ(get.status().code(), StatusCode::kNotFound);
    auto listed = client.forward<yokan::proto::ListReq, yokan::proto::ListKeysResp>(
        "pserver", "yokan_list_keys", 1, {"products", "", "", 1024, false, {}});
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed->keys.empty());  // every stored key is internal or staged

    // A genuine marker still publishes its epoch — and only it.
    ASSERT_TRUE(put(yokan::publish_marker_key(9), "", 0).ok());
    EXPECT_TRUE(db->epoch_visible(9));
    get = client.forward<yokan::proto::KeyReq, yokan::proto::GetResp>(
        "pserver", "yokan_get", 1, {"products", "staged", {}});
    ASSERT_TRUE(get.ok()) << get.status().to_string();
    EXPECT_EQ(std::string(get->value.sv()), "s");
}

TEST(MvccFuzzTest2, QueryOpenWithHostilePinIsRejectedNotFatal) {
    rpc::Network net;
    margo::Engine server(net, "qpserver", margo::EngineConfig{2});
    margo::Engine client(net, "qpclient");
    auto cfg = json::parse(R"({"databases": [{"name": "products", "type": "map"}]})");
    ASSERT_TRUE(cfg.ok());
    auto provider = yokan::Provider::create(server, 1, *cfg);
    ASSERT_TRUE(provider.ok()) << provider.status().to_string();
    query::QueryProvider qp(server, 1, **provider);

    Rng rng(909);
    for (int iter = 0; iter < 100; ++iter) {
        query::proto::OpenReq open;
        open.db = "products";
        open.spec = query::nova_selection_spec({}, "std::vector<hep::nova::Slice>");
        open.pin.seq = 1000 + (rng.next_u64() >> 1);  // far ahead of the empty db
        open.pin.floor = static_cast<std::uint32_t>(rng.next_u64());
        auto resp = client.forward<query::proto::OpenReq, query::proto::OpenResp>(
            "qpserver", "query_open", 1, open);
        EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
    }

    // The provider survived: an unpinned open self-pins and drains cleanly.
    query::proto::OpenReq open;
    open.db = "products";
    open.spec = query::nova_selection_spec({}, "std::vector<hep::nova::Slice>");
    auto opened = client.forward<query::proto::OpenReq, query::proto::OpenResp>(
        "qpserver", "query_open", 1, open);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    EXPECT_GE(opened->pin.seq, 1u);  // self-pinned, never "latest"
    auto page = client.forward<query::proto::NextReq, query::proto::Page>(
        "qpserver", "query_next", 1, {"products", opened->cursor});
    ASSERT_TRUE(page.ok()) << page.status().to_string();
    EXPECT_TRUE(page->done);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccFuzzTest, ::testing::Values(13, 131, 1313));

// ---------------------------------------------------------- qos wire stamps

class QosFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QosFuzzTest, RandomQosStampsNeverKillAnAdmittingServer) {
    // Property: arbitrary tenant bytes / class values / deadline budgets in
    // the wire header produce a clean response (OK for well-formed stamps,
    // InvalidArgument/DeadlineExceeded/Overloaded otherwise) — never a crash,
    // hang or silently dropped request.
    Rng rng(GetParam());
    rpc::Network net;
    margo::Engine server(net, "qos-server", margo::EngineConfig{2});
    auto ctrl = std::make_shared<qos::AdmissionController>(qos::AdmissionOptions{});
    server.enable_qos(ctrl);
    margo::Engine client(net, "qos-client");
    std::atomic<int> executed{0};
    server.define<int, int>("echo", 1, [&](const int& x) -> hep::Result<int> {
        ++executed;
        return x;
    });

    int answered = 0;
    for (int iter = 0; iter < 200; ++iter) {
        qos::QosTag tag;
        tag.tenant = random_bytes(rng, 2 * qos::kMaxTenantLen);
        tag.cls = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
        const auto budget = std::chrono::milliseconds(
            rng.uniform(0, 2) == 0 ? 0 : static_cast<long>(rng.uniform(1, 100000)));
        auto r = client.forward<int, int>("qos-server", "echo", 1, iter, budget, tag);
        if (r.ok()) {
            EXPECT_EQ(*r, iter);
            ++answered;
        } else {
            const StatusCode code = r.status().code();
            EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                        code == StatusCode::kDeadlineExceeded ||
                        code == StatusCode::kOverloaded)
                << r.status().to_string();
        }
    }
    // The server survived the storm and still answers a clean request.
    auto ok = client.forward<int, int>("qos-server", "echo", 1, 42, std::chrono::milliseconds{0},
                                       qos::QosTag{"clean", qos::kClassInteractive});
    ASSERT_TRUE(ok.ok()) << ok.status().to_string();
    EXPECT_EQ(*ok, 42);
    EXPECT_GE(executed.load(), answered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosFuzzTest, ::testing::Values(11, 97, 2026));

}  // namespace
