// Unit and property tests for src/common: status, endian encoding, hashing,
// consistent-hash ring, UUIDs, RNG, JSON, CRC32.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/crc32.hpp"
#include "common/endian.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/uuid.hpp"

namespace hep {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kOk);
    EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
    Status s = Status::NotFound("no such run");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
    EXPECT_EQ(s.message(), "no such run");
    EXPECT_EQ(s.to_string(), "not-found: no such run");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
    EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
    EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(ResultTest, HoldsValue) {
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 42);
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsStatus) {
    Result<int> r(Status::IOError("disk gone"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
    Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
    ASSERT_TRUE(r.ok());
    auto p = std::move(r).value();
    EXPECT_EQ(*p, 7);
}

// ---------------------------------------------------------------- Endian ---

TEST(EndianTest, RoundTrip64) {
    for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 256ULL, 0xDEADBEEFCAFEBABEULL,
                            ~0ULL}) {
        std::string enc = encode_be64(v);
        ASSERT_EQ(enc.size(), 8u);
        EXPECT_EQ(decode_be64(enc), v);
    }
}

TEST(EndianTest, BigEndianPreservesOrder) {
    // This property is what makes run/subrun/event iteration sorted
    // (paper §II-C3): lexicographic byte order == numeric order.
    Rng rng(123);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t a = rng.next_u64() >> (rng.next_u64() % 64);
        const std::uint64_t b = rng.next_u64() >> (rng.next_u64() % 64);
        EXPECT_EQ(a < b, encode_be64(a) < encode_be64(b)) << a << " vs " << b;
    }
}

TEST(EndianTest, RoundTrip32) {
    std::string s;
    append_be32(s, 0x01020304u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(decode_be32(s.data()), 0x01020304u);
}

// ------------------------------------------------------------------ Hash ---

TEST(HashTest, Fnv1aIsDeterministicAndSpreads) {
    EXPECT_EQ(fnv1a64("hepnos"), fnv1a64("hepnos"));
    EXPECT_NE(fnv1a64("hepnos"), fnv1a64("hepnoS"));
    EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(HashTest, Mix64Avalanches) {
    // Flipping one input bit should flip roughly half of the output bits.
    int total_flips = 0;
    constexpr int kTrials = 64;
    for (int bit = 0; bit < kTrials; ++bit) {
        const std::uint64_t a = mix64(0x1234567890ABCDEFULL);
        const std::uint64_t b = mix64(0x1234567890ABCDEFULL ^ (1ULL << bit));
        total_flips += __builtin_popcountll(a ^ b);
    }
    const double avg = static_cast<double>(total_flips) / kTrials;
    EXPECT_GT(avg, 24.0);
    EXPECT_LT(avg, 40.0);
}

// ----------------------------------------------------------------- CRC32 ---

/// Bit-at-a-time reference over the reflected IEEE polynomial, independent
/// of every table in crc32.hpp: one byte into the pre-inverted state.
std::uint32_t crc32_reference_step(std::uint32_t state, char ch) {
    state ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    return state;
}

std::uint32_t crc32_reference(std::string_view data) {
    std::uint32_t state = ~0u;
    for (char ch : data) state = crc32_reference_step(state, ch);
    return ~state;
}

std::string crc32_test_bytes(std::size_t n) {
    Rng rng(0xC3C3);
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(rng.next_u64());
    return out;
}

TEST(Crc32Test, CheckValue) {
    static_assert(crc32("123456789") == 0xCBF43926u);  // constant-evaluated loop
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check), 0xCBF43926u);
    EXPECT_EQ(detail::crc32_portable(check), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32Test, DispatchedAndPortableMatchReferenceAtEveryAlignment) {
    // Offsets 0-15 put the 16-byte folding loads at every misalignment;
    // lengths cross the 64-byte PCLMUL threshold and every tail size.
    const std::string buf = crc32_test_bytes(8192 + 16);
    const std::string_view all(buf);
    for (std::size_t off = 0; off < 16; ++off) {
        std::uint32_t state = ~0u;  // reference over all.substr(off, len), grown a byte a time
        for (std::size_t len = 0; len <= 8192; ++len) {
            const std::string_view v = all.substr(off, len);
            ASSERT_EQ(crc32(v), ~state) << "off " << off << " len " << len;
            ASSERT_EQ(detail::crc32_portable(v), ~state) << "off " << off << " len " << len;
            state = crc32_reference_step(state, all[off + len]);
        }
    }
}

TEST(Crc32Test, ChainedCallsMatchOneShot) {
    const std::string buf = crc32_test_bytes(5000);
    const std::string_view all(buf);
    const std::uint32_t want = crc32_reference(all);
    for (std::size_t cut : {0, 1, 15, 63, 64, 65, 200, 4096, 4999, 5000}) {
        EXPECT_EQ(crc32(all.substr(cut), crc32(all.substr(0, cut))), want) << cut;
        EXPECT_EQ(detail::crc32_portable(all.substr(cut),
                                         detail::crc32_portable(all.substr(0, cut))),
                  want)
            << cut;
    }
    // Many small and large pieces, alternating paths.
    std::uint32_t crc = 0;
    for (std::size_t pos = 0, step = 1; pos < all.size(); pos += step, step = step * 3 % 197 + 1) {
        const std::string_view piece = all.substr(pos, step);
        crc = (pos % 2) ? crc32(piece, crc) : detail::crc32_portable(piece, crc);
    }
    EXPECT_EQ(crc, want);
}

TEST(HashRingTest, LookupIsStable) {
    HashRing ring(8);
    EXPECT_EQ(ring.lookup("some/key"), ring.lookup("some/key"));
    HashRing ring2(8);
    EXPECT_EQ(ring.lookup("some/key"), ring2.lookup("some/key"));
}

TEST(HashRingTest, CoversAllTargetsRoughlyEvenly) {
    constexpr std::size_t kTargets = 8;
    HashRing ring(kTargets);
    std::vector<int> counts(kTargets, 0);
    Rng rng(7);
    constexpr int kKeys = 20000;
    for (int i = 0; i < kKeys; ++i) {
        ++counts[ring.lookup("key-" + std::to_string(rng.next_u64()))];
    }
    for (std::size_t t = 0; t < kTargets; ++t) {
        // Each target should hold 12.5% +/- a generous band.
        EXPECT_GT(counts[t], kKeys / kTargets / 3) << "target " << t;
        EXPECT_LT(counts[t], kKeys / kTargets * 3) << "target " << t;
    }
}

TEST(HashRingTest, AddingTargetMovesFewKeys) {
    // Consistent-hashing property: growing from n to n+1 targets remaps only
    // ~1/(n+1) of the key space.
    HashRing before(8);
    HashRing after(8);
    after.add_target(8);
    int moved = 0;
    constexpr int kKeys = 10000;
    for (int i = 0; i < kKeys; ++i) {
        std::string key = "product-" + std::to_string(i);
        if (before.lookup(key) != after.lookup(key)) ++moved;
    }
    EXPECT_LT(moved, kKeys / 4);  // ideal ~11%, allow slack
    EXPECT_GT(moved, 0);          // but some must move
}

TEST(HashRingTest, SingleTargetGetsEverything) {
    HashRing ring(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(ring.lookup(std::to_string(i)), 0u);
    }
}

// ------------------------------------------------------------------ Uuid ---

TEST(UuidTest, GenerateIsUniqueEnough) {
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(seen.insert(Uuid::generate().to_string()).second);
    }
}

TEST(UuidTest, ParseRoundTrip) {
    Uuid u = Uuid::generate();
    auto parsed = Uuid::parse(u.to_string());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, u);
}

TEST(UuidTest, ParseRejectsMalformed) {
    EXPECT_FALSE(Uuid::parse("").ok());
    EXPECT_FALSE(Uuid::parse("not-a-uuid").ok());
    EXPECT_FALSE(Uuid::parse("00000000-0000-0000-0000-00000000000g").ok());
    EXPECT_FALSE(Uuid::parse("00000000x0000-0000-0000-000000000000").ok());
}

TEST(UuidTest, BytesRoundTrip) {
    Uuid u = Uuid::generate();
    EXPECT_EQ(Uuid::from_bytes(u.bytes()), u);
    EXPECT_EQ(u.bytes().size(), Uuid::kSize);
}

TEST(UuidTest, FromNameIsDeterministic) {
    EXPECT_EQ(Uuid::from_name("/fermilab/nova"), Uuid::from_name("/fermilab/nova"));
    EXPECT_NE(Uuid::from_name("/fermilab/nova"), Uuid::from_name("/fermilab/minos"));
}

TEST(UuidTest, NilDetection) {
    EXPECT_TRUE(Uuid().is_nil());
    EXPECT_FALSE(Uuid::generate().is_nil());
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformStaysInRange) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(RngTest, DoubleInUnitInterval) {
    Rng rng(10);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasRequestedMoments) {
    Rng rng(11);
    double sum = 0, sq = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double v = rng.normal(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.4);
}

// ------------------------------------------------------------------ JSON ---

TEST(JsonTest, ParsePrimitives) {
    EXPECT_TRUE(json::parse("null")->is_null());
    EXPECT_EQ(json::parse("true")->as_bool(), true);
    EXPECT_EQ(json::parse("false")->as_bool(false), false);
    EXPECT_EQ(json::parse("42")->as_int(), 42);
    EXPECT_EQ(json::parse("-17")->as_int(), -17);
    EXPECT_DOUBLE_EQ(json::parse("2.5")->as_double(), 2.5);
    EXPECT_DOUBLE_EQ(json::parse("1e3")->as_double(), 1000.0);
    EXPECT_EQ(json::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParseNestedDocument) {
    auto doc = json::parse(R"({
        "margo": {"rpc_thread_count": 16, "use_progress_thread": true},
        "providers": [
            {"type": "yokan", "provider_id": 1,
             "config": {"databases": [{"type": "map"}, {"type": "lsm"}]}}
        ]
    })");
    ASSERT_TRUE(doc.ok());
    const auto& v = *doc;
    EXPECT_EQ(v["margo"]["rpc_thread_count"].as_int(), 16);
    EXPECT_TRUE(v["margo"]["use_progress_thread"].as_bool());
    ASSERT_EQ(v["providers"].size(), 1u);
    EXPECT_EQ(v["providers"].at(0)["type"].as_string(), "yokan");
    EXPECT_EQ(v["providers"].at(0)["config"]["databases"].size(), 2u);
    EXPECT_EQ(v["providers"].at(0)["config"]["databases"].at(1)["type"].as_string(), "lsm");
}

TEST(JsonTest, MissingKeysAreNullNotFatal) {
    auto doc = json::parse(R"({"a": 1})");
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE((*doc)["b"].is_null());
    EXPECT_TRUE((*doc)["b"]["c"]["d"].is_null());
    EXPECT_EQ((*doc)["b"].as_int(99), 99);
}

TEST(JsonTest, StringEscapes) {
    auto doc = json::parse(R"("line\nbreak \"quoted\" tab\t u:A")");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->as_string(), "line\nbreak \"quoted\" tab\t u:A");
}

TEST(JsonTest, Comments) {
    auto doc = json::parse("{\n// a comment\n\"a\": /* inline */ 3\n}");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ((*doc)["a"].as_int(), 3);
}

TEST(JsonTest, ParseErrors) {
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{").ok());
    EXPECT_FALSE(json::parse("[1,]2").ok());
    EXPECT_FALSE(json::parse("{\"a\" 1}").ok());
    EXPECT_FALSE(json::parse("tru").ok());
    EXPECT_FALSE(json::parse("\"unterminated").ok());
    EXPECT_FALSE(json::parse("1 2").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
    json::Value v = json::Value::make_object();
    v["name"] = "hepnos";
    v["count"] = 8;
    v["ratio"] = 0.125;
    v["flag"] = true;
    v["none"] = nullptr;
    v["list"].push_back(1);
    v["list"].push_back("two");
    v["nested"]["deep"] = 7;

    for (int indent : {-1, 2, 4}) {
        auto round = json::parse(v.dump(indent));
        ASSERT_TRUE(round.ok()) << round.status().to_string();
        EXPECT_TRUE(*round == v) << v.dump(2);
    }
}

TEST(JsonTest, CopyOnWriteDoesNotAliasMutation) {
    json::Value a = json::Value::make_object();
    a["x"] = 1;
    json::Value b = a;  // shares representation
    b["x"] = 2;         // must not affect a
    EXPECT_EQ(a["x"].as_int(), 1);
    EXPECT_EQ(b["x"].as_int(), 2);
}

TEST(JsonTest, ParseFileMissing) {
    EXPECT_FALSE(json::parse_file("/nonexistent/path.json").ok());
}

// Property: any JSON value tree survives dump->parse with equality.
class JsonRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

json::Value random_value(Rng& rng, int depth) {
    const int kind = static_cast<int>(rng.uniform(0, depth > 3 ? 4 : 6));
    switch (kind) {
        case 0: return json::Value(nullptr);
        case 1: return json::Value(rng.bernoulli(0.5));
        case 2: return json::Value(static_cast<std::int64_t>(rng.next_u64() >> 12));
        case 3: return json::Value(rng.uniform_real(-1e6, 1e6));
        case 4: return json::Value("s" + std::to_string(rng.next_u64()));
        case 5: {
            json::Value arr = json::Value::make_array();
            const auto n = rng.uniform(0, 4);
            for (std::uint64_t i = 0; i < n; ++i) arr.push_back(random_value(rng, depth + 1));
            return arr;
        }
        default: {
            json::Value obj = json::Value::make_object();
            const auto n = rng.uniform(0, 4);
            for (std::uint64_t i = 0; i < n; ++i) {
                obj["k" + std::to_string(i)] = random_value(rng, depth + 1);
            }
            return obj;
        }
    }
}

TEST_P(JsonRoundTripTest, DumpParseIdentity) {
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        json::Value v = random_value(rng, 0);
        auto parsed = json::parse(v.dump());
        ASSERT_TRUE(parsed.ok()) << parsed.status().to_string() << "\n" << v.dump(2);
        EXPECT_TRUE(*parsed == v) << v.dump(2);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace hep
