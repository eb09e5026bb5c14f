// Tests for common/compression.hpp: exact round-trips for every codec and
// width, tight size bounds, and total (never-crashing) decodes — truncation
// at every cut point and random byte soup must be rejected with Corruption,
// not read out of bounds or accepted silently.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/compression.hpp"

namespace {

using namespace hep;
using compress::Codec;

std::uint64_t lcg(std::uint64_t& state) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
}

/// Build a test column of `count` elements of `width` bytes from a shape.
enum class Shape { kZeros, kSmall, kSequential, kRandom, kMax };

std::string make_column(Shape shape, std::size_t count, std::size_t width,
                        std::uint64_t seed) {
    std::string data(count * width, '\0');
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t v = 0;
        switch (shape) {
            case Shape::kZeros: v = 0; break;
            case Shape::kSmall: v = lcg(state) % 100; break;
            case Shape::kSequential: v = 1000 + i; break;
            case Shape::kRandom: v = lcg(state); break;
            case Shape::kMax: v = ~0ull; break;
        }
        if (width < 8) v &= (1ull << (8 * width)) - 1;
        compress::detail::store_elem(data.data(), i, width, v);
    }
    return data;
}

TEST(CompressionTest, RoundTripEveryCodecShapeAndWidth) {
    for (Codec codec : {Codec::kRaw, Codec::kVarint, Codec::kDelta}) {
        for (std::size_t width : {1u, 4u, 8u}) {
            for (Shape shape : {Shape::kZeros, Shape::kSmall, Shape::kSequential,
                                Shape::kRandom, Shape::kMax}) {
                for (std::size_t count : {0u, 1u, 2u, 7u, 256u}) {
                    std::string data = make_column(shape, count, width, 7 * count + width);
                    auto payload = compress::compress(codec, data.data(), count, width);
                    ASSERT_TRUE(payload.ok()) << payload.status().to_string();
                    EXPECT_LE(payload->size(),
                              compress::max_compressed_size(codec, count, width));
                    std::string out(count * width, '\xCC');
                    Status st =
                        compress::decompress(codec, *payload, count, width, out.data());
                    ASSERT_TRUE(st.ok())
                        << to_string(codec) << " w=" << width << ": " << st.to_string();
                    EXPECT_EQ(out, data) << to_string(codec) << " w=" << width;
                }
            }
        }
    }
}

TEST(CompressionTest, AutoPicksAValidCodecAndRoundTrips) {
    for (std::size_t width : {1u, 4u, 8u}) {
        for (Shape shape :
             {Shape::kZeros, Shape::kSmall, Shape::kSequential, Shape::kRandom}) {
            const std::size_t count = 300;
            std::string data = make_column(shape, count, width, 99);
            auto [codec, payload] = compress::compress_auto(data.data(), count, width);
            // Auto never loses to raw.
            EXPECT_LE(payload.size(), count * width);
            std::string out(count * width, '\0');
            ASSERT_TRUE(
                compress::decompress(codec, payload, count, width, out.data()).ok());
            EXPECT_EQ(out, data);
        }
    }
    // Shapes the non-raw codecs were built for actually win.
    std::string seq = make_column(Shape::kSequential, 256, 8, 1);
    auto [c1, p1] = compress::compress_auto(seq.data(), 256, 8);
    EXPECT_EQ(c1, Codec::kDelta);
    EXPECT_LT(p1.size(), 256u * 8u / 3u);
    std::string small = make_column(Shape::kSmall, 256, 4, 1);
    auto [c2, p2] = compress::compress_auto(small.data(), 256, 4);
    EXPECT_NE(c2, Codec::kRaw);
    EXPECT_LE(p2.size(), 256u);
}

/// compress_auto as it was before codecs were sized by counting: encode
/// every codec in full and keep the strictly smallest payload (raw, then
/// varint, then delta on ties). Kept here as the reference the counting
/// version must match decision for decision, byte for byte.
std::pair<Codec, std::string> trial_encode_reference(const void* data, std::size_t count,
                                                     std::size_t width) {
    std::pair<Codec, std::string> best{Codec::kRaw, std::string()};
    if (count == 0) return best;
    best.second.assign(static_cast<const char*>(data), count * width);
    for (Codec c : {Codec::kVarint, Codec::kDelta}) {
        auto attempt = compress::compress(c, data, count, width);
        if (attempt.ok() && attempt->size() < best.second.size()) {
            best = {c, std::move(*attempt)};
        }
    }
    return best;
}

/// Seeded corpus column for the reference comparison. kTie alternates
/// elements one varint byte over and one under the width, so varint lands
/// exactly on the raw size (width 1: every element < 0x80 does the same).
enum class RefShape { kRandom, kSmall, kSorted, kSparse, kTie };

std::string make_ref_column(RefShape shape, std::size_t count, std::size_t width,
                            std::uint64_t seed) {
    std::string data(count * width, '\0');
    std::uint64_t state = seed;
    std::uint64_t sorted = lcg(state) % 1000;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t v = 0;
        switch (shape) {
            case RefShape::kRandom: v = lcg(state) ^ (lcg(state) << 32); break;
            case RefShape::kSmall: v = lcg(state) % 200; break;
            case RefShape::kSorted: v = sorted += lcg(state) % 300; break;
            case RefShape::kSparse: v = lcg(state) % 16 == 0 ? lcg(state) : 0; break;
            case RefShape::kTie:
                if (width == 1) {
                    v = lcg(state) % 0x80;
                } else {
                    // Varint bytes w+1 then w-1: bit widths 7w+1 and 7(w-1).
                    const std::size_t bits = i % 2 == 0 ? 7 * width + 1 : 7 * (width - 1);
                    v = (1ull << (bits - 1)) | (lcg(state) & ((1ull << (bits - 1)) - 1));
                }
                break;
        }
        if (width < 8) v &= (1ull << (8 * width)) - 1;
        compress::detail::store_elem(data.data(), i, width, v);
    }
    return data;
}

TEST(CompressionTest, AutoPickMatchesTrialEncodeReference) {
    std::size_t ties_at_raw = 0;
    for (std::size_t width : {1u, 4u, 8u}) {
        for (RefShape shape : {RefShape::kRandom, RefShape::kSmall, RefShape::kSorted,
                               RefShape::kSparse, RefShape::kTie}) {
            for (std::size_t count = 0; count <= 600; ++count) {
                const std::string data = make_ref_column(
                    shape, count, width, 1000003 * count + 31 * width + static_cast<int>(shape));
                const auto want = trial_encode_reference(data.data(), count, width);
                const auto got = compress::compress_auto(data.data(), count, width);
                ASSERT_EQ(got.first, want.first)
                    << "w=" << width << " shape=" << static_cast<int>(shape) << " n=" << count;
                ASSERT_EQ(got.second, want.second)
                    << "w=" << width << " shape=" << static_cast<int>(shape) << " n=" << count;
                for (Codec c : {Codec::kRaw, Codec::kVarint, Codec::kDelta}) {
                    const std::size_t size = compress::compress(c, data.data(), count, width)->size();
                    ASSERT_EQ(compress::compressed_size(c, data.data(), count, width), size)
                        << to_string(c) << " w=" << width << " n=" << count;
                    // An early stop is exact below the bound, at or past it otherwise.
                    const std::size_t stop = count * width;
                    const std::size_t capped =
                        compress::compressed_size(c, data.data(), count, width, stop);
                    if (size < stop) {
                        ASSERT_EQ(capped, size);
                    } else {
                        ASSERT_GE(capped, stop);
                    }
                    if (c == Codec::kVarint && count > 0 && size == count * width) ++ties_at_raw;
                }
            }
        }
    }
    // The tie shape really exercised the strict raw-wins-ties rule.
    EXPECT_GT(ties_at_raw, 1000u);
}

TEST(CompressionTest, EveryCountingKernelBuildMatchesTheBaseline) {
    // compressed_size runs only the build this CPU picks; check each build
    // the CPU can run, so the baseline (the only one older CPUs get) is
    // covered on hosts that pick v4, and v4 is checked against it.
    const compress::detail::CountKernel baseline = compress::detail::count_kernel_baseline();
    std::vector<compress::detail::CountKernel> kernels{baseline};
    if (auto v4 = compress::detail::count_kernel_v4()) kernels.push_back(v4);
    std::vector<std::size_t> counts;
    for (std::size_t n = 0; n <= 200; ++n) counts.push_back(n);
    for (std::size_t n : {255u, 256u, 257u, 544u, 1000u, 4097u}) counts.push_back(n);
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    for (auto kernel : kernels) {
        for (std::size_t width : {1u, 4u, 8u}) {
            for (Shape shape : {Shape::kZeros, Shape::kSmall, Shape::kSequential,
                                Shape::kRandom, Shape::kMax}) {
                for (std::size_t count : counts) {
                    const std::string data = make_column(shape, count, width, 7 * count + width);
                    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
                    for (Codec c : {Codec::kVarint, Codec::kDelta}) {
                        const std::size_t size =
                            compress::compress(c, data.data(), count, width)->size();
                        ASSERT_EQ(kernel(c, p, count, width, kMax), size)
                            << to_string(c) << " w=" << width << " n=" << count;
                        for (std::size_t stop : {std::size_t{0}, std::size_t{1}, size / 2, size,
                                                 size + 1, count * width}) {
                            const std::size_t got = kernel(c, p, count, width, stop);
                            // Exact below the bound, at or past it otherwise,
                            // and the same early stop as the baseline.
                            if (size < stop) {
                                ASSERT_EQ(got, size);
                            } else {
                                ASSERT_GE(got, stop);
                            }
                            ASSERT_EQ(got, baseline(c, p, count, width, stop))
                                << to_string(c) << " w=" << width << " n=" << count
                                << " stop=" << stop;
                        }
                    }
                }
            }
        }
    }
}

TEST(CompressionTest, VarintPrimitivesAreExactAndBounded) {
    for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, (1ull << 32) - 1,
                            1ull << 32, ~0ull}) {
        std::string buf;
        compress::put_varint(buf, v);
        EXPECT_LE(buf.size(), 10u);
        std::size_t pos = 0;
        std::uint64_t back = 0;
        ASSERT_TRUE(compress::get_varint(buf, pos, back));
        EXPECT_EQ(back, v);
        EXPECT_EQ(pos, buf.size());
    }
    // Truncation mid-value.
    std::string buf;
    compress::put_varint(buf, ~0ull);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        std::size_t pos = 0;
        std::uint64_t v = 0;
        EXPECT_FALSE(compress::get_varint(std::string_view(buf).substr(0, cut), pos, v));
    }
    // An encoding with bits beyond 64 is rejected.
    std::string over(9, '\x80');
    over.push_back('\x02');  // would set bit 64
    std::size_t pos = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(compress::get_varint(over, pos, v));
    // Ten continuation bytes: not a valid u64 either.
    std::string cont(10, '\xFF');
    pos = 0;
    EXPECT_FALSE(compress::get_varint(cont, pos, v));
    // Zigzag is its own inverse across the sign range.
    for (std::int64_t s : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                           std::int64_t{1000}, std::int64_t{-1000},
                           std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::min()}) {
        const auto u = static_cast<std::uint64_t>(s);
        EXPECT_EQ(compress::zigzag_decode(compress::zigzag_encode(u)), u);
    }
}

TEST(CompressionTest, TruncationAtEveryCutIsRejected) {
    for (Codec codec : {Codec::kRaw, Codec::kVarint, Codec::kDelta}) {
        for (std::size_t width : {1u, 4u, 8u}) {
            const std::size_t count = 24;
            std::string data = make_column(Shape::kRandom, count, width, 1234);
            auto payload = compress::compress(codec, data.data(), count, width);
            ASSERT_TRUE(payload.ok());
            std::string out(count * width, '\0');
            for (std::size_t cut = 0; cut < payload->size(); ++cut) {
                Status st = compress::decompress(
                    codec, std::string_view(*payload).substr(0, cut), count, width,
                    out.data());
                EXPECT_FALSE(st.ok())
                    << to_string(codec) << " w=" << width << " cut=" << cut;
            }
            // One trailing byte is equally corrupt (decode must consume
            // exactly).
            std::string padded = *payload + '\0';
            if (padded.size() <= compress::max_compressed_size(codec, count, width)) {
                EXPECT_FALSE(
                    compress::decompress(codec, padded, count, width, out.data()).ok());
            }
        }
    }
}

TEST(CompressionTest, RandomBytesNeverCrashAndValuesAlwaysFitWidth) {
    std::uint64_t state = 0xC0FFEE;
    for (int iter = 0; iter < 3000; ++iter) {
        const auto codec = static_cast<Codec>(lcg(state) % 3);
        const std::size_t width = std::size_t{1} << ((lcg(state) % 3) * (lcg(state) % 2 + 1));
        const std::size_t w = (width == 1 || width == 4 || width == 8) ? width : 4;
        const std::size_t count = lcg(state) % 40;
        std::string payload(lcg(state) % (count * 10 + 12), '\0');
        for (auto& ch : payload) ch = static_cast<char>(lcg(state));
        std::string out(count * w, '\0');
        Status st = compress::decompress(codec, payload, count, w, out.data());
        if (st.ok()) {
            // Whatever decoded must re-encode to something decodable and every
            // element must fit the width — a successful decode is a VALID one.
            for (std::size_t i = 0; i < count; ++i) {
                const std::uint64_t v = compress::detail::load_elem(out.data(), i, w);
                EXPECT_TRUE(compress::detail::fits_width(v, w));
            }
        }
    }
    SUCCEED();  // reaching here without UB/crash is the assertion
}

TEST(CompressionTest, OutOfRangeValuesForWidthAreRejected) {
    // A varint payload whose single value exceeds the 1-byte width.
    std::string big;
    compress::put_varint(big, 256);  // needs 2 bytes of width
    std::uint8_t out1 = 0;
    EXPECT_FALSE(compress::decompress(Codec::kVarint, big, 1, 1, &out1).ok());
    // Delta stream reconstructing past the width: 255 + 1.
    std::string d;
    compress::put_varint(d, 255);
    compress::put_varint(d, compress::zigzag_encode(1));
    std::uint8_t out2[2] = {0, 0};
    EXPECT_FALSE(compress::decompress(Codec::kDelta, d, 2, 1, out2).ok());
    // The same stream is fine at width 4.
    std::uint32_t out3[2] = {0, 0};
    ASSERT_TRUE(compress::decompress(Codec::kDelta, d, 2, 4, out3).ok());
    EXPECT_EQ(out3[0], 255u);
    EXPECT_EQ(out3[1], 256u);
}

TEST(CompressionTest, PayloadOverSizeBoundRejectedUpFront) {
    const std::size_t count = 4;
    std::string oversized(compress::max_compressed_size(Codec::kVarint, count, 4) + 1,
                          '\x01');
    std::uint32_t out[4];
    EXPECT_FALSE(compress::decompress(Codec::kVarint, oversized, count, 4, out).ok());
    EXPECT_FALSE(compress::decompress(static_cast<Codec>(7), "abc", 1, 4, out).ok());
    EXPECT_FALSE(compress::decompress(Codec::kRaw, "abc", 1, 3, out).ok());  // bad width
}

}  // namespace
