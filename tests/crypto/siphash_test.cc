/**
 * @file
 * SipHash-2-4 tests: reference vectors plus PRF-behaviour properties,
 * and the SipHashMac engine's keyed-MAC behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "crypto/siphash.hh"

namespace
{

using dolos::crypto::MacTag;
using dolos::crypto::siphash24;
using dolos::crypto::SipHashMac;
using dolos::crypto::SipKey;

SipKey
referenceKey()
{
    SipKey k;
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(i);
    return k;
}

// First entries of the reference test-vector table from the SipHash
// paper (key 000102...0f, message 00 01 02 ... of increasing length).
TEST(SipHash, ReferenceVectors)
{
    const std::uint64_t expected[] = {
        0x726fdb47dd0e0e31ULL, // len 0
        0x74f839c593dc67fdULL, // len 1
        0x0d6c8009d9a94f5aULL, // len 2
        0x85676696d7fb7e2dULL, // len 3
        0xcf2794e0277187b7ULL, // len 4
        0x18765564cd99a68dULL, // len 5
        0xcbc9466e58fee3ceULL, // len 6
        0xab0200f58b01d137ULL, // len 7
        0x93f5f5799a932462ULL, // len 8
    };
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg;
    for (std::size_t len = 0; len < std::size(expected); ++len) {
        EXPECT_EQ(siphash24(key, msg.data(), msg.size()), expected[len])
            << "length " << len;
        msg.push_back(std::uint8_t(len));
    }

    // The paper's Appendix A worked example: the same key, the
    // 15-byte message 00..0e.
    const std::vector<std::uint8_t> appendixA = {
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e};
    EXPECT_EQ(siphash24(key, appendixA.data(), appendixA.size()),
              0xa129ca6149be45e5ULL);
}

// Tags for messages 00 01 .. (len - 1), len 0..63, under the
// reference key, as the byte-at-a-time implementation computed them:
// every tail length (len % 8) with up to seven whole words before it.
TEST(SipHash, PinnedTagsLengths0To63)
{
    const std::uint64_t expected[64] = {
        0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL,
        0x0d6c8009d9a94f5aULL, 0x85676696d7fb7e2dULL,
        0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
        0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL,
        0x93f5f5799a932462ULL, 0x9e0082df0ba9e4b0ULL,
        0x7a5dbbc594ddb9f3ULL, 0xf4b32f46226bada7ULL,
        0x751e8fbc860ee5fbULL, 0x14ea5627c0843d90ULL,
        0xf723ca908e7af2eeULL, 0xa129ca6149be45e5ULL,
        0x3f2acc7f57c29bdbULL, 0x699ae9f52cbe4794ULL,
        0x4bc1b3f0968dd39cULL, 0xbb6dc91da77961bdULL,
        0xbed65cf21aa2ee98ULL, 0xd0f2cbb02e3b67c7ULL,
        0x93536795e3a33e88ULL, 0xa80c038ccd5ccec8ULL,
        0xb8ad50c6f649af94ULL, 0xbce192de8a85b8eaULL,
        0x17d835b85bbb15f3ULL, 0x2f2e6163076bcfadULL,
        0xde4daaaca71dc9a5ULL, 0xa6a2506687956571ULL,
        0xad87a3535c49ef28ULL, 0x32d892fad841c342ULL,
        0x7127512f72f27cceULL, 0xa7f32346f95978e3ULL,
        0x12e0b01abb051238ULL, 0x15e034d40fa197aeULL,
        0x314dffbe0815a3b4ULL, 0x027990f029623981ULL,
        0xcadcd4e59ef40c4dULL, 0x9abfd8766a33735cULL,
        0x0e3ea96b5304a7d0ULL, 0xad0c42d6fc585992ULL,
        0x187306c89bc215a9ULL, 0xd4a60abcf3792b95ULL,
        0xf935451de4f21df2ULL, 0xa9538f0419755787ULL,
        0xdb9acddff56ca510ULL, 0xd06c98cd5c0975ebULL,
        0xe612a3cb9ecba951ULL, 0xc766e62cfcadaf96ULL,
        0xee64435a9752fe72ULL, 0xa192d576b245165aULL,
        0x0a8787bf8ecb74b2ULL, 0x81b3e73d20b49b6fULL,
        0x7fa8220ba3b2eceaULL, 0x245731c13ca42499ULL,
        0xb78dbfaf3a8d83bdULL, 0xea1ad565322a1a0bULL,
        0x60e61c23a3795013ULL, 0x6606d7e446282b93ULL,
        0x6ca4ecb15c5f91e1ULL, 0x9f626da15c9625f3ULL,
        0xe51b38608ef25f57ULL, 0x958a324ceb064572ULL,
    };
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg;
    for (std::size_t len = 0; len < std::size(expected); ++len) {
        EXPECT_EQ(siphash24(key, msg.data(), msg.size()), expected[len])
            << "length " << len;
        // The word loads never read past the message: a copy at an
        // odd offset inside a larger buffer gives the same tag.
        std::vector<std::uint8_t> shifted(len + 9, 0xFF);
        std::copy(msg.begin(), msg.end(), shifted.begin() + 1);
        EXPECT_EQ(siphash24(key, shifted.data() + 1, len), expected[len])
            << "length " << len << " at offset 1";
        msg.push_back(std::uint8_t(len));
    }
}

TEST(SipHash, Deterministic)
{
    const SipKey key = referenceKey();
    const char msg[] = "hello world";
    EXPECT_EQ(siphash24(key, msg, sizeof(msg)),
              siphash24(key, msg, sizeof(msg)));
}

TEST(SipHash, KeyDependence)
{
    SipKey k1 = referenceKey();
    SipKey k2 = k1;
    k2[15] ^= 0x80;
    const char msg[] = "payload";
    EXPECT_NE(siphash24(k1, msg, sizeof(msg)),
              siphash24(k2, msg, sizeof(msg)));
}

TEST(SipHash, MessageBitFlipChangesTag)
{
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg(64, 0xAA);
    const std::uint64_t base = siphash24(key, msg.data(), msg.size());
    for (std::size_t byte = 0; byte < msg.size(); byte += 7) {
        msg[byte] ^= 1;
        EXPECT_NE(siphash24(key, msg.data(), msg.size()), base);
        msg[byte] ^= 1;
    }
}

TEST(SipHash, LengthExtensionDistinct)
{
    // Messages that are prefixes of each other must hash differently
    // (the length is folded into the final block).
    const SipKey key = referenceKey();
    std::vector<std::uint8_t> msg(32, 0);
    std::set<std::uint64_t> tags;
    for (std::size_t len = 0; len <= msg.size(); ++len)
        tags.insert(siphash24(key, msg.data(), len));
    EXPECT_EQ(tags.size(), msg.size() + 1);
}

SipKey
seededKey(std::uint8_t seed = 0)
{
    SipKey k{};
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(seed + i);
    return k;
}

TEST(SipHashMac, DeterministicAndVerifies)
{
    const SipHashMac eng(seededKey());
    const char msg[] = "persist me";
    const MacTag t1 = eng.compute(msg, sizeof(msg));
    EXPECT_EQ(t1, eng.compute(msg, sizeof(msg)));
    EXPECT_TRUE(eng.verify(msg, sizeof(msg), t1));
    // The tag is the SipHash-2-4 value, little-endian.
    const std::uint64_t v = siphash24(seededKey(), msg, sizeof(msg));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(t1[i], std::uint8_t(v >> (8 * i)));
}

TEST(SipHashMac, TamperedDataFailsVerification)
{
    const SipHashMac eng(seededKey());
    std::vector<std::uint8_t> msg(64, 0x5A);
    const MacTag tag = eng.compute(msg.data(), msg.size());
    for (std::size_t i = 0; i < msg.size(); i += 9) {
        msg[i] ^= 0x01;
        EXPECT_FALSE(eng.verify(msg.data(), msg.size(), tag));
        msg[i] ^= 0x01;
    }
    EXPECT_TRUE(eng.verify(msg.data(), msg.size(), tag));
}

TEST(SipHashMac, TamperedTagFailsVerification)
{
    const SipHashMac eng(seededKey());
    const char msg[] = "data";
    MacTag tag = eng.compute(msg, sizeof(msg));
    for (int bit = 0; bit < 64; bit += 11) {
        tag[bit / 8] ^= std::uint8_t(1 << (bit % 8));
        EXPECT_FALSE(eng.verify(msg, sizeof(msg), tag));
        tag[bit / 8] ^= std::uint8_t(1 << (bit % 8));
    }
}

TEST(SipHashMac, KeyDependence)
{
    const SipHashMac e1(seededKey(0));
    const SipHashMac e2(seededKey(1));
    const char msg[] = "same message";
    EXPECT_NE(e1.compute(msg, sizeof(msg)), e2.compute(msg, sizeof(msg)));
}

TEST(SipHashMac, ComputePartsMatchesConcatenation)
{
    const SipHashMac eng(seededKey());
    const std::uint64_t addr = 0x1000;
    const std::uint64_t ctr = 7;
    std::vector<std::uint8_t> data(64, 0xC3);

    std::vector<std::uint8_t> concat;
    auto append = [&concat](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        concat.insert(concat.end(), b, b + n);
    };
    append(&addr, sizeof(addr));
    append(&ctr, sizeof(ctr));
    append(data.data(), data.size());

    const MacTag parts = eng.computeParts(
        {{&addr, sizeof(addr)}, {&ctr, sizeof(ctr)},
         {data.data(), data.size()}});
    EXPECT_EQ(parts, eng.compute(concat.data(), concat.size()));
}

// Streaming equals one-shot hashing however the message is cut:
// every 2-way and 3-way split of messages of 0..130 bytes (every
// boundary alignment against the 8-byte word, empty segments
// included), and a 2-way and 3-way split of a message over 256 bytes.
TEST(SipHashMac, ComputePartsEqualsComputeForEverySplit)
{
    const SipHashMac eng(seededKey());
    std::vector<std::uint8_t> msg(300);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = std::uint8_t(i * 131 + 7);
    const std::uint8_t *m = msg.data();

    for (std::size_t len = 0; len <= 130; ++len) {
        const MacTag whole = eng.compute(m, len);
        for (std::size_t a = 0; a <= len; ++a) {
            ASSERT_EQ(eng.computeParts({{m, a}, {m + a, len - a}}), whole)
                << "len " << len << " split " << a;
            for (std::size_t b = a; b <= len; ++b)
                ASSERT_EQ(eng.computeParts({{m, a},
                                            {m + a, b - a},
                                            {m + b, len - b}}),
                          whole)
                    << "len " << len << " splits " << a << "," << b;
        }
    }

    const MacTag big = eng.compute(m, msg.size());
    EXPECT_EQ(eng.computeParts({{m, 137}, {m + 137, msg.size() - 137}}),
              big);
    EXPECT_EQ(eng.computeParts(
                  {{m, 3}, {m + 3, 254}, {m + 257, msg.size() - 257}}),
              big);
}

TEST(SipHashMac, SegmentBoundariesMatter)
{
    // MAC(a || b) with different splits is the same bytes, but
    // different *contents* must differ: swap two fields.
    const SipHashMac eng(seededKey());
    const std::uint64_t a = 1, b = 2;
    const MacTag ab = eng.computeParts({{&a, 8}, {&b, 8}});
    const MacTag ba = eng.computeParts({{&b, 8}, {&a, 8}});
    EXPECT_NE(ab, ba);
}

} // namespace
