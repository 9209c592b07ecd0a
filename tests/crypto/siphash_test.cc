/**
 * @file
 * SipHash-2-4 tests: reference vectors plus PRF-behaviour properties,
 * and the SipHashMac engine's keyed-MAC behaviour.
 */

#include <gtest/gtest.h>

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

TEST(SipHashMac, ComputePartsLargeInputFallsBackToHeap)
{
    const SipHashMac eng(seededKey());
    std::vector<std::uint8_t> big(1024, 0x11);
    const MacTag parts = eng.computeParts(
        {{big.data(), 512}, {big.data() + 512, 512}});
    EXPECT_EQ(parts, eng.compute(big.data(), big.size()));
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
