/**
 * @file
 * AES-128 known-answer and property tests.
 *
 * The FIPS-197 vectors and the cross-check run each kernel directly
 * (the portable T-table kernel always, the AES-NI kernel wherever the
 * CPU has the instructions), as well as the Aes128 class that picks
 * one of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/aes128.hh"
#include "crypto/aes_impl.hh"
#include "sim/random.hh"

namespace
{

using dolos::crypto::Aes128;
using dolos::crypto::AesBlock;
using dolos::crypto::AesKey;
namespace detail = dolos::crypto::detail;

AesKey
keyFromBytes(std::initializer_list<int> bytes)
{
    AesKey k{};
    int i = 0;
    for (int b : bytes)
        k[i++] = std::uint8_t(b);
    return k;
}

/** One block through @p kernel under @p key. */
AesBlock
encryptWith(detail::AesBlocksFn kernel, const AesKey &key,
            const AesBlock &pt)
{
    const Aes128::RoundKeys rk = detail::expandKey(key);
    AesBlock ct{};
    kernel(rk.data(), pt.data(), ct.data(), 1);
    return ct;
}

/** The class, the portable kernel and (if present) AES-NI agree on
 *  the known answer. */
void
expectKnownAnswer(const AesKey &key, const AesBlock &pt,
                  const AesBlock &expected)
{
    EXPECT_EQ(Aes128(key).encryptBlock(pt), expected);
    EXPECT_EQ(encryptWith(detail::encryptBlocksPortable, key, pt),
              expected);
    if (!detail::aesniSupported())
        GTEST_SKIP() << "CPU lacks AES-NI; only the portable kernel ran";
    EXPECT_EQ(encryptWith(detail::encryptBlocksAesni, key, pt), expected);
}

// FIPS-197 Appendix C.1 known-answer test.
TEST(Aes128, Fips197KnownAnswer)
{
    AesKey key{};
    AesBlock pt{};
    for (int i = 0; i < 16; ++i) {
        key[i] = std::uint8_t(i);
        pt[i] = std::uint8_t(0x11 * i);
    }
    const AesBlock expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                               0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                               0x70, 0xb4, 0xc5, 0x5a};
    expectKnownAnswer(key, pt, expected);
}

// FIPS-197 Appendix B example: key 2b7e1516..., input 3243f6a8...
TEST(Aes128, Fips197AppendixB)
{
    const AesKey key = keyFromBytes({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                     0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                     0x09, 0xcf, 0x4f, 0x3c});
    const AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                         0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
    const AesBlock expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                               0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                               0x19, 0x6a, 0x0b, 0x32};
    expectKnownAnswer(key, pt, expected);
}

// 10,000 seeded blocks, in runs of 1..9 blocks (the 4-way interleaved
// AES-NI lanes plus every tail length): a multi-block call equals
// block-by-block encryption, and the AES-NI kernel equals the
// portable one.
TEST(Aes128, KernelsAgreeOnSeededBlocks)
{
    constexpr std::size_t totalBlocks = 10000;
    dolos::Random rng(0xA35);
    std::vector<std::uint8_t> in, viaClass, portable, aesni;
    std::size_t done = 0;
    bool sawAesni = false;
    while (done < totalBlocks) {
        AesKey key{};
        for (auto &b : key)
            b = std::uint8_t(rng.next());
        const Aes128 aes(key);
        const Aes128::RoundKeys rk = detail::expandKey(key);
        const std::size_t n =
            std::min<std::size_t>(1 + rng.next() % 9, totalBlocks - done);
        in.resize(16 * n);
        for (auto &b : in)
            b = std::uint8_t(rng.next());

        viaClass.assign(in.size(), 0);
        aes.encryptBlocks(in.data(), viaClass.data(), n);
        portable.assign(in.size(), 0);
        detail::encryptBlocksPortable(rk.data(), in.data(),
                                      portable.data(), n);
        for (std::size_t blk = 0; blk < n; ++blk) {
            AesBlock pt{};
            std::copy_n(in.begin() + 16 * blk, 16, pt.begin());
            const AesBlock one = aes.encryptBlock(pt);
            ASSERT_TRUE(std::equal(one.begin(), one.end(),
                                   viaClass.begin() + 16 * blk))
                << "block " << done + blk << " of a " << n
                << "-block call";
        }
        ASSERT_EQ(portable, viaClass) << "at block " << done;

        if (detail::aesniSupported()) {
            sawAesni = true;
            aesni = in; // in place, as the pad generator runs it
            detail::encryptBlocksAesni(rk.data(), aesni.data(),
                                       aesni.data(), n);
            ASSERT_EQ(aesni, portable) << "at block " << done;
        }
        done += n;
    }
    if (!sawAesni)
        GTEST_SKIP() << "CPU lacks AES-NI; only the portable kernel ran";
}

TEST(Aes128, DifferentKeysProduceDifferentCiphertext)
{
    AesKey k1{}, k2{};
    k2[0] = 1;
    AesBlock pt{};
    Aes128 a1(k1), a2(k2);
    EXPECT_NE(a1.encryptBlock(pt), a2.encryptBlock(pt));
}

TEST(Aes128, SingleBitPlaintextChangeAvalanches)
{
    AesKey key{};
    AesBlock pt{};
    Aes128 aes(key);
    const AesBlock c1 = aes.encryptBlock(pt);
    pt[0] ^= 1;
    const AesBlock c2 = aes.encryptBlock(pt);
    int diff_bits = 0;
    for (int i = 0; i < 16; ++i)
        diff_bits += __builtin_popcount(c1[i] ^ c2[i]);
    // Expect roughly half of 128 bits to flip.
    EXPECT_GT(diff_bits, 40);
    EXPECT_LT(diff_bits, 90);
}

} // namespace
