/**
 * @file
 * Counter-mode pad generator tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "crypto/ctr_pad.hh"

namespace
{

using namespace dolos::crypto;

AesKey
testKey()
{
    AesKey k{};
    for (int i = 0; i < 16; ++i)
        k[i] = std::uint8_t(0xA0 + i);
    return k;
}

/** A @p len-byte pad, filled by the generator. */
std::vector<std::uint8_t>
padOf(const CtrPadGenerator &gen, const IvFields &iv, std::size_t len)
{
    std::vector<std::uint8_t> pad(len);
    gen.generate(iv, pad);
    return pad;
}

TEST(CtrPad, PadLengthHonored)
{
    // Every byte of the caller's buffer is written, and none past it:
    // the bytes beyond the span keep their canary value.
    CtrPadGenerator gen(testKey());
    for (std::size_t len : {1u, 15u, 16u, 17u, 64u, 72u, 80u, 100u}) {
        std::vector<std::uint8_t> buf(len + 16, 0xEE);
        gen.generate({1, 2, 3}, std::span(buf.data(), len));
        EXPECT_EQ(std::vector<std::uint8_t>(buf.begin(), buf.begin() + len),
                  padOf(gen, {1, 2, 3}, len));
        for (std::size_t i = len; i < buf.size(); ++i)
            EXPECT_EQ(buf[i], 0xEE) << "len " << len << " byte " << i;
    }
}

TEST(CtrPad, Deterministic)
{
    CtrPadGenerator gen(testKey());
    EXPECT_EQ(padOf(gen, {5, 6, 7}, 64), padOf(gen, {5, 6, 7}, 64));
}

TEST(CtrPad, CounterChangesPad)
{
    CtrPadGenerator gen(testKey());
    EXPECT_NE(padOf(gen, {1, 0, 1}, 64), padOf(gen, {1, 0, 2}, 64));
}

TEST(CtrPad, SpatialUniqueness)
{
    // Same counter, different page/offset => different pad
    // (spatial uniqueness of the IV).
    // Fixed-size keys: ordering std::vector keys trips GCC 12's
    // -Wstringop-overread at -O3 (Release) on the unbounded memcmp.
    CtrPadGenerator gen(testKey());
    std::set<std::array<std::uint8_t, 64>> pads;
    for (std::uint64_t page = 0; page < 4; ++page)
        for (std::uint32_t off = 0; off < 4; ++off) {
            std::array<std::uint8_t, 64> pad{};
            gen.generate({page, off, 9}, pad);
            pads.insert(pad);
        }
    EXPECT_EQ(pads.size(), 16u);
}

TEST(CtrPad, KeyChangesPad)
{
    AesKey k2 = testKey();
    k2[0] ^= 0xFF;
    CtrPadGenerator g1(testKey()), g2(k2);
    EXPECT_NE(padOf(g1, {1, 1, 1}, 64), padOf(g2, {1, 1, 1}, 64));
}

TEST(CtrPad, XorRoundTrips)
{
    CtrPadGenerator gen(testKey());
    const auto pad = padOf(gen, {3, 1, 4}, 72);
    std::vector<std::uint8_t> data(72);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7);
    const auto original = data;

    xorInto(data.data(), pad.data(), data.size());
    EXPECT_NE(data, original); // encrypted
    xorInto(data.data(), pad.data(), data.size());
    EXPECT_EQ(data, original); // decrypted
}

TEST(CtrPad, PrefixConsistency)
{
    // The first 16 bytes of a 64-byte pad equal the 16-byte pad for
    // the same IV (sub-block counter is part of the IV padding).
    CtrPadGenerator gen(testKey());
    const auto small = padOf(gen, {8, 2, 10}, 16);
    const auto large = padOf(gen, {8, 2, 10}, 64);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
}

TEST(CtrPad, EqualsBlockByBlockEncryptionOfFigure2Ivs)
{
    // A multi-block pad is the AES encryption of each sub-block's IV:
    // 6B page id | 2B page offset | 6B counter | 2B sub-block index,
    // little-endian fields. Pins the layout every stored ciphertext
    // depends on, for the 64 B data pad and the 80 B Mi-SU pad.
    const Aes128 aes(testKey());
    CtrPadGenerator gen(testKey());
    const IvFields iv{0x0000BEEFCAFE1234ULL, 0x2A5, 0x00000ABCDEF01234ULL};
    for (std::size_t len : {64u, 80u}) {
        const auto pad = padOf(gen, iv, len);
        for (std::size_t blk = 0; blk < len / 16; ++blk) {
            AesBlock in{};
            for (int i = 0; i < 6; ++i) {
                in[i] = std::uint8_t(iv.pageId >> (8 * i));
                in[8 + i] = std::uint8_t(iv.counter >> (8 * i));
            }
            in[6] = std::uint8_t(iv.pageOffset);
            in[7] = std::uint8_t(iv.pageOffset >> 8);
            in[14] = std::uint8_t(blk);
            in[15] = std::uint8_t(blk >> 8);
            const AesBlock out = aes.encryptBlock(in);
            EXPECT_TRUE(
                std::equal(out.begin(), out.end(), pad.begin() + 16 * blk))
                << len << " B pad, sub-block " << blk;
        }
    }
}

} // namespace
