/**
 * @file
 * Counter-mode pad generation implementation.
 */

#include "crypto/ctr_pad.hh"

#include <bit>
#include <cstring>

#include "sim/profiler.hh"
namespace dolos::crypto
{

namespace
{

/** Little-endian 64-bit store to any alignment. */
void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof(v));
}

/**
 * Counter block @p blk of the IV in Figure 2's layout, packed
 * collision-free into 16 bytes, each field little-endian:
 * 6B page id | 2B page offset | 6B counter | 2B sub-block.
 * 2^48 pages covers 2^60 bytes of physical space; 2^48 counter
 * values exceed any simulated write count. Two word stores rather
 * than sixteen byte stores: the cipher reloads each block as one
 * 16-byte word and waits on every store it overlaps (on a Xeon VM,
 * IVs plus cipher for a 64 B pad took 63 ns with byte stores, 27 ns
 * with word stores).
 */
void
writeIv(const IvFields &iv, std::size_t blk, std::uint8_t *out)
{
    constexpr std::uint64_t low48 = (std::uint64_t(1) << 48) - 1;
    storeLe64(out, (iv.pageId & low48) |
                       std::uint64_t(iv.pageOffset & 0xFFFF) << 48);
    storeLe64(out + 8, (iv.counter & low48) |
                           std::uint64_t(blk & 0xFFFF) << 48);
}

} // namespace

void
CtrPadGenerator::generate(const IvFields &iv,
                          std::span<std::uint8_t> pad) const
{
    DOLOS_PROF_SCOPE(CtrPad);
    // Whole sub-blocks are encrypted in place, in one call.
    const std::size_t full = pad.size() / 16;
    for (std::size_t blk = 0; blk < full; ++blk)
        writeIv(iv, blk, pad.data() + 16 * blk);
    aes.encryptBlocks(pad.data(), pad.data(), full);

    const std::size_t tail = pad.size() % 16;
    if (tail != 0) {
        AesBlock last{};
        writeIv(iv, full, last.data());
        aes.encryptBlocks(last.data(), last.data(), 1);
        std::memcpy(pad.data() + 16 * full, last.data(), tail);
    }
}

void
xorInto(std::uint8_t *data, const std::uint8_t *pad, std::size_t len)
{
    // Eight bytes per step; XOR is byte-wise, so byte order is moot.
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t d = 0, p = 0;
        std::memcpy(&d, data + i, 8);
        std::memcpy(&p, pad + i, 8);
        d ^= p;
        std::memcpy(data + i, &d, 8);
    }
    for (; i < len; ++i)
        data[i] ^= pad[i];
}

} // namespace dolos::crypto
