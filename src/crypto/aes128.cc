/**
 * @file
 * AES-128: key schedule, the portable T-table kernel, and the
 * per-process choice between it and the AES-NI kernel (aes_ni.cc).
 */

#include "crypto/aes128.hh"

#include <bit>

#include "crypto/aes_impl.hh"
#include "sim/profiler.hh"

namespace dolos::crypto
{

namespace
{

/** xtime: multiply by x (i.e., 2) in GF(2^8) mod x^8+x^4+x^3+x+1. */
constexpr std::uint8_t
xtime(std::uint8_t a)
{
    return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0));
}

/**
 * The S-box and the encryption T-table, both computed at compile
 * time. te0[x] is the MixColumns column contributed by S-box output
 * s = sbox[x] from row 0, packed little-endian (row r in byte r):
 * (2s, s, s, 3s). Rows 1..3 use te0 rotated left by 8 r bits.
 */
struct AesTables
{
    std::array<std::uint8_t, 256> sbox{};
    std::array<std::uint32_t, 256> te0{};
};

constexpr AesTables
makeTables()
{
    // Powers of the generator 3 give the multiplicative inverse:
    // inv(3^i) = 3^(255 - i).
    std::array<std::uint8_t, 256> exp{}, log{};
    std::uint8_t p = 1;
    for (int i = 0; i < 255; ++i) {
        exp[i] = p;
        log[p] = std::uint8_t(i);
        p = std::uint8_t(p ^ xtime(p));
    }

    AesTables t;
    for (int x = 0; x < 256; ++x) {
        const std::uint8_t xinv =
            x == 0 ? 0 : exp[(255 - log[x]) % 255];
        // FIPS-197 affine transform.
        std::uint8_t s = 0;
        for (int bit = 0; bit < 8; ++bit) {
            const int b = ((xinv >> bit) & 1) ^
                          ((xinv >> ((bit + 4) % 8)) & 1) ^
                          ((xinv >> ((bit + 5) % 8)) & 1) ^
                          ((xinv >> ((bit + 6) % 8)) & 1) ^
                          ((xinv >> ((bit + 7) % 8)) & 1) ^
                          ((0x63 >> bit) & 1);
            s |= std::uint8_t(b << bit);
        }
        t.sbox[x] = s;
        const std::uint8_t s2 = xtime(s);
        t.te0[x] = std::uint32_t(s2) | std::uint32_t(s) << 8 |
                   std::uint32_t(s) << 16 |
                   std::uint32_t(s2 ^ s) << 24;
    }
    return t;
}

constexpr AesTables tables = makeTables();

/** Column c of a block: bytes 4c..4c+3, row r in bits 8r..8r+7. */
std::uint32_t
loadCol(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

void
storeCol(std::uint8_t *p, std::uint32_t v)
{
    p[0] = std::uint8_t(v);
    p[1] = std::uint8_t(v >> 8);
    p[2] = std::uint8_t(v >> 16);
    p[3] = std::uint8_t(v >> 24);
}

/** SubBytes + ShiftRows + MixColumns for output column a. */
std::uint32_t
roundCol(std::uint32_t a, std::uint32_t b, std::uint32_t c,
         std::uint32_t d)
{
    const auto &te = tables.te0;
    return te[a & 0xFF] ^ std::rotl(te[(b >> 8) & 0xFF], 8) ^
           std::rotl(te[(c >> 16) & 0xFF], 16) ^
           std::rotl(te[d >> 24], 24);
}

/** SubBytes + ShiftRows (last round) for output column a. */
std::uint32_t
lastCol(std::uint32_t a, std::uint32_t b, std::uint32_t c,
        std::uint32_t d)
{
    const auto &s = tables.sbox;
    return std::uint32_t(s[a & 0xFF]) |
           std::uint32_t(s[(b >> 8) & 0xFF]) << 8 |
           std::uint32_t(s[(c >> 16) & 0xFF]) << 16 |
           std::uint32_t(s[d >> 24]) << 24;
}

detail::AesBlocksFn
pickKernel()
{
    return detail::aesniSupported() ? detail::encryptBlocksAesni
                                    : detail::encryptBlocksPortable;
}

} // namespace

void
detail::encryptBlocksPortable(const std::uint8_t *round_keys,
                              const std::uint8_t *in, std::uint8_t *out,
                              std::size_t nblocks)
{
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::uint8_t *rk = round_keys;
        std::uint32_t s0 = loadCol(in) ^ loadCol(rk);
        std::uint32_t s1 = loadCol(in + 4) ^ loadCol(rk + 4);
        std::uint32_t s2 = loadCol(in + 8) ^ loadCol(rk + 8);
        std::uint32_t s3 = loadCol(in + 12) ^ loadCol(rk + 12);
        for (int round = 1; round < Aes128::numRounds; ++round) {
            rk += 16;
            const std::uint32_t t0 =
                roundCol(s0, s1, s2, s3) ^ loadCol(rk);
            const std::uint32_t t1 =
                roundCol(s1, s2, s3, s0) ^ loadCol(rk + 4);
            const std::uint32_t t2 =
                roundCol(s2, s3, s0, s1) ^ loadCol(rk + 8);
            const std::uint32_t t3 =
                roundCol(s3, s0, s1, s2) ^ loadCol(rk + 12);
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }
        rk += 16;
        storeCol(out, lastCol(s0, s1, s2, s3) ^ loadCol(rk));
        storeCol(out + 4, lastCol(s1, s2, s3, s0) ^ loadCol(rk + 4));
        storeCol(out + 8, lastCol(s2, s3, s0, s1) ^ loadCol(rk + 8));
        storeCol(out + 12, lastCol(s3, s0, s1, s2) ^ loadCol(rk + 12));
        in += 16;
        out += 16;
    }
}

Aes128::RoundKeys
detail::expandKey(const AesKey &key)
{
    const auto &sbox = tables.sbox;
    Aes128::RoundKeys rk{};
    for (int i = 0; i < 16; ++i)
        rk[i] = key[i];
    std::uint8_t rcon = 1;
    for (std::size_t i = 16; i < rk.size(); i += 4) {
        std::uint8_t t[4] = {rk[i - 4], rk[i - 3], rk[i - 2], rk[i - 1]};
        if (i % 16 == 0) {
            // RotWord + SubWord + Rcon.
            const std::uint8_t t0 = t[0];
            t[0] = std::uint8_t(sbox[t[1]] ^ rcon);
            t[1] = sbox[t[2]];
            t[2] = sbox[t[3]];
            t[3] = sbox[t0];
            rcon = xtime(rcon);
        }
        for (int j = 0; j < 4; ++j)
            rk[i + j] = rk[i - 16 + j] ^ t[j];
    }
    return rk;
}

Aes128::Aes128(const AesKey &key) : roundKeys(detail::expandKey(key)) {}

AesBlock
Aes128::encryptBlock(const AesBlock &plaintext) const
{
    AesBlock out{};
    encryptBlocks(plaintext.data(), out.data(), 1);
    return out;
}

void
Aes128::encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                      std::size_t nblocks) const
{
    DOLOS_PROF_SCOPE(Aes);
    static const detail::AesBlocksFn kernel = pickKernel();
    kernel(roundKeys.data(), in, out, nblocks);
}

} // namespace dolos::crypto
