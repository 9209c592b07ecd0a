/**
 * @file
 * AES-128 block cipher (FIPS-197), encrypt direction only: counter
 * mode never decrypts a block.
 *
 * Two implementations produce the same bytes. On x86-64 hosts whose
 * CPU has AES-NI, blocks go through the AESENC instructions, several
 * blocks interleaved per call; everywhere else a portable T-table
 * path runs. The choice is made once per process from the CPU's
 * feature bits, never by configuration. The S-box is derived from
 * the GF(2^8) multiplicative inverse plus the affine transform rather
 * than transcribed, so a transcription typo cannot silently weaken
 * it; both paths are pinned by the FIPS-197 known-answer vectors in
 * the test suite.
 *
 * This is a functional model: simulated latency (Table 1: 40 cycles)
 * is accounted separately by the timing model.
 */

#ifndef DOLOS_CRYPTO_AES128_HH
#define DOLOS_CRYPTO_AES128_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace dolos::crypto
{

/** 128-bit AES key. */
using AesKey = std::array<std::uint8_t, 16>;

/** 128-bit AES block. */
using AesBlock = std::array<std::uint8_t, 16>;

/**
 * AES-128 with a pre-expanded key schedule.
 */
class Aes128
{
  public:
    static constexpr int numRounds = 10;

    /** Round keys in FIPS-197 byte order: (numRounds + 1) x 16 bytes. */
    using RoundKeys = std::array<std::uint8_t, 16 * (numRounds + 1)>;

    /** Expand @p key into the round-key schedule. */
    explicit Aes128(const AesKey &key);

    /** Encrypt one 16-byte block (ECB primitive). */
    AesBlock encryptBlock(const AesBlock &plaintext) const;

    /**
     * Encrypt @p nblocks consecutive 16-byte blocks from @p in into
     * @p out (ECB). @p in may equal @p out.
     */
    void encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                       std::size_t nblocks) const;

  private:
    RoundKeys roundKeys;
};

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_AES128_HH
