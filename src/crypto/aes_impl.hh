/**
 * @file
 * The two AES-128 encrypt kernels behind Aes128::encryptBlocks.
 *
 * Internal to src/crypto: Aes128 expands its key with expandKey()
 * and runs the kernel aesniSupported() picks, once per process. The
 * tests call both kernels directly, so each is checked against the
 * FIPS-197 vectors and against the other on any host that has AES-NI.
 */

#ifndef DOLOS_CRYPTO_AES_IMPL_HH
#define DOLOS_CRYPTO_AES_IMPL_HH

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.hh"

namespace dolos::crypto::detail
{

/**
 * Signature shared by both kernels: encrypt @p nblocks 16-byte
 * blocks from @p in into @p out (which may equal @p in) under the
 * 176-byte FIPS-197 round-key schedule @p round_keys.
 */
using AesBlocksFn = void (*)(const std::uint8_t *round_keys,
                             const std::uint8_t *in, std::uint8_t *out,
                             std::size_t nblocks);

/** The FIPS-197 key expansion, round keys in byte order. */
Aes128::RoundKeys expandKey(const AesKey &key);

/** True on an x86-64 CPU with the AES-NI instructions. */
bool aesniSupported();

/** AES-NI kernel; call only where aesniSupported(). */
void encryptBlocksAesni(const std::uint8_t *round_keys,
                        const std::uint8_t *in, std::uint8_t *out,
                        std::size_t nblocks);

/** Portable T-table kernel; runs on any host. */
void encryptBlocksPortable(const std::uint8_t *round_keys,
                           const std::uint8_t *in, std::uint8_t *out,
                           std::size_t nblocks);

} // namespace dolos::crypto::detail

#endif // DOLOS_CRYPTO_AES_IMPL_HH
