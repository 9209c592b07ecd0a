/**
 * @file
 * AES-128 encrypt kernel on the x86-64 AES-NI instructions.
 *
 * Compiled for the "aes" target per function, so the rest of the
 * tree needs no -maes, and selected at run time only on CPUs that
 * report the feature (aesniSupported). The FIPS-197 byte-order round
 * keys load directly as the XMM round keys AESENC expects. Up to
 * eight blocks run interleaved: AESENC has a latency of several
 * cycles but issues every cycle, so independent blocks hide it.
 * On other architectures this file only says the kernel is absent.
 */

#include "crypto/aes_impl.hh"

#if defined(__x86_64__)

#include <immintrin.h>

namespace dolos::crypto::detail
{

bool
aesniSupported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("aes") != 0;
    }();
    return supported;
}

namespace
{

constexpr int rounds = Aes128::numRounds;

/**
 * Encrypt W blocks side by side. W is a compile-time constant so the
 * lane loops unroll and every block stays in its own register.
 */
template <std::size_t W>
__attribute__((target("aes"))) inline void
encryptLanes(const __m128i *rk, const std::uint8_t *in,
             std::uint8_t *out)
{
    __m128i b[W];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < W; ++i)
        b[i] = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * i)),
            rk[0]);
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
        for (std::size_t i = 0; i < W; ++i)
            b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < W; ++i)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * i),
                         _mm_aesenclast_si128(b[i], rk[rounds]));
}

} // namespace

__attribute__((target("aes"))) void
encryptBlocksAesni(const std::uint8_t *round_keys, const std::uint8_t *in,
                   std::uint8_t *out, std::size_t nblocks)
{
    __m128i rk[rounds + 1];
    for (int r = 0; r <= rounds; ++r)
        rk[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(round_keys + 16 * r));

    for (; nblocks >= 8; nblocks -= 8, in += 128, out += 128)
        encryptLanes<8>(rk, in, out);
    // The remainder runs interleaved too: a 64 B pad is 4 lanes, an
    // 80 B Mi-SU pad 5.
    switch (nblocks) {
      case 7: encryptLanes<7>(rk, in, out); break;
      case 6: encryptLanes<6>(rk, in, out); break;
      case 5: encryptLanes<5>(rk, in, out); break;
      case 4: encryptLanes<4>(rk, in, out); break;
      case 3: encryptLanes<3>(rk, in, out); break;
      case 2: encryptLanes<2>(rk, in, out); break;
      case 1: encryptLanes<1>(rk, in, out); break;
      default: break;
    }
}

} // namespace dolos::crypto::detail

#else // !__x86_64__

#include "sim/logging.hh"

namespace dolos::crypto::detail
{

bool
aesniSupported()
{
    return false;
}

void
encryptBlocksAesni(const std::uint8_t *, const std::uint8_t *,
                   std::uint8_t *, std::size_t)
{
    panic("AES-NI kernel called on a host without it");
}

} // namespace dolos::crypto::detail

#endif // __x86_64__
