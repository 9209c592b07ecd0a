/**
 * @file
 * SipHash-2-4 (Aumasson & Bernstein), from scratch, and the MAC
 * engine both security units build on it.
 *
 * The paper's secure units compute 8-byte MACs over (ciphertext,
 * counter, address) tuples. SipHash-2-4 is a real keyed PRF, so
 * tamper detection is genuine. Simulated MAC latency (Table 1: 160
 * cycles) is a property of the timing model, not of the engine.
 */

#ifndef DOLOS_CRYPTO_SIPHASH_HH
#define DOLOS_CRYPTO_SIPHASH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

namespace dolos::crypto
{

/** 128-bit SipHash key. */
using SipKey = std::array<std::uint8_t, 16>;

/**
 * Compute SipHash-2-4 over @p len bytes with key @p key.
 *
 * @return 64-bit tag.
 */
std::uint64_t siphash24(const SipKey &key, const void *data,
                        std::size_t len);

/** 64-bit MAC tag (the paper's 8-byte MAC). */
using MacTag = std::array<std::uint8_t, 8>;

/** One segment of a multi-part MAC input. */
using MacSegment = std::pair<const void *, std::size_t>;

/** Keyed MAC: SipHash-2-4, tag bytes little-endian. */
class SipHashMac
{
  public:
    explicit SipHashMac(const SipKey &key) : key(key) {}

    /** Compute a tag over a single contiguous buffer. */
    MacTag compute(const void *data, std::size_t len) const;

    /**
     * Compute a tag over the concatenation of several segments
     * (address, counter, ciphertext, ...). The segments stream
     * through one SipHash state; nothing copies the concatenation.
     */
    MacTag computeParts(std::initializer_list<MacSegment> parts) const;

    /** Constant-time verification of @p tag over @p data. */
    bool verify(const void *data, std::size_t len,
                const MacTag &tag) const;

  private:
    SipKey key;
};

} // namespace dolos::crypto

#endif // DOLOS_CRYPTO_SIPHASH_HH
