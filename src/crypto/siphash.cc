/**
 * @file
 * SipHash-2-4 and the SipHash MAC engine.
 */

#include "crypto/siphash.hh"

#include <bit>
#include <cstring>

#include "sim/profiler.hh"

namespace dolos::crypto
{

namespace
{

using u64 = std::uint64_t;

/** Little-endian 64-bit load from any alignment. */
u64
loadLe64(const std::uint8_t *p)
{
    u64 v = 0;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** The four-word SipHash-2-4 state, shared by every entry point. */
class SipState
{
  public:
    explicit SipState(const SipKey &key)
    {
        const u64 k0 = loadLe64(key.data());
        const u64 k1 = loadLe64(key.data() + 8);
        v0 = k0 ^ 0x736f6d6570736575ULL;
        v1 = k1 ^ 0x646f72616e646f6dULL;
        v2 = k0 ^ 0x6c7967656e657261ULL;
        v3 = k1 ^ 0x7465646279746573ULL;
    }

    /** Absorb one message word (two compression rounds). */
    void
    compress(u64 m)
    {
        v3 ^= m;
        round();
        round();
        v0 ^= m;
    }

    /**
     * Absorb the final word — the message's last len % 8 bytes with
     * the length's low byte on top — and return the tag.
     */
    u64
    finish(u64 last)
    {
        compress(last);
        v2 ^= 0xFF;
        round();
        round();
        round();
        round();
        return v0 ^ v1 ^ v2 ^ v3;
    }

  private:
    void
    round()
    {
        v0 += v1;
        v1 = std::rotl(v1, 13);
        v1 ^= v0;
        v0 = std::rotl(v0, 32);
        v2 += v3;
        v3 = std::rotl(v3, 16);
        v3 ^= v2;
        v0 += v3;
        v3 = std::rotl(v3, 21);
        v3 ^= v0;
        v2 += v1;
        v1 = std::rotl(v1, 17);
        v1 ^= v2;
        v2 = std::rotl(v2, 32);
    }

    u64 v0, v1, v2, v3;
};

/**
 * SipHash-2-4 over the concatenation of @p parts, streamed through
 * one state: whole words load straight from each segment; bytes that
 * straddle a segment boundary collect in `pending` (`have` of them,
 * always < 8). Every entry point below is this one core.
 */
u64
sipHashParts(const SipKey &key, std::initializer_list<MacSegment> parts)
{
    SipState s(key);
    u64 pending = 0;
    unsigned have = 0;
    std::size_t total = 0;
    for (const auto &[ptr, size] : parts) {
        const auto *p = static_cast<const std::uint8_t *>(ptr);
        std::size_t len = size;
        total += len;
        for (; have != 0 && len != 0; --len) {
            pending |= u64(*p++) << (8 * have);
            if (++have == 8) {
                s.compress(pending);
                pending = 0;
                have = 0;
            }
        }
        for (; len >= 8; len -= 8, p += 8)
            s.compress(loadLe64(p));
        for (; len != 0; --len)
            pending |= u64(*p++) << (8 * have++);
    }
    return s.finish(pending | u64(total & 0xFF) << 56);
}

MacTag
tagBytes(u64 v)
{
    MacTag t{};
    for (int i = 0; i < 8; ++i)
        t[i] = std::uint8_t(v >> (8 * i));
    return t;
}

} // namespace

std::uint64_t
siphash24(const SipKey &key, const void *data, std::size_t len)
{
    return sipHashParts(key, {{data, len}});
}

MacTag
SipHashMac::compute(const void *data, std::size_t len) const
{
    DOLOS_PROF_SCOPE(Mac);
    return tagBytes(sipHashParts(key, {{data, len}}));
}

MacTag
SipHashMac::computeParts(std::initializer_list<MacSegment> parts) const
{
    DOLOS_PROF_SCOPE(Mac);
    return tagBytes(sipHashParts(key, parts));
}

bool
SipHashMac::verify(const void *data, std::size_t len,
                   const MacTag &tag) const
{
    // Constant-time compare: no early exit on the first mismatch.
    const MacTag expected = compute(data, len);
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < tag.size(); ++i)
        acc |= std::uint8_t(expected[i] ^ tag[i]);
    return acc == 0;
}

} // namespace dolos::crypto
