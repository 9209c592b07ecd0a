/**
 * @file
 * SipHash-2-4 and the SipHash MAC engine.
 */

#include "crypto/siphash.hh"

#include <cstring>
#include <vector>

#include "sim/profiler.hh"

namespace dolos::crypto
{

namespace
{

using u64 = std::uint64_t;

u64
rotl(u64 x, int b)
{
    return (x << b) | (x >> (64 - b));
}

u64
loadLe64(const std::uint8_t *p)
{
    u64 v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
sipround(u64 &v0, u64 &v1, u64 &v2, u64 &v3)
{
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
}

} // namespace

std::uint64_t
siphash24(const SipKey &key, const void *data, std::size_t len)
{
    const u64 k0 = loadLe64(key.data());
    const u64 k1 = loadLe64(key.data() + 8);

    u64 v0 = k0 ^ 0x736f6d6570736575ULL;
    u64 v1 = k1 ^ 0x646f72616e646f6dULL;
    u64 v2 = k0 ^ 0x6c7967656e657261ULL;
    u64 v3 = k1 ^ 0x7465646279746573ULL;

    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::size_t full = len & ~std::size_t(7);
    for (std::size_t i = 0; i < full; i += 8) {
        const u64 m = loadLe64(p + i);
        v3 ^= m;
        sipround(v0, v1, v2, v3);
        sipround(v0, v1, v2, v3);
        v0 ^= m;
    }

    u64 last = u64(len & 0xFF) << 56;
    for (std::size_t i = full; i < len; ++i)
        last |= u64(p[i]) << (8 * (i - full));
    v3 ^= last;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    v0 ^= last;

    v2 ^= 0xFF;
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    sipround(v0, v1, v2, v3);
    return v0 ^ v1 ^ v2 ^ v3;
}

MacTag
SipHashMac::compute(const void *data, std::size_t len) const
{
    DOLOS_PROF_SCOPE(Mac);
    const std::uint64_t v = siphash24(key, data, len);
    MacTag t;
    for (int i = 0; i < 8; ++i)
        t[i] = std::uint8_t(v >> (8 * i));
    return t;
}

MacTag
SipHashMac::computeParts(std::initializer_list<MacSegment> parts) const
{
    DOLOS_PROF_SCOPE(Mac);
    // Total sizes here are tiny (address + counter + one cacheline),
    // so a stack buffer normally suffices.
    std::size_t total = 0;
    for (const auto &[ptr, len] : parts)
        total += len;

    std::uint8_t buf[256];
    if (total <= sizeof(buf)) {
        std::size_t off = 0;
        for (const auto &[ptr, len] : parts) {
            std::memcpy(buf + off, ptr, len);
            off += len;
        }
        return compute(buf, total);
    }

    std::vector<std::uint8_t> big;
    big.reserve(total);
    for (const auto &[ptr, len] : parts) {
        const auto *p = static_cast<const std::uint8_t *>(ptr);
        big.insert(big.end(), p, p + len);
    }
    return compute(big.data(), big.size());
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
