/**
 * @file
 * Anubis shadow-table implementation.
 */

#include "secure/anubis.hh"

namespace dolos
{

namespace
{
/** Marker distinguishing a written slot from untouched NVM. */
constexpr std::uint64_t slotValidMarker = 0x414E554249535631ULL; // "ANUBISV1"
} // namespace

AnubisShadow::AnubisShadow(std::size_t num_slots, NvmDevice &nvm,
                           const crypto::SipHashMac &mac)
    : slots(num_slots), nvm(nvm), mac(mac), stats_("anubis")
{
    stats_.addScalar(&statWrites, "shadowWrites",
                     "shadow entries persisted");
}

crypto::MacTag
AnubisShadow::entryMac(Addr page_idx, const Block &packed,
                       std::uint64_t seq) const
{
    return mac.computeParts({{&page_idx, sizeof(page_idx)},
                             {&seq, sizeof(seq)},
                             {packed.data(), packed.size()}});
}

Tick
AnubisShadow::recordUpdate(std::size_t slot, Addr page_idx,
                           const CounterPage &page, std::uint64_t seq,
                           Tick now)
{
    DOLOS_ASSERT(slot < slots, "shadow slot %zu out of range", slot);
    ++statWrites;

    const Block packed = page.pack();
    const crypto::MacTag tag = entryMac(page_idx, packed, seq);

    Block meta{};
    storeWord(meta, 0, slotValidMarker);
    storeWord(meta, 8, page_idx);
    storeWord(meta, 16, seq);
    std::memcpy(meta.data() + 24, tag.data(), tag.size());

    const Addr addr = AddressMap::shadowSlotAddr(Addr(slot) * 2);
    nvm.write(addr, packed, now);
    return nvm.write(addr + blockSize, meta, now).completeTick;
}

ShadowScan
AnubisShadow::scan()
{
    /** What one read of a slot showed (its entry goes to `e`). */
    struct SlotRead
    {
        bool written = false; ///< the valid marker is present
        bool macOk = false;
        bool mediaError = false;
        Tick completeTick = 0; ///< untimed
    };

    ShadowScan result;
    ShadowEntry e; // the latest read's entry, once its marker held
    for (std::size_t slot = 0; slot < slots; ++slot) {
        const Addr addr = AddressMap::shadowSlotAddr(Addr(slot) * 2);
        const auto read = [&](Tick) {
            SlotRead s;
            const NvmRead meta = nvm.readFunctionalChecked(addr + blockSize);
            s.mediaError = meta.mediaError;
            s.written = loadWord(meta.data, 0) == slotValidMarker;
            if (!s.written)
                return s; // never written, or a flip hit the marker
            const NvmRead packed = nvm.readFunctionalChecked(addr);
            s.mediaError |= packed.mediaError;
            e.pageIdx = loadWord(meta.data, 8);
            e.seq = loadWord(meta.data, 16);
            crypto::MacTag stored;
            std::memcpy(stored.data(), meta.data.data() + 24, stored.size());
            s.macOk = entryMac(e.pageIdx, packed.data, e.seq) == stored;
            e.page = CounterPage::unpack(packed.data);
            return s;
        };
        // Only an invalid or mis-MACed slot is retried: transient
        // disturb errors heal.
        const auto r = retryMedia(read(0), read,
                                  [](const SlotRead &s) { return s.macOk; });
        if (r.last.macOk)
            result.entries.push_back(e);
        else if (r.last.mediaError)
            ++result.mediaSkippedSlots; // worn slot: skip, never alarm
        else if (r.last.written)
            result.tamperDetected = true;
    }
    return result;
}

persist::StateManifest
AnubisShadow::stateManifest() const
{
    persist::StateManifest m("AnubisShadow");
    DOLOS_MF_CONST(m, slots);
    DOLOS_MF_CONST(m, nvm);
    DOLOS_MF_CONST(m, mac);
    DOLOS_MF_CONST(m, stats_);
    DOLOS_MF_P(m, statWrites);
    return m;
}

} // namespace dolos
