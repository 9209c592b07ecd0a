/**
 * @file
 * Fault and attack injection implementation.
 */

#include "verify/fault_injector.hh"

#include <algorithm>
#include <cstdio>

#include "secure/address_map.hh"
#include "secure/merkle_tree.hh"
#include "sim/logging.hh"
#include "verify/golden_model.hh"

namespace dolos::verify
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None:
        return "none";
      case FaultKind::DataFlip:
        return "data-flip";
      case FaultKind::MacFlip:
        return "mac-flip";
      case FaultKind::CounterRollback:
        return "counter-rollback";
      case FaultKind::BmtFlip:
        return "bmt-flip";
      case FaultKind::TornAdrDump:
        return "torn-adr-dump";
      case FaultKind::DroppedClwb:
        return "dropped-clwb";
      case FaultKind::MediaTransient:
        return "media-transient";
      case FaultKind::MediaStuck:
        return "media-stuck";
      case FaultKind::MediaWriteFail:
        return "media-write-fail";
    }
    return "unknown";
}

std::optional<FaultKind>
parseFaultKind(const std::string &name)
{
    if (name == "none")
        return FaultKind::None;
    for (const FaultKind kind : allFaultKinds)
        if (name == faultKindName(kind))
            return kind;
    return std::nullopt;
}

std::optional<Addr>
FaultInjector::pickVictimDataBlock()
{
    const AddressMap &map = sys.config().secure.map;
    std::vector<Addr> candidates;
    for (const auto &[addr, block] : sys.nvmDevice().store().raw()) {
        (void)block;
        if (map.isProtectedData(addr))
            candidates.push_back(addr);
    }
    if (candidates.empty())
        return std::nullopt;
    // The backing store is an unordered_map; sort so the seeded pick
    // is independent of hash-table iteration order.
    std::sort(candidates.begin(), candidates.end());
    return candidates[rng.below(candidates.size())];
}

InjectionRecord
FaultInjector::flipBitAt(FaultKind kind, Addr addr)
{
    InjectionRecord rec;
    rec.kind = kind;
    rec.target = addr;
    rec.bit = unsigned(rng.below(blockSize * 8));
    Block b = sys.nvmDevice().readFunctional(addr);
    b[rec.bit / 8] ^= std::uint8_t(1u << (rec.bit % 8));
    sys.nvmDevice().writeFunctional(addr, b);
    rec.injected = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "flipped bit %u of NVM block 0x%llx",
                  rec.bit, (unsigned long long)addr);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armTornAdrDump(unsigned surviving_entries)
{
    InjectionRecord rec;
    rec.kind = FaultKind::TornAdrDump;
    rec.injected = true;
    rec.target = AddressMap::wpqDumpBase;
    sys.controller().armAdrTear(surviving_entries);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "ADR dump armed to tear after %u entries",
                  surviving_entries);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armDroppedClwb(std::uint64_t nth)
{
    InjectionRecord rec;
    rec.kind = FaultKind::DroppedClwb;
    rec.injected = true;
    sys.core().armClwbDrop(nth);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "CLWB %llu from now will be silently dropped",
                  (unsigned long long)nth);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armRecoveryCrash(unsigned after_steps)
{
    InjectionRecord rec;
    rec.kind = FaultKind::None;
    rec.injected = true;
    sys.controller().armRecoveryCrash(after_steps);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "power armed to die after %u recovery steps",
                  after_steps);
    rec.detail = buf;
    return rec;
}

Addr
metadataFrameOf(NvmRegion region, Addr block)
{
    switch (region) {
      case NvmRegion::Counter:
        return AddressMap::counterBlockAddr(block);
      case NvmRegion::Tree:
        return AddressMap::treeNodeAddr(
            1, AddressMap::pageOf(block) / MerkleTree::arity);
      case NvmRegion::Mac:
        return AddressMap::macBlockAddr(block);
      default:
        return block;
    }
}

bool
stickAtComplement(NvmDevice &nvm, Addr addr, unsigned bit)
{
    const Block stored = nvm.readFunctional(addr);
    const bool value = !(stored[bit / 8] & std::uint8_t(1u << (bit % 8)));
    nvm.injectStuckBit(addr, bit, value);
    return value;
}

InjectionRecord
FaultInjector::injectMediaTransient(NvmRegion region)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaTransient;
    rec.region = region;
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    rec.victim = *victim;
    rec.target = metadataFrameOf(region, *victim);
    rec.bit = unsigned(rng.below(blockSize * 8));
    sys.nvmDevice().injectTransientFlip(rec.target, rec.bit);
    rec.injected = true;
    char buf[160];
    if (region == NvmRegion::Data)
        std::snprintf(buf, sizeof(buf),
                      "armed transient flip of bit %u on next read of "
                      "0x%llx",
                      rec.bit, (unsigned long long)*victim);
    else
        std::snprintf(buf, sizeof(buf),
                      "armed transient flip of bit %u on next read of "
                      "%s block 0x%llx (covers 0x%llx)",
                      rec.bit, nvmRegionName(region),
                      (unsigned long long)rec.target,
                      (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectMediaStuck(NvmRegion region)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaStuck;
    rec.region = region;
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    rec.victim = *victim;
    rec.target = metadataFrameOf(region, *victim);
    rec.bit = unsigned(rng.below(blockSize * 8));
    const bool value = stickAtComplement(sys.nvmDevice(), rec.target, rec.bit);
    rec.injected = true;
    char buf[160];
    if (region == NvmRegion::Data)
        std::snprintf(buf, sizeof(buf), "stuck bit %u of 0x%llx at %d",
                      rec.bit, (unsigned long long)*victim, int(value));
    else
        std::snprintf(buf, sizeof(buf),
                      "stuck bit %u of %s block 0x%llx at %d (covers "
                      "0x%llx)",
                      rec.bit, nvmRegionName(region),
                      (unsigned long long)rec.target, int(value),
                      (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::armMediaWriteFail(unsigned failures)
{
    InjectionRecord rec;
    rec.kind = FaultKind::MediaWriteFail;
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    rec.victim = rec.target = *victim;
    sys.nvmDevice().injectWriteFail(*victim, failures);
    rec.injected = true;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "next %u writes to 0x%llx will fail", failures,
                  (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectDataFlip()
{
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        InjectionRecord rec;
        rec.kind = FaultKind::DataFlip;
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    InjectionRecord rec = flipBitAt(FaultKind::DataFlip, *victim);
    rec.victim = *victim;
    return rec;
}

InjectionRecord
FaultInjector::injectMacFlip()
{
    const auto victim = pickVictimDataBlock();
    if (!victim) {
        InjectionRecord rec;
        rec.kind = FaultKind::MacFlip;
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    // Flip a bit inside the victim's own 8-byte MAC lane so a read of
    // the victim is guaranteed to fail authentication.
    const Addr mac_block = AddressMap::macBlockAddr(*victim);
    const unsigned lane = AddressMap::macOffsetInBlock(*victim);
    InjectionRecord rec;
    rec.kind = FaultKind::MacFlip;
    rec.target = mac_block;
    rec.victim = *victim;
    rec.bit = lane * 8 + unsigned(rng.below(64));
    Block b = sys.nvmDevice().readFunctional(mac_block);
    b[rec.bit / 8] ^= std::uint8_t(1u << (rec.bit % 8));
    sys.nvmDevice().writeFunctional(mac_block, b);
    rec.injected = true;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "flipped bit %u of MAC block 0x%llx (victim 0x%llx)",
                  rec.bit, (unsigned long long)mac_block,
                  (unsigned long long)*victim);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectCounterRollback()
{
    InjectionRecord rec;
    rec.kind = FaultKind::CounterRollback;

    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }
    const Addr cb_addr = AddressMap::counterBlockAddr(*victim);
    if (!sys.nvmDevice().store().contains(cb_addr)) {
        rec.detail = "victim's counter block not persisted yet";
        return rec;
    }

    // Roll the packed counter block backwards: decrement the last
    // nonzero byte. Any decrement yields some strictly older (or at
    // least different) counter state the attacker could have replayed.
    Block b = sys.nvmDevice().readFunctional(cb_addr);
    int pos = -1;
    for (int i = int(blockSize) - 1; i >= 0; --i) {
        if (b[i] != 0) {
            pos = i;
            break;
        }
    }
    if (pos < 0) {
        rec.detail = "counter block is all-zero; nothing to roll back";
        return rec;
    }
    --b[pos];
    sys.nvmDevice().writeFunctional(cb_addr, b);

    // A real rollback adversary also reverts the recovery metadata
    // that would repair the counter: scrub every Anubis shadow slot to
    // zero. A zeroed slot carries no ANUBISV1 marker, so the scan
    // treats it as never-written — the stale counter must then be
    // caught by the integrity-tree root comparison, not silently
    // repaired by the shadow merge.
    std::vector<Addr> shadow_blocks;
    for (const auto &[addr, block] : sys.nvmDevice().store().raw()) {
        (void)block;
        if (addr >= AddressMap::shadowBase && addr < AddressMap::wpqDumpBase)
            shadow_blocks.push_back(addr);
    }
    for (const Addr addr : shadow_blocks)
        sys.nvmDevice().writeFunctional(addr, zeroBlock());

    rec.injected = true;
    rec.target = cb_addr;
    rec.victim = *victim;
    rec.bit = unsigned(pos);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "rolled back counter block 0x%llx (byte %d) and "
                  "scrubbed %zu shadow slots",
                  (unsigned long long)cb_addr, pos, shadow_blocks.size());
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::injectBmtFlip()
{
    InjectionRecord rec;
    rec.kind = FaultKind::BmtFlip;

    const auto victim = pickVictimDataBlock();
    if (!victim) {
        rec.detail = "no protected data block stored yet";
        return rec;
    }

    // Corrupt a tree node on the victim page's verification path.
    // fetchCounter's walk only authenticates nodes present in NVM, so
    // prefer a stored node; if none of the path was ever evicted,
    // forge the level-1 node instead — making it present with a wrong
    // tag guarantees the next walk sees the mismatch.
    const Addr page_idx = AddressMap::pageOf(*victim);
    Addr idx = page_idx;
    Addr node_addr = 0;
    bool found = false;
    for (unsigned lvl = 1; lvl < 16 && !found; ++lvl) {
        idx /= MerkleTree::arity;
        const Addr candidate = AddressMap::treeNodeAddr(lvl, idx);
        if (sys.nvmDevice().store().contains(candidate)) {
            node_addr = candidate;
            found = true;
        }
        if (idx == 0)
            break;
    }
    if (found) {
        InjectionRecord flipped = flipBitAt(FaultKind::BmtFlip, node_addr);
        flipped.victim = *victim;
        return flipped;
    }

    node_addr = AddressMap::treeNodeAddr(1, page_idx / MerkleTree::arity);
    Block forged = zeroBlock();
    forged[rng.below(blockSize)] = std::uint8_t(1u << rng.below(8));
    sys.nvmDevice().writeFunctional(node_addr, forged);
    rec.injected = true;
    rec.target = node_addr;
    rec.victim = *victim;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "forged tree node 0x%llx on page %llu's path",
                  (unsigned long long)node_addr,
                  (unsigned long long)page_idx);
    rec.detail = buf;
    return rec;
}

InjectionRecord
FaultInjector::inject(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DataFlip:
        return injectDataFlip();
      case FaultKind::MacFlip:
        return injectMacFlip();
      case FaultKind::CounterRollback:
        return injectCounterRollback();
      case FaultKind::BmtFlip:
        return injectBmtFlip();
      case FaultKind::MediaTransient:
        return injectMediaTransient();
      case FaultKind::MediaStuck:
        return injectMediaStuck();
      case FaultKind::MediaWriteFail:
        return armMediaWriteFail(16); // beyond any retry budget
      default:
        break;
    }
    InjectionRecord rec;
    rec.kind = kind;
    rec.detail = "kind is not an NVM image mutation";
    return rec;
}

InjectionRecord
FaultInjector::armBeforeRun(FaultKind kind)
{
    const auto &cfg = sys.config();
    if (kind == FaultKind::TornAdrDump)
        return armTornAdrDump(
            unsigned(seed % cfg.wpq.entriesFor(cfg.mode)));
    if (kind == FaultKind::DroppedClwb)
        return armDroppedClwb(seed % 64);
    InjectionRecord rec;
    rec.kind = kind;
    return rec;
}

InjectionRecord
FaultInjector::injectAndProvoke(const InjectionRecord &armed,
                                bool run_crashed, GoldenModel *golden,
                                NvmRegion region)
{
    const FaultKind kind = armed.kind;
    switch (kind) {
      case FaultKind::None:
      case FaultKind::DroppedClwb:
        return armed;
      case FaultKind::TornAdrDump:
        if (!run_crashed) {
            sys.crash();
            sys.recover();
        }
        return armed;
      default:
        break;
    }

    DOLOS_ASSERT(region == NvmRegion::Data ||
                     kind == FaultKind::MediaTransient ||
                     kind == FaultKind::MediaStuck,
                 "only media transient/stuck faults take a region");
    InjectionRecord rec;
    if (region != NvmRegion::Data)
        rec = kind == FaultKind::MediaStuck ? injectMediaStuck(region)
                                            : injectMediaTransient(region);
    sys.crash();
    if (kind == FaultKind::CounterRollback)
        rec = inject(kind);
    sys.recoverToCompletion();
    if (kind == FaultKind::BmtFlip) {
        // Recovery re-drained the ADR dump, which left the dumped
        // pages' tree paths in the on-chip tree cache, and the
        // provoking load authenticates only the tree levels it reads
        // from NVM. A second power cycle, whose dump is empty, boots
        // with cold metadata caches, so the forged node is on the
        // victim's walk however many entries the first dump held.
        sys.crash();
        sys.recoverToCompletion();
    }
    if (region == NvmRegion::Data && kind != FaultKind::CounterRollback)
        rec = inject(kind);
    if (!rec.injected || kind == FaultKind::CounterRollback)
        return rec;

    if (kind == FaultKind::MediaWriteFail) {
        const Block cur = sys.nvmDevice().readFunctional(rec.victim);
        sys.core().store(rec.victim, cur.data(), blockSize);
        sys.core().clwb(rec.victim);
        sys.core().sfence();
        sys.core().compute(1'000'000);
        sys.controller().drainTo(sys.core().now());
        return rec;
    }
    const bool hide = kind == FaultKind::MediaStuck && golden;
    if (hide)
        sys.core().setObserver(nullptr);
    Block buf;
    sys.core().load(rec.victim, buf.data(), blockSize);
    if (hide)
        sys.core().setObserver(golden);
    return rec;
}

} // namespace dolos::verify
