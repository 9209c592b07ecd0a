/**
 * @file
 * Lazy Tree of Counters implementation.
 */

#include "secure/toc.hh"

#include "sim/logging.hh"

namespace dolos
{

TreeOfCounters::TreeOfCounters(Addr num_leaves,
                               const crypto::SipHashMac &mac)
    : numLeaves(num_leaves), mac(mac)
{
    DOLOS_ASSERT(num_leaves > 0, "ToC needs at least one leaf");
    Addr n = num_leaves;
    levelSizes.push_back(n);
    while (n > 1) {
        n = (n + arity - 1) / arity;
        levelSizes.push_back(n);
    }
}

std::uint64_t
TreeOfCounters::nodeKey(unsigned level, Addr idx) const
{
    return (std::uint64_t(level) << 56) | idx;
}

std::uint64_t
TreeOfCounters::versionOf(unsigned level, Addr idx) const
{
    // The version of node (level, idx) lives in its parent at
    // (level + 1, idx / arity); the root's version is on-chip.
    if (level + 1 >= numLevels())
        return rootVersion_;
    const auto it = current.find(nodeKey(level + 1, idx / arity));
    if (it == current.end())
        return 0;
    return it->second.versions[idx % arity];
}

crypto::MacTag
TreeOfCounters::macOf(unsigned level, Addr idx,
                      const TocNode &node) const
{
    const std::uint64_t own_version = versionOf(level, idx);
    const std::uint8_t lvl = std::uint8_t(level);
    return mac.computeParts(
        {{&lvl, 1},
         {&idx, sizeof(idx)},
         {node.versions.data(), sizeof(node.versions)},
         {&own_version, sizeof(own_version)}});
}

void
TreeOfCounters::writeLeaf(Addr leaf_idx)
{
    DOLOS_ASSERT(leaf_idx < numLeaves, "leaf %llu out of range",
                 (unsigned long long)leaf_idx);
    if (numLevels() == 1) {
        ++rootVersion_;
        return;
    }
    const auto k = nodeKey(1, leaf_idx / arity);
    ++current[k].versions[leaf_idx % arity];
    dirty.insert(k);
}

void
TreeOfCounters::evict(unsigned level, Addr idx)
{
    const auto k = nodeKey(level, idx);
    DOLOS_ASSERT(dirty.count(k) != 0, "evicting non-dirty node");
    dirty.erase(k);

    // Propagate: bump this node's own version in its parent before
    // persisting, so the persisted MAC binds the new version.
    if (level + 1 >= numLevels()) {
        ++rootVersion_;
    } else {
        const auto pk = nodeKey(level + 1, idx / arity);
        ++current[pk].versions[idx % arity];
        dirty.insert(pk);
    }

    const TocNode &node = current[k];
    persisted[k] = node;
    persistedMacs[k] = macOf(level, idx, node);
}

void
TreeOfCounters::flushAll()
{
    for (unsigned lvl = 1; lvl < numLevels(); ++lvl) {
        // Collect this level's dirty nodes first: evict() dirties
        // parents at lvl+1, which later iterations handle.
        std::vector<Addr> level_dirty;
        for (const auto k : dirty)
            if ((k >> 56) == lvl)
                level_dirty.push_back(k & ((std::uint64_t(1) << 56) - 1));
        for (const Addr idx : level_dirty)
            evict(lvl, idx);
    }
}

crypto::MacTag
TreeOfCounters::storedMac(unsigned level, Addr idx) const
{
    const auto it = persistedMacs.find(nodeKey(level, idx));
    DOLOS_ASSERT(it != persistedMacs.end(), "node never persisted");
    return it->second;
}

bool
TreeOfCounters::verifyStored(unsigned level, Addr idx) const
{
    const auto k = nodeKey(level, idx);
    const auto nit = persisted.find(k);
    const auto mit = persistedMacs.find(k);
    if (nit == persisted.end() || mit == persistedMacs.end())
        return false;
    return macOf(level, idx, nit->second) == mit->second;
}

void
TreeOfCounters::tamperStored(unsigned level, Addr idx)
{
    const auto k = nodeKey(level, idx);
    const auto it = persisted.find(k);
    DOLOS_ASSERT(it != persisted.end(), "tampering absent node");
    ++it->second.versions[0];
}

TreeOfCounters::TocSnapshot
TreeOfCounters::snapshotStored(unsigned level, Addr idx) const
{
    const auto k = nodeKey(level, idx);
    const auto nit = persisted.find(k);
    const auto mit = persistedMacs.find(k);
    DOLOS_ASSERT(nit != persisted.end() && mit != persistedMacs.end(),
                 "node never persisted");
    return {nit->second, mit->second};
}

void
TreeOfCounters::replayStored(unsigned level, Addr idx,
                             const TocSnapshot &old)
{
    const auto k = nodeKey(level, idx);
    persisted[k] = old.node;
    persistedMacs[k] = old.mac;
}

crypto::MacTag
TreeOfCounters::shadowRoot() const
{
    // Phoenix: an eager MT over the metadata cache. Functionally we
    // fold every dirty node (sorted for determinism) into one MAC.
    std::vector<std::uint8_t> buf{0x50}; // domain separator, never empty
    for (const auto k : dirty) {
        const auto &node = current.at(k);
        const auto *kp = reinterpret_cast<const std::uint8_t *>(&k);
        buf.insert(buf.end(), kp, kp + sizeof(k));
        const auto *vp =
            reinterpret_cast<const std::uint8_t *>(node.versions.data());
        buf.insert(buf.end(), vp, vp + sizeof(node.versions));
    }
    return mac.compute(buf.data(), buf.size());
}

} // namespace dolos
