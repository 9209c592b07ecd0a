/**
 * @file
 * Tree of Counters (ToC) with lazy updates and a Phoenix-style
 * eager shadow root.
 *
 * SGX-style integrity trees store per-child version counters in each
 * node, with a node MAC computed over the node's counters and its own
 * version (held in its parent). Eagerly updating every level on every
 * write is what allows parallel MAC engines; Phoenix (Alwadi et al.)
 * instead updates lazily — only the leaf's version in its immediate
 * parent changes on a write, and upper levels change when a dirty
 * node is evicted from the metadata cache — while protecting the
 * cached (not-yet-propagated) state with a small, eagerly-updated
 * Merkle root over the cache contents.
 *
 * This is a functional substrate model with explicit cache-residency
 * tracking; the Dolos engine uses its update-cost structure for
 * timing (4 serial MACs per write, Table 1) and this class's tests
 * demonstrate the recovery/verification semantics.
 */

#ifndef DOLOS_SECURE_TOC_HH
#define DOLOS_SECURE_TOC_HH

#include <set>
#include <unordered_map>
#include <vector>

#include "crypto/siphash.hh"
#include "sim/types.hh"

namespace dolos
{

/** One ToC node: version counters of its eight children. */
struct TocNode
{
    std::array<std::uint64_t, 8> versions{};
};

/**
 * Functional lazy Tree of Counters.
 */
class TreeOfCounters
{
  public:
    static constexpr unsigned arity = 8;

    TreeOfCounters(Addr num_leaves, const crypto::SipHashMac &mac);

    unsigned numLevels() const { return unsigned(levelSizes.size()); }
    Addr levelSize(unsigned lvl) const { return levelSizes[lvl]; }

    /**
     * A write to leaf @p leaf_idx: bump its version in its parent
     * node (lazy: upper levels untouched). The parent becomes
     * cache-resident and dirty.
     */
    void writeLeaf(Addr leaf_idx);

    /**
     * Evict a dirty node from the metadata cache: persist it to the
     * NVM image and propagate — bump the node's own version in *its*
     * parent (which becomes dirty in turn; the root version is
     * on-chip and always persistent).
     */
    void evict(unsigned level, Addr idx);

    /** Evict every dirty node, bottom-up (orderly shutdown). */
    void flushAll();

    /** Version of child @p idx as recorded in its level-@p level parent. */
    std::uint64_t versionOf(unsigned level, Addr idx) const;

    /**
     * MAC of a persisted node, as stored in the NVM image. Computed
     * over the node's child versions and the node's own version.
     */
    crypto::MacTag storedMac(unsigned level, Addr idx) const;

    /**
     * Verify the NVM image of node (@p level, @p idx) against the
     * current (trusted) version in its parent.
     */
    bool verifyStored(unsigned level, Addr idx) const;

    /** Corrupt the persisted node image (attack injection). */
    void tamperStored(unsigned level, Addr idx);

    /** Captured (node, MAC) pair from the NVM image. */
    struct TocSnapshot
    {
        TocNode node;
        crypto::MacTag mac{};
    };

    /** Snapshot the persisted image of a node (for replay tests). */
    TocSnapshot snapshotStored(unsigned level, Addr idx) const;

    /**
     * Roll the persisted node image (content *and* MAC) back to a
     * previously captured snapshot — the strongest replay an
     * off-chip adversary can mount.
     */
    void replayStored(unsigned level, Addr idx, const TocSnapshot &old);

    /** Root version counter (on-chip, persistent). */
    std::uint64_t rootVersion() const { return rootVersion_; }

    /**
     * Phoenix shadow root: an eagerly-maintained MAC over all
     * cache-resident dirty nodes. Persisted on-chip each write;
     * recovery verifies restored cache contents against it.
     */
    crypto::MacTag shadowRoot() const;

    /** Dirty (cache-resident, unpropagated) node count. */
    std::size_t numDirty() const { return dirty.size(); }

  private:
    std::uint64_t nodeKey(unsigned level, Addr idx) const;
    crypto::MacTag macOf(unsigned level, Addr idx,
                         const TocNode &node) const;

    Addr numLeaves;
    const crypto::SipHashMac &mac;
    std::vector<Addr> levelSizes;

    /** Trusted current state (cache-resident + persisted merged). */
    std::unordered_map<std::uint64_t, TocNode> current;
    /** The NVM image: what an attacker can touch. */
    std::unordered_map<std::uint64_t, TocNode> persisted;
    std::unordered_map<std::uint64_t, crypto::MacTag> persistedMacs;
    /** Cache-resident dirty nodes (lost on crash unless recovered). */
    std::set<std::uint64_t> dirty;

    std::uint64_t rootVersion_ = 0;
};

} // namespace dolos

#endif // DOLOS_SECURE_TOC_HH
