/**
 * @file
 * Tree of Counters tests: lazy semantics, eviction propagation,
 * verification, tamper and replay detection.
 */

#include <gtest/gtest.h>

#include "crypto/siphash.hh"
#include "secure/toc.hh"

namespace
{

using namespace dolos;

struct TocTest : ::testing::Test
{
    const crypto::SipHashMac mac{{3, 1, 4, 1, 5}};
    TreeOfCounters toc{64, mac}; // 64 leaves, 3 levels
};

TEST_F(TocTest, WriteBumpsLeafVersionLazily)
{
    toc.writeLeaf(5);
    EXPECT_EQ(toc.versionOf(0, 5), 1u);
    EXPECT_EQ(toc.versionOf(0, 4), 0u);
    // Lazy: the parent's own version (held at the root) unchanged.
    EXPECT_EQ(toc.versionOf(1, 0), 0u);
    EXPECT_EQ(toc.rootVersion(), 0u);
    EXPECT_EQ(toc.numDirty(), 1u);
}

TEST_F(TocTest, EvictionPropagatesOneLevel)
{
    toc.writeLeaf(5);
    toc.evict(1, 0); // persist node (1,0)
    EXPECT_EQ(toc.versionOf(1, 0), 1u); // bumped in root
    EXPECT_EQ(toc.rootVersion(), 0u);   // root node itself not evicted
    EXPECT_TRUE(toc.verifyStored(1, 0));
    // The root node (level 2) is now dirty instead.
    EXPECT_EQ(toc.numDirty(), 1u);
}

TEST_F(TocTest, FlushAllDrainsDirtySet)
{
    toc.writeLeaf(0);
    toc.writeLeaf(9);
    toc.writeLeaf(63);
    toc.flushAll();
    EXPECT_EQ(toc.numDirty(), 0u);
    EXPECT_GE(toc.rootVersion(), 1u);
    EXPECT_TRUE(toc.verifyStored(1, 0));
    EXPECT_TRUE(toc.verifyStored(1, 1));
    EXPECT_TRUE(toc.verifyStored(1, 7));
    EXPECT_TRUE(toc.verifyStored(2, 0));
}

TEST_F(TocTest, TamperedPersistedNodeFailsVerification)
{
    toc.writeLeaf(3);
    toc.flushAll();
    ASSERT_TRUE(toc.verifyStored(1, 0));
    toc.tamperStored(1, 0);
    EXPECT_FALSE(toc.verifyStored(1, 0));
}

TEST_F(TocTest, ReplayedNodeFailsVerification)
{
    toc.writeLeaf(3);
    toc.flushAll();
    const auto old_snapshot = toc.snapshotStored(1, 0);

    // Move forward: another write and flush bumps (1,0)'s version.
    toc.writeLeaf(3);
    toc.flushAll();
    ASSERT_TRUE(toc.verifyStored(1, 0));

    // Replay the old consistent (node, MAC) pair: the node's own
    // version in its parent has advanced, so the MAC no longer binds.
    toc.replayStored(1, 0, old_snapshot);
    EXPECT_FALSE(toc.verifyStored(1, 0));
}

TEST_F(TocTest, ShadowRootTracksDirtyState)
{
    const auto empty = toc.shadowRoot();
    toc.writeLeaf(1);
    const auto one = toc.shadowRoot();
    EXPECT_NE(empty, one);
    toc.writeLeaf(1);
    EXPECT_NE(toc.shadowRoot(), one);
    // Draining the cache returns the shadow root to the empty value.
    toc.flushAll();
    EXPECT_EQ(toc.shadowRoot(), empty);
}

TEST_F(TocTest, SingleLeafDegenerateTree)
{
    TreeOfCounters tiny(1, mac);
    EXPECT_EQ(tiny.numLevels(), 1u);
    tiny.writeLeaf(0);
    EXPECT_EQ(tiny.rootVersion(), 1u);
}

TEST_F(TocTest, EvictNonDirtyPanics)
{
    EXPECT_DEATH(toc.evict(1, 0), "non-dirty");
}

TEST_F(TocTest, VersionsAccumulateAcrossManyWrites)
{
    for (int i = 0; i < 10; ++i)
        toc.writeLeaf(7);
    EXPECT_EQ(toc.versionOf(0, 7), 10u);
}

} // namespace
