/**
 * @file
 * Merkle tree tests: structure, updates, rebuild, tamper detection.
 */

#include <gtest/gtest.h>

#include "crypto/siphash.hh"
#include "secure/merkle_tree.hh"

namespace
{

using namespace dolos;

struct MerkleTreeTest : ::testing::Test
{
    const crypto::SipHashMac mac{{1, 2, 3, 4, 5, 6, 7, 8}};
};

TEST_F(MerkleTreeTest, GeometryForPowerOfEight)
{
    MerkleTree t(64, mac);
    ASSERT_EQ(t.numLevels(), 3u);
    EXPECT_EQ(t.levelSize(0), 64u);
    EXPECT_EQ(t.levelSize(1), 8u);
    EXPECT_EQ(t.levelSize(2), 1u);
}

TEST_F(MerkleTreeTest, GeometryForRaggedLeafCount)
{
    MerkleTree t(100, mac);
    ASSERT_EQ(t.numLevels(), 4u);
    EXPECT_EQ(t.levelSize(1), 13u);
    EXPECT_EQ(t.levelSize(2), 2u);
    EXPECT_EQ(t.levelSize(3), 1u);
}

TEST_F(MerkleTreeTest, SingleLeafTreeIsJustRoot)
{
    MerkleTree t(1, mac);
    EXPECT_EQ(t.numLevels(), 1u);
    CounterPage p;
    p.major = 1;
    t.updateLeaf(0, p);
    EXPECT_EQ(t.root(), t.leafTagOf(p));
}

TEST_F(MerkleTreeTest, EmptyTreeUsesDefaults)
{
    MerkleTree t(64, mac);
    EXPECT_EQ(t.numStoredNodes(), 0u);
    EXPECT_EQ(t.root(), t.defaultTag(2));
    EXPECT_EQ(t.nodeTag(0, 5), t.defaultTag(0));
}

TEST_F(MerkleTreeTest, UpdateLeafChangesRoot)
{
    MerkleTree t(64, mac);
    const auto root0 = t.root();
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(3, p);
    EXPECT_NE(t.root(), root0);
}

TEST_F(MerkleTreeTest, UpdateOnlyAffectsOwnPath)
{
    MerkleTree t(64, mac);
    CounterPage p;
    p.minors[0] = 1;
    t.updateLeaf(0, p); // path: leaf 0, node (1,0)
    EXPECT_NE(t.nodeTag(1, 0), t.defaultTag(1));
    EXPECT_EQ(t.nodeTag(1, 7), t.defaultTag(1)); // untouched sibling
}

TEST_F(MerkleTreeTest, SameContentSameRoot)
{
    MerkleTree a(64, mac), b(64, mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p);
    b.updateLeaf(10, p);
    EXPECT_EQ(a.root(), b.root());
}

TEST_F(MerkleTreeTest, DifferentLeafPositionDifferentRoot)
{
    // Relocation: the same page content installed at another leaf
    // must produce a different root.
    MerkleTree a(64, mac), b(64, mac);
    CounterPage p;
    p.major = 5;
    a.updateLeaf(10, p);
    b.updateLeaf(11, p);
    EXPECT_NE(a.root(), b.root());
}

TEST_F(MerkleTreeTest, RebuildMatchesIncrementalUpdates)
{
    MerkleTree inc(512, mac), reb(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 20; ++i) {
        CounterPage p;
        p.major = i;
        p.minors[unsigned(i) % 64] = std::uint8_t(i % 128);
        inc.updateLeaf(i * 17 % 512, p);
        pages[i * 17 % 512] = p;
    }
    reb.rebuild(pages);
    EXPECT_EQ(inc.root(), reb.root());
}

TEST_F(MerkleTreeTest, RebuildAfterClearRestoresRoot)
{
    MerkleTree t(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    for (Addr i = 0; i < 10; ++i) {
        CounterPage p;
        p.minors[0] = std::uint8_t(i + 1);
        t.updateLeaf(i, p);
        pages[i] = p;
    }
    const auto root = t.root();
    t.clear();
    t.rebuild(pages);
    EXPECT_EQ(t.root(), root);
}

TEST_F(MerkleTreeTest, TamperedPageChangesRootOnRebuild)
{
    MerkleTree t(512, mac);
    std::unordered_map<Addr, CounterPage> pages;
    CounterPage p;
    p.minors[7] = 3;
    t.updateLeaf(100, p);
    pages[100] = p;
    pages[100].minors[7] = 4; // attacker rolls the counter forward
    MerkleTree t2(512, mac);
    t2.rebuild(pages);
    EXPECT_NE(t.root(), t2.root());
}

TEST_F(MerkleTreeTest, LevelTagPreventsHeightConfusion)
{
    // A node's tag at level 1 over default children differs from the
    // level-2 tag over default children: level is bound into the MAC.
    MerkleTree t(4096, mac); // levels: 4096, 512, 64, 8, 1
    EXPECT_NE(t.defaultTag(1), t.defaultTag(2));
}

TEST_F(MerkleTreeTest, MacKeyBindsTree)
{
    const crypto::SipHashMac mac2({9, 9, 9, 9});
    MerkleTree a(64, mac), b(64, mac2);
    EXPECT_NE(a.root(), b.root());
}

TEST_F(MerkleTreeTest, DeathOnOutOfRangeLeaf)
{
    MerkleTree t(64, mac);
    CounterPage p;
    EXPECT_DEATH(t.updateLeaf(64, p), "out of range");
}

} // namespace
