//===- cache_memory_test.cpp - Cache simulator and memory model -----------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cache/CacheSim.h"
#include "memory/MemoryModel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>

using namespace specai;

//===----------------------------------------------------------------------===//
// CacheConfig
//===----------------------------------------------------------------------===//

TEST(CacheConfigTest, PaperDefaultIs32KFullyAssociative) {
  CacheConfig C = CacheConfig::paperDefault();
  EXPECT_EQ(C.NumLines, 512u);
  EXPECT_EQ(C.LineSize, 64u);
  EXPECT_EQ(C.numSets(), 1u);
  EXPECT_EQ(C.totalBytes(), 32u * 1024u);
  EXPECT_TRUE(C.isValid());
}

TEST(CacheConfigTest, SetAssociativeGeometry) {
  CacheConfig C = CacheConfig::setAssociative(512, 8);
  EXPECT_EQ(C.numSets(), 64u);
  EXPECT_TRUE(C.isValid());
  EXPECT_EQ(C.setOf(0), 0u);
  EXPECT_EQ(C.setOf(65), 1u);
  EXPECT_EQ(C.setOf(64), 0u);
}

TEST(CacheConfigTest, InvalidGeometriesRejected) {
  CacheConfig NonDividing{64, 512, 7}; // 7 does not divide 512.
  EXPECT_FALSE(NonDividing.isValid());
  CacheConfig TooWide{64, 512, 1024};
  EXPECT_FALSE(TooWide.isValid());
  CacheConfig ZeroLine{0, 512, 512};
  EXPECT_FALSE(ZeroLine.isValid());
}

//===----------------------------------------------------------------------===//
// CacheSim under LRU
//===----------------------------------------------------------------------===//

TEST(LruCacheSimTest, MissThenHit) {
  CacheSim C(CacheConfig::fullyAssociative(4));
  EXPECT_FALSE(C.access(1));
  EXPECT_TRUE(C.access(1));
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 1u);
}

TEST(LruCacheSimTest, LruEvictionOrder) {
  CacheSim C(CacheConfig::fullyAssociative(2));
  C.access(1);
  C.access(2);
  C.access(3); // Evicts 1.
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
  EXPECT_TRUE(C.contains(3));
}

TEST(LruCacheSimTest, HitRefreshesRecency) {
  CacheSim C(CacheConfig::fullyAssociative(2));
  C.access(1);
  C.access(2);
  C.access(1); // 1 becomes MRU; 2 is now LRU.
  C.access(3); // Evicts 2.
  EXPECT_TRUE(C.contains(1));
  EXPECT_FALSE(C.contains(2));
}

TEST(LruCacheSimTest, AgeReporting) {
  CacheSim C(CacheConfig::fullyAssociative(4));
  C.access(10);
  C.access(20);
  C.access(30);
  EXPECT_EQ(C.ageOf(30), 1u);
  EXPECT_EQ(C.ageOf(20), 2u);
  EXPECT_EQ(C.ageOf(10), 3u);
  EXPECT_EQ(C.ageOf(99), 0u);
}

TEST(LruCacheSimTest, SetsAreIndependent) {
  // 4 lines, 2 ways => 2 sets; even blocks to set 0, odd to set 1.
  CacheSim C(CacheConfig::setAssociative(4, 2));
  C.access(0);
  C.access(2);
  C.access(4); // Evicts 0 within set 0.
  EXPECT_FALSE(C.contains(0));
  C.access(1); // Set 1 untouched by set 0 traffic.
  EXPECT_TRUE(C.contains(1));
  EXPECT_TRUE(C.contains(2));
}

TEST(LruCacheSimTest, FlushEmptiesEverything) {
  CacheSim C(CacheConfig::fullyAssociative(4));
  C.access(1);
  C.access(2);
  C.flush();
  EXPECT_EQ(C.residentCount(), 0u);
  EXPECT_FALSE(C.contains(1));
}

TEST(LruCacheSimTest, MatchesReferenceModelOnRandomTrace) {
  // Differential test against a simple recency-list reference.
  Rng R(1234);
  CacheSim C(CacheConfig::fullyAssociative(8));
  std::vector<BlockAddr> Reference; // Front = MRU.
  for (int I = 0; I != 5000; ++I) {
    BlockAddr B = R.nextBelow(24);
    bool ExpectHit =
        std::find(Reference.begin(), Reference.end(), B) != Reference.end();
    EXPECT_EQ(C.access(B), ExpectHit) << "step " << I;
    Reference.erase(std::remove(Reference.begin(), Reference.end(), B),
                    Reference.end());
    Reference.insert(Reference.begin(), B);
    if (Reference.size() > 8)
      Reference.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// MemoryModel
//===----------------------------------------------------------------------===//

namespace {

Program makeProgram() {
  Program P;
  auto AddVar = [&](const char *Name, uint32_t ElemSize, uint64_t Count) {
    MemVar V;
    V.Name = Name;
    V.ElemSize = ElemSize;
    V.NumElements = Count;
    P.Vars.push_back(V);
  };
  AddVar("p", 1, 1);        // 1 line.
  AddVar("ph", 1, 32640);   // 510 lines.
  AddVar("tab", 4, 30);     // 120 bytes => 2 lines.
  BasicBlock B;
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  B.Insts.push_back(Ret);
  P.Blocks.push_back(B);
  return P;
}

} // namespace

TEST(MemoryModelTest, VariablesStartOnTheirOwnLines) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::paperDefault());
  EXPECT_EQ(MM.baseAddrOf(0) % 64, 0u);
  EXPECT_EQ(MM.baseAddrOf(1) % 64, 0u);
  EXPECT_EQ(MM.numBlocksOf(0), 1u);
  EXPECT_EQ(MM.numBlocksOf(1), 510u);
  EXPECT_EQ(MM.numBlocksOf(2), 2u);
  EXPECT_EQ(MM.numConcreteBlocks(), 513u);
}

TEST(MemoryModelTest, BlockOfMapsElementsToLines) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::paperDefault());
  BlockAddr First = MM.firstBlockOf(1);
  EXPECT_EQ(MM.blockOf(1, 0), First);
  EXPECT_EQ(MM.blockOf(1, 63), First);
  EXPECT_EQ(MM.blockOf(1, 64), First + 1);
  // 4-byte elements: 16 per line.
  EXPECT_EQ(MM.blockOf(2, 15), MM.firstBlockOf(2));
  EXPECT_EQ(MM.blockOf(2, 16), MM.firstBlockOf(2) + 1);
}

TEST(MemoryModelTest, DistinctVariablesNeverShareBlocks) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::paperDefault());
  EXPECT_NE(MM.blockOf(0, 0), MM.blockOf(1, 0));
  EXPECT_NE(MM.blockOf(1, 32639), MM.blockOf(2, 0));
}

TEST(MemoryModelTest, SymbolicInstancesAreDistinctAndSaturate) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::paperDefault());
  BlockAddr S0 = MM.symbolicBlock(2, 0);
  BlockAddr S1 = MM.symbolicBlock(2, 1);
  BlockAddr S9 = MM.symbolicBlock(2, 9); // Saturates at 2 lines - 1.
  EXPECT_NE(S0, S1);
  EXPECT_EQ(S9, S1);
  EXPECT_TRUE(MM.isSymbolic(S0));
  EXPECT_FALSE(MM.isSymbolic(MM.blockOf(2, 0)));
  EXPECT_EQ(MM.varOfBlock(S0), 2u);
}

TEST(MemoryModelTest, BlockNamesMatchPaperStyle) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::paperDefault());
  EXPECT_EQ(MM.blockName(MM.blockOf(0, 0)), "p");
  EXPECT_EQ(MM.blockName(MM.blockOf(1, 64)), "ph[1]");
  EXPECT_EQ(MM.blockName(MM.symbolicBlock(2, 0)), "tab[1*]");
  EXPECT_EQ(MM.blockName(MM.symbolicBlock(2, 1)), "tab[2*]");
}

TEST(MemoryModelTest, SetAssociativeSetsOfSpansArray) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::setAssociative(512, 8));
  // ph spans 510 lines over 64 sets: every set is a candidate.
  EXPECT_EQ(MM.setsOf(1).size(), 64u);
  // p is a single line: exactly one candidate set.
  EXPECT_EQ(MM.setsOf(0).size(), 1u);
}

TEST(MemoryModelTest, SymbolicSetMatchesCorrespondingLine) {
  Program P = makeProgram();
  MemoryModel MM(P, CacheConfig::setAssociative(512, 8));
  BlockAddr Sym = MM.symbolicBlock(2, 1);
  EXPECT_EQ(MM.setOf(Sym), MM.config().setOf(MM.firstBlockOf(2) + 1));
}
