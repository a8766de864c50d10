//===- domain_test.cpp - Abstract cache state tests ------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Pins the transfer/join semantics against the paper's worked examples:
/// Figure 4 (LRU transfer), Figure 5 (join at a merge point), Appendix B
/// Example B.2/B.3 (shadow variables), and lattice properties (join
/// monotonicity, idempotence, commutativity; leq consistency) via
/// parameterized random-state sweeps.
///
//===----------------------------------------------------------------------===//

#include "domain/CacheState.h"
#include "TouchAllBlocks.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <thread>
#include <tuple>

using namespace specai;

namespace {

/// A fixture program with N one-line char variables named v0..vN-1.
struct Blocks {
  Program P;
  std::unique_ptr<MemoryModel> MM;

  Blocks(unsigned NumVars, CacheConfig Config) {
    for (unsigned I = 0; I != NumVars; ++I) {
      MemVar V;
      V.Name = "v" + std::to_string(I);
      V.ElemSize = 1;
      V.NumElements = 64;
      P.Vars.push_back(V);
    }
    BasicBlock B;
    Instruction Ret;
    Ret.Op = Opcode::Ret;
    B.Insts.push_back(Ret);
    P.Blocks.push_back(B);
    touchAllBlocks(P);
    MM = std::make_unique<MemoryModel>(P, Config);
  }

  BlockAddr block(unsigned Var) const { return MM->blockOf(Var, 0); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Figure 4: transfer under LRU
//===----------------------------------------------------------------------===//

TEST(CacheStateTest, Fig4LeftAccessOfUncachedEvictsOldest) {
  // Cache of 4 lines holding u1..u4; accessing v (uncached) evicts u4.
  Blocks F(5, CacheConfig::fullyAssociative(4));
  CacheAbsState S = CacheAbsState::empty();
  // Load u4, u3, u2, u1 in order: ages u1=1 .. u4=4.
  for (int I = 4; I >= 1; --I)
    S.accessBlock(F.block(I), *F.MM, /*UseShadow=*/false);
  EXPECT_EQ(S.mustAge(F.block(4), 4), 4u);
  S.accessBlock(F.block(0), *F.MM, false); // v
  EXPECT_EQ(S.mustAge(F.block(0), 4), 1u);
  EXPECT_EQ(S.mustAge(F.block(1), 4), 2u);
  EXPECT_EQ(S.mustAge(F.block(4), 4), 5u); // Evicted.
}

TEST(CacheStateTest, Fig4RightAccessOfCachedAgesOnlyYounger) {
  // v at age 2: u (age 1) ages, w1/w2 (older) stay.
  Blocks F(4, CacheConfig::fullyAssociative(4));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(3), *F.MM, false); // w2
  S.accessBlock(F.block(2), *F.MM, false); // w1
  S.accessBlock(F.block(0), *F.MM, false); // v
  S.accessBlock(F.block(1), *F.MM, false); // u => u=1 v=2 w1=3 w2=4
  S.accessBlock(F.block(0), *F.MM, false); // access v again
  EXPECT_EQ(S.mustAge(F.block(0), 4), 1u);
  EXPECT_EQ(S.mustAge(F.block(1), 4), 2u); // u aged.
  EXPECT_EQ(S.mustAge(F.block(2), 4), 3u); // w1 unchanged.
  EXPECT_EQ(S.mustAge(F.block(3), 4), 4u); // w2 unchanged.
}

//===----------------------------------------------------------------------===//
// Figure 5: join takes the maximum age, dropping one-sided blocks
//===----------------------------------------------------------------------===//

TEST(CacheStateTest, Fig5JoinMaxAges) {
  // Left: x@1, y@2, z@3, k@4. Right: t@1, z@2, x@3, k@4.
  Blocks F(5, CacheConfig::fullyAssociative(4));
  // Vars: x=0 y=1 z=2 k=3 t=4.
  CacheAbsState L = CacheAbsState::empty();
  L.accessBlock(F.block(3), *F.MM, false);
  L.accessBlock(F.block(2), *F.MM, false);
  L.accessBlock(F.block(1), *F.MM, false);
  L.accessBlock(F.block(0), *F.MM, false); // x=1 y=2 z=3 k=4.
  CacheAbsState R = CacheAbsState::empty();
  R.accessBlock(F.block(3), *F.MM, false);
  R.accessBlock(F.block(0), *F.MM, false);
  R.accessBlock(F.block(2), *F.MM, false);
  R.accessBlock(F.block(4), *F.MM, false); // t=1 z=2 x=3 k=4.

  CacheAbsState J = L;
  EXPECT_TRUE(J.joinInto(R, false));
  EXPECT_EQ(J.mustAge(F.block(0), 4), 3u); // x: max(1,3).
  EXPECT_EQ(J.mustAge(F.block(2), 4), 3u); // z: max(3,2).
  EXPECT_EQ(J.mustAge(F.block(3), 4), 4u); // k: max(4,4).
  EXPECT_EQ(J.mustAge(F.block(1), 4), 5u); // y dropped (right lacks it).
  EXPECT_EQ(J.mustAge(F.block(4), 4), 5u); // t dropped (left lacks it).
}

TEST(CacheStateTest, Fig5JoinShadowKeepsUnion) {
  Blocks F(5, CacheConfig::fullyAssociative(4));
  CacheAbsState L = CacheAbsState::empty();
  L.accessBlock(F.block(1), *F.MM, true); // ∃y@1.
  CacheAbsState R = CacheAbsState::empty();
  R.accessBlock(F.block(4), *F.MM, true); // ∃t@1.
  CacheAbsState J = L;
  J.joinInto(R, true);
  // Shadow (MAY) union survives where MUST intersected away.
  EXPECT_EQ(J.mayAge(F.block(1), 4), 1u);
  EXPECT_EQ(J.mayAge(F.block(4), 4), 1u);
  EXPECT_GT(J.mustAge(F.block(1), 4), 4u);
}

//===----------------------------------------------------------------------===//
// Appendix B: shadow-variable refinement
//===----------------------------------------------------------------------===//

TEST(CacheStateTest, AppendixCRefinedAgingKeepsA) {
  // The S7 -> S8 step of Appendix C: must = [{}, {}, a, _], shadow
  // ∃b,∃c at 1-2 pattern; accessing b must NOT age a because only two
  // shadow blocks are as young as a's age 3.
  Blocks F(3, CacheConfig::fullyAssociative(4)); // a=0 b=1 c=2.
  CacheAbsState S = CacheAbsState::empty();
  // Build S7 by the same access/join sequence as the paper:
  // access a; then one path accesses b, the other c; join; repeat.
  CacheAbsState Init = CacheAbsState::empty();
  Init.accessBlock(F.block(0), *F.MM, true); // a.
  CacheAbsState Cur = Init;
  for (int Round = 0; Round != 2; ++Round) {
    CacheAbsState PB = Cur;
    PB.accessBlock(F.block(1), *F.MM, true);
    CacheAbsState PC = Cur;
    PC.accessBlock(F.block(2), *F.MM, true);
    Cur = PB;
    Cur.joinInto(PC, true);
  }
  // After two rounds, a sits at age 3 (paper S7: [{∃b,∃c}, {∃a}, a, _]).
  EXPECT_EQ(Cur.mustAge(F.block(0), 4), 3u);
  // Third access of b: a must keep age 3 (refined rule, Appendix C.2).
  CacheAbsState S8 = Cur;
  S8.accessBlock(F.block(1), *F.MM, true);
  EXPECT_EQ(S8.mustAge(F.block(0), 4), 3u);
  S = S8;

  // Without shadows the same sequence pushes a to age 4.
  CacheAbsState NoShadow = CacheAbsState::empty();
  NoShadow.accessBlock(F.block(0), *F.MM, false);
  CacheAbsState Cur2 = NoShadow;
  for (int Round = 0; Round != 2; ++Round) {
    CacheAbsState PB = Cur2;
    PB.accessBlock(F.block(1), *F.MM, false);
    CacheAbsState PC = Cur2;
    PC.accessBlock(F.block(2), *F.MM, false);
    Cur2 = PB;
    Cur2.joinInto(PC, false);
  }
  CacheAbsState S8Orig = Cur2;
  S8Orig.accessBlock(F.block(1), *F.MM, false);
  EXPECT_EQ(S8Orig.mustAge(F.block(0), 4), 4u); // Appendix C: [b,{},{},a].
}

TEST(CacheStateTest, ShadowInvariantMayLeqMust) {
  // For every tracked block, the MAY age is a lower bound of the MUST age.
  Blocks F(6, CacheConfig::fullyAssociative(4));
  Rng R(99);
  CacheAbsState S = CacheAbsState::empty();
  for (int I = 0; I != 200; ++I) {
    unsigned V = static_cast<unsigned>(R.nextBelow(6));
    S.accessBlock(F.block(V), *F.MM, true);
    if (R.chance(1, 4)) {
      CacheAbsState Other = CacheAbsState::empty();
      Other.accessBlock(F.block(R.nextBelow(6)), *F.MM, true);
      S.joinInto(Other, true);
    }
    for (const AgedBlock &E : S.mustEntries())
      EXPECT_LE(S.mayAge(E.Block, 4), E.Age);
  }
}

//===----------------------------------------------------------------------===//
// Unknown-index transfer
//===----------------------------------------------------------------------===//

TEST(CacheStateTest, UnknownAccessAgesEverythingWhenNotAllCached) {
  Blocks F(3, CacheConfig::fullyAssociative(4));
  // Give variable 0 two lines by using a bigger array program instead.
  Program P;
  MemVar A;
  A.Name = "arr";
  A.ElemSize = 1;
  A.NumElements = 128; // 2 lines.
  P.Vars.push_back(A);
  MemVar X;
  X.Name = "x";
  X.ElemSize = 4;
  X.NumElements = 1;
  P.Vars.push_back(X);
  BasicBlock B;
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  B.Insts.push_back(Ret);
  P.Blocks.push_back(B);
  touchAllBlocks(P);
  MemoryModel MM(P, CacheConfig::fullyAssociative(4));

  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(MM.blockOf(1, 0), MM, false); // x@1.
  S.accessUnknown(0, 0, MM, false);           // arr not all cached.
  EXPECT_EQ(S.mustAge(MM.blockOf(1, 0), 4), 2u); // x aged.
  // Symbolic instance inserted at age 1.
  EXPECT_TRUE(S.isMustCached(MM.symbolicBlock(0, 0)));
}

TEST(CacheStateTest, UnknownAccessOnFullyCachedArrayIsAHit) {
  Program P;
  MemVar A;
  A.Name = "arr";
  A.ElemSize = 1;
  A.NumElements = 128; // 2 lines.
  P.Vars.push_back(A);
  MemVar X;
  X.Name = "x";
  X.ElemSize = 4;
  X.NumElements = 1;
  P.Vars.push_back(X);
  BasicBlock B;
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  B.Insts.push_back(Ret);
  P.Blocks.push_back(B);
  touchAllBlocks(P);
  MemoryModel MM(P, CacheConfig::fullyAssociative(4));

  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(MM.blockOf(0, 0), MM, false);
  S.accessBlock(MM.blockOf(0, 64), MM, false);
  S.accessBlock(MM.blockOf(1, 0), MM, false); // x@1, arr@2,3.
  S.accessUnknown(0, 0, MM, false);
  // A guaranteed hit: x (age 1 < maxAge(arr)=3) ages by one but is NOT
  // evicted; no symbolic instance is inserted.
  EXPECT_EQ(S.mustAge(MM.blockOf(1, 0), 4), 2u);
  EXPECT_FALSE(S.isMustCached(MM.symbolicBlock(0, 0)));
  EXPECT_TRUE(S.isMustCached(MM.blockOf(0, 0)));
  EXPECT_TRUE(S.isMustCached(MM.blockOf(0, 64)));
}

//===----------------------------------------------------------------------===//
// Lattice properties (randomized)
//===----------------------------------------------------------------------===//

namespace {

CacheAbsState randomState(Blocks &F, Rng &R, bool Shadow) {
  CacheAbsState S = CacheAbsState::empty();
  unsigned N = static_cast<unsigned>(R.nextBelow(12));
  for (unsigned I = 0; I != N; ++I)
    S.accessBlock(F.block(R.nextBelow(6)), *F.MM, Shadow);
  return S;
}

} // namespace

class CacheLatticeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheLatticeTest, JoinIsCommutativeAssociativeIdempotent) {
  Blocks F(6, CacheConfig::fullyAssociative(4));
  Rng R(GetParam());
  for (int I = 0; I != 50; ++I) {
    bool Shadow = R.chance(1, 2);
    CacheAbsState A = randomState(F, R, Shadow);
    CacheAbsState B = randomState(F, R, Shadow);
    CacheAbsState C = randomState(F, R, Shadow);

    CacheAbsState AB = A;
    AB.joinInto(B, Shadow);
    CacheAbsState BA = B;
    BA.joinInto(A, Shadow);
    EXPECT_EQ(AB, BA);

    CacheAbsState AB_C = AB;
    AB_C.joinInto(C, Shadow);
    CacheAbsState BC = B;
    BC.joinInto(C, Shadow);
    CacheAbsState A_BC = A;
    A_BC.joinInto(BC, Shadow);
    EXPECT_EQ(AB_C, A_BC);

    CacheAbsState AA = A;
    EXPECT_FALSE(AA.joinInto(A, Shadow)); // Idempotent: no change.
    EXPECT_EQ(AA, A);
  }
}

TEST_P(CacheLatticeTest, JoinIsUpperBoundPerLeq) {
  Blocks F(6, CacheConfig::fullyAssociative(4));
  Rng R(GetParam() * 31 + 7);
  for (int I = 0; I != 50; ++I) {
    CacheAbsState A = randomState(F, R, true);
    CacheAbsState B = randomState(F, R, true);
    CacheAbsState J = A;
    J.joinInto(B, true);
    EXPECT_TRUE(A.leq(J));
    EXPECT_TRUE(B.leq(J));
  }
}

TEST_P(CacheLatticeTest, BottomIsJoinIdentity) {
  Blocks F(6, CacheConfig::fullyAssociative(4));
  Rng R(GetParam() * 17 + 3);
  CacheAbsState A = randomState(F, R, true);
  CacheAbsState Bot = CacheAbsState::bottom();
  CacheAbsState A2 = A;
  EXPECT_FALSE(A2.joinInto(Bot, true));
  EXPECT_EQ(A2, A);
  CacheAbsState Bot2 = CacheAbsState::bottom();
  EXPECT_TRUE(Bot2.joinInto(A, true));
  EXPECT_EQ(Bot2, A);
  EXPECT_TRUE(Bot.leq(A));
}

TEST_P(CacheLatticeTest, TransferIsMonotoneInTheState) {
  // If A ⊑ B then transfer(A) ⊑ transfer(B) for known accesses.
  Blocks F(6, CacheConfig::fullyAssociative(4));
  Rng R(GetParam() * 101 + 13);
  for (int I = 0; I != 50; ++I) {
    CacheAbsState A = randomState(F, R, false);
    CacheAbsState B = A;
    B.joinInto(randomState(F, R, false), false); // B ⊒ A by construction.
    ASSERT_TRUE(A.leq(B));
    unsigned V = static_cast<unsigned>(R.nextBelow(6));
    A.accessBlock(F.block(V), *F.MM, false);
    B.accessBlock(F.block(V), *F.MM, false);
    EXPECT_TRUE(A.leq(B));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheLatticeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Widening
//===----------------------------------------------------------------------===//

TEST(CacheStateTest, HandlesMoveBetweenThreads) {
  // States are confined to one thread at a time (plain refcounts and
  // hashes); a hand-off through a thread start and join is all they need.
  // Two states sharing partitions move to a worker, which copies, mutates,
  // joins, hashes and destroys them there. The payloads come from an
  // arena on this thread and are released on the worker, which has none.
  Blocks F(8, CacheConfig::setAssociative(8, 2));
  auto Build = [&] {
    CacheAbsState A = CacheAbsState::empty();
    for (unsigned I = 0; I != 8; ++I)
      A.accessBlock(F.block(I), *F.MM, /*UseShadow=*/true);
    CacheAbsState B = A;
    B.accessBlock(F.block(1), *F.MM, true); // Unshares one set only.
    return std::pair{A, B};
  };
  using Result = std::tuple<std::vector<AgedBlock>, std::vector<AgedBlock>,
                            uint64_t, uint64_t, bool>;
  auto Work = [&](CacheAbsState A, CacheAbsState B) {
    CacheAbsState C = B;
    C.accessBlock(F.block(6), *F.MM, true);
    C.joinInto(A, true);
    return Result{C.mustEntries(), C.mayEntries(), C.structuralHash(),
                  B.structuralHash(), C == A};
  };
  // What the worker must compute, recorded as plain values beforehand.
  Result Want, Got;
  {
    auto [A, B] = Build();
    Want = Work(A, B);
  }

  CacheStateArenaScope Arena;
  auto [A, B] = Build();
  ASSERT_FALSE(A.sharesStorageWith(B));
  size_t Shared = 0;
  for (const CacheSetPartition &Part : A.partitions())
    Shared += A.sharesPartitionWith(B, Part.Set);
  ASSERT_EQ(Shared + 1, A.partitions().size());
  std::thread Worker([&, A = std::move(A), B = std::move(B)]() mutable {
    CacheAbsState MyA = std::move(A), MyB = std::move(B);
    Got = Work(MyA, MyB);
  });
  Worker.join();
  EXPECT_EQ(Got, Want);
}

TEST(CacheStateTest, WideningEvictsGrowingEntries) {
  Blocks F(4, CacheConfig::fullyAssociative(4));
  CacheAbsState Prev = CacheAbsState::empty();
  Prev.accessBlock(F.block(0), *F.MM, false);
  Prev.accessBlock(F.block(1), *F.MM, false); // v1@1 v0@2.
  CacheAbsState Cur = Prev;
  Cur.accessBlock(F.block(2), *F.MM, false); // v0 grows to 3.
  Cur.widenFrom(Prev);
  EXPECT_FALSE(Cur.isMustCached(F.block(0))); // Grew: widened away.
  EXPECT_TRUE(Cur.isMustCached(F.block(2)));  // New at age 1: kept.
}

TEST(CacheStateTest, StringRenderingSortsByAge) {
  Blocks F(3, CacheConfig::fullyAssociative(4));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(2), *F.MM, false);
  S.accessBlock(F.block(0), *F.MM, false);
  std::string Out = S.str(*F.MM);
  EXPECT_LT(Out.find("v0[0]@1"), Out.find("v2[0]@2"));
  EXPECT_EQ(CacheAbsState::bottom().str(*F.MM), "⊥");
}
