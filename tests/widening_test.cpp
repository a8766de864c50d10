//===- widening_test.cpp - Widening-operator laws --------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Property suite for the widening operators the Summarize lowering leans
/// on (rolled loops converge by widening at LoopInfo headers; DESIGN.md
/// §4): CacheAbsState::widenFrom under all three replacement policies and
/// the interval widening of domain/IntervalDomain. Randomized sweeps pin
/// the lattice laws —
///
///   * upper bound: Prev ⊑ Prev∇Cur and Cur ⊑ Prev∇Cur whenever
///     Prev ⊑ Cur (the engine always widens the joined iterate);
///   * exactness: the cache widen only *evicts* MUST entries whose age
///     grew since Prev — survivors keep their exact age, MAY is untouched;
///   * monotonicity: B ⊑ A implies Prev∇B ⊑ Prev∇A;
///   * termination: a join-then-widen chain with a fixed loop body
///     stabilizes within the per-set MUST age cap (associativity + 1)
///     iterations, and the chain is ascending the whole way.
///
//===----------------------------------------------------------------------===//

#include "domain/CacheState.h"
#include "TouchAllBlocks.h"
#include "reference/IntervalDomain.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

/// A fixture program with N one-line char variables named v0..vN-1 (same
/// shape domain_test.cpp uses).
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

constexpr unsigned NumVars = 10;
constexpr unsigned Assoc = 4;

/// A random abstract state: a random-length random access sequence from
/// the empty state, shadow refinement on so MAY entries participate.
CacheAbsState randomState(Rng &R, const Blocks &F) {
  CacheAbsState S = CacheAbsState::empty();
  unsigned Len = 1 + R.nextBelow(12);
  for (unsigned I = 0; I != Len; ++I)
    S.accessBlock(F.block(R.nextBelow(NumVars)), *F.MM, /*UseShadow=*/true);
  return S;
}

class CacheWideningTest
    : public ::testing::TestWithParam<ReplacementPolicy> {
protected:
  Blocks F{NumVars, CacheConfig::fullyAssociative(Assoc).withPolicy(
                        GetParam())};
};

} // namespace

TEST_P(CacheWideningTest, WidenUpperBoundsJoin) {
  Rng R(7);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    CacheAbsState Prev = randomState(R, F);
    CacheAbsState Cur = Prev;
    Cur.joinInto(randomState(R, F), /*UseShadow=*/true);
    ASSERT_TRUE(Prev.leq(Cur)); // join moved up; precondition
    CacheAbsState W = Cur;
    W.widenFrom(Prev);
    EXPECT_TRUE(Cur.leq(W))
        << "widen is not an upper bound of the joined iterate";
    EXPECT_TRUE(Prev.leq(W))
        << "widen is not an upper bound of the previous iterate";
  }
}

TEST_P(CacheWideningTest, WidenOnlyEvictsGrownMustEntries) {
  Rng R(11);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    CacheAbsState Prev = randomState(R, F);
    CacheAbsState Cur = Prev;
    Cur.joinInto(randomState(R, F), /*UseShadow=*/true);
    CacheAbsState W = Cur;
    W.widenFrom(Prev);

    // Survivors keep their exact joined age; casualties had grown.
    std::vector<AgedBlock> CurMust = Cur.mustEntries();
    std::vector<AgedBlock> WMust = W.mustEntries();
    for (const AgedBlock &E : WMust) {
      uint32_t JoinedAge = Cur.mustAge(E.Block, Assoc);
      EXPECT_EQ(E.Age, JoinedAge) << "widen mutated a surviving age";
    }
    for (const AgedBlock &E : CurMust) {
      if (W.mustAge(E.Block, Assoc) <= Assoc)
        continue; // survived
      uint32_t PrevAge = Prev.mustAge(E.Block, Assoc);
      EXPECT_TRUE(PrevAge <= Assoc && E.Age > PrevAge)
          << "widen evicted an entry whose age had not grown";
    }
    // MAY is untouched: its ladder is finite and needs no acceleration.
    EXPECT_EQ(W.mayEntries(), Cur.mayEntries());
  }
}

TEST_P(CacheWideningTest, WidenIsMonotone) {
  Rng R(13);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    CacheAbsState Prev = randomState(R, F);
    CacheAbsState B = Prev;
    B.joinInto(randomState(R, F), /*UseShadow=*/true);
    CacheAbsState A = B;
    A.joinInto(randomState(R, F), /*UseShadow=*/true);
    ASSERT_TRUE(B.leq(A)); // by join's upper-bound law

    CacheAbsState WB = B, WA = A;
    WB.widenFrom(Prev);
    WA.widenFrom(Prev);
    EXPECT_TRUE(WB.leq(WA))
        << "widen is not monotone in the current iterate";
  }
}

TEST_P(CacheWideningTest, WidenChainStabilizesWithinMustAgeCap) {
  // The engine's loop-header recipe: S_{n+1} = S_n ∇ (S_n ⊔ body(S_n))
  // with a fixed loop body. Per set, each step of a non-stable chain
  // evicts at least one MUST entry and a set holds at most Assoc of
  // them, so the chain must go stable within Assoc + 1 steps (the MUST
  // age cap) — and ascend the whole way.
  Rng R(17);
  for (unsigned Trial = 0; Trial != 50; ++Trial) {
    // Fixed body: an access cycle of 1..6 random blocks.
    std::vector<BlockAddr> Body;
    unsigned Len = 1 + R.nextBelow(6);
    for (unsigned I = 0; I != Len; ++I)
      Body.push_back(F.block(R.nextBelow(NumVars)));

    CacheAbsState S = randomState(R, F);
    unsigned Steps = 0;
    for (; Steps != Assoc + 2; ++Steps) {
      CacheAbsState Next = S;
      for (BlockAddr Block : Body)
        Next.accessBlock(Block, *F.MM, /*UseShadow=*/true);
      Next.joinInto(S, /*UseShadow=*/true);
      Next.widenFrom(S);
      EXPECT_TRUE(S.leq(Next)) << "widening chain is not ascending";
      if (Next == S)
        break;
      S = std::move(Next);
    }
    EXPECT_LE(Steps, Assoc + 1)
        << "widening chain did not stabilize within the MUST age cap";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheWideningTest,
                         ::testing::Values(ReplacementPolicy::Lru,
                                           ReplacementPolicy::Fifo,
                                           ReplacementPolicy::Plru),
                         [](const ::testing::TestParamInfo<ReplacementPolicy>
                                &I) {
                           switch (I.param) {
                           case ReplacementPolicy::Lru:
                             return "lru";
                           case ReplacementPolicy::Fifo:
                             return "fifo";
                           case ReplacementPolicy::Plru:
                             return "plru";
                           }
                           return "unknown";
                         });

//===----------------------------------------------------------------------===//
// Interval widening (domain/IntervalDomain): the loop-counter side of the
// rolled-loop fixpoint.
//===----------------------------------------------------------------------===//

namespace {

Interval randomInterval(Rng &R) {
  int64_t A = R.nextRange(-100, 100);
  int64_t B = R.nextRange(-100, 100);
  return Interval{std::min(A, B), std::max(A, B)};
}

} // namespace

TEST(IntervalWideningTest, WidenUpperBoundsJoin) {
  Rng R(19);
  for (unsigned Trial = 0; Trial != 500; ++Trial) {
    Interval Prev = randomInterval(R);
    Interval Cur = Prev.join(randomInterval(R));
    Interval W = Cur.widen(Prev);
    EXPECT_LE(W.Lo, Cur.Lo);
    EXPECT_GE(W.Hi, Cur.Hi);
    EXPECT_LE(W.Lo, Prev.Lo);
    EXPECT_GE(W.Hi, Prev.Hi);
  }
}

TEST(IntervalWideningTest, UnstableBoundsJumpExactlyToInfinity) {
  Interval Prev{0, 10};
  EXPECT_EQ(Interval({-5, 10}).widen(Prev), Interval({Interval::NegInf, 10}));
  EXPECT_EQ(Interval({0, 12}).widen(Prev), Interval({0, Interval::PosInf}));
  EXPECT_EQ(Interval({0, 10}).widen(Prev), Interval({0, 10})); // stable
}

TEST(IntervalWideningTest, ChainStabilizesWithinTwoJumps) {
  // Each bound jumps to its infinity at most once, so any join-then-widen
  // chain changes at most twice regardless of the perturbation sequence.
  Rng R(23);
  for (unsigned Trial = 0; Trial != 100; ++Trial) {
    Interval I = randomInterval(R);
    unsigned Changes = 0;
    for (unsigned Step = 0; Step != 50; ++Step) {
      Interval Next = I.join(randomInterval(R)).widen(I);
      if (!(Next == I))
        ++Changes;
      I = Next;
    }
    EXPECT_LE(Changes, 2u);
  }
}

TEST(IntervalWideningTest, StateWidenStabilizesPerVariable) {
  // IntervalState chains stabilize once every tracked variable has spent
  // its two bound-jumps: 2 * #vars changes bound the whole chain.
  Rng R(29);
  constexpr unsigned Vars = 3;
  for (unsigned Trial = 0; Trial != 50; ++Trial) {
    IntervalState S = IntervalState::top();
    for (unsigned V = 0; V != Vars; ++V)
      S.setReg(V, randomInterval(R));
    unsigned Changes = 0;
    for (unsigned Step = 0; Step != 40; ++Step) {
      IntervalState X = IntervalState::top();
      for (unsigned V = 0; V != Vars; ++V)
        X.setReg(V, randomInterval(R));
      IntervalState Next = S;
      Next.joinInto(X);
      Next.widenFrom(S);
      // Upper bound of the joined iterate, per variable.
      for (unsigned V = 0; V != Vars; ++V) {
        IntervalState J = S;
        J.joinInto(X);
        EXPECT_LE(Next.reg(V).Lo, J.reg(V).Lo);
        EXPECT_GE(Next.reg(V).Hi, J.reg(V).Hi);
      }
      if (!(Next == S))
        ++Changes;
      S = std::move(Next);
    }
    EXPECT_LE(Changes, 2 * Vars);
  }
}
