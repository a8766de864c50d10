//===- policy_domain_test.cpp - Replacement-policy lattices ---------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The replacement-policy generalization (docs/DOMAINS.md): the concrete
/// FIFO and tree-PLRU simulators, the per-policy abstract transfer rules
/// (FIFO no-rejuvenation and definite-miss refinement, the PLRU
/// log2(ways)+1 pessimistic bound), policy-generic lattice laws
/// (join commutativity/idempotence, leq), and a randomized differential
/// law: on straight-line access sequences every abstract MUST bound
/// over-approximates the concrete policy age, per policy. The fuzzer
/// (`specai-fuzz --policy`) checks the same containment through branches,
/// loops, and speculative windows; this suite pins the small cases a
/// counterexample would minimize to.
///
//===----------------------------------------------------------------------===//

#include "cache/CacheSim.h"
#include "domain/CacheState.h"
#include "TouchAllBlocks.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

/// A fixture program of scalar-sized variables (one block each) over a
/// configurable cache, mirroring state_repr_test's Blocks but sized for
/// single-set age arithmetic.
struct Blocks {
  Program P;
  std::unique_ptr<MemoryModel> MM;

  Blocks(unsigned NumVars, CacheConfig Config, unsigned ElemsPerVar = 64) {
    for (unsigned I = 0; I != NumVars; ++I) {
      MemVar V;
      // Built with += (not operator+): GCC 12's -Wrestrict false-fires on
      // the temporary-string insert when this loop is inlined widely.
      V.Name = "v";
      V.Name += std::to_string(I);
      V.ElemSize = 1;
      V.NumElements = ElemsPerVar; // One 64 B line per variable by default.
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

CacheConfig fifoConfig(uint32_t Lines = 8) {
  return CacheConfig::fullyAssociative(Lines).withPolicy(
      ReplacementPolicy::Fifo);
}

CacheConfig plruConfig(uint32_t Lines = 8) {
  return CacheConfig::fullyAssociative(Lines).withPolicy(
      ReplacementPolicy::Plru);
}

} // namespace

//===----------------------------------------------------------------------===//
// Config plumbing
//===----------------------------------------------------------------------===//

TEST(PolicyConfigTest, NamesParseAndPrint) {
  ReplacementPolicy P = ReplacementPolicy::Lru;
  EXPECT_TRUE(parseReplacementPolicy("fifo", P));
  EXPECT_EQ(P, ReplacementPolicy::Fifo);
  EXPECT_TRUE(parseReplacementPolicy("plru", P));
  EXPECT_EQ(P, ReplacementPolicy::Plru);
  EXPECT_TRUE(parseReplacementPolicy("lru", P));
  EXPECT_EQ(P, ReplacementPolicy::Lru);
  EXPECT_FALSE(parseReplacementPolicy("mru", P));
  EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Fifo), "fifo");
  EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Plru), "plru");
}

TEST(PolicyConfigTest, PlruNeedsPowerOfTwoWays) {
  EXPECT_TRUE(plruConfig(8).isValid());
  EXPECT_TRUE(
      CacheConfig::setAssociative(64, 4).withPolicy(ReplacementPolicy::Plru)
          .isValid());
  EXPECT_FALSE(
      CacheConfig::setAssociative(24, 3).withPolicy(ReplacementPolicy::Plru)
          .isValid());
  // The same geometry is fine for the order-based policies.
  EXPECT_TRUE(CacheConfig::setAssociative(24, 3).isValid());
  EXPECT_TRUE(CacheConfig::setAssociative(24, 3)
                  .withPolicy(ReplacementPolicy::Fifo)
                  .isValid());
}

TEST(PolicyConfigTest, MustAgeCapIsAssocExceptPlruTreeBound) {
  EXPECT_EQ(CacheConfig::fullyAssociative(8).mustAgeCap(), 8u);
  EXPECT_EQ(fifoConfig(8).mustAgeCap(), 8u);
  EXPECT_EQ(plruConfig(8).mustAgeCap(), 4u);  // log2(8) + 1
  EXPECT_EQ(plruConfig(512).mustAgeCap(), 10u); // log2(512) + 1
  EXPECT_EQ(
      CacheConfig::setAssociative(8, 1).withPolicy(ReplacementPolicy::Plru)
          .mustAgeCap(),
      1u); // Direct-mapped: log2(1) + 1.
}

//===----------------------------------------------------------------------===//
// Concrete simulators
//===----------------------------------------------------------------------===//

TEST(FifoCacheSimTest, HitsDoNotRejuvenate) {
  CacheSim C(fifoConfig(4));
  // Insertion order a, b, c: a is the oldest.
  EXPECT_FALSE(C.access(10));
  EXPECT_FALSE(C.access(11));
  EXPECT_FALSE(C.access(12));
  EXPECT_EQ(C.ageOf(10), 3u);
  // A FIFO hit must not move the line...
  EXPECT_TRUE(C.access(10));
  EXPECT_EQ(C.ageOf(10), 3u);
  // ...so two more misses push a (not the more recently *used* b/c) out.
  EXPECT_FALSE(C.access(13));
  EXPECT_FALSE(C.access(14));
  EXPECT_FALSE(C.contains(10));
  EXPECT_TRUE(C.contains(11));
  // The identical sequence under LRU keeps the re-used line resident.
  CacheSim L((CacheConfig::fullyAssociative(4)));
  for (BlockAddr B : {10, 11, 12, 10, 13, 14})
    L.access(B);
  EXPECT_TRUE(L.contains(10));
  EXPECT_FALSE(L.contains(11));
}

TEST(FifoCacheSimTest, AgeIsInsertionPosition) {
  CacheSim C(fifoConfig(4));
  C.access(20);
  C.access(21);
  EXPECT_EQ(C.ageOf(21), 1u);
  EXPECT_EQ(C.ageOf(20), 2u);
  EXPECT_EQ(C.ageOf(99), 0u);
  C.access(20); // Hit: both positions unchanged.
  EXPECT_EQ(C.ageOf(21), 1u);
  EXPECT_EQ(C.ageOf(20), 2u);
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 2u);
}

TEST(PlruCacheSimTest, FreshAccessIsFullyProtected) {
  CacheSim C(plruConfig(8));
  C.access(1);
  EXPECT_EQ(C.ageOf(1), 1u);
  // Each access to a distinct other block flips at most one root-path bit
  // toward block 1.
  uint32_t Prev = C.ageOf(1);
  for (BlockAddr B : {2, 3, 4, 5, 6, 7}) {
    C.access(B);
    uint32_t Cur = C.ageOf(1);
    EXPECT_LE(Cur, Prev + 1);
    EXPECT_GE(Cur, 1u);
    EXPECT_LE(Cur, 4u); // log2(8) + 1
    Prev = Cur;
  }
  EXPECT_TRUE(C.contains(1));
}

TEST(PlruCacheSimTest, SurvivesLog2WaysAccessesAfterTouch) {
  // The pessimistic tree bound: after touching b, at least log2(ways)
  // further accesses (hit or miss) are needed before b can be evicted.
  // Adversarial schedule: keep touching fresh blocks (all misses).
  for (uint32_t Ways : {2u, 4u, 8u, 16u}) {
    CacheSim C(plruConfig(Ways));
    // Fill the set, touch b last so the fill pattern is arbitrary.
    for (BlockAddr B = 0; B != Ways; ++B)
      C.access(B);
    const BlockAddr Tracked = 0;
    C.access(Tracked);
    uint32_t Log2 = 0;
    while ((1u << Log2) < Ways)
      ++Log2;
    for (uint32_t I = 0; I != Log2; ++I) {
      EXPECT_TRUE(C.contains(Tracked))
          << "evicted after only " << I << " accesses in a " << Ways
          << "-way set";
      C.access(1000 + I); // Fresh block: guaranteed miss.
    }
  }
}

TEST(PlruCacheSimTest, MissFillsEmptyWaysBeforeEvicting) {
  CacheSim C(plruConfig(4));
  C.access(1);
  C.access(2);
  C.access(3);
  EXPECT_EQ(C.residentCount(), 3u);
  C.access(4); // Fills the remaining way; nothing leaves.
  EXPECT_EQ(C.residentCount(), 4u);
  for (BlockAddr B : {1, 2, 3, 4})
    EXPECT_TRUE(C.contains(B));
  C.access(5); // Now a victim must be chosen.
  EXPECT_EQ(C.residentCount(), 4u);
  EXPECT_TRUE(C.contains(5));
}

TEST(PlruCacheSimTest, VictimIsTheFullyExposedWay) {
  CacheSim C(plruConfig(4));
  for (BlockAddr B : {1, 2, 3, 4})
    C.access(B);
  // Touch everything but block 1; with 4 ways and this access order the
  // tree bits all point at 1's way (age log2(4)+1 = 3).
  C.access(2);
  C.access(3);
  C.access(4);
  ASSERT_EQ(C.ageOf(1), 3u);
  C.access(9);
  EXPECT_FALSE(C.contains(1));
  EXPECT_TRUE(C.contains(9));
}

TEST(PolicyCacheSimTest, FlushAndSetContentsWorkPerPolicy) {
  for (CacheConfig Config : {fifoConfig(4), plruConfig(4),
                             CacheConfig::fullyAssociative(4)}) {
    CacheSim C(Config);
    for (BlockAddr B : {7, 8, 9})
      C.access(B);
    EXPECT_EQ(C.residentCount(), 3u);
    std::vector<BlockAddr> Contents = C.setContents(0);
    ASSERT_EQ(Contents.size(), 3u);
    // Youngest first under every policy's age measure.
    EXPECT_LE(C.ageOf(Contents[0]), C.ageOf(Contents[1]));
    EXPECT_LE(C.ageOf(Contents[1]), C.ageOf(Contents[2]));
    C.flush();
    EXPECT_EQ(C.residentCount(), 0u);
    EXPECT_FALSE(C.contains(7));
  }
}

//===----------------------------------------------------------------------===//
// FIFO abstract lattice
//===----------------------------------------------------------------------===//

TEST(FifoDomainTest, DefiniteHitIsTheIdentityTransfer) {
  Blocks F(4, fifoConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, /*UseShadow=*/true); // Definite miss.
  ASSERT_TRUE(S.isMustCached(F.block(0)));

  CacheAbsState Before = S;
  S.accessBlock(F.block(0), *F.MM, /*UseShadow=*/true); // Definite hit.
  EXPECT_EQ(S, Before);
  // The identity path must not even clone the payload.
  EXPECT_TRUE(S.sharesStorageWith(Before));
}

TEST(FifoDomainTest, HitsDoNotRejuvenateTheBound) {
  Blocks F(4, fifoConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, true); // v0 at 1 (definite miss).
  S.accessBlock(F.block(1), *F.MM, true); // v1 at 1, v0 ages to 2.
  EXPECT_EQ(S.mustAge(F.block(0), 8), 2u);
  S.accessBlock(F.block(0), *F.MM, true); // Definite hit: nothing moves.
  EXPECT_EQ(S.mustAge(F.block(0), 8), 2u)
      << "a FIFO hit must not refresh the insertion-age bound";
  EXPECT_EQ(S.mustAge(F.block(1), 8), 1u);

  // Contrast: the LRU lattice rejuvenates to age 1 on the same sequence.
  Blocks L(4, CacheConfig::fullyAssociative(8));
  CacheAbsState T = CacheAbsState::empty();
  T.accessBlock(L.block(0), *L.MM, true);
  T.accessBlock(L.block(1), *L.MM, true);
  T.accessBlock(L.block(0), *L.MM, true);
  EXPECT_EQ(T.mustAge(L.block(0), 8), 1u);
}

TEST(FifoDomainTest, ColdRunsAreDefiniteMissesAndStayPrecise) {
  // With shadows, a never-seen block is provably uncached, so its access
  // is a definite miss: inserted at exactly position 1, everything else
  // pushed one deeper — the FIFO lattice is exact on cold straight-line
  // code.
  Blocks F(6, fifoConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  for (unsigned V = 0; V != 5; ++V)
    S.accessBlock(F.block(V), *F.MM, true);
  for (unsigned V = 0; V != 5; ++V)
    EXPECT_EQ(S.mustAge(F.block(V), 8), 5u - V);
}

TEST(FifoDomainTest, PossibleMissWithoutShadowGivesWeakestResidency) {
  // Without the MAY side there is no definite-miss proof: the touched
  // block is resident either way but only at the weakest bound (the hit
  // case leaves it at an unknown position <= associativity).
  Blocks F(4, fifoConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, /*UseShadow=*/false);
  EXPECT_TRUE(S.isMustCached(F.block(0)));
  EXPECT_EQ(S.mustAge(F.block(0), 8), 8u);
  // An immediately repeated access is a definite hit (identity) — the
  // "x; x" pattern is a must-hit under FIFO too.
  CacheAbsState Before = S;
  S.accessBlock(F.block(0), *F.MM, false);
  EXPECT_EQ(S, Before);
}

TEST(FifoDomainTest, PossibleMissAgesEveryTrackedBlock) {
  Blocks F(4, fifoConfig(2)); // Two-line cache: quick evictions.
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, true); // v0@1
  S.accessBlock(F.block(1), *F.MM, true); // v1@1 v0@2
  S.accessBlock(F.block(2), *F.MM, true); // v2@1 v1@2, v0 out
  EXPECT_FALSE(S.isMustCached(F.block(0)));
  EXPECT_EQ(S.mustAge(F.block(1), 2), 2u);
  EXPECT_EQ(S.mustAge(F.block(2), 2), 1u);
}

//===----------------------------------------------------------------------===//
// PLRU abstract lattice
//===----------------------------------------------------------------------===//

TEST(PlruDomainTest, BoundIsLog2WaysPlusOne) {
  // 8 ways -> ages live in [1, 4]: a touched block survives the next 3
  // accesses and is dropped from MUST by the 4th.
  Blocks F(8, plruConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, true);
  for (unsigned V = 1; V != 4; ++V) {
    S.accessBlock(F.block(V), *F.MM, true);
    EXPECT_TRUE(S.isMustCached(F.block(0)))
        << "dropped after only " << V << " accesses";
  }
  EXPECT_EQ(S.mustAge(F.block(0), 8), 4u);
  S.accessBlock(F.block(4), *F.MM, true);
  EXPECT_FALSE(S.isMustCached(F.block(0)))
      << "the tree bound cannot certify residency past log2(8)+1";
}

TEST(PlruDomainTest, BoundIsTightAgainstTheTreeSimulator) {
  // The abstract drop point is exactly the first moment the concrete tree
  // can evict: after log2(ways) adversarial accesses the next miss may
  // pick the tracked block as victim (VictimIsTheFullyExposedWay above
  // exhibits it), so age log2(ways)+1 must be the last certifiable state.
  CacheSim C(plruConfig(4));
  for (BlockAddr B : {1, 2, 3, 4})
    C.access(B);
  C.access(2);
  C.access(3);
  C.access(4);
  // Concrete age equals the abstract cap: one more miss evicts block 1.
  EXPECT_EQ(C.ageOf(1), plruConfig(4).mustAgeCap());
  C.access(9);
  EXPECT_FALSE(C.contains(1));
}

TEST(PlruDomainTest, EveryAccessAgesOtherBlocks) {
  // Unlike LRU, a PLRU hit to an already-young block still flips tree
  // bits, so the relative-age refinement (only blocks younger than the
  // touched one age) is unsound and must not be applied.
  Blocks F(4, plruConfig(8));
  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(F.block(0), *F.MM, true); // v0@1
  S.accessBlock(F.block(1), *F.MM, true); // v1@1 v0@2
  S.accessBlock(F.block(1), *F.MM, true); // v1 again: v0 must still age.
  EXPECT_EQ(S.mustAge(F.block(0), 8), 3u);

  // LRU on the same sequence: the second v1 access ages nothing (no block
  // is younger than v1).
  Blocks L(4, CacheConfig::fullyAssociative(8));
  CacheAbsState T = CacheAbsState::empty();
  T.accessBlock(L.block(0), *L.MM, true);
  T.accessBlock(L.block(1), *L.MM, true);
  T.accessBlock(L.block(1), *L.MM, true);
  EXPECT_EQ(T.mustAge(L.block(0), 8), 2u);
}

TEST(PlruDomainTest, UnknownIndexAgesCandidatesAndInsertsInstance) {
  CacheConfig Config = plruConfig(8);
  Program P;
  MemVar Arr;
  Arr.Name = "arr";
  Arr.ElemSize = 1;
  Arr.NumElements = 128; // Two lines.
  P.Vars.push_back(Arr);
  MemVar Scalar;
  Scalar.Name = "s";
  Scalar.ElemSize = 1;
  Scalar.NumElements = 64;
  P.Vars.push_back(Scalar);
  BasicBlock B;
  Instruction Ret;
  Ret.Op = Opcode::Ret;
  B.Insts.push_back(Ret);
  P.Blocks.push_back(B);
  touchAllBlocks(P);
  MemoryModel MM(P, Config);

  CacheAbsState S = CacheAbsState::empty();
  S.accessBlock(MM.blockOf(1, 0), MM, true); // s@1
  S.accessUnknown(0, 0, MM, true);           // arr[?]
  EXPECT_EQ(S.mustAge(MM.blockOf(1, 0), 8), 2u);
  EXPECT_TRUE(S.isMustCached(MM.symbolicBlock(0, 0)));
  EXPECT_EQ(S.mayAge(MM.blockOf(0, 0), 8), 1u);
  EXPECT_EQ(S.mayAge(MM.blockOf(0, 1), 8), 1u);
}

//===----------------------------------------------------------------------===//
// Policy-generic lattice laws
//===----------------------------------------------------------------------===//

namespace {

CacheAbsState randomPolicyState(Blocks &F, Rng &R, bool Shadow) {
  CacheAbsState S = CacheAbsState::empty();
  unsigned N = static_cast<unsigned>(R.nextBelow(12));
  for (unsigned I = 0; I != N; ++I)
    S.accessBlock(F.block(static_cast<unsigned>(R.nextBelow(6))), *F.MM,
                  Shadow);
  return S;
}

} // namespace

class PolicyLatticeTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(PolicyLatticeTest, JoinIsCommutativeIdempotentAndAboveBothArgs) {
  CacheConfig Config =
      CacheConfig::fullyAssociative(8).withPolicy(GetParam());
  Blocks F(6, Config);
  Rng R(0x5eedull + static_cast<uint64_t>(GetParam()));
  for (unsigned Trial = 0; Trial != 64; ++Trial) {
    bool Shadow = R.chance(1, 2);
    CacheAbsState A = randomPolicyState(F, R, Shadow);
    CacheAbsState B = randomPolicyState(F, R, Shadow);

    CacheAbsState AB = A;
    AB.joinInto(B, Shadow);
    CacheAbsState BA = B;
    BA.joinInto(A, Shadow);
    EXPECT_EQ(AB, BA);

    CacheAbsState AA = A;
    EXPECT_FALSE(AA.joinInto(A, Shadow));
    EXPECT_EQ(AA, A);

    EXPECT_TRUE(A.leq(AB));
    EXPECT_TRUE(B.leq(AB));
  }
}

TEST_P(PolicyLatticeTest, TransferIsMonotoneAcrossJoin) {
  // Applying the same access to A, B and A⊔B keeps the join above both
  // transformed inputs — the monotonicity the fixpoint engines rely on,
  // per policy.
  CacheConfig Config =
      CacheConfig::fullyAssociative(8).withPolicy(GetParam());
  Blocks F(6, Config);
  Rng R(0xfeedull + static_cast<uint64_t>(GetParam()));
  for (unsigned Trial = 0; Trial != 64; ++Trial) {
    bool Shadow = R.chance(1, 2);
    CacheAbsState A = randomPolicyState(F, R, Shadow);
    CacheAbsState B = randomPolicyState(F, R, Shadow);
    CacheAbsState J = A;
    J.joinInto(B, Shadow);

    BlockAddr Touched = F.block(static_cast<unsigned>(R.nextBelow(6)));
    A.accessBlock(Touched, *F.MM, Shadow);
    B.accessBlock(Touched, *F.MM, Shadow);
    J.accessBlock(Touched, *F.MM, Shadow);

    CacheAbsState JoinOfOut = A;
    JoinOfOut.joinInto(B, Shadow);
    EXPECT_TRUE(JoinOfOut.leq(J))
        << "transfer(A) ⊔ transfer(B) must be below transfer(A ⊔ B)";
  }
}

TEST_P(PolicyLatticeTest, AbstractAgeBoundsConcreteAgeOnRandomRuns) {
  // The per-access containment law the differential oracle checks through
  // the full pipeline, here on straight-line sequences: after any prefix,
  // every MUST entry is resident in the concrete simulator with concrete
  // policy age <= the abstract bound, and every resident block is
  // admitted by the MAY side.
  CacheConfig Config =
      CacheConfig::fullyAssociative(8).withPolicy(GetParam());
  Blocks F(12, Config);
  Rng R(0xabcull + static_cast<uint64_t>(GetParam()));
  for (unsigned Trial = 0; Trial != 32; ++Trial) {
    CacheSim C(Config);
    CacheAbsState S = CacheAbsState::empty();
    for (unsigned Step = 0; Step != 40; ++Step) {
      BlockAddr B = F.block(static_cast<unsigned>(R.nextBelow(12)));
      C.access(B);
      S.accessBlock(B, *F.MM, /*UseShadow=*/true);
      for (const CacheSetPartition &Part : S.partitions()) {
        for (const AgedBlock &E : Part.must()) {
          uint32_t Concrete = C.ageOf(E.Block);
          ASSERT_NE(Concrete, 0u)
              << replacementPolicyName(GetParam()) << ": MUST entry "
              << E.Block << " not resident after step " << Step;
          ASSERT_LE(Concrete, E.Age)
              << replacementPolicyName(GetParam()) << ": bound violated";
        }
      }
      for (BlockAddr Resident : C.setContents(0))
        ASSERT_LE(S.mayAge(Resident, 8), C.ageOf(Resident))
            << replacementPolicyName(GetParam())
            << ": MAY under-approximates resident block " << Resident;
    }
  }
}

TEST_P(PolicyLatticeTest, AbstractAgeBoundsConcreteAgeAcrossLaneWidths) {
  // The same concrete-age containment law, swept across the packed-lane
  // geometry matrix: assoc 8 and 15 pack MUST ages into nibbles under
  // LRU/FIFO (cap <= 14 for 8; 15 is the first byte-lane cap), assoc 16 is
  // the canonical nibble-to-byte cutover, and the set-associative shape
  // exercises multi-partition states. PLRU sizes its MUST lanes from the
  // tree cap log2(ways)+1 instead — nibbles even at 16 ways — and rejects
  // the non-power-of-two 15-way shape outright, which this sweep checks
  // rather than silently skipping.
  ReplacementPolicy Policy = GetParam();
  struct Geom {
    CacheConfig Config;
    bool ValidForPlru;
  };
  const Geom Geoms[] = {
      {CacheConfig::fullyAssociative(8), true},
      {CacheConfig::fullyAssociative(15), false},
      {CacheConfig::fullyAssociative(16), true},
      {CacheConfig::setAssociative(32, 16), true},
  };
  for (const Geom &G : Geoms) {
    CacheConfig Config = G.Config.withPolicy(Policy);
    if (Policy == ReplacementPolicy::Plru && !G.ValidForPlru) {
      EXPECT_FALSE(Config.isValid())
          << "PLRU must reject non-power-of-two associativity "
          << G.Config.Associativity;
      continue;
    }
    ASSERT_TRUE(Config.isValid());
    // The packed lane width follows mustAgeCap: LRU/FIFO cross from
    // nibbles to bytes at assoc 16 (cap 16 > 14); PLRU stays in nibbles
    // (cap log2(16)+1 = 5).
    unsigned Lanes = CacheAbsState::packedLaneBits(Config.mustAgeCap());
    if (Config.Associativity >= 16) {
      EXPECT_EQ(Lanes, Policy == ReplacementPolicy::Plru ? 4u : 8u);
    }

    uint32_t Assoc = Config.Associativity;
    Blocks F(24, Config);
    Rng R(0x1a9e5eedull ^ static_cast<uint64_t>(Policy) * 0x9e37ull ^
          Config.Associativity);
    for (unsigned Trial = 0; Trial != 12; ++Trial) {
      CacheSim C(Config);
      CacheAbsState S = CacheAbsState::empty();
      for (unsigned Step = 0; Step != 48; ++Step) {
        BlockAddr B = F.block(static_cast<unsigned>(R.nextBelow(24)));
        C.access(B);
        S.accessBlock(B, *F.MM, /*UseShadow=*/true);
        for (const CacheSetPartition &Part : S.partitions()) {
          for (const AgedBlock &E : Part.must()) {
            uint32_t Concrete = C.ageOf(E.Block);
            ASSERT_NE(Concrete, 0u)
                << replacementPolicyName(Policy) << " assoc " << Assoc
                << ": MUST entry " << E.Block << " not resident at step "
                << Step;
            ASSERT_LE(Concrete, E.Age)
                << replacementPolicyName(Policy) << " assoc " << Assoc
                << ": bound violated";
          }
        }
        for (uint32_t Set = 0; Set != Config.numSets(); ++Set)
          for (BlockAddr Resident : C.setContents(Set))
            ASSERT_LE(S.mayAge(Resident, Assoc), C.ageOf(Resident))
                << replacementPolicyName(Policy) << " assoc " << Assoc
                << ": MAY under-approximates block " << Resident;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyLatticeTest,
                         ::testing::Values(ReplacementPolicy::Lru,
                                           ReplacementPolicy::Fifo,
                                           ReplacementPolicy::Plru),
                         [](const ::testing::TestParamInfo<ReplacementPolicy>
                                &I) {
                           return replacementPolicyName(I.param);
                         });
