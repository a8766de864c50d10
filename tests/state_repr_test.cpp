//===- state_repr_test.cpp - Partitioned/COW state representation ---------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Pins the hot-path state representation introduced with the per-set
/// partitioning rework: structural hashing consistent with equality,
/// copy-on-write aliasing and unshare-on-mutate semantics, canonical
/// (block-sorted) materialized entry views, the StateInterner pool, the
/// engine's Fifo/Rpo worklist equivalence on pure programs, and the
/// baseline's deduped-pop accounting and counter keys. The 20-seed golden digests in
/// fuzz_regression_test.cpp separately pin that none of this moved any
/// analysis result.
///
//===----------------------------------------------------------------------===//

#include "TouchAllBlocks.h"
#include "analysis/AnalysisPipeline.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/StateDigest.h"
#include "support/Rng.h"
#include "support/StateInterner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

/// A fixture program with N variables spanning two cache lines each, over
/// a set-associative cache so states hold several partitions.
struct Blocks {
  Program P;
  std::unique_ptr<MemoryModel> MM;

  Blocks(unsigned NumVars, CacheConfig Config) {
    for (unsigned I = 0; I != NumVars; ++I) {
      MemVar V;
      V.Name = "v" + std::to_string(I);
      V.ElemSize = 1;
      V.NumElements = 128; // Two 64 B lines.
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

  BlockAddr block(unsigned Var, uint64_t Elem = 0) const {
    return MM->blockOf(Var, Elem);
  }
};

CacheAbsState randomState(Blocks &F, Rng &R, bool Shadow) {
  CacheAbsState S = CacheAbsState::empty();
  unsigned N = static_cast<unsigned>(R.nextBelow(16));
  for (unsigned I = 0; I != N; ++I)
    S.accessBlock(F.block(R.nextBelow(6), R.chance(1, 2) ? 0 : 64), *F.MM,
                  Shadow);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hash/equality consistency
//===----------------------------------------------------------------------===//

class StateHashTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StateHashTest, HashEqualityMatchesStructuralEquality) {
  // Equal states must hash equal; on randomized samples the 64-bit hash
  // never collides for unequal states, so hash equality and structural
  // equality coincide in both directions.
  Blocks F(6, CacheConfig::setAssociative(64, 8));
  Rng R(GetParam() * 7919 + 3);
  for (int I = 0; I != 60; ++I) {
    bool Shadow = R.chance(1, 2);
    CacheAbsState A = randomState(F, R, Shadow);
    CacheAbsState B = randomState(F, R, Shadow);
    EXPECT_EQ(A == B, A.structuralHash() == B.structuralHash());

    // An independently rebuilt copy (fresh payload, same accesses) is
    // structurally equal and must hash identically.
    CacheAbsState C = A;
    EXPECT_EQ(C.structuralHash(), A.structuralHash());
    EXPECT_EQ(C, A);
  }
}

TEST_P(StateHashTest, HashIsInvalidatedByMutation) {
  Blocks F(6, CacheConfig::setAssociative(64, 8));
  Rng R(GetParam() * 131 + 17);
  CacheAbsState A = randomState(F, R, true);
  uint64_t H0 = A.structuralHash();
  CacheAbsState B = A;
  B.accessBlock(F.block(5, 64), *F.MM, true);
  // The access is idempotent when the block already sat at age 1; hash
  // equality must track structural equality either way.
  EXPECT_EQ(B == A, B.structuralHash() == H0);
  EXPECT_EQ(A.structuralHash(), H0) << "mutating a copy must not disturb "
                                       "the original's cached hash";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateHashTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(StateHashTest, DistinguishedStatesHashApart) {
  EXPECT_NE(CacheAbsState::bottom().structuralHash(),
            CacheAbsState::empty().structuralHash());
  EXPECT_FALSE(CacheAbsState::bottom() == CacheAbsState::empty());
  EXPECT_EQ(CacheAbsState::empty(), CacheAbsState::empty());
}

//===----------------------------------------------------------------------===//
// Copy-on-write aliasing
//===----------------------------------------------------------------------===//

TEST(CowStateTest, CopyAliasesUntilMutation) {
  Blocks F(4, CacheConfig::fullyAssociative(8));
  CacheAbsState A = CacheAbsState::empty();
  A.accessBlock(F.block(0), *F.MM, true);
  A.accessBlock(F.block(1), *F.MM, true);

  CacheAbsState B = A;
  EXPECT_TRUE(B.sharesStorageWith(A)) << "copies must be refcount bumps";
  EXPECT_EQ(A, B);

  // Unshare on mutate: B forks, A keeps its exact contents and storage.
  B.accessBlock(F.block(2), *F.MM, true);
  EXPECT_FALSE(B.sharesStorageWith(A));
  EXPECT_EQ(A.mustAge(F.block(2), 8), 9u) << "original must be untouched";
  EXPECT_EQ(B.mustAge(F.block(2), 8), 1u);
}

TEST(CowStateTest, JoinIntoBottomSharesStorage) {
  // The engines' `slot ⊔= Out` with a bottom slot is the dominant copy
  // path; it must alias, not clone.
  Blocks F(4, CacheConfig::fullyAssociative(8));
  CacheAbsState A = CacheAbsState::empty();
  A.accessBlock(F.block(0), *F.MM, true);
  CacheAbsState Slot = CacheAbsState::bottom();
  EXPECT_TRUE(Slot.joinInto(A, true));
  EXPECT_TRUE(Slot.sharesStorageWith(A));
}

TEST(CowStateTest, SelfJoinAndSharedJoinAreNoChangeFastPaths) {
  Blocks F(4, CacheConfig::fullyAssociative(8));
  CacheAbsState A = CacheAbsState::empty();
  A.accessBlock(F.block(0), *F.MM, true);
  CacheAbsState B = A; // Shared payload.
  EXPECT_FALSE(A.joinInto(B, true));
  EXPECT_FALSE(A.joinInto(A, true));
  EXPECT_TRUE(A.sharesStorageWith(B)) << "no-change join must not unshare";
}

TEST(CowStateTest, EmptyAndBottomNeverReportSharing) {
  CacheAbsState E1 = CacheAbsState::empty(), E2 = CacheAbsState::empty();
  EXPECT_FALSE(E1.sharesStorageWith(E2));
  EXPECT_EQ(E1, E2);
}

//===----------------------------------------------------------------------===//
// Per-set copy-on-write partitions
//===----------------------------------------------------------------------===//

namespace {

/// The stress benchmark's geometry: 512 lines, 8 ways, 64 sets.
CacheConfig stressGeometry() { return CacheConfig::setAssociative(512, 8); }

/// Touches every line of every variable of \p F, in variable order.
CacheAbsState fillAll(const Blocks &F, unsigned NumVars) {
  CacheAbsState S = CacheAbsState::empty();
  for (unsigned V = 0; V != NumVars; ++V)
    for (uint64_t Elem : {uint64_t(0), uint64_t(64)})
      S.accessBlock(F.block(V, Elem), *F.MM, /*UseShadow=*/true);
  return S;
}

size_t sharedPartitions(const CacheAbsState &A, const CacheAbsState &B) {
  size_t N = 0;
  for (const CacheSetPartition &Part : A.partitions())
    N += A.sharesPartitionWith(B, Part.Set);
  return N;
}

} // namespace

TEST(PartitionCowTest, OneAccessUnsharesOnlyTheAccessedSet) {
  // 32 two-line variables cover the 64 sets once each.
  Blocks F(32, stressGeometry());
  CacheAbsState A = fillAll(F, 32);
  ASSERT_EQ(A.partitions().size(), 64u);

  CacheAbsState B = A;
  BlockAddr Touched = F.block(5, 64);
  B.accessBlock(Touched, *F.MM, /*UseShadow=*/true);
  EXPECT_FALSE(B.sharesStorageWith(A));
  EXPECT_EQ(sharedPartitions(B, A), 63u)
      << "a transfer must copy only the partition of the set it writes";
  EXPECT_FALSE(B.sharesPartitionWith(A, F.MM->setOf(Touched)));
}

TEST(PartitionCowTest, EqualStatesFromDifferentOpOrdersHashEqual) {
  // B copies two partitions of a hashed state, re-hashes, then rewrites
  // one of them in place, reusing the other 62 cached partition hashes;
  // C is built from scratch with Y's access moved first (another set, so
  // it commutes). Equal states, equal hashes.
  Blocks F(64, stressGeometry());
  CacheAbsState A = fillAll(F, 64);
  uint64_t HA = A.structuralHash();

  BlockAddr X = F.block(3, 0), Y = F.block(40, 64), X2 = X;
  for (unsigned V = 0; V != 64 && X2 == X; ++V)
    if (F.block(V) != X && F.MM->setOf(F.block(V)) == F.MM->setOf(X))
      X2 = F.block(V);
  ASSERT_NE(X2, X);
  ASSERT_NE(F.MM->setOf(X), F.MM->setOf(Y));

  CacheAbsState B = A;
  B.accessBlock(X2, *F.MM, true);
  uint64_t HB = B.structuralHash();
  B.accessBlock(X, *F.MM, true); // X's partition is B's own now.
  B.accessBlock(Y, *F.MM, true);
  CacheAbsState C = fillAll(F, 64);
  C.accessBlock(Y, *F.MM, true);
  C.accessBlock(X2, *F.MM, true);
  C.accessBlock(X, *F.MM, true);

  EXPECT_EQ(sharedPartitions(B, C), 0u);
  EXPECT_EQ(B, C);
  EXPECT_EQ(B.structuralHash(), C.structuralHash());
  EXPECT_NE(B.structuralHash(), HB);
  EXPECT_NE(B.structuralHash(), HA);
  EXPECT_EQ(A.structuralHash(), HA);
}

TEST(PartitionCowTest, JoinAdoptsTheSourcePartitionItEquals) {
  // Two lines per set, so an access reorders the ages within its set.
  Blocks F(64, stressGeometry());
  CacheAbsState A = fillAll(F, 64);
  CacheAbsState B = A;
  BlockAddr X = F.block(7, 0);
  uint32_t Set = F.MM->setOf(X);
  B.accessBlock(X, *F.MM, true);

  // Joined = A ⊔ B differs from A only in X's set, where it covers A.
  CacheAbsState Joined = A;
  ASSERT_TRUE(Joined.joinInto(B, true));
  ASSERT_FALSE(Joined.sharesPartitionWith(A, Set));

  // So A ⊔ Joined equals Joined's partition there, and Joined itself
  // everywhere: the join must adopt Joined's whole payload rather than
  // build an equal copy pointer by pointer.
  CacheAbsState Into = A;
  EXPECT_TRUE(Into.joinInto(Joined, true));
  EXPECT_EQ(Into, Joined);
  EXPECT_TRUE(Into.sharesPartitionWith(Joined, Set));
  EXPECT_EQ(sharedPartitions(Into, Joined), Into.partitions().size());
  EXPECT_TRUE(Into.sharesStorageWith(Joined));
}

TEST(PartitionCowTest, JoinThatKeepsOursLeavesOurPayloadUntouched) {
  // Into covers both sources: it equals From with no node shared, and is
  // above Moved in the two sets Moved accessed. Each join must order-test
  // those pairs and then change nothing.
  Blocks F(64, stressGeometry());
  CacheAbsState From = fillAll(F, 64);
  CacheAbsState Into = fillAll(F, 64); // Equal, but no node shared.
  BlockAddr X = F.block(7, 0), Y = F.block(40, 64);
  ASSERT_NE(F.MM->setOf(X), F.MM->setOf(Y));
  CacheAbsState Moved = Into;
  Moved.accessBlock(X, *F.MM, true);
  Moved.accessBlock(Y, *F.MM, true);
  ASSERT_TRUE(Into.joinInto(Moved, true)); // Into ⊒ Moved now.
  ASSERT_EQ(sharedPartitions(Into, From), 0u);
  uint64_t Hash = Into.structuralHash();
  CacheAbsState Alias = Into;

  for (const CacheAbsState *Src : {&From, &Moved}) {
    EXPECT_FALSE(Into.joinInto(*Src, true));
    EXPECT_TRUE(Into.sharesStorageWith(Alias))
        << "a join that changes nothing must not unshare";
    EXPECT_FALSE(Into.sharesStorageWith(*Src));
    EXPECT_EQ(sharedPartitions(Into, Alias), Into.partitions().size());
    EXPECT_EQ(Into.structuralHash(), Hash);
  }
}

//===----------------------------------------------------------------------===//
// Partitioned layout and canonical views
//===----------------------------------------------------------------------===//

TEST(PartitionTest, PartitionsAreCanonicalAndEntriesBlockSorted) {
  Blocks F(6, CacheConfig::setAssociative(64, 8));
  Rng R(42);
  for (int I = 0; I != 40; ++I) {
    CacheAbsState S = randomState(F, R, true);
    uint32_t LastSet = 0;
    bool FirstPart = true;
    size_t PartEntries = 0;
    for (const CacheSetPartition &Part : S.partitions()) {
      EXPECT_TRUE(FirstPart || Part.Set > LastSet)
          << "partitions must be strictly sorted by set";
      EXPECT_FALSE(Part.Must.empty() && Part.May.empty())
          << "canonical form forbids empty partitions";
      for (auto Entries : {Part.must(), Part.may()}) {
        std::vector<AgedBlock> List(Entries.begin(), Entries.end());
        for (size_t K = 1; K < List.size(); ++K)
          EXPECT_LT(List[K - 1].Block, List[K].Block);
        PartEntries += List.size();
      }
      for (const AgedBlock &E : Part.must())
        EXPECT_EQ(F.MM->setOf(E.Block), Part.Set);
      LastSet = Part.Set;
      FirstPart = false;
    }
    // The canonical views agree with the partitions and are block-sorted.
    std::vector<AgedBlock> Must = S.mustEntries(), May = S.mayEntries();
    EXPECT_EQ(Must.size() + May.size(), PartEntries);
    for (size_t K = 1; K < Must.size(); ++K)
      EXPECT_LT(Must[K - 1].Block, Must[K].Block);
    for (const AgedBlock &E : Must)
      EXPECT_EQ(S.mustAge(E.Block, 8), E.Age);
    for (const AgedBlock &E : May)
      EXPECT_EQ(S.mayAge(E.Block, 8), E.Age);
  }
}

TEST(PartitionTest, SetAssociativeAgingIsConfinedToTheAccessedSet) {
  // 8 sets x 2 ways: filling one set must not age blocks of another.
  Blocks F(6, CacheConfig::setAssociative(16, 2));
  CacheAbsState S = CacheAbsState::empty();
  BlockAddr A = F.block(0, 0);
  S.accessBlock(A, *F.MM, false);
  uint32_t SetA = F.MM->setOf(A);
  // Access blocks of every other variable/line; only same-set ones age A.
  uint32_t Expected = 1;
  for (unsigned V = 1; V != 6; ++V)
    for (uint64_t Elem : {uint64_t(0), uint64_t(64)}) {
      BlockAddr B = F.block(V, Elem);
      if (B == A)
        continue;
      S.accessBlock(B, *F.MM, false);
      if (F.MM->setOf(B) == SetA && Expected <= 2)
        ++Expected;
    }
  EXPECT_EQ(S.mustAge(A, 2), std::min(Expected, 3u));
}

//===----------------------------------------------------------------------===//
// StateInterner
//===----------------------------------------------------------------------===//

TEST(StateInternerTest, InterningCanonicalizesEqualStates) {
  Blocks F(4, CacheConfig::fullyAssociative(8));
  StateInterner<CacheAbsState> Pool;

  auto Build = [&] {
    CacheAbsState S = CacheAbsState::empty();
    S.accessBlock(F.block(0), *F.MM, true);
    S.accessBlock(F.block(1), *F.MM, true);
    return S;
  };
  CacheAbsState A = Build();
  CacheAbsState B = Build(); // Equal, but a distinct payload.
  EXPECT_FALSE(A.sharesStorageWith(B));

  CacheAbsState CA = Pool.intern(A);
  CacheAbsState CB = Pool.intern(B);
  EXPECT_TRUE(CA.sharesStorageWith(CB))
      << "interning must collapse equal states onto one payload";
  EXPECT_EQ(CA, A);
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Pool.hits(), 1u);
  EXPECT_EQ(Pool.misses(), 1u);

  CacheAbsState C = Build();
  C.accessBlock(F.block(2), *F.MM, true);
  Pool.intern(C);
  EXPECT_EQ(Pool.size(), 2u);
}

namespace {

/// A state whose structural hash the test picks, so that lookups collide
/// at will. Equality is by Value; Serial tells equal copies apart.
struct CollidingState {
  uint64_t Hash = 0;
  int Value = 0;
  int Serial = 0;

  uint64_t structuralHash() const { return Hash; }
  bool operator==(const CollidingState &RHS) const {
    return Value == RHS.Value;
  }
};

} // namespace

TEST(StateInternerTest, GrowsPastItsInitialTableWithCollidingHashes) {
  // Eight times the initial table's slots, over four hashes (one of them
  // 0, the empty-slot marker), so every lookup walks a long collision run
  // and the table doubles several times.
  using Pool = StateInterner<CollidingState>;
  const int N = 8 * static_cast<int>(Pool::InitialSlots);
  auto HashOf = [](int V) { return uint64_t(V % 4) * 0x9E3779B97F4A7C15ULL; };
  Pool P;
  for (int V = 0; V != N; ++V)
    EXPECT_EQ(P.intern({HashOf(V), V, V}).Serial, V)
        << "a new structure is its own representative";
  EXPECT_EQ(P.size(), uint64_t(N));
  EXPECT_EQ(P.misses(), uint64_t(N));
  EXPECT_EQ(P.hits(), 0u);

  // Equal copies, interned in reverse, resolve to the first copy pooled.
  for (int V = N; V-- != 0;)
    EXPECT_EQ(P.intern({HashOf(V), V, N + V}).Serial, V) << "value " << V;
  EXPECT_EQ(P.size(), uint64_t(N));
  EXPECT_EQ(P.misses(), uint64_t(N));
  EXPECT_EQ(P.hits(), uint64_t(N));

  // A new value under a colliding hash is a miss, and pooled.
  EXPECT_EQ(P.intern({HashOf(1), N, -1}).Serial, -1);
  EXPECT_EQ(P.intern({HashOf(1), N, -2}).Serial, -1);
  EXPECT_EQ(P.size(), uint64_t(N) + 1);
  EXPECT_EQ(P.hits(), uint64_t(N) + 1);
}

//===----------------------------------------------------------------------===//
// Worklist orders: same fixpoints, fewer pops
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<CompiledProgram> compileOrDie(const std::string &Src) {
  DiagnosticEngine Diags;
  auto CP = compileSource(Src, Diags);
  EXPECT_TRUE(CP) << Diags.str();
  return CP;
}

} // namespace

TEST(WorklistOrderTest, BaselineRpoMatchesFifoOnWorkloadsWithFewerPops) {
  // The acceptance property behind bench_table6_merging's report: on every
  // paper kernel the baseline reaches the identical fixpoint under
  // Rpo, never popping more than Fifo and strictly less in aggregate.
  uint64_t FifoPops = 0, RpoPops = 0;
  for (const Workload &W : wcetWorkloads()) {
    auto CP = compileOrDie(W.Source);
    ASSERT_TRUE(CP);
    MustHitOptions O;
    O.Speculative = false;
    O.Cache = CacheConfig::fullyAssociative(64);

    StatisticSet SF, SR;
    O.Order = WorklistOrder::Fifo;
    O.Stats = &SF;
    MustHitReport RF = runMustHitAnalysis(*CP, O);
    O.Order = WorklistOrder::Rpo;
    O.Stats = &SR;
    MustHitReport RR = runMustHitAnalysis(*CP, O);

    EXPECT_EQ(digestMustHitReport(*CP, RF), digestMustHitReport(*CP, RR))
        << "baseline fixpoint drifted between worklist orders on " << W.Name;
    EXPECT_LE(SR.get("worklist.pops"), SF.get("worklist.pops")) << W.Name;
    EXPECT_EQ(SF.get("worklist.pushes.deduped") +
                  SF.get("worklist.pops"),
              SF.get("worklist.pushes"))
        << "every push is either deduped or popped exactly once: " << W.Name;
    FifoPops += SF.get("worklist.pops");
    RpoPops += SR.get("worklist.pops");
  }
  EXPECT_LT(RpoPops, FifoPops)
      << "RPO must strictly reduce aggregate baseline pops";
}

TEST(WorklistOrderTest, SpeculativeOrdersAgreeOnPureTransferPrograms) {
  // Without unknown-index accesses every transfer is a pure function of
  // the state, the fixpoint is unique, and the speculative engine must
  // produce bit-identical reports under either pop order. (With wild
  // indexing the drain order picks different symbolic-instance sequences,
  // which is exactly why the engine defaults to the digest-stable Fifo.)
  ProgramGenOptions GO;
  GO.WildIndexing = false;
  GO.SecretData = false;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ProgramGen Gen(Seed, GO);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP) << "seed " << Seed << "\n" << Diags.str();

    for (MergeStrategy S :
         {MergeStrategy::JustInTime, MergeStrategy::NoMerge}) {
      MustHitOptions O;
      O.Cache = CacheConfig::fullyAssociative(8);
      O.DepthMiss = 24;
      O.DepthHit = 6;
      O.Strategy = S;
      O.Order = WorklistOrder::Fifo;
      MustHitReport RF = runMustHitAnalysis(*CP, O);
      O.Order = WorklistOrder::Rpo;
      MustHitReport RR = runMustHitAnalysis(*CP, O);
      EXPECT_EQ(digestMustHitReport(*CP, RF), digestMustHitReport(*CP, RR))
          << "seed " << Seed << " strategy " << mergeStrategyName(S);
    }
  }
}

TEST(WorklistOrderTest, SpeculativeEngineReportsMemoAndInternerStats) {
  DiagnosticEngine Diags;
  LoweringOptions LO;
  LO.EntryFunction = "quantl";
  auto CP = compileSource(quantlSource(), Diags, LO);
  ASSERT_TRUE(CP) << Diags.str();
  MustHitOptions O;
  StatisticSet Stats;
  O.Stats = &Stats;
  MustHitReport R = runMustHitAnalysis(*CP, O);
  ASSERT_TRUE(R.Converged);
  EXPECT_GT(Stats.get("spec.worklist.pops"), 0u);
  EXPECT_GT(Stats.get("spec.memo.hits") + Stats.get("spec.memo.misses"), 0u);
  EXPECT_GT(Stats.get("spec.interner.states"), 0u);
}

TEST(WorklistOrderTest, BaselineReportsOnlyWorklistCounters) {
  // The baseline is the same engine over an empty speculation plan, but it
  // keeps its own counter keys: perfbench reads "worklist.pops" as the
  // baseline's pops.
  DiagnosticEngine Diags;
  LoweringOptions LO;
  LO.EntryFunction = "quantl";
  auto CP = compileSource(quantlSource(), Diags, LO);
  ASSERT_TRUE(CP) << Diags.str();
  MustHitOptions O;
  O.Speculative = false;
  StatisticSet Stats;
  O.Stats = &Stats;
  MustHitReport R = runMustHitAnalysis(*CP, O);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(Stats.get("worklist.pops"), R.Iterations);
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Stats.all())
    Keys.push_back(Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{"worklist.pops",
                                            "worklist.pushes",
                                            "worklist.pushes.deduped"}));
}

TEST(WorklistOrderTest, UncoloredPlansSkipTheTransferMemo) {
  // Without speculation colors there is no SS or PR flow and a node's
  // Normal input only grows, so the memo could never hit: a speculative
  // run over a program without speculation sites never consults it.
  auto CP = compileOrDie("char a[64]; char b[64]; int main() { reg int t; "
                         "t = a[0]; t = b[0]; t = a[0]; return t; }");
  ASSERT_TRUE(CP);
  ASSERT_EQ(CP->Plan.colorCount(), 0u);
  MustHitOptions O;
  StatisticSet Stats;
  O.Stats = &Stats;
  MustHitReport R = runMustHitAnalysis(*CP, O);
  ASSERT_TRUE(R.Converged);
  EXPECT_GT(Stats.get("spec.worklist.pops"), 0u);
  EXPECT_EQ(Stats.get("spec.memo.hits") + Stats.get("spec.memo.misses"), 0u);
}

//===----------------------------------------------------------------------===//
// Replacement-policy states reuse the same representation machinery
//===----------------------------------------------------------------------===//

class PolicyReprTest : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(PolicyReprTest, HashEqualityAndCowHoldUnderPolicyTransfers) {
  // The FIFO/PLRU lattices (docs/DOMAINS.md) ride on the identical
  // partitioned COW payloads, so hash<->equality consistency and
  // unshare-on-mutate must hold under their transfer rules too.
  CacheConfig Config =
      CacheConfig::setAssociative(64, 8).withPolicy(GetParam());
  Blocks F(6, Config);
  Rng R(0x9e1ull + static_cast<uint64_t>(GetParam()));
  for (unsigned Trial = 0; Trial != 32; ++Trial) {
    bool Shadow = R.chance(1, 2);
    CacheAbsState A = randomState(F, R, Shadow);
    CacheAbsState B = randomState(F, R, Shadow);
    EXPECT_EQ(A == B, A.structuralHash() == B.structuralHash());

    CacheAbsState Copy = A;
    if (!A.partitions().empty()) {
      EXPECT_TRUE(Copy.sharesStorageWith(A));
    }
    Copy.accessBlock(F.block(0), *F.MM, Shadow);
    if (!(Copy == A)) {
      EXPECT_FALSE(Copy.sharesStorageWith(A));
    }
    EXPECT_EQ(Copy == A, Copy.structuralHash() == A.structuralHash());
  }
}

TEST_P(PolicyReprTest, MaterializedEntryViewsStayBlockSorted) {
  CacheConfig Config =
      CacheConfig::setAssociative(64, 8).withPolicy(GetParam());
  Blocks F(6, Config);
  Rng R(0x77aull + static_cast<uint64_t>(GetParam()));
  CacheAbsState S = randomState(F, R, /*Shadow=*/true);
  auto Sorted = [](const std::vector<AgedBlock> &V) {
    for (size_t I = 1; I < V.size(); ++I)
      if (V[I - 1].Block >= V[I].Block)
        return false;
    return true;
  };
  EXPECT_TRUE(Sorted(S.mustEntries()));
  EXPECT_TRUE(Sorted(S.mayEntries()));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyReprTest,
                         ::testing::Values(ReplacementPolicy::Lru,
                                           ReplacementPolicy::Fifo,
                                           ReplacementPolicy::Plru),
                         [](const ::testing::TestParamInfo<ReplacementPolicy>
                                &I) {
                           return replacementPolicyName(I.param);
                         });
