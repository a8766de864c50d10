//===- engine_test.cpp - Worklist and speculative engine tests ------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisPipeline.h"
#include "fuzz/StateDigest.h"
#include "reference/IntervalDomain.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace specai;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Source) {
  DiagnosticEngine Diags;
  auto CP = compileSource(Source, Diags);
  EXPECT_TRUE(CP) << Diags.str();
  return CP;
}

/// Two nested sites on a 4-line cache. `y` is loaded first, so on the
/// normal path the inner condition load of `y` is a must-hit. The outer
/// condition `c` misses, and its mispredicted then-side loads e1..e4,
/// evicting `y` before the rollback to the else-side. Only that
/// post-rollback flow degrades the inner condition load.
std::string nestedSiteSource() {
  return R"MC(
char c[64]; char y[64];
char e1[64]; char e2[64]; char e3[64]; char e4[64];
char z1[64]; char z2[64]; char z3[64]; char z4[64]; char z5[64]; char z6[64];

int main() {
  reg int t;
  t = y[0];
  if (c[0] != 0) {
    t = e1[0]; t = e2[0]; t = e3[0]; t = e4[0];
  } else {
    if (y[0] != 0) {
      t = z1[0]; t = z2[0]; t = z3[0]; t = z4[0]; t = z5[0]; t = z6[0];
    }
  }
  return t;
}
)MC";
}

/// The first load of `Name`, or InvalidNode.
NodeId loadOf(const CompiledProgram &CP, const std::string &Name) {
  VarId Var = CP.P->findVar(Name);
  for (NodeId N = 0; N != CP.G.size(); ++N)
    if (CP.G.inst(N).Op == Opcode::Load && CP.G.inst(N).Var == Var)
      return N;
  return InvalidNode;
}

} // namespace

//===----------------------------------------------------------------------===//
// Speculation planning (virtual control flow)
//===----------------------------------------------------------------------===//

TEST(SpecPlanTest, MemoryDependentBranchesBecomeSites) {
  auto CP = compile("int c; char a[64]; char b[64]; int main() { reg int t; "
                    "if (c) { t = a[0]; } else { t = b[0]; } return t; }");
  EXPECT_EQ(CP->Plan.siteCount(), 1u);
  EXPECT_EQ(CP->Plan.colorCount(), 2u);
  const SpecSite &S = CP->Plan.sites().front();
  EXPECT_EQ(S.CondLoads.size(), 1u);
  EXPECT_NE(S.Ipdom, InvalidNode);
}

TEST(SpecPlanTest, RegisterOnlyBranchesAreSkipped) {
  auto CP = compile("int main(reg int c) { reg int t; "
                    "if (c) { t = 1; } else { t = 2; } return t; }");
  EXPECT_EQ(CP->Plan.siteCount(), 0u);
}

TEST(SpecPlanTest, ColorsPointAtOppositeSides) {
  auto CP = compile("int c; char a[64]; char b[64]; int main() { reg int t; "
                    "if (c) { t = a[0]; } else { t = b[0]; } return t; }");
  const SpecPlan &Plan = CP->Plan;
  ASSERT_EQ(Plan.colorCount(), 2u);
  EXPECT_EQ(Plan.wrongEntry(0), Plan.correctEntry(1));
  EXPECT_EQ(Plan.wrongEntry(1), Plan.correctEntry(0));
}

TEST(SpecPlanTest, MemoryDependenceIsTransitive) {
  auto CP = compile("int c; int main() { reg int x; reg int y; "
                    "x = c; y = x + 1; if (y) { return 1; } return 0; }");
  EXPECT_EQ(CP->Plan.siteCount(), 1u);
}

TEST(SpecPlanTest, CondLoadsFollowTheSlice) {
  auto CP = compile("int c; int d; int main() { reg int x; "
                    "x = c + d; if (x > 3) { return 1; } return 0; }");
  ASSERT_EQ(CP->Plan.siteCount(), 1u);
  EXPECT_EQ(CP->Plan.sites().front().CondLoads.size(), 2u);
}

TEST(EngineNamesTest, StrategyAndBoundingNamesRoundTrip) {
  for (MergeStrategy S :
       {MergeStrategy::NoMerge, MergeStrategy::MergeAtExit,
        MergeStrategy::JustInTime, MergeStrategy::MergeAtRollback}) {
    MergeStrategy Parsed = MergeStrategy::NoMerge;
    ASSERT_TRUE(parseMergeStrategy(mergeStrategyName(S), Parsed));
    EXPECT_EQ(Parsed, S);
  }
  for (BoundingMode B : {BoundingMode::Fixed, BoundingMode::Dynamic}) {
    BoundingMode Parsed = BoundingMode::Fixed;
    ASSERT_TRUE(parseBoundingMode(boundingModeName(B), Parsed));
    EXPECT_EQ(Parsed, B);
  }
  MergeStrategy S = MergeStrategy::NoMerge;
  BoundingMode B = BoundingMode::Fixed;
  EXPECT_FALSE(parseMergeStrategy("just-in-tim", S));
  EXPECT_FALSE(parseBoundingMode("Dynamic", B));
  EXPECT_EQ(S, MergeStrategy::NoMerge);
  EXPECT_EQ(B, BoundingMode::Fixed);
}

//===----------------------------------------------------------------------===//
// Baseline vs speculative engine
//===----------------------------------------------------------------------===//

TEST(EngineTest, SpeculationDisabledMatchesBaseline) {
  auto CP = compile(fig2Source());
  MustHitOptions NonSpec;
  NonSpec.Speculative = false;
  MustHitReport Base = runMustHitAnalysis(*CP, NonSpec);

  // Depth 0 disables every window: the speculative engine must agree with
  // Algorithm 1 on every classification.
  MustHitOptions Zero;
  Zero.Speculative = true;
  Zero.DepthMiss = 0;
  Zero.DepthHit = 0;
  Zero.Bounding = BoundingMode::Fixed;
  MustHitReport Spec = runMustHitAnalysis(*CP, Zero);
  EXPECT_EQ(Base.MissCount, Spec.MissCount);
  EXPECT_EQ(Spec.SpMissCount, 0u);
  EXPECT_EQ(Base.MustHit, Spec.MustHit);
}

TEST(EngineTest, SpeculativeNeverClaimsMoreHitsThanBaseline) {
  for (const Workload &W : wcetWorkloads()) {
    auto CP = compile(W.Source);
    MustHitOptions NonSpec;
    NonSpec.Cache = CacheConfig::fullyAssociative(64);
    NonSpec.Speculative = false;
    MustHitReport Base = runMustHitAnalysis(*CP, NonSpec);
    MustHitOptions Spec = NonSpec;
    Spec.Speculative = true;
    MustHitReport SpecR = runMustHitAnalysis(*CP, Spec);
    for (NodeId N = 0; N != CP->G.size(); ++N) {
      if (SpecR.MustHit[N]) {
        EXPECT_TRUE(Base.MustHit[N]) << W.Name << " node " << N;
      }
    }
  }
}

TEST(EngineTest, DepthMonotonicityOfMissCounts) {
  auto CP = compile(wcetWorkloads()[1].Source); // susan
  uint64_t Prev = 0;
  for (uint32_t Depth : {0u, 4u, 16u, 64u, 256u}) {
    MustHitOptions Opts;
    Opts.Cache = CacheConfig::fullyAssociative(64);
    Opts.Speculative = true;
    Opts.DepthMiss = Depth;
    Opts.DepthHit = Depth;
    Opts.Bounding = BoundingMode::Fixed;
    MustHitReport R = runMustHitAnalysis(*CP, Opts);
    EXPECT_GE(R.MissCount, Prev) << "depth " << Depth;
    Prev = R.MissCount;
  }
}

TEST(EngineTest, StrategiesAreOrderedByPrecision) {
  // no-merge refines just-in-time refines merge-at-rollback: the miss
  // counts must be ordered accordingly on every kernel.
  for (const Workload &W : wcetWorkloads()) {
    auto CP = compile(W.Source);
    auto MissWith = [&](MergeStrategy S) {
      MustHitOptions Opts;
      Opts.Cache = CacheConfig::fullyAssociative(64);
      Opts.Speculative = true;
      Opts.Strategy = S;
      return runMustHitAnalysis(*CP, Opts).MissCount;
    };
    uint64_t NM = MissWith(MergeStrategy::NoMerge);
    uint64_t JIT = MissWith(MergeStrategy::JustInTime);
    uint64_t RB = MissWith(MergeStrategy::MergeAtRollback);
    EXPECT_LE(NM, JIT) << W.Name;
    EXPECT_LE(JIT, RB) << W.Name;
  }
}

TEST(EngineTest, IterativeRefinementIsAtLeastAsPrecise) {
  for (const Workload &W : wcetWorkloads()) {
    auto CP = compile(W.Source);
    MustHitOptions Fixed;
    Fixed.Cache = CacheConfig::fullyAssociative(64);
    Fixed.Speculative = true;
    Fixed.Bounding = BoundingMode::Fixed;
    MustHitReport FixedR = runMustHitAnalysis(*CP, Fixed);

    MustHitOptions Refine = Fixed;
    Refine.IterativeDepthRefinement = true;
    MustHitReport RefineR = runMustHitAnalysis(*CP, Refine);
    EXPECT_LE(RefineR.MissCount, FixedR.MissCount) << W.Name;
  }
}

TEST(EngineTest, DynamicBoundingConvergesAndIsSane) {
  auto CP = compile(fig2Source());
  MustHitOptions Opts;
  Opts.Speculative = true;
  Opts.Bounding = BoundingMode::Dynamic;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  EXPECT_TRUE(R.Converged);
  EXPECT_GE(R.MissCount, 513u);
}

TEST(EngineTest, CachedBoundSeesPostRollbackPollution) {
  // The inner site is first seeded while its condition load still looks
  // like a must-hit; only later does the outer site's post-rollback flow
  // evict `y` at that load. The cached window bound must notice and
  // re-seed the inner site at DepthMiss. Each `t = zN[0]` is two nodes,
  // so the outer site's own window (also DepthMiss) ends before z5 and
  // only the inner site's full window reaches it speculatively.
  auto CP = compile(nestedSiteSource());
  ASSERT_EQ(CP->Plan.siteCount(), 2u);
  NodeId YLoad = InvalidNode;
  for (const SpecSite &S : CP->Plan.sites())
    if (S.CondLoads.size() == 1 && CP->G.inst(S.CondLoads[0]).Var ==
                                       CP->P->findVar("y"))
      YLoad = S.CondLoads[0];
  ASSERT_NE(YLoad, InvalidNode);
  NodeId Far = loadOf(*CP, "z5");
  ASSERT_NE(Far, InvalidNode);

  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(4);
  Opts.Speculative = true;
  Opts.Bounding = BoundingMode::Dynamic;
  Opts.DepthMiss = 10;
  Opts.DepthHit = 1;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  ASSERT_TRUE(R.Converged);

  CacheDomain D(CP->G, *R.MM, CacheDomainOptions{});
  EXPECT_TRUE(D.isMustHit(R.States.Normal[YLoad], YLoad));
  EXPECT_FALSE(R.States.PostRollback[YLoad].isBottom());
  EXPECT_FALSE(D.isMustHit(R.States.observable(D, YLoad), YLoad));
  EXPECT_FALSE(R.States.Speculative[Far].isBottom())
      << "inner site never re-seeded at DepthMiss";
}

TEST(EngineTest, CleanFlowReseedsWhenItsWindowOpens) {
  // With DepthHit = 0 the inner site's window is closed while `y` looks
  // like a must-hit, so the normal flow at its branch first seeds nothing.
  // The outer site's post-rollback flow then evicts `y` at the inner
  // condition load, which opens the window; that flow reaches the inner
  // branch dirty while the normal flow there stays clean. The clean flow
  // must still run once to seed its state, which lacks `e1`: the inner
  // then-side's load of `e1` is not a must-hit speculatively. Seeding the
  // post-rollback state alone would keep `e1` cached there. The padding
  // ends the outer site's wrong-path window before the inner site.
  auto CP = compile(R"MC(
char c[64]; char y[64]; char e1[64]; char e2[64]; char e3[64];

int main() {
  reg int t;
  t = y[0];
  if (c[0] != 0) {
    t = e1[0]; t = e2[0]; t = e3[0];
  } else {
    t = t + 1; t = t + 1; t = t + 1; t = t + 1; t = t + 1;
    t = t + 1; t = t + 1; t = t + 1; t = t + 1; t = t + 1;
    if (y[0] != 0) {
      t = e1[0];
    }
  }
  return t;
}
)MC");
  ASSERT_EQ(CP->Plan.siteCount(), 2u);
  const SpecSite &Inner = CP->Plan.sites()[1];
  ASSERT_EQ(Inner.CondLoads.size(), 1u);
  NodeId YLoad = Inner.CondLoads[0];
  ASSERT_EQ(CP->G.inst(YLoad).Var, CP->P->findVar("y"));
  NodeId InnerE1 = Inner.TakenEntry;
  ASSERT_EQ(CP->G.inst(InnerE1).Op, Opcode::Load);
  ASSERT_EQ(CP->G.inst(InnerE1).Var, CP->P->findVar("e1"));

  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(4);
  Opts.Speculative = true;
  Opts.Bounding = BoundingMode::Dynamic;
  Opts.DepthMiss = 6;
  Opts.DepthHit = 0;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  ASSERT_TRUE(R.Converged);

  CacheDomain D(CP->G, *R.MM, CacheDomainOptions{});
  EXPECT_TRUE(D.isMustHit(R.States.Normal[YLoad], YLoad));
  EXPECT_FALSE(D.isMustHit(R.States.observable(D, YLoad), YLoad));
  ASSERT_FALSE(R.States.Speculative[InnerE1].isBottom());
  EXPECT_FALSE(D.isMustHit(R.States.Speculative[InnerE1], InnerE1))
      << "the clean normal flow never seeded the opened window";
}

TEST(EngineTest, JoinCountersSplitByFlow) {
  auto CP = compile(nestedSiteSource());
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(4);
  Opts.Speculative = true;
  StatisticSet Dynamic;
  Opts.Stats = &Dynamic;
  runMustHitAnalysis(*CP, Opts);
  for (const char *Flow : {"normal", "spec", "pr", "fold", "bound"})
    EXPECT_GT(Dynamic.get(std::string("spec.joins.") + Flow), 0u) << Flow;

  // Fixed bounding never reads a window bound.
  Opts.Bounding = BoundingMode::Fixed;
  StatisticSet Fixed;
  Opts.Stats = &Fixed;
  runMustHitAnalysis(*CP, Opts);
  EXPECT_GT(Fixed.get("spec.joins.pr"), 0u);
  EXPECT_EQ(Fixed.get("spec.joins.bound"), 0u);
}

TEST(EngineTest, NoFoldWithoutConditionLoads) {
  // A branch on a register argument reads no memory. Planned as a site
  // anyway (the paper's memory-dependence filter off), it rolls back into
  // post-rollback slots, but no condition load ever needs their fold.
  auto CP = compile("char a[64]; char b[64]; int main(reg int c) { "
                    "reg int t; if (c) { t = a[0]; } else { t = b[0]; } "
                    "return t; }");
  CP->Plan = SpecPlan::compute(CP->G, CP->Pdom, /*OnlyMemoryDependent=*/false);
  ASSERT_EQ(CP->Plan.siteCount(), 1u);
  ASSERT_TRUE(CP->Plan.sites().front().CondLoads.empty());
  MustHitOptions Opts;
  Opts.Speculative = true;
  StatisticSet Stats;
  Opts.Stats = &Stats;
  runMustHitAnalysis(*CP, Opts);
  EXPECT_GT(Stats.get("spec.joins.pr"), 0u);
  EXPECT_EQ(Stats.get("spec.joins.fold"), 0u);
}

TEST(EngineTest, SelfLoopNodeJoinsIntoItsOwnSlots) {
  // A node that is its own successor joins into the SS and PR slot maps
  // its pop is iterating. Lowering never emits one (a loop body ends in a
  // jump back to a separate header), so this retargets the header branch
  // of `while (k)` at its own block. `k` comes from memory, so the branch
  // is a site of its own, and it sits on the then-side of the outer site:
  // it is reached by speculative flows of the outer site and by the
  // post-rollback flows that return to the then-side.
  auto Src = compile(R"MC(
char c[64]; char a[64]; char b[64]; char d[64]; char e[64];

int main() {
  reg int t; reg int k;
  if (c[0] != 0) {
    t = a[0];
    k = e[0];
    while (k) { }
    t = d[0];
  } else {
    t = b[0];
  }
  return t;
}
)MC");
  ASSERT_TRUE(Src);
  Program Prog = *Src->P;
  BlockId Header = InvalidBlock;
  for (BlockId B = 0; B != Prog.Blocks.size(); ++B)
    if (Prog.Blocks[B].Name == "while.header")
      Header = B;
  ASSERT_NE(Header, InvalidBlock);
  ASSERT_EQ(Prog.Blocks[Header].Insts.size(), 1u);
  ASSERT_EQ(Prog.Blocks[Header].Insts[0].Op, Opcode::Br);
  Prog.Blocks[Header].Insts[0].TrueTarget = Header;
  auto CP = compileProgram(std::move(Prog));
  NodeId Loop = CP->G.blockStart(Header);
  const std::vector<NodeId> &Succs = CP->G.successors(Loop);
  ASSERT_NE(std::find(Succs.begin(), Succs.end(), Loop), Succs.end());
  ASSERT_EQ(CP->Plan.siteCount(), 2u);

  // Every state of the self-join case, pinned by digests recorded with
  // a drain that snapshotted all of a node's slots before running any.
  struct Case {
    MergeStrategy Strategy;
    uint32_t Lines;
    ReplacementPolicy Policy;
    uint64_t Digest;
  };
  const Case Cases[] = {
      {MergeStrategy::JustInTime, 4, ReplacementPolicy::Lru, 0x882125a5b43c6c82},
      {MergeStrategy::NoMerge, 2, ReplacementPolicy::Lru, 0xf115122ed14f6e1a},
      {MergeStrategy::NoMerge, 4, ReplacementPolicy::Fifo, 0xee459211c6b1f689},
  };
  for (const Case &C : Cases) {
    MustHitOptions Opts;
    Opts.Cache = CacheConfig::fullyAssociative(C.Lines).withPolicy(C.Policy);
    Opts.Speculative = true;
    Opts.Strategy = C.Strategy;
    Opts.DepthMiss = 8;
    MustHitReport R = runMustHitAnalysis(*CP, Opts);
    std::string Label = std::string(mergeStrategyName(C.Strategy)) + "/" +
                        std::to_string(C.Lines) + "/" +
                        replacementPolicyName(C.Policy);
    ASSERT_TRUE(R.Converged) << Label;
    EXPECT_FALSE(R.States.Speculative[Loop].isBottom()) << Label;
    EXPECT_FALSE(R.States.PostRollback[Loop].isBottom()) << Label;
    EXPECT_EQ(digestModuleReport(*CP, R), C.Digest)
        << Label << " 0x" << std::hex << digestModuleReport(*CP, R);
  }
}

TEST(EngineTest, UnreachableCodeStaysBottom) {
  auto CP = compile("int x; int main() { return 1; x = 2; return x; }");
  MustHitOptions Opts;
  Opts.Speculative = true;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  bool SawUnreachable = false;
  for (NodeId N = 0; N != CP->G.size(); ++N)
    if (!R.Reachable[N])
      SawUnreachable = true;
  EXPECT_TRUE(SawUnreachable);
}

TEST(EngineTest, WideningStillSound) {
  // Widening accelerates loops; must-hit classification under widening
  // must be a subset of the non-widened one.
  auto CP = compile(wcetWorkloads()[0].Source); // adpcm: has a scan loop.
  MustHitOptions Plain;
  Plain.Cache = CacheConfig::fullyAssociative(64);
  Plain.Speculative = true;
  MustHitReport P1 = runMustHitAnalysis(*CP, Plain);
  MustHitOptions Widened = Plain;
  Widened.UseWidening = true;
  Widened.WideningDelay = 2;
  MustHitReport P2 = runMustHitAnalysis(*CP, Widened);
  EXPECT_LE(P2.Iterations, P1.Iterations);
  for (NodeId N = 0; N != CP->G.size(); ++N) {
    if (P2.MustHit[N]) {
      EXPECT_TRUE(P1.MustHit[N]) << "node " << N;
    }
  }
}

//===----------------------------------------------------------------------===//
// Interval domain through the same engine (domain genericity). The
// baseline cases run Algorithm 1 as the engine over an empty SpecPlan.
//===----------------------------------------------------------------------===//

TEST(IntervalEngineTest, BaselineFixpointBoundsAScalar) {
  auto CP = compile("int x; int main() { x = 3; return x; }");
  IntervalDomain D(CP->G);
  EngineOptions Opts;
  Opts.UseWidening = true;
  SpecResult<IntervalDomain> R =
      runSpeculativeFixpoint(D, CP->G, SpecPlan(), Opts, &CP->LI);
  // At the return, x == 3.
  NodeId Ret = CP->G.exits().front();
  VarId X = CP->P->findVar("x");
  Interval I = R.Normal[Ret].scalar(X);
  EXPECT_EQ(I.Lo, 3);
  EXPECT_EQ(I.Hi, 3);
}

TEST(IntervalEngineTest, JoinWidensOverBranches) {
  auto CP = compile("int c; int x; int main() { if (c) { x = 1; } else "
                    "{ x = 10; } return x; }");
  IntervalDomain D(CP->G);
  SpecResult<IntervalDomain> R =
      runSpeculativeFixpoint(D, CP->G, SpecPlan(), EngineOptions());
  NodeId Ret = CP->G.exits().front();
  Interval I = R.Normal[Ret].scalar(CP->P->findVar("x"));
  EXPECT_EQ(I.Lo, 1);
  EXPECT_EQ(I.Hi, 10);
}

TEST(IntervalEngineTest, LoopTerminatesWithWidening) {
  auto CP = compile("int n; int main() { int i; i = 0; "
                    "while (i < n) { i = i + 1; } return i; }");
  IntervalDomain D(CP->G);
  EngineOptions Opts;
  Opts.UseWidening = true;
  Opts.WideningDelay = 2;
  Opts.MaxIterations = 100000;
  SpecResult<IntervalDomain> R =
      runSpeculativeFixpoint(D, CP->G, SpecPlan(), Opts, &CP->LI);
  EXPECT_TRUE(R.Converged);
  NodeId Ret = CP->G.exits().front();
  Interval I = R.Normal[Ret].scalar(CP->P->findVar("main.i"));
  EXPECT_EQ(I.Lo, 0); // i never goes below its initialization.
}

TEST(IntervalEngineTest, SpeculativeEngineRunsOverIntervals) {
  // Domain genericity: Algorithms 2/3 run over the interval domain
  // unchanged (paper §1: "regardless of how the abstract state is
  // defined").
  auto CP = compile("int c; int x; int main() { if (c) { x = 1; } else "
                    "{ x = 2; } return x; }");
  IntervalDomain D(CP->G);
  EngineOptions Opts;
  Opts.UseWidening = true;
  SpecResult<IntervalDomain> R =
      runSpeculativeFixpoint(D, CP->G, CP->Plan, Opts, &CP->LI);
  EXPECT_TRUE(R.Converged);
  NodeId Ret = CP->G.exits().front();
  EXPECT_FALSE(R.Normal[Ret].isBottom());
  Interval I = R.Normal[Ret].scalar(CP->P->findVar("x"));
  EXPECT_LE(I.Lo, 1);
  EXPECT_GE(I.Hi, 2);
}

TEST(IntervalTest, ArithmeticSaturates) {
  Interval Max{Interval::PosInf - 0, Interval::PosInf};
  Interval One = Interval::constant(1);
  Interval Sum = Max.add(One);
  EXPECT_EQ(Sum.Hi, Interval::PosInf);
  Interval Neg = Interval::constant(-1);
  Interval Low{Interval::NegInf, 0};
  EXPECT_EQ(Low.add(Neg).Lo, Interval::NegInf);
}

TEST(IntervalTest, MulConsidersAllCorners) {
  Interval A{-2, 3};
  Interval B{-5, 4};
  Interval M = A.mul(B);
  EXPECT_EQ(M.Lo, -15); // 3 * -5.
  EXPECT_EQ(M.Hi, 12);  // 3 * 4.
}

TEST(IntervalTest, WidenJumpsUnstableBounds) {
  Interval Prev{0, 3};
  Interval Cur{0, 5};
  Interval W = Cur.widen(Prev);
  EXPECT_EQ(W.Lo, 0);
  EXPECT_EQ(W.Hi, Interval::PosInf);
}
