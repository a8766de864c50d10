//===- analysis_test.cpp - Taint, side channel, WCET ----------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/SideChannel.h"
#include "analysis/Taint.h"
#include "analysis/Wcet.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Source) {
  DiagnosticEngine Diags;
  auto CP = compileSource(Source, Diags);
  EXPECT_TRUE(CP) << Diags.str();
  return CP;
}

} // namespace

//===----------------------------------------------------------------------===//
// Taint
//===----------------------------------------------------------------------===//

TEST(TaintTest, SecretVariableSeedsTaint) {
  auto CP = compile("secret int k; char t[256]; int main() { reg int x; "
                    "x = k; return t[x & 255]; }");
  TaintResult R = computeTaint(CP->G);
  EXPECT_TRUE(R.isVarTainted(CP->P->findVar("k")));
  EXPECT_EQ(R.SecretIndexedAccesses.size(), 1u);
}

TEST(TaintTest, SecretRegGlobalSeedsTaint) {
  auto CP = compile("secret reg char k; char t[256]; int main() { "
                    "return t[k & 255]; }");
  TaintResult R = computeTaint(CP->G);
  EXPECT_EQ(R.SecretIndexedAccesses.size(), 1u);
}

TEST(TaintTest, TaintFlowsThroughArithmeticAndMemory) {
  auto CP = compile("secret int k; int tmp; char t[256]; int main() { "
                    "reg int x; x = (k * 3) ^ 5; tmp = x; "
                    "return t[tmp & 255]; }");
  TaintResult R = computeTaint(CP->G);
  EXPECT_TRUE(R.isVarTainted(CP->P->findVar("tmp")));
  EXPECT_EQ(R.SecretIndexedAccesses.size(), 1u);
}

TEST(TaintTest, PublicIndexIsNotFlagged) {
  auto CP = compile("secret int k; int pub; char t[256]; int main() { "
                    "reg int x; x = k; return t[pub & 255] + x; }");
  TaintResult R = computeTaint(CP->G);
  EXPECT_TRUE(R.SecretIndexedAccesses.empty());
}

TEST(TaintTest, ConstantIndexedSecretDataIsNotAnAddressLeak) {
  // Loading secret *data* at a public address is not a cache-address leak.
  auto CP = compile("secret char key[64]; int main() { return key[0]; }");
  TaintResult R = computeTaint(CP->G);
  EXPECT_TRUE(R.SecretIndexedAccesses.empty());
}

//===----------------------------------------------------------------------===//
// Side channel detection
//===----------------------------------------------------------------------===//

TEST(SideChannelTest, FullyCachedTableIsLeakFree) {
  auto CP = compile("secret int k; char t[256]; int main() { reg int x; "
                    "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
                    "return t[k & 255]; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(16);
  Opts.Speculative = true;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  SideChannelReport SC = detectLeaks(*CP, R);
  EXPECT_FALSE(SC.leakDetected());
  EXPECT_EQ(SC.ProvenLeakFree, 1u);
}

TEST(SideChannelTest, PartiallyCachedTableLeaks) {
  auto CP = compile("secret int k; char t[256]; char big[384]; "
                    "int main() { reg int x; "
                    "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
                    "for (reg int i = 0; i < 384; i += 64) x = big[i]; "
                    "return t[k & 255]; }");
  // 8-line cache: big's 6 lines push t's oldest two lines out while the
  // youngest two stay — a secret-dependent hit/miss mix.
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = false;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  SideChannelReport SC = detectLeaks(*CP, R);
  EXPECT_TRUE(SC.leakDetected());
  ASSERT_EQ(SC.Leaks.size(), 1u);
  EXPECT_EQ(SC.Leaks[0].Var, CP->P->findVar("t"));
  EXPECT_NE(SC.Leaks[0].str(*CP->P).find("'t'"), std::string::npos);
}

TEST(SideChannelTest, DefinitelyEvictedTableIsUniformNoLeak) {
  // After a full cache sweep the table is *definitely* out: every access
  // misses regardless of the secret -> uniform -> no leak (this is why
  // the paper's aes with a 32 KB buffer is reported leak free).
  auto CP = compile("secret int k; char t[128]; char big[1024]; "
                    "int main() { reg int x; "
                    "for (reg int i = 0; i < 128; i += 64) x = t[i]; "
                    "for (reg int i = 0; i < 1024; i += 64) x = big[i]; "
                    "return t[k & 127]; }");
  // Cache of 8 lines; big (16 lines) flushes everything deterministically.
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = false;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  SideChannelReport SC = detectLeaks(*CP, R);
  EXPECT_FALSE(SC.leakDetected());
  EXPECT_EQ(SC.ProvenLeakFree, 1u);
}

TEST(SideChannelTest, SingleLineTableIsAlwaysUniform) {
  // A one-line table cannot leak through the address: any index maps to
  // the same line (the str2key odd_parity table).
  auto CP = compile("secret int k; char t[64]; char big[512]; int main() { "
                    "reg int x; x = t[0]; "
                    "for (reg int i = 0; i < 512; i += 64) x = big[i]; "
                    "return t[k & 63]; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = true;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  SideChannelReport SC = detectLeaks(*CP, R);
  // Either all-hit or all-miss: one line is uniform by construction.
  EXPECT_FALSE(SC.leakDetected());
}

TEST(SideChannelTest, SpeculationOnlyLeakRequiresSpeculativeAnalysis) {
  // Figure 2's scenario distilled: the branch sides overflow the cache
  // only when both execute (one speculatively).
  std::string Source =
      "secret reg char k; char t[256]; char w1[128]; char w2[128]; int c; "
      "int main() { reg int x; "
      "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
      "if (c) { x = x + w1[0] + w1[64]; } else { x = x + w2[0] + w2[64]; } "
      "return t[k & 255]; }";
  auto CP = compile(Source);
  // 7-line cache: t(4) + c(1) + one side(2) = 7 fits; both sides = 9.
  MustHitOptions NonSpec;
  NonSpec.Cache = CacheConfig::fullyAssociative(7);
  NonSpec.Speculative = false;
  EXPECT_FALSE(
      detectLeaks(*CP, runMustHitAnalysis(*CP, NonSpec)).leakDetected());
  MustHitOptions Spec = NonSpec;
  Spec.Speculative = true;
  EXPECT_TRUE(
      detectLeaks(*CP, runMustHitAnalysis(*CP, Spec)).leakDetected());
}

TEST(SideChannelTest, LeakFreeSitesListsTheProvenNodes) {
  auto CP = compile("secret int k; char t[256]; int main() { reg int x; "
                    "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
                    "return t[k & 255]; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(16);
  Opts.Speculative = true;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  SideChannelReport SC = detectLeaks(*CP, R);
  ASSERT_EQ(SC.LeakFreeSites.size(), 1u);
  EXPECT_EQ(SC.ProvenLeakFree, SC.LeakFreeSites.size());
  EXPECT_EQ(CP->G.inst(SC.LeakFreeSites[0]).Var, CP->P->findVar("t"));
}

TEST(SideChannelTest, AnnotateSpeculationOnlyFlagsTheDiff) {
  // The Figure-2 shape: leak-free without speculation, leaking with it —
  // the diff must flag the site SpeculationOnly (Table 7's contrast).
  std::string Source =
      "secret reg char k; char t[256]; char w1[128]; char w2[128]; int c; "
      "int main() { reg int x; "
      "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
      "if (c) { x = x + w1[0] + w1[64]; } else { x = x + w2[0] + w2[64]; } "
      "return t[k & 255]; }";
  auto CP = compile(Source);
  MustHitOptions NonSpec;
  NonSpec.Cache = CacheConfig::fullyAssociative(7);
  NonSpec.Speculative = false;
  SideChannelReport NS =
      detectLeaks(*CP, runMustHitAnalysis(*CP, NonSpec));
  ASSERT_FALSE(NS.leakDetected());
  MustHitOptions Spec = NonSpec;
  Spec.Speculative = true;
  SideChannelReport SP = detectLeaks(*CP, runMustHitAnalysis(*CP, Spec));
  ASSERT_TRUE(SP.leakDetected());

  EXPECT_EQ(annotateSpeculationOnly(SP, NS), SP.Leaks.size());
  for (const LeakSite &L : SP.Leaks) {
    EXPECT_TRUE(L.SpeculationOnly);
    EXPECT_NE(L.str(*CP->P).find("[speculation-induced]"),
              std::string::npos);
  }

  // The LeakDropSpecOnly fault (fuzz self-test) suppresses the flag.
  SideChannelOptions Faulty;
  Faulty.Fault = InjectedFault::LeakDropSpecOnly;
  EXPECT_EQ(annotateSpeculationOnly(SP, NS, Faulty), 0u);
  for (const LeakSite &L : SP.Leaks)
    EXPECT_FALSE(L.SpeculationOnly);
}

TEST(SideChannelTest, AnnotateSpeculationOnlySkipsArchitecturalLeaks) {
  // A site leaking even without speculation must *not* be flagged: the
  // attacker needs no transient window there.
  auto CP = compile("secret int k; char t[256]; char big[384]; "
                    "int main() { reg int x; "
                    "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
                    "for (reg int i = 0; i < 384; i += 64) x = big[i]; "
                    "return t[k & 255]; }");
  MustHitOptions NonSpec;
  NonSpec.Cache = CacheConfig::fullyAssociative(8);
  NonSpec.Speculative = false;
  SideChannelReport NS =
      detectLeaks(*CP, runMustHitAnalysis(*CP, NonSpec));
  ASSERT_TRUE(NS.leakDetected());
  MustHitOptions Spec = NonSpec;
  Spec.Speculative = true;
  SideChannelReport SP = detectLeaks(*CP, runMustHitAnalysis(*CP, Spec));
  ASSERT_TRUE(SP.leakDetected());
  EXPECT_EQ(annotateSpeculationOnly(SP, NS), 0u);
  for (const LeakSite &L : SP.Leaks)
    EXPECT_FALSE(L.SpeculationOnly);
}

TEST(SideChannelTest, InjectedLeakFaultsSuppressLeaks) {
  // The detector-side self-test faults must actually report a leaking
  // site leak-free; the fuzzer's concrete attacker catches the lie.
  auto CP = compile("secret int k; char t[256]; char big[384]; "
                    "int main() { reg int x; "
                    "for (reg int i = 0; i < 256; i += 64) x = t[i]; "
                    "for (reg int i = 0; i < 384; i += 64) x = big[i]; "
                    "return t[k & 255]; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = true;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  ASSERT_TRUE(detectLeaks(*CP, R).leakDetected());
  SideChannelOptions Faulty;
  Faulty.Fault = InjectedFault::LeakSkipMixed;
  SideChannelReport SC = detectLeaks(*CP, R, Faulty);
  EXPECT_FALSE(SC.leakDetected());
  EXPECT_EQ(SC.ProvenLeakFree, 1u);
}

//===----------------------------------------------------------------------===//
// WCET estimation
//===----------------------------------------------------------------------===//

TEST(WcetTest, CountsMissAndHitNodes) {
  auto CP = compile("char a[64]; int main() { reg int t; t = a[0]; "
                    "t = t + a[0]; return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = false;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetReport W = estimateWcet(*CP, R);
  EXPECT_EQ(W.PossibleMissNodes, 1u);
  EXPECT_EQ(W.MustHitNodes, 1u);
}

TEST(WcetTest, MissesDominateTheCycleBound) {
  auto CP = compile("char a[64]; int main() { reg int t; t = a[0]; "
                    "t = t + a[0]; return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO;
  WcetReport W = estimateWcet(*CP, R, WO);
  EXPECT_GE(W.WorstCaseCycles, WO.Timing.MissLatency);
}

TEST(WcetTest, SpeculativeAnalysisRaisesTheBound) {
  auto CP = compile(fig2Source());
  MustHitOptions NonSpec;
  NonSpec.Speculative = false;
  WcetReport WNs = estimateWcet(*CP, runMustHitAnalysis(*CP, NonSpec));
  MustHitOptions Spec;
  Spec.Speculative = true;
  WcetReport WSp = estimateWcet(*CP, runMustHitAnalysis(*CP, Spec));
  // The missed final access adds a full miss latency (paper §2.1: "it may
  // underestimate the worst-case execution time").
  EXPECT_GT(WSp.WorstCaseCycles, WNs.WorstCaseCycles);
  EXPECT_GT(WSp.PossibleMissNodes, WNs.PossibleMissNodes);
}

TEST(WcetTest, MonotoneInLoopIterationBound) {
  // The fuzzer's WCET oracle checks each run against the estimate for its
  // observed loop-header execution count and relies on monotonicity to
  // cover every larger bound; pin the property directly.
  auto CP = compile("int n; char a[64]; int main() { reg int t; t = 0; "
                    "while (n > 0) { n = n - 1; t = t + a[0]; } "
                    "return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO;
  uint64_t Prev = 0;
  for (uint32_t Bound : {1u, 2u, 5u, 17u, 64u, 200u, 1000u}) {
    WO.LoopIterationBound = Bound;
    uint64_t Cycles = estimateWcet(*CP, R, WO).WorstCaseCycles;
    EXPECT_GE(Cycles, Prev) << "bound " << Bound;
    Prev = Cycles;
  }
}

TEST(WcetTest, MonotoneInMissLatency) {
  auto CP = compile("int n; char a[64]; char b[128]; int main() { "
                    "reg int t; t = 0; t = a[0]; t = t + b[64]; "
                    "while (n > 0) { n = n - 1; t = t + b[0]; } "
                    "return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO;
  uint64_t Prev = 0;
  for (uint32_t Miss : {2u, 10u, 50u, 100u, 400u}) {
    WO.Timing.MissLatency = Miss;
    uint64_t Cycles = estimateWcet(*CP, R, WO).WorstCaseCycles;
    EXPECT_GE(Cycles, Prev) << "miss latency " << Miss;
    Prev = Cycles;
  }
  // With possible misses present the dependence is strict.
  ASSERT_GT(estimateWcet(*CP, R).PossibleMissNodes, 0u);
  WO.Timing.MissLatency = 100;
  uint64_t At100 = estimateWcet(*CP, R, WO).WorstCaseCycles;
  WO.Timing.MissLatency = 101;
  EXPECT_GT(estimateWcet(*CP, R, WO).WorstCaseCycles, At100);
}

TEST(WcetTest, HitLatencyFloorOnStraightLineCode) {
  // On straight-line code the longest path visits every node, so the
  // bound can never fall below charging every must-hit its hit latency.
  auto CP = compile("char a[64]; int main() { reg int t; t = a[0]; "
                    "t = t + a[0]; t = t + a[0]; return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  Opts.Speculative = false;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO;
  WcetReport W = estimateWcet(*CP, R, WO);
  EXPECT_EQ(W.MustHitNodes, 2u);
  EXPECT_GE(W.WorstCaseCycles, W.MustHitNodes * WO.Timing.HitLatency);
}

TEST(WcetTest, HandComputedTwoLoopBound) {
  // Two sequential data-bounded loops — the shape whose tail the
  // pre-redirection longest path silently dropped (a back edge dead-ends;
  // everything after the first loop was bounded as if the loop body never
  // ran). Lowered CFG, with h/M/A/Br the hit/miss/ALU/branch latencies
  // and B the loop iteration bound:
  //
  //   bb0 entry:        mov, jmp                     -> 2A
  //   bb1 while.header: load n (miss), gt, br        -> B(M + A + Br)
  //   bb2 while.body:   load n (hit), sub, store n (hit),
  //                     load a[0] (miss), add, mov, jmp
  //                                                  -> B(2h + M + 4A)
  //   bb3 while.end:    jmp                          -> A
  //   bb4/bb5:          same shape for the m loop
  //   bb6:              ret                          -> A
  //
  // The header loads are joins of a not-resident entry path and the
  // resident back edge, so they stay possible misses; the body reloads
  // and stores touch the line the header just loaded (must-hits); a[0]
  // is not resident on the first iteration. Longest path threads both
  // loops (body weight reaches bb3/bb6 via the back-edge redirection):
  //   4A + 2B(2M + 2h + 5A + Br).
  auto CP = compile("int n; int m; char a[64]; int main() { reg int t; "
                    "t = 0; "
                    "while (n > 0) { n = n - 1; t = t + a[0]; } "
                    "while (m > 0) { m = m - 1; t = t + a[0]; } "
                    "return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(16);
  Opts.Speculative = false;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO; // h=2, M=100, A=1, Br=10, B=64.
  WcetReport W = estimateWcet(*CP, R, WO);
  EXPECT_EQ(W.MustHitNodes, 4u);
  EXPECT_EQ(W.PossibleMissNodes, 4u);
  const uint64_t H = WO.Timing.HitLatency, M = WO.Timing.MissLatency,
                 A = WO.Timing.AluLatency,
                 Br = WO.Timing.BranchResolveLatency,
                 B = WO.LoopIterationBound;
  EXPECT_EQ(W.WorstCaseCycles, 4 * A + 2 * B * (2 * M + 2 * H + 5 * A + Br));

  // And with a different bound and timing model, to pin the formula
  // rather than one constant (28036 for the defaults).
  WO.LoopIterationBound = 7;
  WO.Timing.MissLatency = 30;
  WO.Timing.BranchResolveLatency = 3;
  W = estimateWcet(*CP, R, WO);
  EXPECT_EQ(W.WorstCaseCycles, 4 * A + 2 * 7 * (2 * 30 + 2 * H + 5 * A + 3));
}

TEST(WcetTest, InjectedWcetFaultsLowerTheBound) {
  // The self-test faults must actually weaken the verdict, or the fuzz
  // fault matrix would prove nothing.
  auto CP = compile("int n; char a[64]; char b[192]; int main() { "
                    "reg int t; t = 0; t = b[128]; "
                    "while (n > 0) { n = n - 1; t = t + a[0]; } "
                    "return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions WO;
  uint64_t Healthy = estimateWcet(*CP, R, WO).WorstCaseCycles;
  WO.Fault = InjectedFault::WcetHitForMiss;
  EXPECT_LT(estimateWcet(*CP, R, WO).WorstCaseCycles, Healthy);
  WO.Fault = InjectedFault::WcetDropLoopScale;
  EXPECT_LT(estimateWcet(*CP, R, WO).WorstCaseCycles, Healthy);
}

TEST(WcetTest, LoopBoundScalesLoopBodies) {
  auto CP = compile("int n; char a[64]; int main() { int i; reg int t; "
                    "t = 0; for (i = 0; i < n; i++) { t = t + a[0]; } "
                    "return t; }");
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8);
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  WcetOptions Small;
  Small.LoopIterationBound = 1;
  WcetOptions Large;
  Large.LoopIterationBound = 100;
  EXPECT_GT(estimateWcet(*CP, R, Large).WorstCaseCycles,
            estimateWcet(*CP, R, Small).WorstCaseCycles);
}
