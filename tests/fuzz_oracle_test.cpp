//===- fuzz_oracle_test.cpp - Differential fuzzing subsystem tests --------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Tests of the src/fuzz subsystem itself: generator determinism and
/// well-formedness, oracle cleanliness on the healthy engine, fault
/// detection (a fuzzer that cannot see a broken engine proves nothing),
/// counterexample minimization/replayability, and jobs-invariance of
/// campaign summaries.
///
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzCampaign.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/SoundnessOracle.h"
#include "fuzz/StateDigest.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

using namespace specai;

namespace {

/// Small-budget oracle options so a test stays in the tens of
/// milliseconds per program.
SoundnessOracleOptions quickOracle() {
  SoundnessOracleOptions O;
  O.ExhaustiveBits = 3;
  O.SampledScripts = 2;
  O.InputRounds = 1;
  O.ShrunkenWindowRounds = 1;
  O.UseStandardPredictors = false;
  return O;
}

} // namespace

TEST(ProgramGenTest, DeterministicFromSeed) {
  ProgramGen A(42), B(42), C(43);
  EXPECT_EQ(A.generate().source(), B.generate().source());
  EXPECT_NE(A.generate().source(), C.generate().source());
}

TEST(ProgramGenTest, GeneratedProgramsCompile) {
  for (uint64_t Seed = 1; Seed != 40; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP) << "seed " << Seed << ":\n"
                    << G.source() << "\n"
                    << Diags.str();
    // Every advertised input is a real memory variable.
    for (const std::string &S : G.InputScalars)
      EXPECT_NE(CP->P->findVar(S), InvalidVar) << S;
    for (const auto &[Name, Elems] : G.Arrays) {
      VarId V = CP->P->findVar(Name);
      ASSERT_NE(V, InvalidVar) << Name;
      EXPECT_EQ(CP->P->Vars[V].NumElements, Elems) << Name;
    }
  }
}

TEST(ProgramGenTest, GeneratedProgramsTerminate) {
  // The generator's while loops decrement a bound scalar nothing else
  // writes, so every program halts on every input. Spot-check with the
  // adversarial corner (maximum positive scalars).
  for (uint64_t Seed = 1; Seed != 15; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    Machine M(*CP->P);
    for (const std::string &S : G.InputScalars)
      M.setMemory(CP->P->findVar(S), 0, 30);
    uint64_t Steps = M.run(500000);
    EXPECT_TRUE(M.halted()) << "seed " << Seed << " ran " << Steps
                            << " steps without halting";
  }
}

TEST(SoundnessOracleTest, HealthyEngineIsClean) {
  for (uint64_t Seed : {1, 5, 9}) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, quickOracle());
    OracleResult R = Oracle.run(Seed);
    EXPECT_TRUE(R.ok()) << R.Violations.front().str(*CP);
    EXPECT_GT(R.Stats.ConcreteRuns, 0u);
    EXPECT_GT(R.Stats.CommittedChecks, 0u);
  }
}

TEST(SoundnessOracleTest, CatchesSkippedSpecSeed) {
  // Break the engine (no SS seeding) and demand a concrete counterexample
  // within a few programs.
  SoundnessOracleOptions O = quickOracle();
  O.Fault = InjectedFault::SkipSpecSeed;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 10 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}

TEST(SoundnessOracleTest, CatchesSkippedRollback) {
  SoundnessOracleOptions O = quickOracle();
  O.Fault = InjectedFault::SkipRollback;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 25 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}

TEST(VerdictOracleTest, HealthyVerdictsAreClean) {
  // All three oracles together on the healthy stack: no violation, and
  // the verdict-side coverage counters actually move.
  SoundnessOracleOptions O = quickOracle();
  O.Oracles = OracleAll;
  for (uint64_t Seed : {1, 5, 9}) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    EXPECT_TRUE(R.ok()) << R.Violations.front().str(*CP);
    EXPECT_GT(R.Stats.WcetChecks, 0u);
    EXPECT_GT(R.Stats.LeakFamilies, 0u);
    EXPECT_GT(R.Stats.LeakRuns, 0u);
  }
}

TEST(VerdictOracleTest, CatchesUnderchargedMissLatency) {
  SoundnessOracleOptions O = quickOracle();
  O.Oracles = OracleWcet;
  O.Fault = InjectedFault::WcetHitForMiss;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 12 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    if (!R.ok()) {
      EXPECT_EQ(R.Violations.front().Kind,
                ViolationKind::WcetBoundExceeded);
      Caught = true;
    }
  }
  EXPECT_TRUE(Caught);
}

TEST(VerdictOracleTest, CatchesDroppedLoopScaling) {
  SoundnessOracleOptions O = quickOracle();
  O.Oracles = OracleWcet;
  O.Fault = InjectedFault::WcetDropLoopScale;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 40 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    Caught = !Oracle.run(Seed).ok();
  }
  EXPECT_TRUE(Caught);
}

TEST(VerdictOracleTest, CatchesSkippedLeakSite) {
  SoundnessOracleOptions O = quickOracle();
  O.Oracles = OracleLeak;
  O.Fault = InjectedFault::LeakSkipMixed;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 20 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    if (!R.ok()) {
      EXPECT_EQ(R.Violations.front().Kind,
                ViolationKind::LeakFreeSiteVaried);
      EXPECT_FALSE(R.Violations.front().Run.SecretVariants.empty());
      Caught = true;
    }
  }
  EXPECT_TRUE(Caught);
}

TEST(VerdictOracleTest, CatchesDroppedSpecOnlyLabel) {
  SoundnessOracleOptions O = quickOracle();
  O.Oracles = OracleLeak;
  O.Fault = InjectedFault::LeakDropSpecOnly;
  bool Caught = false;
  for (uint64_t Seed = 1; Seed != 40 && !Caught; ++Seed) {
    ProgramGen Gen(Seed);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    ASSERT_TRUE(CP);
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, O);
    OracleResult R = Oracle.run(Seed);
    if (!R.ok()) {
      EXPECT_EQ(R.Violations.front().Kind,
                ViolationKind::SpecOnlyLabelInconsistent);
      Caught = true;
    }
  }
  EXPECT_TRUE(Caught);
}

TEST(VerdictOracleTest, LeakFamilyCounterexampleReplays) {
  // A leak counterexample is a *family* (several secrets, shared
  // publics); checkRun must route it back through the attacker and still
  // fail under the same broken verdict layer.
  FuzzCampaignOptions O;
  O.Seed = 1;
  O.Programs = 8;
  O.Jobs = 2;
  O.Oracle = quickOracle();
  O.Oracle.Oracles = OracleLeak;
  O.Oracle.Fault = InjectedFault::LeakSkipMixed;
  FuzzCampaignResult R = runFuzzCampaign(O);
  ASSERT_FALSE(R.ok());
  const Counterexample &CE = R.Counterexamples.front();
  ASSERT_FALSE(CE.V.Run.SecretVariants.empty());

  DiagnosticEngine Diags;
  auto CP = compileSource(CE.Source, Diags);
  ASSERT_TRUE(CP) << Diags.str();
  SoundnessOracle Oracle(*CP, CE.InputScalars, CE.InputArrays, O.Oracle);
  EXPECT_TRUE(Oracle.checkRun(CE.V.Run).has_value());

  // The .mc rendering carries the oracle tag and the secret variants.
  std::string File = CE.replayFile(O.Oracle);
  EXPECT_NE(File.find("// replay-oracle: leak"), std::string::npos);
  EXPECT_NE(File.find("// replay-secret: v0"), std::string::npos);
  EXPECT_NE(File.find("// replay-fault: leak-skip-mixed"),
            std::string::npos);
}

TEST(VerdictOracleTest, WcetViolationRunSpecReplays) {
  FuzzCampaignOptions O;
  O.Seed = 1;
  O.Programs = 8;
  O.Jobs = 2;
  O.Oracle = quickOracle();
  O.Oracle.Oracles = OracleWcet;
  O.Oracle.Fault = InjectedFault::WcetHitForMiss;
  FuzzCampaignResult R = runFuzzCampaign(O);
  ASSERT_FALSE(R.ok());
  EXPECT_GT(R.Stats.WcetViolations, 0u);
  EXPECT_EQ(R.Stats.LeakViolations, 0u);
  const Counterexample &CE = R.Counterexamples.front();

  DiagnosticEngine Diags;
  auto CP = compileSource(CE.Source, Diags);
  ASSERT_TRUE(CP) << Diags.str();
  SoundnessOracleOptions Single = O.Oracle;
  Single.Strategies = {CE.V.Strategy};
  Single.Boundings = {CE.V.Bounding};
  SoundnessOracle Oracle(*CP, CE.InputScalars, CE.InputArrays, Single);
  EXPECT_TRUE(Oracle.checkRun(CE.V.Run).has_value());
  EXPECT_NE(CE.replayFile(O.Oracle).find("// replay-oracle: wcet"),
            std::string::npos);
}

TEST(FuzzCampaignTest, MinimizedCounterexampleStillFailsAndReplays) {
  FuzzCampaignOptions O;
  O.Seed = 1;
  O.Programs = 6;
  O.Jobs = 2;
  O.Oracle = quickOracle();
  O.Oracle.Fault = InjectedFault::SkipSpecSeed;
  FuzzCampaignResult R = runFuzzCampaign(O);
  ASSERT_FALSE(R.ok());
  const Counterexample &CE = R.Counterexamples.front();
  // Every generated program has >= 4 statements and the injected fault
  // violates on any speculative access, so minimization must strictly
  // shrink here (<= would hold even for a no-op minimizer).
  EXPECT_LT(CE.StmtsAfter, CE.StmtsBefore);
  EXPECT_FALSE(CE.Pretty.empty());

  // The minimized source still compiles and still violates under the same
  // (broken) engine.
  DiagnosticEngine Diags;
  auto CP = compileSource(CE.Source, Diags);
  ASSERT_TRUE(CP) << Diags.str();
  SoundnessOracle Oracle(*CP, CE.InputScalars, CE.InputArrays, O.Oracle);
  EXPECT_TRUE(Oracle.checkRun(CE.V.Run).has_value());

  // The rendered replay file embeds the scenario and the source.
  std::string File = CE.replayFile(O.Oracle);
  EXPECT_NE(File.find("// replay-kind:"), std::string::npos);
  EXPECT_NE(File.find("// replay-windows:"), std::string::npos);
  EXPECT_NE(File.find("int main()"), std::string::npos);
}

TEST(FuzzCampaignTest, SummariesAreJobsInvariant) {
  FuzzCampaignOptions O;
  O.Seed = 3;
  O.Programs = 6;
  O.Oracle = quickOracle();

  O.Jobs = 1;
  FuzzCampaignResult R1 = runFuzzCampaign(O);
  O.Jobs = 4;
  FuzzCampaignResult R4 = runFuzzCampaign(O);

  EXPECT_EQ(R1.Stats.summary(), R4.Stats.summary());
  EXPECT_EQ(R1.Counterexamples.size(), R4.Counterexamples.size());
  EXPECT_TRUE(R1.ok());
}

TEST(StateDigestTest, DigestIsStableAndSensitive) {
  ProgramGen Gen(7);
  GeneratedProgram G = Gen.generate();
  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  ASSERT_TRUE(CP);

  MustHitOptions O;
  O.Cache = CacheConfig::fullyAssociative(8);
  O.DepthMiss = 24;
  O.DepthHit = 6;
  MustHitReport A = runMustHitAnalysis(*CP, O);
  MustHitReport B = runMustHitAnalysis(*CP, O);
  EXPECT_EQ(digestMustHitReport(*CP, A), digestMustHitReport(*CP, B));

  // A different strategy (or a broken engine) moves the digest.
  O.Strategy = MergeStrategy::MergeAtRollback;
  MustHitReport C = runMustHitAnalysis(*CP, O);
  EXPECT_NE(digestMustHitReport(*CP, A), digestMustHitReport(*CP, C));

  O.Strategy = MergeStrategy::JustInTime;
  O.Fault = InjectedFault::SkipSpecSeed;
  MustHitReport D = runMustHitAnalysis(*CP, O);
  EXPECT_NE(digestMustHitReport(*CP, A), digestMustHitReport(*CP, D));
}

TEST(FaultRungTest, EveryFaultHasExactlyOneRung) {
  // The self-test ladder is driven by this table: a fault missing from it
  // would never be shown catchable.
  std::map<InjectedFault, unsigned> Seen;
  for (const FaultRung &R : faultRungs()) {
    ++Seen[R.Fault];
    EXPECT_NE(R.Fault, InjectedFault::None);
    EXPECT_GT(R.Programs, 0u) << faultName(R.Fault);
    unsigned Single[] = {OracleCache, OracleWcet, OracleLeak, OracleLowering,
                         OracleRepair};
    EXPECT_NE(std::find(std::begin(Single), std::end(Single), R.Oracle),
              std::end(Single))
        << faultName(R.Fault) << " must name exactly one oracle";
    EXPECT_EQ(faultRung(R.Fault), &R);
  }
  for (uint8_t I = 1;
       I <= static_cast<uint8_t>(InjectedFault::UnsoundHoist); ++I) {
    auto F = static_cast<InjectedFault>(I);
    EXPECT_EQ(Seen[F], 1u) << faultName(F);
  }
  EXPECT_EQ(faultRung(InjectedFault::None), nullptr);
}

TEST(FaultRungTest, RungOraclesMatchTheFaultLayer) {
  for (const FaultRung &R : faultRungs()) {
    switch (faultLayer(R.Fault)) {
    case FaultLayer::Engine:
      EXPECT_EQ(R.Oracle, OracleCache) << faultName(R.Fault);
      break;
    case FaultLayer::Verdict:
      EXPECT_TRUE(R.Oracle == OracleWcet || R.Oracle == OracleLeak)
          << faultName(R.Fault);
      break;
    case FaultLayer::Lowering:
      EXPECT_EQ(R.Oracle, OracleLowering) << faultName(R.Fault);
      break;
    case FaultLayer::Repair:
      EXPECT_EQ(R.Oracle, OracleRepair) << faultName(R.Fault);
      break;
    case FaultLayer::None:
      ADD_FAILURE() << "rung for a fault without a layer";
    }
  }
}
