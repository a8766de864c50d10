//===- batch_runner_test.cpp - Unit tests for the batch driver ------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The batch driver's contract: rows come back in variant order, agree
/// with what a serial runMustHitAnalysis produces, and are identical
/// whatever the worker-thread count.
///
//===----------------------------------------------------------------------===//

#include "VerdictMatchers.h"
#include "driver/BatchRunner.h"
#include "fuzz/ProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

using namespace specai;

namespace {

/// The Figure 2 scenario in miniature (same program as the quickstart
/// example): preloaded table, memory-conditioned branch, secret lookup.
const char *testProgram() {
  return R"MC(
char table[256];
char left[64];
char right[64];
int mode;
secret reg char key;

int main() {
  reg int t;
  for (reg int i = 0; i < 256; i += 64)
    t = table[i];
  if (mode == 0) {
    t = t + left[0];
  } else {
    t = t + right[0];
  }
  t = t + table[key & 255];
  return t;
}
)MC";
}

std::unique_ptr<CompiledProgram> compileTestProgram() {
  DiagnosticEngine Diags;
  auto CP = compileSource(testProgram(), Diags);
  EXPECT_NE(CP, nullptr) << Diags.str();
  return CP;
}

MustHitOptions baseOptions() {
  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(6);
  return Opts;
}

TEST(BatchRunnerTest, MergeSweepRowsComeBackInVariantOrder) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  BatchRunner Runner(2);
  BatchReport R = Runner.run(*CP, BatchRunner::mergeStrategySweep(baseOptions()));
  ASSERT_EQ(R.Rows.size(), 4u);
  EXPECT_EQ(R.Rows[0].Label, "no-merge");
  EXPECT_EQ(R.Rows[1].Label, "merge-at-exit");
  EXPECT_EQ(R.Rows[2].Label, "just-in-time");
  EXPECT_EQ(R.Rows[3].Label, "merge-at-rollback");
  for (const BatchRow &Row : R.Rows) {
    EXPECT_TRUE(Row.Converged);
    EXPECT_GT(Row.AccessNodes, 0u);
  }
  EXPECT_EQ(R.findRow("just-in-time"), &R.Rows[2]);
  EXPECT_EQ(R.findRow("no-such-strategy"), nullptr);
}

TEST(BatchRunnerTest, RowsAgreeWithSerialAnalysis) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  std::vector<BatchVariant> Variants =
      BatchRunner::mergeStrategySweep(baseOptions());
  BatchReport R = BatchRunner(4).run(*CP, Variants);
  ASSERT_EQ(R.Rows.size(), Variants.size());
  for (size_t I = 0; I != Variants.size(); ++I) {
    MustHitReport Serial = runMustHitAnalysis(*CP, Variants[I].Options);
    SideChannelReport Leaks = detectLeaks(*CP, Serial);
    EXPECT_EQ(R.Rows[I].MissCount, Serial.MissCount) << Variants[I].Label;
    EXPECT_EQ(R.Rows[I].SpMissCount, Serial.SpMissCount) << Variants[I].Label;
    EXPECT_EQ(R.Rows[I].Iterations, Serial.Iterations) << Variants[I].Label;
    EXPECT_EQ(R.Rows[I].AccessNodes, Serial.AccessNodes) << Variants[I].Label;
    EXPECT_EQ(R.Rows[I].LeakSites.size(), Leaks.Leaks.size())
        << Variants[I].Label;
    EXPECT_EQ(R.Rows[I].ProvenLeakFree, Leaks.ProvenLeakFree)
        << Variants[I].Label;
  }
}

TEST(BatchRunnerTest, ResultsIndependentOfThreadCount) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  MustHitOptions Base = baseOptions();
  std::vector<BatchVariant> Variants = BatchRunner::crossProductSweep(
      Base,
      {MergeStrategy::NoMerge, MergeStrategy::JustInTime,
       MergeStrategy::MergeAtRollback},
      {CacheConfig::fullyAssociative(6), CacheConfig::fullyAssociative(64)},
      {BoundingMode::Fixed, BoundingMode::Dynamic});
  ASSERT_EQ(Variants.size(), 12u);

  BatchReport Serial = BatchRunner(1).run(*CP, Variants);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    BatchReport Parallel = BatchRunner(Jobs).run(*CP, Variants);
    EXPECT_TRUE(sameRows(Serial, Parallel)) << "jobs=" << Jobs;
  }
}

TEST(BatchRunnerTest, RepeatedRunsAreDeterministic) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  std::vector<BatchVariant> Variants =
      BatchRunner::boundingModeSweep(baseOptions());
  BatchReport First = BatchRunner(4).run(*CP, Variants);
  BatchReport Second = BatchRunner(4).run(*CP, Variants);
  EXPECT_TRUE(sameRows(First, Second));
}

TEST(BatchRunnerTest, WorklistOrderMovesPopsButNotTheVerdict) {
  // Without unknown-index accesses both pop orders reach the same
  // fixpoint (WorklistOrderTest), so they must give equal verdicts and
  // equal digests even though they pop different numbers of nodes.
  ProgramGenOptions GO;
  GO.WildIndexing = false;
  GO.SecretData = false;
  unsigned PopsDiffer = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    DiagnosticEngine Diags;
    auto CP = compileSource(ProgramGen(Seed, GO).generate().source(), Diags);
    ASSERT_TRUE(CP) << "seed " << Seed << "\n" << Diags.str();
    BatchVariant Fifo;
    Fifo.Options.Cache = CacheConfig::fullyAssociative(8);
    Fifo.Options.DepthMiss = 24;
    Fifo.Options.DepthHit = 6;
    Fifo.Options.Order = WorklistOrder::Fifo;
    BatchVariant Rpo = Fifo;
    Rpo.Options.Order = WorklistOrder::Rpo;
    BatchReport R = BatchRunner(2).run(*CP, {Fifo, Rpo});
    ASSERT_EQ(R.Rows.size(), 2u);
    const BatchRow &F = R.Rows[0], &P = R.Rows[1];
    EXPECT_TRUE(static_cast<const Verdict &>(F) == P) << "seed " << Seed;
    EXPECT_EQ(F.digest(), P.digest()) << "seed " << Seed;
    PopsDiffer += F.Iterations != P.Iterations;
  }
  EXPECT_GT(PopsDiffer, 0u) << "no seed popped differently: the check above "
                               "compared identical runs";
}

TEST(BatchRunnerTest, TableHasOneRowPerVariant) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  std::vector<BatchVariant> Variants =
      BatchRunner::mergeStrategySweep(baseOptions());
  BatchReport R = BatchRunner(2).run(*CP, Variants);
  EXPECT_EQ(R.toTable().rowCount(), Variants.size());
}

TEST(BatchRunnerTest, EmptyVariantListYieldsEmptyReport) {
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  BatchReport R = BatchRunner(4).run(*CP, {});
  EXPECT_TRUE(R.Rows.empty());
  EXPECT_EQ(R.toTable().rowCount(), 0u);
}

TEST(BatchRunnerTest, RunSourceReportsCompileErrors) {
  DiagnosticEngine Diags;
  BatchReport R = BatchRunner(2).runSource(
      "int main() { return undeclared; }",
      BatchRunner::mergeStrategySweep(baseOptions()), Diags);
  EXPECT_TRUE(R.Rows.empty());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(BatchRunnerTest, JobCountDefaultsAndClamps) {
  EXPECT_GE(BatchRunner(0).jobCount(), 1u);
  EXPECT_EQ(BatchRunner(3).jobCount(), 3u);

  // More workers than variants: the pool must not over-spawn, and the
  // report says how many it used.
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  std::vector<BatchVariant> Sweep = BatchRunner::mergeStrategySweep(baseOptions());
  std::vector<BatchVariant> One(Sweep.begin(), Sweep.begin() + 1);
  BatchReport R = BatchRunner(16).run(*CP, One);
  EXPECT_EQ(R.JobsUsed, 1u);
}

TEST(BatchRunnerTest, SpeculativeSweepFindsTheFigure2Leak) {
  // The quickstart narrative: non-speculative analysis certifies the
  // secret lookup, every speculative strategy refuses to.
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);

  BatchVariant NonSpec;
  NonSpec.Options = baseOptions();
  NonSpec.Options.Speculative = false;
  NonSpec.Label = "non-speculative";

  std::vector<BatchVariant> Variants{NonSpec};
  for (BatchVariant &V : BatchRunner::mergeStrategySweep(baseOptions()))
    Variants.push_back(std::move(V));

  BatchReport R = BatchRunner(4).run(*CP, Variants);
  ASSERT_EQ(R.Rows.size(), 5u);
  EXPECT_TRUE(R.Rows[0].LeakSites.empty());
  for (size_t I = 1; I != R.Rows.size(); ++I)
    EXPECT_FALSE(R.Rows[I].LeakSites.empty()) << R.Rows[I].Label;
}

TEST(BatchRunnerTest, RequireRowThrowsOnMissingLabelInsteadOfExiting) {
  // Regression: requireRow used to printf + std::exit(1) from library
  // code, which would kill the whole specaid daemon over one malformed
  // sweep. It must throw so hosts can report and keep serving.
  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  BatchReport R = BatchRunner(2).run(
      *CP, BatchRunner::mergeStrategySweep(baseOptions()));
  EXPECT_NO_THROW(R.requireRow(R.Rows.front().Label));
  EXPECT_THROW(R.requireRow("no-such-variant"), std::out_of_range);
}

TEST(ParallelForTest, WorkerExceptionIsRethrownOnTheCaller) {
  // Regression: an exception escaping Fn used to unwind a std::thread and
  // std::terminate the process. Now the first exception is captured, the
  // pool quiesces, and the caller sees it.
  EXPECT_THROW(
      parallelFor(4, 64,
                  [](size_t I) {
                    if (I == 7)
                      throw std::runtime_error("boom");
                  }),
      std::runtime_error);

  // Inline path (Jobs <= 1) has the same contract.
  EXPECT_THROW(parallelFor(1, 4,
                           [](size_t) { throw std::logic_error("inline"); }),
               std::logic_error);

  // Remaining workers stop claiming new indices after the failure: on a
  // big range, far fewer than Count indices run (the claimed-before-abort
  // tail is bounded by the worker count, not the range).
  std::atomic<size_t> Ran{0};
  try {
    parallelFor(2, 1 << 20, [&](size_t) {
      Ran.fetch_add(1);
      throw std::runtime_error("first");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error &) {
  }
  EXPECT_LT(Ran.load(), size_t(1) << 20);
}

TEST(ParallelForTest, PoolStillProducesEveryIndexWithoutExceptions) {
  std::vector<std::atomic<int>> Seen(257);
  parallelFor(3, Seen.size(), [&](size_t I) { Seen[I].fetch_add(1); });
  for (size_t I = 0; I != Seen.size(); ++I)
    EXPECT_EQ(Seen[I].load(), 1) << I;
}

TEST(ParseJobsFlagTest, ReportsErrorsInsteadOfExiting) {
  // Regression: parseJobsFlag used to printf (to stdout, even) and
  // std::exit(1). It must hand the error back to the caller.
  std::string Error;

  const char *Good[] = {"bench", "--jobs", "3"};
  std::optional<unsigned> Jobs =
      parseJobsFlag(3, const_cast<char **>(Good), Error);
  ASSERT_TRUE(Jobs.has_value()) << Error;
  EXPECT_EQ(*Jobs, 3u);

  const char *Absent[] = {"bench"};
  Jobs = parseJobsFlag(1, const_cast<char **>(Absent), Error);
  ASSERT_TRUE(Jobs.has_value());
  EXPECT_EQ(*Jobs, 0u) << "absent flag means all cores";

  const char *Valueless[] = {"bench", "--jobs"};
  EXPECT_FALSE(parseJobsFlag(2, const_cast<char **>(Valueless), Error));
  EXPECT_FALSE(Error.empty());

  const char *NonNumeric[] = {"bench", "--jobs", "many"};
  EXPECT_FALSE(parseJobsFlag(3, const_cast<char **>(NonNumeric), Error));
  EXPECT_NE(Error.find("many"), std::string::npos);

  const char *Unknown[] = {"bench", "--frobnicate"};
  EXPECT_FALSE(parseJobsFlag(2, const_cast<char **>(Unknown), Error));
  EXPECT_NE(Error.find("--frobnicate"), std::string::npos);
}

TEST(RunRequestTest, MatchesABatchSweepOfTheSameVariant) {
  // The daemon's entry point must be bit-identical to the established
  // sweep machinery on the same options.
  RunRequest Req;
  Req.Source = testProgram();
  Req.Options = baseOptions();
  RunOutcome Out = runRequest(Req);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_NE(Out.ProgramDigest, 0u);

  auto CP = compileTestProgram();
  ASSERT_NE(CP, nullptr);
  BatchVariant V;
  V.Options = Req.Options;
  V.Label = Out.Row.Label;
  BatchReport R = BatchRunner(1).run(*CP, {V});
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_TRUE(sameRow(Out.Row, R.Rows[0]));
}

TEST(RunRequestTest, CompileErrorsComeBackAsOutcomesNotDiagnostics) {
  RunRequest Req;
  Req.Source = "int main() { return undeclared; }";
  RunOutcome Out = runRequest(Req);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("undeclared"), std::string::npos) << Out.Error;
  EXPECT_EQ(Out.ProgramDigest, 0u);
}

TEST(RunRequestTest, ProgramDigestTracksTheLoweredIrNotTheText) {
  RunRequest A;
  A.Source = testProgram();
  A.Options = baseOptions();
  RunOutcome OutA = runRequest(A);
  ASSERT_TRUE(OutA.Ok);

  // Comment-only changes lower to identical IR: same digest.
  RunRequest B = A;
  B.Source = std::string("// cosmetic\n") + testProgram();
  RunOutcome OutB = runRequest(B);
  ASSERT_TRUE(OutB.Ok);
  EXPECT_EQ(OutA.ProgramDigest, OutB.ProgramDigest);

  // A different lowering mode changes the IR: different digest.
  RunRequest C = A;
  C.Lowering.Mode = LoweringMode::Summarize;
  RunOutcome OutC = runRequest(C);
  ASSERT_TRUE(OutC.Ok);
  EXPECT_NE(OutA.ProgramDigest, OutC.ProgramDigest);
}

} // namespace
