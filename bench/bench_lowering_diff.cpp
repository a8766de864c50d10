//===- bench_lowering_diff.cpp - Summarize-vs-unrolled lowering diff ------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The headline numbers behind `LoweringMode::Summarize` (DESIGN.md §4),
/// on the workload the inline-and-unroll cliff is about: deep-call /
/// uncounted-loop programs (ProgramGenOptions::Functions). Per replacement
/// policy this bench
///
///  1. runs the differential lowering oracle (fuzz/LoweringOracle.h) over
///     a fixed seed range and reports its precision-delta counters —
///     one-sided must-hit proofs, WCET bound tightenings/loosenings, leak
///     verdict deltas — alongside its soundness checks, which must all
///     pass (any violation fails the bench);
///  2. times `runMustHitAnalysis` on both lowerings of each program
///     (identical analysis options) and reports CFG sizes, worklist
///     iterations, and the wall-clock speedup of summarize over unrolled.
///
/// All counters are deterministic in (seed range, geometry); only the
/// seconds/speedup columns are machine-dependent. `--json FILE` writes the
/// table as one JSON record — a history entry of the checked-in
/// BENCH_lowering.json trajectory.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace specai;

namespace {

constexpr uint64_t SeedBase = 1;
constexpr unsigned Programs = 30;

/// Per-policy aggregates over the seed range.
struct PolicyRow {
  ReplacementPolicy Policy = ReplacementPolicy::Lru;
  OracleStats Stats;
  uint64_t Violations = 0;
  std::string FirstViolation;
  // Structural + timing comparison (one JIT/dynamic analysis per side).
  uint64_t UnrolledNodes = 0;
  uint64_t SummarizeNodes = 0;
  uint64_t UnrolledIterations = 0;
  uint64_t SummarizeIterations = 0;
  double UnrolledSeconds = 0;
  double SummarizeSeconds = 0;

  double speedup() const {
    return SummarizeSeconds > 0 ? UnrolledSeconds / SummarizeSeconds : 0;
  }
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Total CFG nodes of a compiled module: the entry plus (summarize mode)
/// every callee, each analyzed exactly once.
uint64_t moduleNodes(const CompiledProgram &CP) {
  uint64_t N = CP.G.size();
  for (const auto &Callee : CP.Callees)
    N += Callee->G.size();
  return N;
}

PolicyRow runPolicy(ReplacementPolicy Policy) {
  PolicyRow Row;
  Row.Policy = Policy;

  SoundnessOracleOptions Opts;
  Opts.Cache = Opts.Cache.withPolicy(Policy);
  Opts.Oracles = OracleLowering;
  // One representative pair keeps the bench minutes-scale; the 200-program
  // campaigns sweep the full strategy/bounding matrix.
  Opts.Strategies = {MergeStrategy::JustInTime};
  Opts.Boundings = {BoundingMode::Dynamic};

  ProgramGenOptions GO;
  GO.Functions = true;

  for (unsigned I = 0; I != Programs; ++I) {
    uint64_t Seed = SeedBase + I;
    GeneratedProgram Gen = ProgramGen(Seed, GO).generate();
    std::string Source = Gen.source();

    // Leg 1: the differential lowering oracle (soundness + deltas).
    if (auto V = checkLoweringDiff(Source, Gen.InputScalars, Gen.Arrays,
                                   Seed, Opts, Row.Stats)) {
      ++Row.Violations;
      if (Row.FirstViolation.empty())
        Row.FirstViolation = "seed " + std::to_string(Seed) + ": " +
                             violationKindName(V->Kind) + ": " + V->Detail;
      continue;
    }

    // Leg 2: one timed analysis per lowering, same options as the oracle.
    DiagnosticEngine DiagsU, DiagsS;
    LoweringOptions SumLowering;
    SumLowering.Mode = LoweringMode::Summarize;
    auto CPu = compileSource(Source, DiagsU);
    auto CPs = compileSource(Source, DiagsS, SumLowering);
    if (!CPu || !CPs)
      continue; // The oracle would have flagged this as a violation.
    Row.UnrolledNodes += moduleNodes(*CPu);
    Row.SummarizeNodes += moduleNodes(*CPs);

    MustHitOptions MO;
    MO.Cache = Opts.Cache;
    MO.DepthMiss = Opts.DepthMiss;
    MO.DepthHit = Opts.DepthHit;
    MO.Strategy = MergeStrategy::JustInTime;
    MO.Bounding = BoundingMode::Dynamic;

    auto T0 = std::chrono::steady_clock::now();
    MustHitReport Ru = runMustHitAnalysis(*CPu, MO);
    Row.UnrolledSeconds += secondsSince(T0);
    Row.UnrolledIterations += Ru.Iterations;

    T0 = std::chrono::steady_clock::now();
    MustHitReport Rs = runMustHitAnalysis(*CPs, MO);
    Row.SummarizeSeconds += secondsSince(T0);
    Row.SummarizeIterations += Rs.Iterations;
    for (const auto &Callee : Rs.CalleeReports)
      Row.SummarizeIterations += Callee->Iterations;
  }
  return Row;
}

/// All policy rows as one JSON record (one history entry of
/// BENCH_lowering.json).
std::string benchJson(const std::vector<PolicyRow> &Rows) {
  std::vector<std::string> Policies;
  for (const PolicyRow &R : Rows) {
    JsonWriter P;
    P.field("policy", replacementPolicyName(R.Policy));
    P.field("violations", R.Violations);
    P.field("diff_pairs", R.Stats.LoweringDiffs);
    P.field("loc_checks", R.Stats.LoweringLocChecks);
    P.field("concrete_checks", R.Stats.LoweringConcreteChecks);
    P.field("wcet_checks", R.Stats.LoweringWcetChecks);
    P.field("sum_only_must_hits", R.Stats.LoweringSumOnlyMustHits);
    P.field("unrolled_only_must_hits", R.Stats.LoweringUnrolledOnlyMustHits);
    P.field("wcet_tighter", R.Stats.LoweringWcetTighter);
    P.field("wcet_looser", R.Stats.LoweringWcetLooser);
    P.field("leak_deltas", R.Stats.LoweringLeakDeltas);
    P.field("unrolled_nodes", R.UnrolledNodes);
    P.field("summarize_nodes", R.SummarizeNodes);
    P.field("unrolled_iterations", R.UnrolledIterations);
    P.field("summarize_iterations", R.SummarizeIterations);
    P.field("unrolled_seconds", R.UnrolledSeconds);
    P.field("summarize_seconds", R.SummarizeSeconds);
    P.field("analysis_speedup", R.speedup());
    Policies.push_back(P.finish());
  }
  JsonWriter W;
  W.field("suite", "lowering-diff");
  W.field("workload", "deep-call/uncounted-loop (ProgramGen Functions)");
  W.field("seed_base", SeedBase);
  W.field("programs", static_cast<uint64_t>(Programs));
  W.field("cache", "8 lines x 64 B, fully associative");
  W.field("strategy", "jit");
  W.field("bounding", "dynamic");
  W.rawField("policies", jsonArray(Policies));
  return W.finish();
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
      continue;
    }
    std::printf("usage: %s [--json FILE]\n", Argv[0]);
    return 2;
  }

  std::printf("== Differential lowering: summarize vs inline-and-unroll "
              "(%u deep programs/policy) ==\n",
              Programs);

  std::vector<PolicyRow> Rows;
  for (ReplacementPolicy P :
       {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru})
    Rows.push_back(runPolicy(P));

  TableWriter T({"Policy", "Viol", "LocChecks", "SumOnlyMH", "UnrOnlyMH",
                 "WcetTight", "WcetLoose", "UnrNodes", "SumNodes",
                 "UnrTime(s)", "SumTime(s)", "Speedup"});
  for (const PolicyRow &R : Rows)
    T.addRow({replacementPolicyName(R.Policy), std::to_string(R.Violations),
              std::to_string(R.Stats.LoweringLocChecks),
              std::to_string(R.Stats.LoweringSumOnlyMustHits),
              std::to_string(R.Stats.LoweringUnrolledOnlyMustHits),
              std::to_string(R.Stats.LoweringWcetTighter),
              std::to_string(R.Stats.LoweringWcetLooser),
              std::to_string(R.UnrolledNodes),
              std::to_string(R.SummarizeNodes),
              formatDouble(R.UnrolledSeconds, 2),
              formatDouble(R.SummarizeSeconds, 2),
              formatDouble(R.speedup(), 2)});
  std::printf("%s", T.str().c_str());

  if (JsonPath && !writeJsonFile(JsonPath, benchJson(Rows))) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
    return 1;
  }

  for (const PolicyRow &R : Rows)
    if (R.Violations) {
      std::printf("UNSOUND (%s): %s\n", replacementPolicyName(R.Policy),
                  R.FirstViolation.c_str());
      return 1;
    }
  std::printf("sound: 0 lowering violations across %llu diff pairs\n",
              static_cast<unsigned long long>(
                  Rows[0].Stats.LoweringDiffs + Rows[1].Stats.LoweringDiffs +
                  Rows[2].Stats.LoweringDiffs));
  return 0;
}
