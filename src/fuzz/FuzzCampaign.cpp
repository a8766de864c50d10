//===- FuzzCampaign.cpp ---------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzCampaign.h"

#include "driver/BatchRunner.h"
#include "fuzz/LoweringOracle.h"
#include "fuzz/RepairOracle.h"
#include "support/Timer.h"

#include <algorithm>

using namespace specai;

namespace {

constexpr FaultRung Rungs[] = {
    {InjectedFault::SkipSpecSeed, OracleCache, 8, true},
    {InjectedFault::SkipRollback, OracleCache, 24, false},
    {InjectedFault::WcetHitForMiss, OracleWcet, 16, false},
    {InjectedFault::WcetDropLoopScale, OracleWcet, 32, false},
    {InjectedFault::LeakSkipMixed, OracleLeak, 16, false},
    {InjectedFault::LeakDiscountSpeculation, OracleLeak, 32, false},
    {InjectedFault::LeakDropSpecOnly, OracleLeak, 32, false},
    {InjectedFault::DropWiden, OracleLowering, 24, false},
    {InjectedFault::StaleSummary, OracleLowering, 24, false},
    {InjectedFault::SkipBackedge, OracleLowering, 24, false},
    // The repair rungs each corrupt one emitted artifact of the
    // synthesizer, and an independent judge of checkRepair must convict it
    // (re-analysis, cost estimator, or concrete equivalence replay).
    {InjectedFault::FenceDropped, OracleRepair, 12, false},
    {InjectedFault::CostUnderreported, OracleRepair, 12, false},
    {InjectedFault::ClampIgnored, OracleRepair, 12, false},
    {InjectedFault::UnsoundHoist, OracleRepair, 12, false},
};

/// Runs the oracle over \p G's source; returns the first violation.
std::optional<Violation> oracleCheck(const GeneratedProgram &G,
                                     const SoundnessOracleOptions &Opts,
                                     OracleStats &Stats, bool &CompiledOk) {
  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  CompiledOk = CP != nullptr;
  if (!CP) {
    Violation V;
    V.Kind = ViolationKind::CompileError;
    V.Detail = Diags.str();
    return V;
  }
  // The classic differential oracles (cache / wcet / leak) share one
  // SoundnessOracle sweep; skip constructing it entirely when only the
  // lowering diff is selected (it compiles its own program pair).
  if (Opts.Oracles & OracleAll) {
    SoundnessOracle Oracle(*CP, G.InputScalars, G.Arrays, Opts);
    OracleResult R = Oracle.run(G.Seed);
    Stats += R.Stats;
    if (!R.Violations.empty())
      return R.Violations.front();
  }
  if (Opts.Oracles & OracleLowering)
    if (std::optional<Violation> V = checkLoweringDiff(
            G.source(), G.InputScalars, G.Arrays, G.Seed, Opts, Stats))
      return V;
  if (Opts.Oracles & OracleRepair)
    return checkRepair(G.source(), G.InputScalars, G.Arrays, G.Seed, Opts,
                       Stats);
  return std::nullopt;
}

/// Greedy statement-level delta debugging: repeatedly drop any top-level
/// statement chunk whose removal preserves *some* oracle violation. The
/// result still compiles and still fails, typically with 1-3 statements
/// left — small enough to read the abstract states by hand.
GeneratedProgram minimize(const GeneratedProgram &G,
                          const SoundnessOracleOptions &Opts,
                          OracleStats &Stats) {
  GeneratedProgram Cur = G;
  bool Progress = true;
  while (Progress && Cur.Stmts.size() > 1) {
    Progress = false;
    for (size_t I = 0; I != Cur.Stmts.size(); ++I) {
      GeneratedProgram Cand = Cur;
      Cand.Stmts.erase(Cand.Stmts.begin() + static_cast<ptrdiff_t>(I));
      bool CompiledOk = false;
      if (oracleCheck(Cand, Opts, Stats, CompiledOk) && CompiledOk) {
        Cur = std::move(Cand);
        Progress = true;
        break;
      }
    }
  }
  return Cur;
}

} // namespace

std::span<const FaultRung> specai::faultRungs() { return Rungs; }

const FaultRung *specai::faultRung(InjectedFault F) {
  for (const FaultRung &R : Rungs)
    if (R.Fault == F)
      return &R;
  return nullptr;
}

std::optional<Counterexample>
specai::checkGeneratedProgram(const GeneratedProgram &G,
                              const SoundnessOracleOptions &Oracle,
                              bool Minimize, OracleStats &Stats,
                              uint64_t &CompileFailures) {
  bool CompiledOk = false;
  std::optional<Violation> V = oracleCheck(G, Oracle, Stats, CompiledOk);
  if (!CompiledOk)
    ++CompileFailures;
  if (!V)
    return std::nullopt;

  Counterexample CE;
  CE.ProgramSeed = G.Seed;
  CE.Policy = Oracle.Cache.Policy;
  CE.OriginalSource = G.source();
  CE.StmtsBefore = G.Stmts.size();

  GeneratedProgram Min = G;
  if (Minimize && CompiledOk)
    Min = minimize(G, Oracle, Stats);
  CE.StmtsAfter = Min.Stmts.size();
  CE.Source = Min.source();
  CE.InputScalars = Min.InputScalars;
  CE.InputArrays = Min.Arrays;
  CE.V = *V;

  // When minimization shrank the program, re-derive the violation against
  // it so node ids and the recorded scenario match the source we ship; an
  // unshrunk program keeps the original violation (no duplicate sweep).
  if (Min.Stmts.size() != G.Stmts.size()) {
    bool MinCompiledOk = false;
    if (std::optional<Violation> MinV =
            oracleCheck(Min, Oracle, Stats, MinCompiledOk);
        MinV && MinCompiledOk)
      CE.V = *MinV;
  }
  if (CompiledOk) {
    DiagnosticEngine Diags;
    if (auto CP = compileSource(CE.Source, Diags))
      CE.Pretty = CE.V.str(*CP);
  }
  if (CE.Pretty.empty())
    CE.Pretty = violationKindName(CE.V.Kind);
  return CE;
}

std::optional<Violation> specai::replayCounterexample(
    const std::string &Source, const std::vector<std::string> &InputScalars,
    const std::vector<std::pair<std::string, unsigned>> &InputArrays,
    uint64_t Seed, const RunSpec &Run, const SoundnessOracleOptions &Opts) {
  OracleStats Stats;
  if (Opts.Oracles & OracleRepair)
    return checkRepair(Source, InputScalars, InputArrays, Seed, Opts, Stats);
  if (Opts.Oracles & OracleLowering)
    return checkLoweringDiff(Source, InputScalars, InputArrays, Seed, Opts,
                             Stats);
  DiagnosticEngine Diags;
  auto CP = compileSource(Source, Diags);
  if (!CP)
    return std::nullopt;
  SoundnessOracle Oracle(*CP, InputScalars, InputArrays, Opts);
  return Oracle.checkRun(Run);
}

FuzzCampaignResult specai::runFuzzCampaign(const FuzzCampaignOptions &Options) {
  FuzzCampaignResult Result;
  Result.Stats.Programs = Options.Programs;

  struct Slot {
    OracleStats Stats;
    uint64_t CompileFailures = 0;
    std::optional<Counterexample> CE;
  };
  std::vector<Slot> Slots(Options.Programs);

  Timer Total;
  parallelFor(Options.Jobs, Options.Programs, [&](size_t I) {
    ProgramGen Gen(Options.Seed + I, Options.Gen);
    GeneratedProgram G = Gen.generate();
    // One oracle sweep per requested replacement policy, stopping at the
    // first counterexample (each policy has its own abstract lattice but
    // the program and inputs are shared). A compile failure is
    // policy-independent, so it is counted once and ends the loop.
    for (ReplacementPolicy P : Options.Policies) {
      SoundnessOracleOptions Oracle = Options.Oracle;
      Oracle.Cache = Oracle.Cache.withPolicy(P);
      if (!Oracle.Cache.isValid())
        continue;
      Slots[I].CE =
          checkGeneratedProgram(G, Oracle, Options.Minimize, Slots[I].Stats,
                                Slots[I].CompileFailures);
      if (Slots[I].CE || Slots[I].CompileFailures > 0)
        break;
    }
  });
  Result.Stats.Seconds = Total.seconds();

  // Slot-ordered aggregation: identical whatever the job count.
  for (Slot &S : Slots) {
    Result.Stats.Oracle += S.Stats;
    Result.Stats.CompileFailures += S.CompileFailures;
    if (S.CE) {
      ++Result.Stats.ViolationPrograms;
      switch (oracleOfViolation(S.CE->V.Kind)) {
      case OracleCache:
        ++Result.Stats.CacheViolations;
        break;
      case OracleWcet:
        ++Result.Stats.WcetViolations;
        break;
      case OracleLeak:
        ++Result.Stats.LeakViolations;
        break;
      case OracleLowering:
        ++Result.Stats.LoweringViolations;
        break;
      case OracleRepair:
        ++Result.Stats.RepairViolations;
        break;
      default: // Infrastructure kinds count toward the total only.
        break;
      }
      Result.Counterexamples.push_back(std::move(*S.CE));
    }
  }
  return Result;
}

std::string FuzzCampaignStats::summary() const {
  std::string Out;
  Out += "programs:            " + std::to_string(Programs) + "\n";
  Out += "compile failures:    " + std::to_string(CompileFailures) + "\n";
  Out += "analyses:            " + std::to_string(Oracle.Analyses) + "\n";
  Out += "concrete runs:       " + std::to_string(Oracle.ConcreteRuns) + "\n";
  Out += "speculative windows: " + std::to_string(Oracle.SpeculativeWindows) +
         "\n";
  Out += "committed checks:    " + std::to_string(Oracle.CommittedChecks) +
         "\n";
  Out += "speculative checks:  " + std::to_string(Oracle.SpeculativeChecks) +
         "\n";
  Out += "wcet checks:         " + std::to_string(Oracle.WcetChecks) + "\n";
  Out += "leak families:       " + std::to_string(Oracle.LeakFamilies) +
         "\n";
  Out += "leak runs:           " + std::to_string(Oracle.LeakRuns) + "\n";
  Out += "leak site checks:    " + std::to_string(Oracle.LeakSiteChecks) +
         "\n";
  // Lowering-diff lines appear only when that oracle actually ran, so
  // classic campaign summaries (and the pinned golden artifacts diffed
  // against them) stay byte-identical.
  if (Oracle.LoweringDiffs > 0) {
    Out += "lowering diffs:      " + std::to_string(Oracle.LoweringDiffs) +
           "\n";
    Out += "lowering loc checks: " + std::to_string(Oracle.LoweringLocChecks) +
           "\n";
    Out += "lowering wcet checks: " +
           std::to_string(Oracle.LoweringWcetChecks) + "\n";
    Out += "lowering concrete checks: " +
           std::to_string(Oracle.LoweringConcreteChecks) + "\n";
    Out += "lowering precision deltas: must-hit sum-only " +
           std::to_string(Oracle.LoweringSumOnlyMustHits) +
           " / unrolled-only " +
           std::to_string(Oracle.LoweringUnrolledOnlyMustHits) +
           ", wcet tighter " + std::to_string(Oracle.LoweringWcetTighter) +
           " / looser " + std::to_string(Oracle.LoweringWcetLooser) +
           ", leak " + std::to_string(Oracle.LoweringLeakDeltas) + "\n";
  }
  // Repair-oracle lines are gated the same way: classic campaign
  // summaries stay byte-identical unless `--oracle repair` actually ran.
  if (Oracle.RepairChecks > 0) {
    Out += "repair checks:       " + std::to_string(Oracle.RepairChecks) +
           "\n";
    Out += "repair leaky/repaired: " +
           std::to_string(Oracle.RepairLeakyPrograms) + "/" +
           std::to_string(Oracle.RepairRepaired) + "\n";
    Out += "repair mitigations:  " +
           std::to_string(Oracle.RepairMitigations) + " (total cost " +
           std::to_string(Oracle.RepairCostTotal) + ")\n";
    Out += "repair reanalyses:   " +
           std::to_string(Oracle.RepairReanalyses) + "\n";
    Out += "repair replay runs:  " +
           std::to_string(Oracle.RepairReplayRuns) + "\n";
    Out += "repair cost checks:  " +
           std::to_string(Oracle.RepairCostChecks) + "\n";
  }
  Out += "violations:          " + std::to_string(ViolationPrograms) +
         " (cache " + std::to_string(CacheViolations) + ", wcet " +
         std::to_string(WcetViolations) + ", leak " +
         std::to_string(LeakViolations);
  if (Oracle.LoweringDiffs > 0)
    Out += ", lowering " + std::to_string(LoweringViolations);
  if (Oracle.RepairChecks > 0)
    Out += ", repair " + std::to_string(RepairViolations);
  Out += ")\n";
  return Out;
}

std::string
Counterexample::replayFile(const SoundnessOracleOptions &O) const {
  std::string Out;
  Out += "// specai-fuzz counterexample (replay with: specai-fuzz --replay "
         "FILE)\n";
  Out += "// replay-kind: ";
  Out += violationKindName(V.Kind);
  // Which differential oracle produced this counterexample; --replay
  // re-enables exactly that oracle. Infrastructure kinds (stuck runs,
  // divergence) map to no oracle: tag them by the scenario shape — a
  // recorded secret family needs the leak oracle on replay (the oracle
  // only builds its non-speculative baseline, which runLeakFamily
  // requires, under that mask), anything else re-checks under cache.
  unsigned Oracle = oracleOfViolation(V.Kind);
  if (Oracle == 0) {
    if ((O.Oracles & OracleAll) == 0 && (O.Oracles & OracleLowering))
      Oracle = OracleLowering;
    else if ((O.Oracles & OracleAll) == 0 && (O.Oracles & OracleRepair))
      Oracle = OracleRepair;
    else
      Oracle = V.Run.SecretVariants.empty() ? OracleCache : OracleLeak;
  }
  Out += "\n// replay-oracle: ";
  Out += oracleKindName(Oracle);
  Out += "\n// replay-seed: ";
  Out += std::to_string(ProgramSeed);
  Out += "\n// replay-strategy: ";
  Out += mergeStrategyName(V.Strategy);
  Out += "\n// replay-bounding: ";
  Out += boundingModeName(V.Bounding);
  Out += "\n";
  Out += "// replay-cache: lines=" + std::to_string(O.Cache.NumLines) +
         ",assoc=" + std::to_string(O.Cache.Associativity) +
         ",linesize=" + std::to_string(O.Cache.LineSize) + "\n";
  // Pre-policy replay files carry no policy line; emit one only for
  // non-LRU runs so LRU artifacts stay byte-identical.
  if (Policy != ReplacementPolicy::Lru) {
    Out += "// replay-policy: ";
    Out += replacementPolicyName(Policy);
    Out += "\n";
  }
  Out += "// replay-depths: miss=" + std::to_string(O.DepthMiss) +
         ",hit=" + std::to_string(O.DepthHit) + "\n";
  Out += "// replay-shadow: ";
  Out += O.UseShadow ? "on" : "off";
  Out += "\n";
  if (Oracle & OracleLowering) {
    // Lowering diffs re-derive their concrete inputs from replay-seed;
    // this line pins the summarize mode (vs. the implicit inline-unroll
    // reference) so --replay rebuilds the exact diff that produced this
    // counterexample.
    Out += "// replay-lowering: summarize\n";
  }
  if (Oracle & OracleRepair) {
    // The repair oracle likewise re-derives everything from replay-seed;
    // this line pins the synthesize-and-revalidate mode.
    Out += "// replay-repair: synthesize\n";
  }
  if (Oracle == OracleWcet) {
    // The WCET verdict depends on the timing model; pin it so the
    // replayed comparison is the recorded one. (No loop bound here: the
    // oracle always checks against the run's observed loop-header
    // executions.)
    Out += "// replay-wcet: hit=" + std::to_string(O.Wcet.Timing.HitLatency) +
           ",miss=" + std::to_string(O.Wcet.Timing.MissLatency) +
           ",alu=" + std::to_string(O.Wcet.Timing.AluLatency) +
           ",branch=" + std::to_string(O.Wcet.Timing.BranchResolveLatency) +
           "\n";
  }
  if (O.Fault != InjectedFault::None) {
    // The counterexample came from a fault-injected (self-test) run;
    // replay against the same deliberately broken layer.
    Out += "// replay-fault: ";
    Out += faultName(O.Fault);
    Out += "\n";
  }
  if (!V.Run.PredictorName.empty()) {
    Out += "// replay-predictor: " + V.Run.PredictorName + "\n";
  } else {
    Out += "// replay-script: ";
    if (V.Run.Script.empty())
      Out += "-"; // Placeholder so the parser's tokens stay aligned.
    for (bool B : V.Run.Script)
      Out += B ? 'T' : 'N';
    Out += V.Run.Fallback ? " fallback=T" : " fallback=N";
    Out += "\n";
  }
  Out += "// replay-scalars:";
  for (size_t I = 0; I != V.Run.ScalarValues.size(); ++I) {
    Out += " ";
    Out += I < InputScalars.size() ? InputScalars[I] : "?";
    Out += "=";
    Out += std::to_string(V.Run.ScalarValues[I]);
  }
  Out += "\n";
  for (size_t I = 0; I != V.Run.ArrayValues.size(); ++I) {
    Out += "// replay-array: ";
    Out += I < InputArrays.size() ? InputArrays[I].first : "?";
    for (int64_t E : V.Run.ArrayValues[I]) {
      Out += " ";
      Out += std::to_string(E);
    }
    Out += "\n";
  }
  Out += "// replay-windows:";
  for (uint32_t W : V.Run.SiteWindows) {
    Out += " ";
    Out += std::to_string(W);
  }
  Out += "\n";
  // Leak-attacker families: one line per (variant, secret array), in the
  // oracle's secret-array order (InputArrays order filtered to `secret`
  // variables, which is deterministic); --replay rebuilds SecretVariants
  // by grouping lines on the v<index> tag.
  for (size_t Variant = 0; Variant != V.Run.SecretVariants.size();
       ++Variant) {
    for (size_t S = 0; S != V.Run.SecretVariants[Variant].size(); ++S) {
      Out += "// replay-secret: v" + std::to_string(Variant);
      for (int64_t E : V.Run.SecretVariants[Variant][S]) {
        Out += " ";
        Out += std::to_string(E);
      }
      Out += "\n";
    }
  }
  Out += "// replay-detail: " + Pretty + "\n";
  Out += Source;
  return Out;
}
