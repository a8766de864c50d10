//===- RepairOracle.cpp ---------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/RepairOracle.h"

#include "cfg/LoopInfo.h"
#include "pipeline/BranchPredictor.h"
#include "pipeline/SpeculativeCpu.h"
#include "support/Rng.h"

#include <algorithm>

using namespace specai;

namespace {

/// The one analysis configuration the repair oracle uses throughout:
/// first requested strategy, Fixed bounding. Fixed is deliberate — under
/// it every unclamped site's assumed depth is exactly DepthMiss, so the
/// concrete replays can pin each site's window to min(DepthMiss, clamp)
/// and stay inside the envelope the re-analysis proved leak-free.
MustHitOptions repairAnalysisOptions(const SoundnessOracleOptions &Opts) {
  MustHitOptions O;
  O.Cache = Opts.Cache;
  O.Speculative = true;
  O.UseShadow = Opts.UseShadow;
  O.Strategy = Opts.Strategies.empty() ? MergeStrategy::JustInTime
                                       : Opts.Strategies.front();
  O.DepthMiss = Opts.DepthMiss;
  O.DepthHit = Opts.DepthHit;
  O.Bounding = BoundingMode::Fixed;
  return O;
}

/// Per-site concrete windows of the patched program: the clamped depth
/// where a clamp was emitted, DepthMiss elsewhere.
std::vector<uint32_t> patchedWindows(const CompiledProgram &CP,
                                     const std::vector<uint32_t> &Clamps,
                                     uint32_t DepthMiss) {
  std::vector<uint32_t> W(CP.Plan.siteCount(), DepthMiss);
  for (size_t Site = 0; Site != W.size() && Site != Clamps.size(); ++Site)
    W[Site] = std::min(W[Site], Clamps[Site]);
  return W;
}

/// Pins windows exactly like SoundnessOracle::pinWindowsAndInputs:
/// non-plan branches resolve before speculating (window 0), plan sites
/// get their per-site window and stop at their reconvergence point.
void pinWindows(SpeculativeCpu &Cpu, const CompiledProgram &CP,
                const std::vector<uint32_t> &SiteWindows,
                uint32_t DepthMiss) {
  Cpu.setWindows({DepthMiss, DepthMiss});
  for (NodeId N = 0; N != CP.G.size(); ++N)
    if (CP.G.inst(N).Op == Opcode::Br)
      Cpu.setWindowOverride(CP.G.blockOf(N), CP.G.instIndexOf(N), 0);
  for (size_t Site = 0; Site != CP.Plan.siteCount(); ++Site) {
    const SpecSite &S = CP.Plan.sites()[Site];
    uint32_t W = Site < SiteWindows.size() ? SiteWindows[Site] : 0;
    Cpu.setWindowOverride(CP.G.blockOf(S.Branch), CP.G.instIndexOf(S.Branch),
                          W);
    if (S.Ipdom != InvalidNode)
      Cpu.setSpeculationStop(CP.G.blockOf(S.Branch),
                             CP.G.instIndexOf(S.Branch),
                             CP.G.blockOf(S.Ipdom));
  }
}

/// Loads one input into \p M. A hoisted input scalar lives in its
/// register global in the patched program (the memory copy is dead), so
/// the register set takes precedence; everything else goes to memory.
void loadScalar(Machine &M, const Program &P, const std::string &Name,
                int64_t Value) {
  if (M.setRegGlobal(Name, Value))
    return;
  VarId V = P.findVar(Name);
  if (V != InvalidVar)
    M.setMemory(V, 0, Value);
}

void loadInputs(Machine &M, const Program &P,
                const std::vector<std::string> &InputScalars,
                const std::vector<std::pair<std::string, unsigned>> &Arrays,
                const std::vector<int64_t> &ScalarValues,
                const std::vector<std::vector<int64_t>> &ArrayValues) {
  for (size_t I = 0; I != InputScalars.size() && I != ScalarValues.size();
       ++I)
    loadScalar(M, P, InputScalars[I], ScalarValues[I]);
  for (size_t I = 0; I != Arrays.size() && I != ArrayValues.size(); ++I) {
    VarId V = P.findVar(Arrays[I].first);
    if (V != InvalidVar)
      M.setMemoryAll(V, ArrayValues[I]);
  }
}

/// The register a hoist moved \p Var into, found by name in the patched
/// program's register globals (the hoist appends one per hoisted var).
RegId hoistRegOf(const Program &Patched, const std::string &Name) {
  for (auto It = Patched.RegGlobals.rbegin();
       It != Patched.RegGlobals.rend(); ++It)
    if (It->Name == Name)
      return It->Reg;
  return InvalidReg;
}

} // namespace

std::optional<Violation> specai::checkRepair(
    const std::string &Source, const std::vector<std::string> &InputScalars,
    const std::vector<std::pair<std::string, unsigned>> &InputArrays,
    uint64_t Seed, const SoundnessOracleOptions &Opts, OracleStats &Stats) {
  DiagnosticEngine Diags;
  auto CP = compileSource(Source, Diags);
  if (!CP) {
    Violation V;
    V.Kind = ViolationKind::CompileError;
    V.Detail = "repair oracle: program failed to compile: " + Diags.str();
    return V;
  }

  MustHitOptions OU = repairAnalysisOptions(Opts);
  auto Make = [&](ViolationKind Kind, NodeId Node, std::string Detail) {
    Violation V;
    V.Kind = Kind;
    V.Strategy = OU.Strategy;
    V.Bounding = OU.Bounding;
    V.Node = Node;
    V.Detail = std::move(Detail);
    return V;
  };

  RepairOptions RO;
  RO.Analysis = OU;
  RO.Wcet = Opts.Wcet;
  RO.Analysis.Fault = faultIn(FaultLayer::Repair, Opts.Fault);
  RepairResult Res = synthesizeRepairs(*CP, RO);
  ++Stats.RepairChecks;
  Stats.RepairReanalyses += Res.Reanalyses;
  Stats.Analyses += Res.Reanalyses;
  if (Res.BudgetExceeded)
    return std::nullopt; // A tripped budget voids the verdict, never fails.
  if (!Res.Error.empty())
    return Make(ViolationKind::RepairIncomplete, InvalidNode,
                "synthesis failed: " + Res.Error);
  if (Res.LeaksBefore == 0)
    return std::nullopt; // Nothing to mitigate; nothing to validate.
  ++Stats.RepairLeakyPrograms;

  if (!Res.Repaired) {
    // Architectural leaks (an uncacheable secret-indexed array, say) can
    // genuinely exceed the menu. Speculation-only leaks cannot: fencing
    // every wrong-path entry removes all speculative pollution, so a
    // failed synthesis there means the search or the menu is broken.
    if (Res.SpecOnlyLeaksBefore == Res.LeaksBefore)
      return Make(ViolationKind::RepairIncomplete, InvalidNode,
                  "all " + std::to_string(Res.LeaksBefore) +
                      " leaks are speculation-only (fences provably remove "
                      "them) but the synthesizer left " +
                      std::to_string(Res.LeaksAfter) + " unmitigated");
    return std::nullopt;
  }
  if (Res.LeaksAfter != 0)
    return Make(ViolationKind::RepairIncomplete, InvalidNode,
                "the synthesizer claims the repair proven but reports " +
                    std::to_string(Res.LeaksAfter) + " remaining leaks");
  ++Stats.RepairRepaired;
  Stats.RepairMitigations += Res.Applied.size();
  Stats.RepairCostTotal +=
      Res.WcetAfter > Res.WcetBefore ? Res.WcetAfter - Res.WcetBefore : 0;

  // (1) Independent re-analysis of the *emitted* artifacts. This is the
  // judge the FenceDropped and ClampIgnored faults cannot fool: it sees
  // only the patched program and the clamps that actually left the
  // synthesizer, not what the search believed it chose.
  auto CP2 = compileProgram(Res.Patched);
  if (!CP2)
    return Make(ViolationKind::RepairIncomplete, InvalidNode,
                "the emitted patched program failed to recompile");
  MustHitOptions O2 = OU;
  O2.SiteDepthClamp = Res.SiteClamps;
  MustHitReport R2 = runMustHitAnalysis(*CP2, O2);
  ++Stats.Analyses;
  if (!R2.Converged)
    return Make(ViolationKind::AnalysisDiverged, InvalidNode,
                "re-analysis of the patched program did not converge");
  if (R2.BudgetExceeded)
    return std::nullopt;
  SideChannelReport L2 = detectLeaks(*CP2, R2);
  if (!L2.Leaks.empty()) {
    const LeakSite &L = L2.Leaks.front();
    std::string Var = L.Var < CP2->P->Vars.size() ? CP2->P->Vars[L.Var].Name
                                                  : "<unknown>";
    return Make(ViolationKind::RepairLeakRemains, InvalidNode,
                "re-analysis of the emitted program still reports " +
                    std::to_string(L2.Leaks.size()) +
                    " leaks (first: secret-indexed access to '" + Var +
                    "' at patched node " + std::to_string(L.Node) + ")");
  }

  // (2) Cost claim: the reported WcetAfter must dominate an independent
  // estimate of the emitted artifacts (CostUnderreported echoes
  // WcetBefore, which any fence or preload on the worst path exceeds).
  ++Stats.RepairCostChecks;
  uint64_t W2 = estimateWcet(*CP2, R2, Opts.Wcet).WorstCaseCycles;
  if (W2 > Res.WcetAfter)
    return Make(ViolationKind::RepairCostClaim, InvalidNode,
                "the synthesizer reports a repaired WCET of " +
                    std::to_string(Res.WcetAfter) +
                    " cycles but the emitted program's independent bound "
                    "is " +
                    std::to_string(W2));

  const std::vector<uint32_t> SiteWindows =
      patchedWindows(*CP2, Res.SiteClamps, Opts.DepthMiss);
  Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0x1BADB002ULL);

  // (3) Concrete revalidation, seed-derived inputs. Per round: a plain
  // architectural-equivalence pair (the repair must not change what the
  // program computes) and a cycle-charged speculative run of the patched
  // program whose committed cycles the reported bound must cover.
  for (unsigned Round = 0; Round != Opts.InputRounds; ++Round) {
    std::vector<int64_t> ScalarValues;
    std::vector<std::vector<int64_t>> ArrayValues;
    for (size_t I = 0; I != InputScalars.size(); ++I)
      ScalarValues.push_back(R.nextRange(-30, 30));
    for (const auto &[Name, Elems] : InputArrays) {
      std::vector<int64_t> Values;
      Values.reserve(Elems);
      for (unsigned E = 0; E != Elems; ++E)
        Values.push_back(R.nextRange(0, 127));
      ArrayValues.push_back(std::move(Values));
    }
    auto Stuck = [&](const char *What) {
      Violation V = Make(ViolationKind::RunStuck, InvalidNode,
                         std::string(What) + " exceeded " +
                             std::to_string(Opts.MaxSteps) +
                             " committed instructions");
      V.Run.ScalarValues = ScalarValues;
      V.Run.ArrayValues = ArrayValues;
      V.Run.SiteWindows = SiteWindows;
      return V;
    };

    Machine MOrig(*CP->P), MPatch(*CP2->P);
    loadInputs(MOrig, *CP->P, InputScalars, InputArrays, ScalarValues,
               ArrayValues);
    loadInputs(MPatch, *CP2->P, InputScalars, InputArrays, ScalarValues,
               ArrayValues);
    MOrig.run(Opts.MaxSteps);
    MPatch.run(Opts.MaxSteps);
    Stats.RepairReplayRuns += 2;
    if (!MOrig.halted() || !MPatch.halted())
      return Stuck("repair equivalence run");

    auto Diverged = [&](std::string Detail) {
      Violation V = Make(ViolationKind::RepairSemanticsChanged, InvalidNode,
                         std::move(Detail));
      V.Run.ScalarValues = ScalarValues;
      V.Run.ArrayValues = ArrayValues;
      V.Run.SiteWindows = SiteWindows;
      return V;
    };
    if (MOrig.returnValue() != MPatch.returnValue())
      return Diverged("the patched program returns " +
                      std::to_string(MPatch.returnValue()) +
                      " where the original returns " +
                      std::to_string(MOrig.returnValue()));
    std::vector<bool> Hoisted(CP->P->Vars.size(), false);
    for (const Mitigation &M : Res.Applied) {
      if (M.Kind != MitigationKind::Hoist || M.Var >= Hoisted.size() ||
          Hoisted[M.Var])
        continue;
      Hoisted[M.Var] = true;
      // A hoisted scalar's final value lives in its register global; the
      // original keeps it in memory. (An unsoundly hoisted *array* has no
      // single register meaning — its divergence surfaces through every
      // value computed from it, checked above and below.)
      if (CP->P->Vars[M.Var].NumElements != 1)
        continue;
      RegId Reg = hoistRegOf(*CP2->P, CP->P->Vars[M.Var].Name);
      if (Reg == InvalidReg)
        return Diverged("hoisted scalar '" + CP->P->Vars[M.Var].Name +
                        "' has no register global in the patched program");
      if (MOrig.readMemory(M.Var, 0) != MPatch.readReg(Reg))
        return Diverged(
            "hoisted scalar '" + CP->P->Vars[M.Var].Name + "' ends at " +
            std::to_string(MPatch.readReg(Reg)) +
            " in the patched register but " +
            std::to_string(MOrig.readMemory(M.Var, 0)) +
            " in the original memory");
    }
    for (VarId V = 0; V != CP->P->Vars.size(); ++V) {
      if (Hoisted[V])
        continue;
      for (uint64_t E = 0; E != CP->P->Vars[V].NumElements; ++E)
        if (MOrig.readMemory(V, E) != MPatch.readMemory(V, E))
          return Diverged("memory of '" + CP->P->Vars[V].Name + "[" +
                          std::to_string(E) + "]' ends at " +
                          std::to_string(MPatch.readMemory(V, E)) +
                          " in the patched program but " +
                          std::to_string(MOrig.readMemory(V, E)) +
                          " in the original");
    }

    // Cycle-charged speculative run of the patched program under the
    // clamped windows: the reported WcetAfter must cover its committed
    // cycles whenever the run's observed loop count is within the bound's
    // iteration assumption (estimateWcet is monotone in the bound).
    MemoryModel MM2(*CP2->P, Opts.Cache);
    StaticPredictor Pred(false);
    SpeculativeCpu Cpu(*CP2->P, MM2, Pred, Opts.Wcet.Timing,
                       /*EnableSpeculation=*/true);
    pinWindows(Cpu, *CP2, SiteWindows, Opts.DepthMiss);
    loadInputs(Cpu.machine(), *CP2->P, InputScalars, InputArrays,
               ScalarValues, ArrayValues);
    std::vector<uint64_t> ExecCounts(CP2->G.size(), 0);
    Cpu.setCommitHook([&](const Machine::StepResult &SR, uint64_t,
                          uint64_t) {
      ++ExecCounts[CP2->G.nodeAt(SR.Block, SR.InstIndex)];
    });
    CpuRunStats RunStats = Cpu.run(Opts.MaxSteps);
    ++Stats.RepairReplayRuns;
    if (!RunStats.Completed)
      return Stuck("repair cost replay");
    uint64_t MaxHeader = 0;
    for (const Loop &L : CP2->LI.loops())
      MaxHeader = std::max(MaxHeader, ExecCounts[L.Header]);
    if (MaxHeader <= Opts.Wcet.LoopIterationBound) {
      ++Stats.RepairCostChecks;
      if (RunStats.Cycles > Res.WcetAfter) {
        Violation V = Make(
            ViolationKind::RepairCostExceeded, InvalidNode,
            "a concrete run of the patched program committed " +
                std::to_string(RunStats.Cycles) +
                " cycles, above the reported repaired bound of " +
                std::to_string(Res.WcetAfter) + " (observed loop bound " +
                std::to_string(MaxHeader) + ")");
        V.Run.ScalarValues = ScalarValues;
        V.Run.ArrayValues = ArrayValues;
        V.Run.SiteWindows = SiteWindows;
        return V;
      }
    }
  }

  // (4) Secret-variant attacker replay on the patched program: with the
  // repair proven, every secret-indexed access is leak-free, so pooled
  // hit/miss outcomes must be uniform across secrets (same publics, same
  // script, same clamped windows).
  std::vector<size_t> SecretArrays;
  for (size_t I = 0; I != InputArrays.size(); ++I) {
    VarId V = CP2->P->findVar(InputArrays[I].first);
    if (V != InvalidVar && CP2->P->Vars[V].IsSecret)
      SecretArrays.push_back(I);
  }
  if (SecretArrays.empty())
    return std::nullopt;
  enum : uint8_t { SawHit = 1, SawMiss = 2 };
  for (unsigned Round = 0; Round != Opts.LeakRounds; ++Round) {
    RunSpec Spec;
    for (size_t I = 0; I != InputScalars.size(); ++I)
      Spec.ScalarValues.push_back(R.nextRange(-30, 30));
    for (const auto &[Name, Elems] : InputArrays) {
      std::vector<int64_t> Values;
      Values.reserve(Elems);
      for (unsigned E = 0; E != Elems; ++E)
        Values.push_back(R.nextRange(0, 127));
      Spec.ArrayValues.push_back(std::move(Values));
    }
    Spec.SiteWindows = SiteWindows;
    if (Round > 0) {
      for (unsigned B = 0; B != Opts.SampledScriptLength; ++B)
        Spec.Script.push_back(R.chance(1, 2));
      Spec.Fallback = R.chance(1, 2);
    }
    for (unsigned V = 0; V != Opts.LeakSecrets; ++V) {
      std::vector<std::vector<int64_t>> Variant;
      for (size_t S : SecretArrays) {
        std::vector<int64_t> Values;
        Values.reserve(InputArrays[S].second);
        for (unsigned E = 0; E != InputArrays[S].second; ++E)
          Values.push_back(R.nextRange(0, 255));
        Variant.push_back(std::move(Values));
      }
      Spec.SecretVariants.push_back(std::move(Variant));
    }

    std::vector<uint8_t> Obs(CP2->G.size(), 0);
    for (const std::vector<std::vector<int64_t>> &Variant :
         Spec.SecretVariants) {
      MemoryModel MM2(*CP2->P, Opts.Cache);
      ScriptedPredictor Pred(Spec.Script, Spec.Fallback);
      SpeculativeCpu Cpu(*CP2->P, MM2, Pred, Opts.Wcet.Timing,
                         /*EnableSpeculation=*/true);
      pinWindows(Cpu, *CP2, SiteWindows, Opts.DepthMiss);
      loadInputs(Cpu.machine(), *CP2->P, InputScalars, InputArrays,
                 Spec.ScalarValues, Spec.ArrayValues);
      for (size_t S = 0; S != SecretArrays.size() && S != Variant.size();
           ++S)
        Cpu.machine().setMemoryAll(
            CP2->P->findVar(InputArrays[SecretArrays[S]].first),
            Variant[S]);
      CpuRunStats RunStats = Cpu.run(Opts.MaxSteps);
      ++Stats.RepairReplayRuns;
      if (!RunStats.Completed) {
        Violation V = Make(ViolationKind::RunStuck, InvalidNode,
                           "repair attacker replay exceeded " +
                               std::to_string(Opts.MaxSteps) +
                               " committed instructions");
        V.Run = Spec;
        return V;
      }
      for (const SpeculativeCpu::CommittedAccess &A : Cpu.committedTrace())
        Obs[CP2->G.nodeAt(A.Access.Block, A.Access.InstIndex)] |=
            A.Hit ? SawHit : SawMiss;
    }
    for (NodeId Site : L2.LeakFreeSites)
      if (Obs[Site] == (SawHit | SawMiss)) {
        VarId Var = CP2->G.inst(Site).Var;
        Violation V = Make(
            ViolationKind::RepairReplayLeak, InvalidNode,
            "the repaired program is proven leak-free at the "
            "secret-indexed access to '" +
                (Var < CP2->P->Vars.size() ? CP2->P->Vars[Var].Name
                                           : std::string("<unknown>")) +
                "' (patched node " + std::to_string(Site) +
                ") but the attacker saw both hits and misses across " +
                std::to_string(Spec.SecretVariants.size()) +
                " secret variants with identical public inputs and script");
        V.Run = Spec;
        return V;
      }
  }
  return std::nullopt;
}
