//===- LoweringOracle.cpp -------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/LoweringOracle.h"

#include "pipeline/BranchPredictor.h"
#include "pipeline/SpeculativeCpu.h"
#include "support/Rng.h"

#include <algorithm>
#include <map>

using namespace specai;

namespace {

/// Source locations key the diff: the one rolled/summarized instance of an
/// access and its N unrolled/inlined copies share exactly their SourceLoc.
uint64_t locKey(SourceLoc Loc) {
  return (static_cast<uint64_t>(Loc.Line) << 32) | Loc.Col;
}

SourceLoc locOf(uint64_t Key) {
  return SourceLoc(static_cast<uint32_t>(Key >> 32),
                   static_cast<uint32_t>(Key));
}

/// Per-location aggregate over one lowering's reachable access instances.
/// A location counts as must-hit (resp. must-miss) only when *every*
/// instance at it is: a line with two accesses, one mixed, proves nothing.
struct LocAgg {
  bool AllMustHit = true;
  bool AllMustMiss = true;
  NodeId Rep = InvalidNode; // first instance, for violation rendering
};

void scanAccesses(const FlatCfg &G, const MustHitReport &R,
                  std::map<uint64_t, LocAgg> &Out) {
  for (NodeId N = 0; N != G.size(); ++N) {
    const Instruction &I = G.inst(N);
    if (!I.accessesMemory() || !I.Loc.isValid() || !R.Reachable[N])
      continue;
    LocAgg &A = Out[locKey(I.Loc)];
    if (A.Rep == InvalidNode)
      A.Rep = N;
    if (!R.MustHit[N])
      A.AllMustHit = false;
    if (N >= R.Classes.size() ||
        R.Classes[N] != CacheDomain::AccessClass::MustMiss)
      A.AllMustMiss = false;
  }
}

/// Proven-leak-free locations of one side-channel report: advertised
/// leak-free locations minus any location that also hosts a leak site.
std::vector<uint64_t> leakFreeLocs(const SideChannelReport &L) {
  std::vector<uint64_t> Free;
  for (SourceLoc Loc : L.LeakFreeLocs)
    if (Loc.isValid())
      Free.push_back(locKey(Loc));
  std::sort(Free.begin(), Free.end());
  Free.erase(std::unique(Free.begin(), Free.end()), Free.end());
  for (const LeakSite &S : L.Leaks)
    if (S.Loc.isValid()) {
      auto It =
          std::lower_bound(Free.begin(), Free.end(), locKey(S.Loc));
      if (It != Free.end() && *It == locKey(S.Loc))
        Free.erase(It);
    }
  return Free;
}

std::vector<uint64_t> leakLocs(const SideChannelReport &L) {
  std::vector<uint64_t> Out;
  for (const LeakSite &S : L.Leaks)
    if (S.Loc.isValid())
      Out.push_back(locKey(S.Loc));
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

/// One (strategy, bounding) analysis pair, kept whole through the concrete
/// phase: the summarize must-hit claims drive the concrete containment
/// check, and both reports price per-run WCET bounds (memoized per
/// observed loop bound, as in SoundnessOracle::wcetBoundFor).
struct PairData {
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  BoundingMode Bounding = BoundingMode::Fixed;
  MustHitReport Ru, Rs;
  std::vector<uint64_t> SumMustHitLocs; // sorted
  std::vector<std::pair<uint32_t, uint64_t>> WcetMemoU, WcetMemoS;
};

uint64_t wcetBoundFor(const CompiledProgram &CP, const MustHitReport &R,
                      std::vector<std::pair<uint32_t, uint64_t>> &Memo,
                      uint32_t LoopBound, const WcetOptions &Base) {
  for (const auto &[Bound, Cycles] : Memo)
    if (Bound == LoopBound)
      return Cycles;
  WcetOptions WO = Base;
  WO.LoopIterationBound = LoopBound;
  uint64_t Cycles = estimateWcet(CP, R, WO).WorstCaseCycles;
  Memo.push_back({LoopBound, Cycles});
  return Cycles;
}

} // namespace

std::optional<Violation> specai::checkLoweringDiff(
    const std::string &Source, const std::vector<std::string> &InputScalars,
    const std::vector<std::pair<std::string, unsigned>> &InputArrays,
    uint64_t Seed, const SoundnessOracleOptions &Opts, OracleStats &Stats) {
  DiagnosticEngine DiagsU, DiagsS;
  auto CPu = compileSource(Source, DiagsU);
  LoweringOptions SumLowering;
  SumLowering.Mode = LoweringMode::Summarize;
  auto CPs = compileSource(Source, DiagsS, SumLowering);
  if (!CPu || !CPs) {
    // One lowering accepting a program the other rejects is itself a
    // lowering bug; surface it instead of silently skipping the program.
    Violation V;
    V.Kind = ViolationKind::CompileError;
    V.Detail = std::string("lowering diff: ") +
               (!CPu ? "inline-unroll" : "summarize") +
               " lowering failed to compile: " +
               (!CPu ? DiagsU : DiagsS).str();
    return V;
  }

  auto Make = [](ViolationKind Kind, MergeStrategy S, BoundingMode B,
                 NodeId Node, std::string Detail) {
    Violation V;
    V.Kind = Kind;
    V.Strategy = S;
    V.Bounding = B;
    V.Node = Node;
    V.Detail = std::move(Detail);
    return V;
  };

  std::vector<PairData> Pairs;
  for (MergeStrategy S : Opts.Strategies) {
    for (BoundingMode B : Opts.Boundings) {
      MustHitOptions OU;
      OU.Cache = Opts.Cache;
      OU.Speculative = true;
      OU.UseShadow = Opts.UseShadow;
      OU.Strategy = S;
      OU.DepthMiss = Opts.DepthMiss;
      OU.DepthHit = Opts.DepthHit;
      OU.Bounding = B;
      MustHitOptions OS = OU;
      // The injected fault breaks the summarize side only; the unrolled
      // side stays the healthy reference the diff measures against.
      OS.Fault = faultIn(FaultLayer::Lowering, Opts.Fault);

      PairData P;
      P.Strategy = S;
      P.Bounding = B;
      P.Ru = runMustHitAnalysis(*CPu, OU);
      P.Rs = runMustHitAnalysis(*CPs, OS);
      Stats.Analyses += 2;
      ++Stats.LoweringDiffs;
      if (!P.Ru.Converged || !P.Rs.Converged)
        return Make(ViolationKind::AnalysisDiverged, S, B, InvalidNode,
                    std::string("lowering diff: the ") +
                        (!P.Ru.Converged ? "unrolled" : "summarize") +
                        " fixpoint did not converge");

      // (1) Classification conflict. Per location, both lowerings verdict
      // the same committed accesses; all-instances must-hit on one side
      // against all-instances must-miss on the other is a contradiction.
      // One-sided must-hits are precision deltas, counted for the bench
      // harness: summaries legitimately out-prove inline flows through
      // rolled loops in speculative windows (idempotent call pressure vs
      // per-lap MUST re-aging), and unrolling legitimately out-proves
      // rolled loops on constant-folded counted indices.
      std::map<uint64_t, LocAgg> SumLocs, UnrLocs;
      scanAccesses(CPs->G, P.Rs, SumLocs);
      for (size_t C = 0;
           C != CPs->Callees.size() && C != P.Rs.CalleeReports.size(); ++C)
        scanAccesses(CPs->Callees[C]->G, *P.Rs.CalleeReports[C], SumLocs);
      scanAccesses(CPu->G, P.Ru, UnrLocs);

      for (const auto &[Key, SA] : SumLocs) {
        if (SA.AllMustHit)
          P.SumMustHitLocs.push_back(Key);
        auto It = UnrLocs.find(Key);
        if (It == UnrLocs.end())
          continue; // e.g. a zero-trip counted-loop body, deleted by
                    // unrolling: no shared instance to compare.
        const LocAgg &UA = It->second;
        ++Stats.LoweringLocChecks;
        if (SA.AllMustHit && UA.AllMustMiss)
          return Make(ViolationKind::LoweringMustHitConflict, S, B, UA.Rep,
                      "summarize proves the access at line " +
                          locOf(Key).str() +
                          " must-hit, but inline-unroll proves every "
                          "instance must-miss");
        if (SA.AllMustMiss && UA.AllMustHit)
          return Make(ViolationKind::LoweringMustHitConflict, S, B, UA.Rep,
                      "inline-unroll proves the access at line " +
                          locOf(Key).str() +
                          " must-hit, but summarize proves every "
                          "instance must-miss");
        if (SA.AllMustHit && !UA.AllMustHit)
          ++Stats.LoweringSumOnlyMustHits;
        else if (UA.AllMustHit && !SA.AllMustHit)
          ++Stats.LoweringUnrolledOnlyMustHits;
      }

      // (2) Abstract WCET bounds, recorded as precision deltas only. The
      // real soundness claim — each bound dominates every concrete run —
      // is checked cycle-for-cycle in the concrete phase below.
      WcetOptions WO = Opts.Wcet;
      uint64_t Wu = estimateWcet(*CPu, P.Ru, WO).WorstCaseCycles;
      uint64_t Ws = estimateWcet(*CPs, P.Rs, WO).WorstCaseCycles;
      ++Stats.LoweringWcetChecks;
      if (Ws < Wu)
        ++Stats.LoweringWcetTighter;
      else if (Ws > Wu)
        ++Stats.LoweringWcetLooser;

      // (3) Leak-verdict deltas (counted, not flagged): must-hit precision
      // flows straight into which accesses are Mixed and hence leakable,
      // so the leak sets inherit the two-sided precision asymmetry.
      SideChannelReport LeakU = detectLeaks(*CPu, P.Ru);
      SideChannelReport LeakS = detectLeaks(*CPs, P.Rs);
      std::vector<uint64_t> FreeU = leakFreeLocs(LeakU);
      std::vector<uint64_t> FreeS = leakFreeLocs(LeakS);
      std::vector<uint64_t> LocsU = leakLocs(LeakU);
      std::vector<uint64_t> LocsS = leakLocs(LeakS);
      Stats.LoweringLocChecks += FreeU.size() + FreeS.size();
      for (uint64_t Key : FreeS)
        if (std::binary_search(LocsU.begin(), LocsU.end(), Key))
          ++Stats.LoweringLeakDeltas;
      for (uint64_t Key : FreeU)
        if (std::binary_search(LocsS.begin(), LocsS.end(), Key))
          ++Stats.LoweringLeakDeltas;

      std::sort(P.SumMustHitLocs.begin(), P.SumMustHitLocs.end());
      Pairs.push_back(std::move(P));
    }
  }

  // Concrete ground truth over the unrolled program (the executable
  // semantics both lowerings share): (a) committed runs must hit wherever
  // the summarize analysis claims must-hit, and (b) each run's committed
  // cycles must respect both lowerings' estimateWcet bounds at the run's
  // observed loop bound. Inputs derive from the seed alone, so `--replay`
  // reproduces them from the recorded `// replay-seed` header.
  Rng R(Seed * 0x9E3779B97F4A7C15ULL + 0x5EEDF00DULL);
  for (unsigned Round = 0; Round != Opts.InputRounds; ++Round) {
    MemoryModel MM(*CPu->P, Opts.Cache);
    StaticPredictor Pred(false);
    SpeculativeCpu Cpu(*CPu->P, MM, Pred, Opts.Wcet.Timing,
                       /*EnableSpeculation=*/false);
    std::vector<int64_t> ScalarValues;
    std::vector<std::vector<int64_t>> ArrayValues;
    for (size_t I = 0; I != InputScalars.size(); ++I) {
      ScalarValues.push_back(R.nextRange(-30, 30));
      Cpu.machine().setMemory(CPu->P->findVar(InputScalars[I]), 0,
                              ScalarValues.back());
    }
    for (const auto &[Name, Elems] : InputArrays) {
      std::vector<int64_t> Values;
      Values.reserve(Elems);
      for (unsigned E = 0; E != Elems; ++E)
        Values.push_back(R.nextRange(0, 127));
      Cpu.machine().setMemoryAll(CPu->P->findVar(Name), Values);
      ArrayValues.push_back(std::move(Values));
    }

    std::vector<uint64_t> ExecCounts(CPu->G.size(), 0);
    Cpu.setCommitHook(
        [&](const Machine::StepResult &SR, uint64_t, uint64_t) {
          ++ExecCounts[CPu->G.nodeAt(SR.Block, SR.InstIndex)];
        });

    std::optional<Violation> Found;
    Cpu.setAccessHook([&](const AccessEvent &E, bool Speculative,
                          const CacheSim &Cache) {
      if (Found || Speculative)
        return;
      NodeId N = CPu->G.nodeAt(E.Block, E.InstIndex);
      SourceLoc Loc = CPu->G.inst(N).Loc;
      if (!Loc.isValid())
        return;
      uint64_t Key = locKey(Loc);
      const PairData *Claimed = nullptr;
      for (const PairData &P : Pairs)
        if (std::binary_search(P.SumMustHitLocs.begin(),
                               P.SumMustHitLocs.end(), Key)) {
          Claimed = &P;
          break;
        }
      if (!Claimed)
        return;
      ++Stats.LoweringConcreteChecks;
      if (!Cache.contains(MM.blockOf(E.Var, E.Element))) {
        Violation V = Make(ViolationKind::LoweringConcreteMustHitMissed,
                           Claimed->Strategy, Claimed->Bounding, N,
                           "summarize claims the access at line " +
                               locOf(Key).str() +
                               " must-hit, but a committed unrolled run "
                               "missed there");
        V.Run.ScalarValues = ScalarValues;
        V.Run.ArrayValues = ArrayValues;
        Found = std::move(V);
      }
    });

    CpuRunStats RunStats = Cpu.run(Opts.MaxSteps);
    ++Stats.ConcreteRuns;
    if (Found)
      return Found;
    if (!RunStats.Completed) {
      Violation V;
      V.Kind = ViolationKind::RunStuck;
      V.Detail = "lowering-diff concrete run exceeded " +
                 std::to_string(Opts.MaxSteps) + " committed instructions";
      V.Run.ScalarValues = std::move(ScalarValues);
      V.Run.ArrayValues = std::move(ArrayValues);
      return V;
    }

    // (b) Per-run WCET undercut, against both lowerings. The bound uses
    // the run's own worst header-execution count, exactly like the
    // single-lowering WCET oracle: estimateWcet is monotone in
    // LoopIterationBound, so this is the tightest verdict the options
    // cover. The unrolled program's headers also bound the summarize
    // side's: unrolling deletes counted loops (summarize prices those by
    // their exact recorded trips, not LoopIterationBound), and each
    // remaining uncounted loop's per-invocation executions — what the
    // per-call summary bound needs — show up as one inlined copy's header
    // count here.
    uint64_t MaxHeader = 0;
    for (const Loop &L : CPu->LI.loops())
      MaxHeader = std::max(MaxHeader, ExecCounts[L.Header]);
    uint32_t LoopBound =
        static_cast<uint32_t>(std::max<uint64_t>(1, MaxHeader));
    for (PairData &P : Pairs) {
      struct Side {
        const char *Name;
        const CompiledProgram *CP;
        const MustHitReport *R;
        std::vector<std::pair<uint32_t, uint64_t>> *Memo;
      } Sides[2] = {{"inline-unroll", &*CPu, &P.Ru, &P.WcetMemoU},
                    {"summarize", &*CPs, &P.Rs, &P.WcetMemoS}};
      for (const Side &Sd : Sides) {
        ++Stats.LoweringWcetChecks;
        uint64_t Bound =
            wcetBoundFor(*Sd.CP, *Sd.R, *Sd.Memo, LoopBound, Opts.Wcet);
        if (RunStats.Cycles > Bound) {
          Violation V = Make(
              ViolationKind::LoweringWcetUndercut, P.Strategy, P.Bounding,
              InvalidNode,
              "committed " + std::to_string(RunStats.Cycles) +
                  " cycles but the " + Sd.Name +
                  " estimateWcet bounds the program at " +
                  std::to_string(Bound) + " (loop iteration bound " +
                  std::to_string(LoopBound) + ")");
          V.Run.ScalarValues = std::move(ScalarValues);
          V.Run.ArrayValues = std::move(ArrayValues);
          return V;
        }
      }
    }
  }
  return std::nullopt;
}
