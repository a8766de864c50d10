//===- SoundnessOracle.cpp ------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/SoundnessOracle.h"

#include "pipeline/BranchPredictor.h"
#include "pipeline/SpeculativeCpu.h"
#include "support/Rng.h"

#include <algorithm>
#include <deque>

using namespace specai;

const char *specai::oracleKindName(unsigned Kind) {
  switch (Kind) {
  case OracleCache:
    return "cache";
  case OracleWcet:
    return "wcet";
  case OracleLeak:
    return "leak";
  case OracleLowering:
    return "lowering";
  case OracleRepair:
    return "repair";
  case OracleAll:
    return "all";
  }
  return "?";
}

bool specai::parseOracleKind(const std::string &Name, unsigned &MaskOut) {
  for (unsigned Kind : {OracleCache, OracleWcet, OracleLeak, OracleLowering,
                        OracleRepair, OracleAll}) {
    if (Name == oracleKindName(Kind)) {
      MaskOut = Kind;
      return true;
    }
  }
  return false;
}

unsigned specai::oracleOfViolation(ViolationKind K) {
  switch (K) {
  case ViolationKind::WcetBoundExceeded:
    return OracleWcet;
  case ViolationKind::LeakFreeSiteVaried:
  case ViolationKind::NonSpecLeakFreeSiteVaried:
  case ViolationKind::SpecOnlyLabelInconsistent:
    return OracleLeak;
  case ViolationKind::LoweringMustHitConflict:
  case ViolationKind::LoweringWcetUndercut:
  case ViolationKind::LoweringConcreteMustHitMissed:
    return OracleLowering;
  case ViolationKind::RepairIncomplete:
  case ViolationKind::RepairLeakRemains:
  case ViolationKind::RepairSemanticsChanged:
  case ViolationKind::RepairReplayLeak:
  case ViolationKind::RepairCostClaim:
  case ViolationKind::RepairCostExceeded:
    return OracleRepair;
  case ViolationKind::CompileError:
  case ViolationKind::AnalysisDiverged:
  case ViolationKind::RunStuck:
    // Infrastructure failures, not an oracle's soundness claim: counting
    // them as "cache" would report cache violations in campaigns where
    // the cache oracle never ran.
    return 0;
  default:
    return OracleCache;
  }
}

const char *specai::violationKindName(ViolationKind K) {
  switch (K) {
  case ViolationKind::CompileError:
    return "compile-error";
  case ViolationKind::AnalysisDiverged:
    return "analysis-diverged";
  case ViolationKind::RunStuck:
    return "run-stuck";
  case ViolationKind::UnreachableReached:
    return "unreachable-reached";
  case ViolationKind::MustStateNotContained:
    return "must-state-not-contained";
  case ViolationKind::MayStateUnderApprox:
    return "may-state-under-approx";
  case ViolationKind::MustHitMissed:
    return "must-hit-missed";
  case ViolationKind::MustMissHit:
    return "must-miss-hit";
  case ViolationKind::SpecStateMissing:
    return "spec-state-missing";
  case ViolationKind::SpecStateNotContained:
    return "spec-state-not-contained";
  case ViolationKind::SpecMissUnflagged:
    return "spec-miss-unflagged";
  case ViolationKind::ArchResultDiverged:
    return "arch-result-diverged";
  case ViolationKind::ArchTraceDiverged:
    return "arch-trace-diverged";
  case ViolationKind::WcetBoundExceeded:
    return "wcet-bound-exceeded";
  case ViolationKind::LeakFreeSiteVaried:
    return "leak-free-site-varied";
  case ViolationKind::NonSpecLeakFreeSiteVaried:
    return "nonspec-leak-free-site-varied";
  case ViolationKind::SpecOnlyLabelInconsistent:
    return "spec-only-label-inconsistent";
  case ViolationKind::LoweringMustHitConflict:
    return "lowering-must-hit-conflict";
  case ViolationKind::LoweringWcetUndercut:
    return "lowering-wcet-undercut";
  case ViolationKind::LoweringConcreteMustHitMissed:
    return "lowering-concrete-must-hit-missed";
  case ViolationKind::RepairIncomplete:
    return "repair-incomplete";
  case ViolationKind::RepairLeakRemains:
    return "repair-leak-remains";
  case ViolationKind::RepairSemanticsChanged:
    return "repair-semantics-changed";
  case ViolationKind::RepairReplayLeak:
    return "repair-replay-leak";
  case ViolationKind::RepairCostClaim:
    return "repair-cost-claim";
  case ViolationKind::RepairCostExceeded:
    return "repair-cost-exceeded";
  }
  return "?";
}

std::string Violation::str(const CompiledProgram &CP) const {
  std::string Out = violationKindName(Kind);
  if (Node != InvalidNode) {
    Out += " at node " + std::to_string(Node) + " (" +
           CP.P->Blocks[CP.G.blockOf(Node)].Name + "[" +
           std::to_string(CP.G.instIndexOf(Node)) + "])";
  }
  Out += " under ";
  Out += mergeStrategyName(Strategy);
  Out += Bounding == BoundingMode::Fixed ? "/fixed" : "/dynamic";
  if (!Detail.empty())
    Out += ": " + Detail;
  if (!Run.PredictorName.empty()) {
    Out += " [predictor " + Run.PredictorName + "]";
  } else {
    Out += " [script ";
    for (bool B : Run.Script)
      Out += B ? 'T' : 'N';
    Out += Run.Fallback ? "+T]" : "+N]";
  }
  return Out;
}

/// Everything the per-access validator needs from one (strategy, bounding)
/// analysis run, precomputed once per program.
struct SoundnessOracle::ReportCtx {
  MergeStrategy Strategy;
  BoundingMode Bounding;
  MustHitReport R;
  /// Per node: Normal ⊔ PostRollback, the paper's observable state.
  std::vector<CacheAbsState> Obs;
  /// Depth bound the analysis assumed per site (b_miss, or b_hit under
  /// dynamic bounding when the condition loads are must-hits).
  std::vector<uint32_t> SiteDepth;
  /// Leak verdicts of this report (leak oracle only), SpeculationOnly
  /// already annotated against the non-speculative baseline.
  SideChannelReport Leak;
  /// (loop bound -> WorstCaseCycles) memo for the WCET oracle.
  std::vector<std::pair<uint32_t, uint64_t>> WcetMemo;
};

/// Committed access trace of a non-speculative reference run.
struct SoundnessOracle::Reference {
  std::vector<int64_t> ScalarValues;
  std::vector<std::vector<int64_t>> ArrayValues;
  int64_t RetVal = 0;
  bool Completed = false;
  std::vector<AccessEvent> Trace;
};

std::vector<uint32_t>
SoundnessOracle::siteDepths(const CompiledProgram &CP, const MustHitReport &R,
                            const MustHitOptions &O) {
  std::vector<uint32_t> Depths(CP.Plan.siteCount(), O.DepthMiss);
  // Mirrors the engine's SiteDepth: the final fixpoint's classification
  // decides the bound; the envelope joined the maximum over iterations, so
  // this is always <= what the analysis actually covered.
  if (O.Bounding == BoundingMode::Dynamic) {
    for (size_t Site = 0; Site != CP.Plan.siteCount(); ++Site) {
      const SpecSite &S = CP.Plan.sites()[Site];
      bool AllHit = !S.CondLoads.empty();
      for (NodeId Load : S.CondLoads)
        if (!R.MustHit[Load]) {
          AllHit = false;
          break;
        }
      if (AllHit)
        Depths[Site] = O.DepthHit;
    }
  }
  for (size_t Site = 0;
       Site != Depths.size() && Site != O.SiteDepthClamp.size(); ++Site)
    Depths[Site] = std::min(Depths[Site], O.SiteDepthClamp[Site]);
  return Depths;
}

SoundnessOracle::SoundnessOracle(
    const CompiledProgram &CP, std::vector<std::string> InputScalars,
    std::vector<std::pair<std::string, unsigned>> InputArrays,
    SoundnessOracleOptions Options)
    : CP(CP), InputScalars(std::move(InputScalars)),
      InputArrays(std::move(InputArrays)), Options(std::move(Options)) {
  for (MergeStrategy S : this->Options.Strategies) {
    for (BoundingMode B : this->Options.Boundings) {
      MustHitOptions O;
      O.Cache = this->Options.Cache;
      O.Speculative = true;
      O.UseShadow = this->Options.UseShadow;
      O.Strategy = S;
      O.DepthMiss = this->Options.DepthMiss;
      O.DepthHit = this->Options.DepthHit;
      O.Bounding = B;
      O.Fault = faultIn(FaultLayer::Engine, this->Options.Fault);

      ReportCtx Ctx;
      Ctx.Strategy = S;
      Ctx.Bounding = B;
      Ctx.R = runMustHitAnalysis(CP, O);
      Ctx.SiteDepth = siteDepths(CP, Ctx.R, O);
      Ctx.Obs.reserve(CP.G.size());
      for (NodeId N = 0; N != CP.G.size(); ++N) {
        CacheAbsState Obs = Ctx.R.States.Normal[N];
        Obs.joinInto(Ctx.R.States.PostRollback[N], this->Options.UseShadow);
        Ctx.Obs.push_back(std::move(Obs));
      }
      Reports.push_back(std::move(Ctx));
    }
  }

  MinSiteDepths.assign(CP.Plan.siteCount(), this->Options.DepthMiss);
  for (const ReportCtx &RC : Reports)
    for (size_t Site = 0; Site != MinSiteDepths.size(); ++Site)
      MinSiteDepths[Site] = std::min(MinSiteDepths[Site], RC.SiteDepth[Site]);
  for (const ReportCtx &RC : Reports)
    if (std::find(FullWindowMaps.begin(), FullWindowMaps.end(),
                  RC.SiteDepth) == FullWindowMaps.end())
      FullWindowMaps.push_back(RC.SiteDepth);

  for (size_t I = 0; I != this->InputArrays.size(); ++I) {
    VarId V = CP.P->findVar(this->InputArrays[I].first);
    if (V != InvalidVar && CP.P->Vars[V].IsSecret)
      SecretArrays.push_back(I);
  }

  if (this->Options.Oracles & OracleLeak) {
    // The non-speculative baseline: strategy/bounding do not apply, so a
    // single analysis serves every report's SpeculationOnly diff and the
    // verdict checked against non-speculative attacker runs.
    MustHitOptions NO;
    NO.Cache = this->Options.Cache;
    NO.Speculative = false;
    NO.UseShadow = this->Options.UseShadow;
    NonSpecReport =
        std::make_unique<MustHitReport>(runMustHitAnalysis(CP, NO));
    SideChannelOptions SCO{
        faultIn(FaultLayer::Verdict, this->Options.Fault)};
    NonSpecLeak = detectLeaks(CP, *NonSpecReport, SCO);
    for (ReportCtx &RC : Reports) {
      RC.Leak = detectLeaks(CP, RC.R, SCO);
      annotateSpeculationOnly(RC.Leak, NonSpecLeak, SCO);
    }
  }
}

SoundnessOracle::~SoundnessOracle() = default;

const SoundnessOracle::Reference &
SoundnessOracle::referenceFor(const RunSpec &Spec) {
  for (const Reference &Ref : References)
    if (Ref.ScalarValues == Spec.ScalarValues &&
        Ref.ArrayValues == Spec.ArrayValues)
      return Ref;

  Reference Ref;
  Ref.ScalarValues = Spec.ScalarValues;
  Ref.ArrayValues = Spec.ArrayValues;
  MemoryModel MM(*CP.P, Options.Cache);
  StaticPredictor P(false);
  SpeculativeCpu Cpu(*CP.P, MM, P, Options.Wcet.Timing,
                     /*EnableSpeculation=*/false);
  for (size_t I = 0; I != InputScalars.size(); ++I)
    Cpu.machine().setMemory(CP.P->findVar(InputScalars[I]), 0,
                            Spec.ScalarValues[I]);
  for (size_t I = 0; I != InputArrays.size(); ++I)
    Cpu.machine().setMemoryAll(CP.P->findVar(InputArrays[I].first),
                               Spec.ArrayValues[I]);
  CpuRunStats Stats = Cpu.run(Options.MaxSteps);
  Ref.Completed = Stats.Completed;
  Ref.RetVal = Stats.ReturnValue;
  for (const SpeculativeCpu::CommittedAccess &A : Cpu.committedTrace())
    Ref.Trace.push_back(A.Access);
  References.push_back(std::move(Ref));
  return References.back();
}

namespace {

bool sameAccess(const AccessEvent &A, const AccessEvent &B) {
  return A.Var == B.Var && A.Element == B.Element && A.IsLoad == B.IsLoad &&
         A.Block == B.Block && A.InstIndex == B.InstIndex;
}

} // namespace

std::vector<SoundnessOracle::ReportCtx *>
SoundnessOracle::compatibleReports(const RunSpec &Spec) {
  std::vector<ReportCtx *> Compat;
  for (ReportCtx &RC : Reports) {
    bool Ok = true;
    for (size_t Site = 0; Site != Spec.SiteWindows.size(); ++Site)
      if (Spec.SiteWindows[Site] > RC.SiteDepth[Site]) {
        Ok = false;
        break;
      }
    if (Ok)
      Compat.push_back(&RC);
  }
  return Compat;
}

void SoundnessOracle::pinWindowsAndInputs(SpeculativeCpu &Cpu,
                                          const RunSpec &Spec) {
  Cpu.setWindows({Options.DepthMiss, Options.DepthMiss});
  for (NodeId N = 0; N != CP.G.size(); ++N)
    if (CP.G.inst(N).Op == Opcode::Br)
      Cpu.setWindowOverride(CP.G.blockOf(N), CP.G.instIndexOf(N), 0);
  for (size_t Site = 0; Site != CP.Plan.siteCount(); ++Site) {
    const SpecSite &S = CP.Plan.sites()[Site];
    uint32_t W = Site < Spec.SiteWindows.size() ? Spec.SiteWindows[Site] : 0;
    Cpu.setWindowOverride(CP.G.blockOf(S.Branch), CP.G.instIndexOf(S.Branch),
                          W);
    if (S.Ipdom != InvalidNode)
      Cpu.setSpeculationStop(CP.G.blockOf(S.Branch),
                             CP.G.instIndexOf(S.Branch),
                             CP.G.blockOf(S.Ipdom));
  }
  for (size_t I = 0; I != InputScalars.size(); ++I)
    Cpu.machine().setMemory(CP.P->findVar(InputScalars[I]), 0,
                            Spec.ScalarValues[I]);
  for (size_t I = 0; I != InputArrays.size(); ++I)
    Cpu.machine().setMemoryAll(CP.P->findVar(InputArrays[I].first),
                               Spec.ArrayValues[I]);
}

std::optional<Violation>
SoundnessOracle::runScenario(const RunSpec &Spec, OracleStats &Stats,
                             size_t *DecisionsUsed) {
  if (DecisionsUsed)
    *DecisionsUsed = 0;
  std::vector<ReportCtx *> Compat = compatibleReports(Spec);
  if (Compat.empty())
    return std::nullopt;

  MemoryModel MM(*CP.P, Options.Cache);
  const uint32_t Assoc = Options.Cache.Associativity;
  const uint32_t NumSets = Options.Cache.numSets();

  std::unique_ptr<BranchPredictor> Zoo;
  std::unique_ptr<ScriptedPredictor> Scripted;
  BranchPredictor *Predictor = nullptr;
  if (!Spec.PredictorName.empty()) {
    for (auto &P : makeStandardPredictors())
      if (P->name() == Spec.PredictorName)
        Zoo = std::move(P);
    if (!Zoo)
      return std::nullopt; // Unknown predictor name; nothing to check.
    Predictor = Zoo.get();
  } else {
    Scripted = std::make_unique<ScriptedPredictor>(Spec.Script, Spec.Fallback);
    Predictor = Scripted.get();
  }

  SpeculativeCpu Cpu(*CP.P, MM, *Predictor, Options.Wcet.Timing,
                     /*EnableSpeculation=*/true);
  pinWindowsAndInputs(Cpu, Spec);

  std::optional<Violation> Found;
  auto Report = [&](ViolationKind Kind, const ReportCtx *RC, NodeId Node,
                    std::string Detail) {
    if (Found)
      return;
    Violation V;
    V.Kind = Kind;
    if (RC) {
      V.Strategy = RC->Strategy;
      V.Bounding = RC->Bounding;
    }
    V.Node = Node;
    V.Detail = std::move(Detail);
    V.Run = Spec;
    Found = std::move(V);
  };

  // The cache-containment oracle rides the pre-access hook; the WCET
  // oracle rides the commit hook (per-node execution counts establish
  // which loop bound covers this run). Each attaches only when selected,
  // so `--oracle wcet` pays no containment-walk cost and vice versa.
  const bool CheckCache = (Options.Oracles & OracleCache) != 0;
  const bool CheckWcet = (Options.Oracles & OracleWcet) != 0;
  if (CheckWcet) {
    ExecCounts.assign(CP.G.size(), 0);
    Cpu.setCommitHook(
        [&](const Machine::StepResult &R, uint64_t, uint64_t) {
          ++ExecCounts[CP.G.nodeAt(R.Block, R.InstIndex)];
        });
  }

  Cpu.setAccessHook([&](const AccessEvent &E, bool Speculative,
                        const CacheSim &Cache) {
    if (!CheckCache || Found)
      return;
    NodeId N = CP.G.nodeAt(E.Block, E.InstIndex);
    BlockAddr Touched = MM.blockOf(E.Var, E.Element);
    bool WillHit = Cache.contains(Touched);

    auto CheckMust = [&](const CacheAbsState &S, const ReportCtx *RC,
                         ViolationKind Kind) {
      // Iterates the per-set partitions directly: this runs per containment
      // check (tens of millions per campaign), and the merged mustEntries()
      // view would allocate every time.
      for (const CacheSetPartition &Part : S.partitions()) {
        for (const AgedBlock &Entry : Part.must()) {
          if (MM.isSymbolic(Entry.Block))
            continue; // Symbolic instances have no single concrete line.
          uint32_t Age = Cache.ageOf(Entry.Block);
          if (Age == 0 || Age > Entry.Age) {
            Report(Kind, RC, N,
                   "MUST entry " + MM.blockName(Entry.Block) + " age<=" +
                       std::to_string(Entry.Age) + " but concrete age " +
                       (Age == 0 ? std::string("absent")
                                 : std::to_string(Age)));
            return;
          }
        }
      }
    };

    for (const ReportCtx *RC : Compat) {
      if (Found)
        return;
      if (!Speculative) {
        ++Stats.CommittedChecks;
        const CacheAbsState &Obs = RC->Obs[N];
        if (Obs.isBottom()) {
          Report(ViolationKind::UnreachableReached, RC, N,
                 "committed access at a node the analysis deems "
                 "architecturally unreachable");
          return;
        }
        CheckMust(Obs, RC, ViolationKind::MustStateNotContained);
        if (Found)
          return;
        if (Options.UseShadow) {
          for (uint32_t Set = 0; Set != NumSets && !Found; ++Set) {
            for (BlockAddr B : Cache.setContents(Set)) {
              if (Obs.mayAge(B, Assoc) > Cache.ageOf(B)) {
                Report(ViolationKind::MayStateUnderApprox, RC, N,
                       "resident block " + MM.blockName(B) +
                           " (concrete age " +
                           std::to_string(Cache.ageOf(B)) +
                           ") not admitted by the MAY state");
                break;
              }
            }
          }
          if (Found)
            return;
        }
        CacheDomain::AccessClass Class = RC->R.Classes[N];
        if (Class == CacheDomain::AccessClass::MustHit && !WillHit) {
          Report(ViolationKind::MustHitMissed, RC, N,
                 "MustHit access to " + MM.blockName(Touched) +
                     " missed concretely");
          return;
        }
        if (Class == CacheDomain::AccessClass::MustMiss && WillHit) {
          Report(ViolationKind::MustMissHit, RC, N,
                 "MustMiss access to " + MM.blockName(Touched) +
                     " hit concretely");
          return;
        }
      } else {
        ++Stats.SpeculativeChecks;
        const CacheAbsState &Spec_ = RC->R.States.Speculative[N];
        if (Spec_.isBottom()) {
          Report(ViolationKind::SpecStateMissing, RC, N,
                 "speculative access at a node with bottom speculative "
                 "state");
          return;
        }
        CheckMust(Spec_, RC, ViolationKind::SpecStateNotContained);
        if (Found)
          return;
        if (E.IsLoad && !WillHit && !RC->R.SpecPossibleMiss[N]) {
          // Spec non-bottom and not flagged means the analysis claims
          // every speculative execution of this node hits.
          Report(ViolationKind::SpecMissUnflagged, RC, N,
                 "speculative load of " + MM.blockName(Touched) +
                     " missed but the node is not flagged "
                     "SpecPossibleMiss");
          return;
        }
      }
    }
  });

  CpuRunStats RunStats = Cpu.run(Options.MaxSteps);
  ++Stats.ConcreteRuns;
  Stats.SpeculativeWindows += RunStats.Mispredicts;
  if (DecisionsUsed && Scripted)
    *DecisionsUsed = Scripted->decisionsUsed();
  if (Found)
    return Found;

  if (!RunStats.Completed) {
    Report(ViolationKind::RunStuck, nullptr, InvalidNode,
           "concrete run exceeded " + std::to_string(Options.MaxSteps) +
               " committed instructions");
    return Found;
  }

  if (CheckWcet) {
    // The estimate's loop scaling bounds the *total* header executions of
    // each loop, so the *tightest* sound comparison for this run uses
    // exactly the observed maximum — monotonicity makes that estimate the
    // verdict for precisely those loop-bound options. A fixed floor (the
    // old LoopIterationBound default of 64 against generated loops that
    // iterate at most ~31) would leave 2x slack that masks real
    // underestimation bugs.
    uint64_t MaxHeader = 0;
    for (const Loop &L : CP.LI.loops())
      MaxHeader = std::max(MaxHeader, ExecCounts[L.Header]);
    uint32_t LoopBound =
        static_cast<uint32_t>(std::max<uint64_t>(1, MaxHeader));
    for (ReportCtx *RC : Compat) {
      ++Stats.WcetChecks;
      uint64_t Bound = wcetBoundFor(*RC, LoopBound);
      if (RunStats.Cycles > Bound) {
        Report(ViolationKind::WcetBoundExceeded, RC, InvalidNode,
               "committed " + std::to_string(RunStats.Cycles) +
                   " cycles but estimateWcet bounds the program at " +
                   std::to_string(Bound) + " (loop iteration bound " +
                   std::to_string(LoopBound) + ")");
        return Found;
      }
    }
  }

  if (!CheckCache)
    return Found;

  // Architectural transparency: speculation must not change the committed
  // behavior (Figure 3's left and right traces commit identically).
  const Reference &Ref = referenceFor(Spec);
  if (!Ref.Completed) {
    Report(ViolationKind::RunStuck, nullptr, InvalidNode,
           "reference run exceeded the step budget");
    return Found;
  }
  if (RunStats.ReturnValue != Ref.RetVal) {
    Report(ViolationKind::ArchResultDiverged, nullptr, InvalidNode,
           "speculative return value " +
               std::to_string(RunStats.ReturnValue) + " != reference " +
               std::to_string(Ref.RetVal));
    return Found;
  }
  const auto &Trace = Cpu.committedTrace();
  bool TraceSame = Trace.size() == Ref.Trace.size();
  for (size_t I = 0; TraceSame && I != Trace.size(); ++I)
    TraceSame = sameAccess(Trace[I].Access, Ref.Trace[I]);
  if (!TraceSame)
    Report(ViolationKind::ArchTraceDiverged, nullptr, InvalidNode,
           "committed access traces differ (speculative run: " +
               std::to_string(Trace.size()) + " accesses, reference: " +
               std::to_string(Ref.Trace.size()) + ")");
  return Found;
}

uint64_t SoundnessOracle::wcetBoundFor(ReportCtx &RC, uint32_t LoopBound) {
  for (const auto &[Bound, Cycles] : RC.WcetMemo)
    if (Bound == LoopBound)
      return Cycles;
  WcetOptions WO = Options.Wcet;
  WO.LoopIterationBound = LoopBound;
  WO.Fault = faultIn(FaultLayer::Verdict, Options.Fault);
  uint64_t Cycles = estimateWcet(CP, RC.R, WO).WorstCaseCycles;
  RC.WcetMemo.push_back({LoopBound, Cycles});
  return Cycles;
}

std::optional<Violation>
SoundnessOracle::runLeakFamily(const RunSpec &Spec, OracleStats &Stats) {
  if (SecretArrays.empty() || Spec.SecretVariants.empty() || !NonSpecReport)
    return std::nullopt;
  // A leak-freedom proof only speaks for executions inside the
  // speculation depths the analysis assumed.
  std::vector<ReportCtx *> Compat = compatibleReports(Spec);

  // Pool the attacker-visible outcome (hit/miss per committed execution)
  // per node: once across the speculative runs, once across the
  // non-speculative ones. A leak-freedom proof is a *uniformity* claim —
  // the access behaves identically in every architectural execution — so
  // seeing both outcomes anywhere in a family (same publics, same script,
  // same windows; only the secret varies) falsifies the verdict.
  enum : uint8_t { SawHit = 1, SawMiss = 2 };
  std::vector<uint8_t> SpecObs(CP.G.size(), 0), NonSpecObs(CP.G.size(), 0);

  for (const std::vector<std::vector<int64_t>> &Variant :
       Spec.SecretVariants) {
    for (bool Speculative : {true, false}) {
      MemoryModel MM(*CP.P, Options.Cache);
      ScriptedPredictor Pred(Spec.Script, Spec.Fallback);
      SpeculativeCpu Cpu(*CP.P, MM, Pred, Options.Wcet.Timing, Speculative);
      pinWindowsAndInputs(Cpu, Spec);
      for (size_t S = 0; S != SecretArrays.size() && S != Variant.size();
           ++S)
        Cpu.machine().setMemoryAll(
            CP.P->findVar(InputArrays[SecretArrays[S]].first), Variant[S]);

      CpuRunStats RunStats = Cpu.run(Options.MaxSteps);
      ++Stats.LeakRuns;
      if (!RunStats.Completed) {
        // Report rather than skip: under a leak-only oracle mask the
        // containment sweep never runs, so a silent skip would validate
        // nothing for this program and still report it sound.
        Violation V;
        V.Kind = ViolationKind::RunStuck;
        V.Detail = "leak-attacker run exceeded " +
                   std::to_string(Options.MaxSteps) +
                   " committed instructions";
        V.Run = Spec;
        return V;
      }
      std::vector<uint8_t> &Obs = Speculative ? SpecObs : NonSpecObs;
      for (const SpeculativeCpu::CommittedAccess &A : Cpu.committedTrace())
        Obs[CP.G.nodeAt(A.Access.Block, A.Access.InstIndex)] |=
            A.Hit ? SawHit : SawMiss;
    }
  }
  ++Stats.LeakFamilies;

  auto Leak = [&](ViolationKind Kind, const ReportCtx *RC, NodeId Node,
                  std::string Detail) {
    Violation V;
    V.Kind = Kind;
    if (RC) {
      V.Strategy = RC->Strategy;
      V.Bounding = RC->Bounding;
    }
    V.Node = Node;
    V.Detail = std::move(Detail);
    V.Run = Spec;
    return V;
  };
  auto SiteName = [&](NodeId Site) {
    VarId Var = CP.G.inst(Site).Var;
    return Var < CP.P->Vars.size() ? CP.P->Vars[Var].Name
                                   : std::string("<unknown>");
  };
  const std::string Across =
      " across " + std::to_string(Spec.SecretVariants.size()) +
      " secret variants with identical public inputs and script";

  for (ReportCtx *RC : Compat) {
    for (NodeId Site : RC->Leak.LeakFreeSites) {
      ++Stats.LeakSiteChecks;
      if (SpecObs[Site] == (SawHit | SawMiss))
        return Leak(ViolationKind::LeakFreeSiteVaried, RC, Site,
                    "the report proves the secret-indexed access to '" +
                        SiteName(Site) +
                        "' leak-free but the attacker saw both hits and "
                        "misses" +
                        Across);
    }
    // SpeculationOnly labeling must match the diff of the two reports: a
    // site leaking even without speculation may not carry the flag, and a
    // spec-only leak must.
    for (const LeakSite &L : RC->Leak.Leaks) {
      bool LeaksWithoutSpeculation = false;
      for (const LeakSite &N : NonSpecLeak.Leaks)
        if (N.Node == L.Node) {
          LeaksWithoutSpeculation = true;
          break;
        }
      if (L.SpeculationOnly == LeaksWithoutSpeculation)
        return Leak(ViolationKind::SpecOnlyLabelInconsistent, RC, L.Node,
                    LeaksWithoutSpeculation
                        ? "leak flagged SpeculationOnly but the "
                          "non-speculative report leaks there too"
                        : "leak absent from the non-speculative report "
                          "but not flagged SpeculationOnly");
    }
  }
  for (NodeId Site : NonSpecLeak.LeakFreeSites) {
    ++Stats.LeakSiteChecks;
    if (NonSpecObs[Site] == (SawHit | SawMiss))
      return Leak(ViolationKind::NonSpecLeakFreeSiteVaried, nullptr, Site,
                  "the non-speculative report proves the secret-indexed "
                  "access to '" +
                      SiteName(Site) +
                      "' leak-free but the non-speculative attacker saw "
                      "both hits and misses" +
                      Across);
  }
  return std::nullopt;
}

std::optional<Violation> SoundnessOracle::checkRun(const RunSpec &Spec) {
  OracleStats Stats;
  if (!Spec.SecretVariants.empty())
    return runLeakFamily(Spec, Stats);
  return runScenario(Spec, Stats);
}

OracleResult SoundnessOracle::run(uint64_t Seed) {
  OracleResult Result;
  Result.Stats.Analyses = Reports.size() + (NonSpecReport ? 1 : 0);

  for (const ReportCtx &RC : Reports) {
    if (!RC.R.Converged) {
      Violation V;
      V.Kind = ViolationKind::AnalysisDiverged;
      V.Strategy = RC.Strategy;
      V.Bounding = RC.Bounding;
      V.Detail = "fixpoint did not converge";
      Result.Violations.push_back(std::move(V));
      return Result;
    }
  }
  if (NonSpecReport && !NonSpecReport->Converged) {
    Violation V;
    V.Kind = ViolationKind::AnalysisDiverged;
    V.Detail = "non-speculative baseline fixpoint did not converge";
    Result.Violations.push_back(std::move(V));
    return Result;
  }

  Rng R(Seed * 0x2545F4914F6CDD1DULL + 0xDEADBEEF);
  const size_t Sites = CP.Plan.siteCount();

  // The scenario sweep serves the cache-containment and WCET oracles; a
  // leak-only invocation skips straight to the attacker families.
  const bool RunSweep =
      (Options.Oracles & (OracleCache | OracleWcet)) != 0;

  for (unsigned Round = 0; RunSweep && Round != Options.InputRounds;
       ++Round) {
    RunSpec Base;
    for (size_t I = 0; I != InputScalars.size(); ++I)
      Base.ScalarValues.push_back(R.nextRange(-30, 30));
    for (const auto &[Name, Elems] : InputArrays) {
      std::vector<int64_t> Values;
      Values.reserve(Elems);
      for (unsigned E = 0; E != Elems; ++E)
        Values.push_back(R.nextRange(0, 127));
      Base.ArrayValues.push_back(std::move(Values));
    }

    // Window assignments: every distinct full-depth map the reports
    // assumed, plus sampled shrunken maps (rollback mid-window).
    std::vector<std::vector<uint32_t>> Maps = FullWindowMaps;
    if (Maps.empty())
      Maps.push_back(std::vector<uint32_t>(Sites, Options.DepthMiss));
    for (unsigned S = 0; S != Options.ShrunkenWindowRounds; ++S) {
      std::vector<uint32_t> Map(Sites, 0);
      for (size_t Site = 0; Site != Sites; ++Site)
        Map[Site] = static_cast<uint32_t>(
            R.nextBelow(MinSiteDepths.empty() ? 1
                                              : MinSiteDepths[Site] + 1));
      Maps.push_back(std::move(Map));
    }

    for (const std::vector<uint32_t> &Map : Maps) {
      RunSpec Spec = Base;
      Spec.SiteWindows = Map;

      // Exhaustive DFS over prediction-decision prefixes. A run that used
      // more decisions than its script is extended one bit both ways; one
      // that did not is a leaf (longer scripts replay identically).
      std::deque<std::vector<bool>> Work;
      Work.push_back({});
      while (!Work.empty()) {
        Spec.Script = std::move(Work.front());
        Work.pop_front();
        Spec.Fallback = false;
        Spec.PredictorName.clear();

        size_t Used = 0;
        if (std::optional<Violation> V =
                runScenario(Spec, Result.Stats, &Used)) {
          Result.Violations.push_back(std::move(*V));
          return Result;
        }
        if (Used > Spec.Script.size() &&
            Spec.Script.size() < Options.ExhaustiveBits) {
          std::vector<bool> Child = Spec.Script;
          Child.push_back(false);
          Work.push_back(Child);
          Child.back() = true;
          Work.push_back(std::move(Child));
        }
      }

      // Random longer scripts beyond the exhaustive prefix depth.
      for (unsigned S = 0; S != Options.SampledScripts; ++S) {
        Spec.Script.clear();
        for (unsigned B = 0; B != Options.SampledScriptLength; ++B)
          Spec.Script.push_back(R.chance(1, 2));
        Spec.Fallback = R.chance(1, 2);
        if (std::optional<Violation> V = runScenario(Spec, Result.Stats)) {
          Result.Violations.push_back(std::move(*V));
          return Result;
        }
      }
    }

    // The trained predictor zoo under the minimal (always-compatible)
    // window map.
    if (Options.UseStandardPredictors) {
      RunSpec Spec = Base;
      Spec.SiteWindows = MinSiteDepths;
      for (auto &P : makeStandardPredictors()) {
        Spec.PredictorName = P->name();
        if (std::optional<Violation> V = runScenario(Spec, Result.Stats)) {
          Result.Violations.push_back(std::move(*V));
          return Result;
        }
      }
    }
  }

  // Leak-attacker families: replay the program on several secrets with
  // identical publics/script/windows and validate every report's
  // leak-freedom proofs (and the SpeculationOnly diff) against the
  // attacker-visible traces. Runs after the containment sweep so the
  // default (cache-only) campaign consumes the Rng stream identically to
  // the pre-verdict fuzzer.
  if ((Options.Oracles & OracleLeak) && !SecretArrays.empty()) {
    for (unsigned Round = 0; Round != Options.LeakRounds; ++Round) {
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
      Spec.SiteWindows = MinSiteDepths;
      // Round 0 plays the all-not-taken script (the deterministic
      // baseline attacker); later rounds sample random scripts so
      // mispredictions land the pollution differently.
      if (Round > 0) {
        for (unsigned B = 0; B != Options.SampledScriptLength; ++B)
          Spec.Script.push_back(R.chance(1, 2));
        Spec.Fallback = R.chance(1, 2);
      }
      for (unsigned V = 0; V != Options.LeakSecrets; ++V) {
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
      if (std::optional<Violation> V = runLeakFamily(Spec, Result.Stats)) {
        Result.Violations.push_back(std::move(*V));
        return Result;
      }
    }
  }
  return Result;
}
