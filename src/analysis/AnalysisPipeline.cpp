//===- AnalysisPipeline.cpp -----------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisPipeline.h"

#include "ir/Verifier.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

using namespace specai;

namespace {

/// Wraps one lowered Program with its CFG analyses.
std::unique_ptr<CompiledProgram> buildAnalyses(Program &&Prog,
                                               LoweringMode Mode) {
  auto CP = std::make_unique<CompiledProgram>();
  CP->P = std::make_unique<Program>(std::move(Prog));
  CP->G = FlatCfg::build(*CP->P);
  CP->Dom = DominatorTree::compute(CP->G);
  CP->Pdom = DominatorTree::computePost(CP->G);
  CP->LI = LoopInfo::compute(CP->G, CP->Dom);
  CP->Plan = SpecPlan::compute(CP->G, CP->Pdom);
  CP->Mode = Mode;
  return CP;
}

} // namespace

std::unique_ptr<CompiledProgram> specai::compileProgram(Program Prog) {
  return buildAnalyses(std::move(Prog), LoweringMode::InlineUnroll);
}

std::unique_ptr<CompiledProgram>
specai::compileSource(const std::string &Source, DiagnosticEngine &Diags,
                      const LoweringOptions &Options) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors())
    return nullptr;

  AstContext Context;
  Parser Parse(std::move(Tokens), Context, Diags);
  TranslationUnit Unit = Parse.parseTranslationUnit();
  if (Diags.hasErrors())
    return nullptr;

  Sema Analysis(Diags);
  if (!Analysis.run(Unit))
    return nullptr;

  std::optional<LoweredModule> Lowered = lowerModule(Unit, Options, Diags);
  if (!Lowered)
    return nullptr;

  for (const std::string &Issue : verifyProgram(Lowered->Entry)) {
    Diags.error(SourceLoc(), "internal: IR verifier: " + Issue);
  }
  for (const Program &FP : Lowered->Callees)
    for (const std::string &Issue : verifyProgram(FP))
      Diags.error(SourceLoc(), "internal: IR verifier (" + FP.EntryName +
                                   "): " + Issue);
  if (Diags.hasErrors())
    return nullptr;

  auto CP = buildAnalyses(std::move(Lowered->Entry), Options.Mode);
  for (Program &FP : Lowered->Callees)
    CP->Callees.push_back(buildAnalyses(std::move(FP), Options.Mode));
  return CP;
}

namespace {

/// Fixpoint rounds, the first included, that
/// MustHitOptions::IterativeDepthRefinement may run.
constexpr unsigned MaxRefinementRounds = 4;
/// Per-fixpoint pop cap (EngineOptions::MaxIterations): a run that
/// reaches it stops with Converged false.
constexpr uint64_t MaxIterations = 200000000;

/// Converts MustHitOptions into engine options (site overrides installed by
/// the refinement loop).
EngineOptions makeEngineOptions(const MustHitOptions &O,
                                std::vector<uint32_t> SiteOverrides) {
  EngineOptions E;
  E.Strategy = O.Strategy;
  E.DepthMiss = O.DepthMiss;
  E.DepthHit = O.DepthHit;
  E.Bounding = O.Bounding;
  E.SiteDepthOverride = std::move(SiteOverrides);
  E.SiteDepthClamp = O.SiteDepthClamp;
  E.UseWidening = O.UseWidening;
  E.WideningDelay = O.WideningDelay;
  E.MaxIterations = MaxIterations;
  E.Order = O.Order.value_or(O.Speculative ? WorklistOrder::Fifo
                                           : WorklistOrder::Rpo);
  E.Budget = O.Budget;
  E.Fault = O.Fault;
  return E;
}

/// Accumulates one engine run's counters into \p Stats (no-op when null):
/// "worklist.*" for the baseline, "spec.*" for a speculative run.
void reportCounters(const EngineCounters &C, bool Speculative,
                    StatisticSet *Stats) {
  if (!Stats)
    return;
  if (!Speculative) {
    Stats->increment("worklist.pops", C.Pops);
    Stats->increment("worklist.pushes", C.Pushes);
    Stats->increment("worklist.pushes.deduped", C.Deduped);
    return;
  }
  Stats->increment("spec.worklist.pops", C.Pops);
  Stats->increment("spec.worklist.pushes", C.Pushes);
  Stats->increment("spec.worklist.pushes.deduped", C.Deduped);
  Stats->increment("spec.memo.hits", C.MemoHits);
  Stats->increment("spec.memo.misses", C.MemoMisses);
  Stats->increment("spec.joins.normal", C.NormalJoins);
  Stats->increment("spec.joins.spec", C.SpecJoins);
  Stats->increment("spec.joins.pr", C.PrJoins);
  Stats->increment("spec.joins.fold", C.FoldJoins);
  Stats->increment("spec.joins.bound", C.BoundJoins);
}

/// Classifies the access nodes of a finished run into the report fields.
void classify(const CompiledProgram &CP, CacheDomain &D,
              MustHitReport &Report) {
  const FlatCfg &G = CP.G;
  size_t N = G.size();
  Report.Reachable.assign(N, false);
  Report.MustHit.assign(N, false);
  Report.SpecPossibleMiss.assign(N, false);
  Report.Classes.assign(N, CacheDomain::AccessClass::Mixed);
  Report.AccessNodes = 0;
  Report.MissCount = 0;
  Report.SpMissCount = 0;

  for (NodeId Node = 0; Node != N; ++Node) {
    CacheAbsState Observable = Report.States.observable(D, Node);
    bool Reach = !Observable.isBottom();
    Report.Reachable[Node] = Reach;
    if (!G.inst(Node).accessesMemory())
      continue;
    if (Reach) {
      ++Report.AccessNodes;
      Report.Classes[Node] = D.classifyAccess(Observable, Node);
      bool Hit =
          Report.Classes[Node] == CacheDomain::AccessClass::MustHit;
      Report.MustHit[Node] = Hit;
      if (!Hit)
        ++Report.MissCount;
    }
    const CacheAbsState &Spec = Report.States.Speculative[Node];
    if (!Spec.isBottom() && !D.isMustHit(Spec, Node)) {
      Report.SpecPossibleMiss[Node] = true;
      ++Report.SpMissCount;
    }
  }
}

/// Runs the engine, and any §6.2 refinement rounds, over one Program (the
/// pre-Summarize runMustHitAnalysis body); \p DomOpts carries the summary
/// table in Summarize mode, and \p Callees the module's callee Programs,
/// whose blocks the summaries insert.
MustHitReport runEngines(const CompiledProgram &CP,
                         const MustHitOptions &Options,
                         const CacheDomainOptions &DomOpts,
                         const std::vector<const Program *> &Callees = {}) {
  MustHitReport Report;
  Report.MM = std::make_unique<MemoryModel>(*CP.P, Options.Cache, Callees);
  Report.BranchCount = CP.Plan.siteCount();

  // The baseline (Algorithm 1) is the same engine without virtual control
  // flow: an empty speculation plan, which also ends the refinement below
  // after one round.
  const SpecPlan NoSpeculation;
  const SpecPlan &Plan = Options.Speculative ? CP.Plan : NoSpeculation;

  // One fixpoint, optionally with the §6.2 outer refinement: bounds start
  // at b_miss and shrink to b_hit for sites whose condition loads are
  // must-hits under the previous (sound) fixpoint.
  std::vector<uint32_t> Overrides;
  unsigned Round = 0;
  while (true) {
    ++Round;
    CacheDomain D(CP.G, *Report.MM, DomOpts);
    EngineOptions E = makeEngineOptions(Options, Overrides);
    if (Options.IterativeDepthRefinement)
      E.Bounding = BoundingMode::Fixed; // Bounds come from Overrides.
    Report.States = runSpeculativeFixpoint(D, CP.G, Plan, E, &CP.LI);
    reportCounters(Report.States.Counters, Options.Speculative,
                   Options.Stats);
    Report.Iterations += Report.States.Iterations;
    Report.Converged = Report.States.Converged;
    Report.BudgetExceeded = Report.States.BudgetExceeded;
    if (Report.BudgetExceeded)
      break; // Dead budget: no classification, no further rounds.
    classify(CP, D, Report);

    if (!Options.IterativeDepthRefinement ||
        Round >= MaxRefinementRounds)
      break;

    // Derive per-site bounds from this round's classification.
    std::vector<uint32_t> Next(Plan.siteCount(), Options.DepthMiss);
    for (size_t Site = 0; Site != Plan.siteCount(); ++Site) {
      const SpecSite &S = Plan.sites()[Site];
      bool AllHit = !S.CondLoads.empty();
      for (NodeId Load : S.CondLoads) {
        if (!Report.Reachable[Load])
          continue; // Unreachable loads do not widen the window.
        if (!Report.MustHit[Load]) {
          AllHit = false;
          break;
        }
      }
      if (AllHit)
        Next[Site] = Options.DepthHit;
    }
    if (Next == Overrides)
      break;
    Overrides = std::move(Next);
  }
  Report.RefinementRounds = Round;
  return Report;
}

/// Builds the call summary of one analyzed callee (DESIGN.md §4).
/// \p Earlier holds the summaries of the callee's own (bottom-up earlier)
/// callees, so MayBlocks closes transitively.
CallSummary buildSummary(const CompiledProgram &CP, const MustHitReport &R,
                         const std::vector<CallSummary> &Earlier) {
  CallSummary Sum;
  const MemoryModel &MM = *R.MM;
  const Program &P = *CP.P;

  // MayBlocks: syntactic sweep over the callee's accesses. Unknown-index
  // array accesses may touch any line of the array; Call instructions pull
  // in the (already summarized) transitive callee's lines.
  for (const BasicBlock &B : P.Blocks) {
    for (const Instruction &I : B.Insts) {
      if (I.Op == Opcode::Call) {
        const CallSummary &CS = Earlier[I.Callee];
        Sum.MayBlocks.insert(Sum.MayBlocks.end(), CS.MayBlocks.begin(),
                             CS.MayBlocks.end());
        continue;
      }
      if (!I.accessesMemory())
        continue;
      const MemVar &Var = P.Vars[I.Var];
      if (Var.NumElements == 1 || I.Index.isImm()) {
        uint64_t Elem = I.Index.isImm() ? Var.wrapIndex(I.Index.Imm) : 0;
        Sum.MayBlocks.push_back(MM.blockOf(I.Var, Elem));
      } else {
        const std::vector<BlockAddr> &All = MM.blocksOf(I.Var);
        Sum.MayBlocks.insert(Sum.MayBlocks.end(), All.begin(), All.end());
      }
    }
  }
  std::sort(Sum.MayBlocks.begin(), Sum.MayBlocks.end());
  Sum.MayBlocks.erase(std::unique(Sum.MayBlocks.begin(), Sum.MayBlocks.end()),
                      Sum.MayBlocks.end());

  Sum.SetPressure.assign(MM.config().numSets(), 0);
  for (BlockAddr Block : Sum.MayBlocks)
    ++Sum.SetPressure[MM.setOf(Block)];

  // ExitMust: join of the architectural states at every reachable Ret.
  // The callee was analyzed from the unknown entry state (MUST top), so
  // these bounds hold in every call context. Symbolic instance blocks name
  // no concrete line in the caller and are dropped.
  CacheAbsState Exit = CacheAbsState::bottom();
  for (NodeId Node = 0; Node != CP.G.size(); ++Node) {
    if (CP.G.inst(Node).Op != Opcode::Ret)
      continue;
    CacheAbsState Obs = R.States.Normal[Node];
    Obs.joinInto(R.States.PostRollback[Node], /*UseShadow=*/false);
    Exit.joinInto(Obs, /*UseShadow=*/false);
  }
  if (!Exit.isBottom())
    for (const AgedBlock &E : Exit.mustEntries())
      if (!MM.isSymbolic(E.Block))
        Sum.ExitMust.push_back(E);
  return Sum;
}

} // namespace

MustHitReport specai::runMustHitAnalysis(const CompiledProgram &CP,
                                         const MustHitOptions &Options) {
  // Payload recycling for the whole run: every COW clone and join rebuild
  // below draws from (and retires to) this arena, so steady-state
  // transfers allocate nothing (docs/PERFORMANCE.md, "Arena lifetime").
  // States that escape in the returned report are plain heap objects and
  // stay valid after the scope unwinds.
  CacheStateArenaScope Arena;

  CacheDomainOptions DomOpts;
  DomOpts.UseShadow = Options.UseShadow;

  if (CP.Callees.empty() && CP.Mode == LoweringMode::InlineUnroll)
    return runEngines(CP, Options, DomOpts);

  // Summarize mode. Loops are rolled, so the fixpoints need widening at
  // the LoopInfo headers; delay 1 keeps convergence fast (the cache
  // domain's per-block ladders make longer delays pure extra iterations).
  MustHitOptions SumOpts = Options;
  SumOpts.UseWidening = true;
  SumOpts.WideningDelay = 1;

  // Analyze callees bottom-up and summarize each. Callees run *without*
  // the shadow refinement: MAY lower bounds seeded from the empty cache
  // would be unsound claims about an unknown call context. The summary
  // table grows as we go; bottom-up order guarantees any Callee index a
  // function references is already present.
  std::vector<CallSummary> Summaries;
  Summaries.reserve(CP.Callees.size());
  // Every Program of the module shares one layout; each model's universes
  // cover the whole module, whose callees' blocks call effects insert.
  std::vector<const Program *> Callees;
  for (const std::unique_ptr<CompiledProgram> &CalleeCP : CP.Callees)
    Callees.push_back(CalleeCP->P.get());
  std::vector<std::unique_ptr<MustHitReport>> CalleeReports;
  for (const std::unique_ptr<CompiledProgram> &CalleeCP : CP.Callees) {
    MustHitOptions CalleeOpts = SumOpts;
    CalleeOpts.UseShadow = false;
    CacheDomainOptions CalleeDom;
    CalleeDom.UseShadow = false;
    CalleeDom.Summaries = &Summaries;
    CalleeDom.Fault = Options.Fault;
    auto R = std::make_unique<MustHitReport>(
        runEngines(*CalleeCP, CalleeOpts, CalleeDom, Callees));
    if (R->BudgetExceeded) {
      // A budget that dies in a callee voids the whole module run: its
      // summary would be built from partial states.
      MustHitReport Aborted;
      Aborted.MM = std::make_unique<MemoryModel>(*CP.P, Options.Cache, Callees);
      Aborted.BudgetExceeded = true;
      Aborted.Converged = false;
      return Aborted;
    }
    Summaries.push_back(buildSummary(*CalleeCP, *R, Summaries));
    CalleeReports.push_back(std::move(R));
  }

  CacheDomainOptions MainDom;
  MainDom.UseShadow = Options.UseShadow;
  MainDom.Summaries = &Summaries;
  MainDom.Fault = Options.Fault;
  MustHitReport Report = runEngines(CP, SumOpts, MainDom, Callees);
  Report.Summaries = std::move(Summaries);
  Report.CalleeReports = std::move(CalleeReports);
  return Report;
}
