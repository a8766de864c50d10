//===- AnalysisPipeline.h - Source-to-report drivers ------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end drivers tying the whole stack together, mirroring the
/// paper's Figure 1 pipeline:
///
///   input program -> control flow analysis -> virtual speculative CFG ->
///   speculative abstract interpretation -> analysis report
///
/// `compileSource` runs lexer/parser/sema/lowering and the CFG analyses;
/// `runMustHitAnalysis` runs the static cache analysis, either the
/// non-speculative baseline (Algorithm 1: the engine over an empty
/// speculation plan) or the speculative lifting (Algorithms 2/3),
/// including the §6.2 iterative depth refinement.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_ANALYSIS_ANALYSISPIPELINE_H
#define SPECAI_ANALYSIS_ANALYSISPIPELINE_H

#include "ai/SpeculativeEngine.h"
#include "ai/Vcfg.h"
#include "cfg/Dominators.h"
#include "cfg/FlatCfg.h"
#include "cfg/LoopInfo.h"
#include "domain/CacheDomain.h"
#include "ir/Lowering.h"
#include "support/Diagnostics.h"
#include "support/Statistics.h"

#include <memory>
#include <optional>
#include <string>

namespace specai {

/// A compiled program with its CFG analyses; owns the Program so the
/// pointer-holding analyses stay valid.
struct CompiledProgram {
  std::unique_ptr<Program> P;
  FlatCfg G;
  DominatorTree Dom;
  DominatorTree Pdom;
  LoopInfo LI;
  SpecPlan Plan;
  /// Lowering mode this program came from (DESIGN.md §4).
  LoweringMode Mode = LoweringMode::InlineUnroll;
  /// Summarize mode: the reachable non-entry functions, each compiled like
  /// the entry, in the bottom-up order of Program::CalleeNames (so
  /// Instruction::Callee indexes this vector). Callee entries have empty
  /// Callees of their own: the call graph is flattened here, and every
  /// Program shares one variable/register layout. Empty under InlineUnroll.
  std::vector<std::unique_ptr<CompiledProgram>> Callees;
};

/// Compiles mini-C source through sema, lowering (inline-and-unroll or
/// summarize mode per \p Options.Mode) and the CFG analyses. Returns
/// nullptr and fills \p Diags on error.
std::unique_ptr<CompiledProgram>
compileSource(const std::string &Source, DiagnosticEngine &Diags,
              const LoweringOptions &Options = {});

/// Wraps an already-lowered single-function Program with its CFG analyses
/// (FlatCfg, dominators, loops, speculation plan) — the entry point for
/// consumers that rewrite IR rather than source, like the mitigation
/// synthesizer (docs/MITIGATION.md) re-analyzing a patched program. The
/// caller is responsible for handing in verifier-clean IR; InlineUnroll
/// programs only (no Callees are built).
std::unique_ptr<CompiledProgram> compileProgram(Program Prog);

/// The largest cache line count or associativity, and the largest
/// speculation window, that the front ends accept (specai-cli flags and
/// specaid request fields). Far above any modeled machine, and low enough
/// that a mistyped value cannot ask for gigabytes of state or a window of
/// billions of instructions.
inline constexpr uint32_t MaxCacheLines = 1u << 24;
inline constexpr uint32_t MaxSpecDepth = 1u << 20;

/// Configuration of one static cache analysis run.
struct MustHitOptions {
  CacheConfig Cache = CacheConfig::paperDefault();
  /// Model speculative execution (the paper's contribution); false gives
  /// the unsound-under-speculation baseline the evaluation compares with.
  bool Speculative = true;
  /// Appendix B shadow variables.
  bool UseShadow = true;
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  uint32_t DepthMiss = 200;
  uint32_t DepthHit = 20;
  BoundingMode Bounding = BoundingMode::Dynamic;
  /// Per-site speculation depth clamps (docs/MITIGATION.md): entry i caps
  /// the window of SpecPlan site i, on top of bounding and refinement
  /// (element-wise min, so a clamp can only shrink a window). Empty means
  /// none; UINT32_MAX entries leave their site unclamped. The repair
  /// synthesizer emits these; the concrete counterpart is a
  /// SpeculativeCpu window override of the same depth at the site branch.
  std::vector<uint32_t> SiteDepthClamp;
  /// Outer refinement (§6.2): re-run with per-site bounds derived from the
  /// previous sound fixpoint until stable (at most four rounds in all).
  bool IterativeDepthRefinement = false;
  bool UseWidening = false;
  uint32_t WideningDelay = 8;
  /// Worklist pop discipline (EngineOptions::Order). Unset picks Rpo for
  /// the baseline (fewer pops; bit-identical fixpoints on every paper
  /// kernel, enforced by bench_table6_merging and state_repr_test) and
  /// Fifo for speculative runs, whose symbolic-instance transfer sequence
  /// is order-observable and pinned by the fuzz corpus's golden digests;
  /// programs without unknown-index accesses get bit-identical results
  /// either way (see state_repr_test). Caveat: baseline runs over
  /// programs with statically *unknown* indices draw symbolic instances
  /// in pop order too, so their states can differ between orders (both
  /// remain sound); pass Fifo explicitly to reproduce pre-RPO baseline
  /// states on such programs.
  std::optional<WorklistOrder> Order;
  /// When set, engine counters accumulate here across the run's engine
  /// invocations: "worklist.{pops,pushes,pushes.deduped}" for the
  /// baseline; for speculative runs the same under "spec.worklist." plus
  /// "spec.memo.*" and "spec.joins.*".
  StatisticSet *Stats = nullptr;
  /// Test-only fault injection (support/Fault.h), handed to the engine
  /// and the cache domain of every run; only engine and lowering faults
  /// have an effect here. Never set outside tests.
  InjectedFault Fault = InjectedFault::None;
  /// Cooperative cancellation budget (docs/SERVICE.md, "Deadlines and
  /// budgets"), threaded into every engine invocation this run makes —
  /// refinement rounds and Summarize callee fixpoints included. A tripped
  /// budget aborts the run with MustHitReport::BudgetExceeded; the report's
  /// classification vectors may then be empty and must not be consumed.
  ExecBudget *Budget = nullptr;
};

/// Classification outcome of the static cache analysis.
struct MustHitReport {
  /// Cache model used (block naming, geometry).
  std::unique_ptr<MemoryModel> MM;
  /// Per-node fixpoint states.
  SpecResult<CacheDomain> States;
  /// Per node: reachable in some architectural (normal or post-rollback)
  /// execution.
  std::vector<bool> Reachable;
  /// Per node: memory access guaranteed to hit in every architectural
  /// execution (only meaningful for access nodes).
  std::vector<bool> MustHit;
  /// Per node: executed speculatively on some path and not guaranteed to
  /// hit there (the paper's speculative misses, masked by the pipeline).
  std::vector<bool> SpecPossibleMiss;
  /// Per node: three-way timing classification of the access (MustHit /
  /// MustMiss / Mixed); only meaningful for reachable access nodes. Used
  /// by the side-channel detector: only Mixed accesses can leak.
  std::vector<CacheDomain::AccessClass> Classes;

  // Paper Table 5 counters.
  uint64_t AccessNodes = 0;
  uint64_t MissCount = 0;    // #Miss: access nodes that may miss.
  uint64_t SpMissCount = 0;  // #SpMiss: speculative-only access misses.
  uint64_t BranchCount = 0;  // #Branch: speculatable branches.
  uint64_t Iterations = 0;   // Worklist iterations.
  unsigned RefinementRounds = 1;
  bool Converged = true;
  /// The run's ExecBudget tripped (deadline, step cap, or cancel). The
  /// per-node vectors may be partial or empty; callers must treat the
  /// whole report as void — the service answers `status: timeout` and
  /// never caches it.
  bool BudgetExceeded = false;

  /// Summarize mode: per-callee analysis reports, in CompiledProgram::
  /// Callees order (their per-node vectors index the callee's own CFG).
  /// The WCET estimator charges Call nodes from these; the lowering
  /// oracle compares their must-hits against the inlined copies. Empty
  /// under InlineUnroll.
  std::vector<std::unique_ptr<MustHitReport>> CalleeReports;
  /// Summarize mode: the call summaries the main run was analyzed with,
  /// indexed by Instruction::Callee. Empty under InlineUnroll.
  std::vector<CallSummary> Summaries;
};

/// Runs the static cache analysis over \p CP.
MustHitReport runMustHitAnalysis(const CompiledProgram &CP,
                                 const MustHitOptions &Options = {});

} // namespace specai

#endif // SPECAI_ANALYSIS_ANALYSISPIPELINE_H
