//===- MitigationSynth.h - Minimum-cost leak repair synthesis ---*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The remediation layer (docs/MITIGATION.md): given an analyzed program
/// whose leak detector reports secret-indexed accesses that are not
/// leak-free, propose per-site mitigations from a small cost-annotated
/// menu, search for a minimum-cost set whose *re-analysis* proves every
/// reported site leak-free, and emit the patched program.
///
/// The menu:
///
///  - **Fence** — insert a `fence` instruction (ir/Ir.h) at the entry of
///    one mispredicted path of a speculation site. The window dies at the
///    fence in both semantics (SpeculativeCpu stops fetching;
///    the abstract engines drain the speculative flow), so post-rollback
///    cache pollution from that path disappears entirely. The only
///    mitigation that reduces a window to zero.
///  - **Clamp** — cap one site's speculation depth (MustHitOptions::
///    SiteDepthClamp, floor 1: hardware always fetches something past an
///    unresolved branch). Concretely enforced as a SpeculativeCpu window
///    override of the same depth at the site branch. Costs no committed
///    cycles, so it dominates a fence whenever one wrong-path instruction
///    is harmless.
///  - **Hoist** — promote a scalar memory variable to a `reg` global
///    (the paper's Figure 2 `reg char k`): its loads/stores become
///    register moves, invisible to the cache, so its accesses stop
///    evicting the lines a secret-indexed access needs resident. Secret
///    scalars keep their taint seed (RegGlobal::IsSecret).
///  - **Preload** — insert constant-index loads covering every line of
///    the leaky access's array immediately before the access (the
///    paper's own Figure 2 countermeasure): the access becomes a must-hit
///    for every secret, i.e. architecturally uniform. Applicable when the
///    array fits in the cache; the re-analysis is the judge.
///
/// Cost model: a mitigation's cost is the `estimateWcet` delta of applying
/// it alone (floored at 0); the chosen set is re-costed as a whole, so
/// RepairResult::WcetAfter is the bound the repaired program must honor —
/// the fuzzer's RepairOracle replays it on the concrete cycle-charging
/// pipeline and asserts committed cycles never exceed it.
///
/// Search: exact subset enumeration in ascending total cost when the
/// candidate set is small (<= RepairOptions::ExactSearchLimit), greedy
/// cheapest-first with a pruning pass otherwise. Both are deterministic:
/// ties break on (cost, kind, site/node id), never on pointers or time.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_REPAIR_MITIGATIONSYNTH_H
#define SPECAI_REPAIR_MITIGATIONSYNTH_H

#include "analysis/AnalysisPipeline.h"
#include "analysis/SideChannel.h"
#include "analysis/Wcet.h"

#include <string>
#include <vector>

namespace specai {

/// The mitigation menu (ordered: the tie-break rank of equal-cost
/// candidates follows this declaration order).
enum class MitigationKind : uint8_t { Clamp, Fence, Hoist, Preload };

const char *mitigationKindName(MitigationKind K);

/// One candidate (or applied) mitigation, in *original-program*
/// coordinates.
struct Mitigation {
  MitigationKind Kind = MitigationKind::Fence;
  /// Fence: block whose entry gets the fence (a mispredicted-path entry
  /// of some speculation site).
  BlockId Block = InvalidBlock;
  /// Clamp: SpecPlan site index of the original program.
  uint32_t Site = 0;
  /// Clamp: clamped speculation depth (>= 1).
  uint32_t Depth = 0;
  /// Hoist/Preload: the variable hoisted or preloaded.
  VarId Var = InvalidVar;
  /// Preload: the leaky access node guarded (original CFG).
  NodeId Node = InvalidNode;
  /// estimateWcet delta of applying this mitigation alone, floored at 0.
  uint64_t Cost = 0;

  /// Human-readable one-liner, e.g. "fence at bb3 (cost 2)".
  std::string str(const Program &P) const;
};

/// Configuration of one synthesis run.
struct RepairOptions {
  /// Analysis configuration for the initial run and every re-analysis.
  /// SiteDepthClamp must be empty (clamps are the synthesizer's output);
  /// Budget and faults are honored per analysis. Analysis.Fault is also
  /// the synthesizer's own test-only fault: FenceDropped,
  /// CostUnderreported, ClampIgnored and UnsoundHoist corrupt what it
  /// emits (support/Fault.h).
  MustHitOptions Analysis;
  /// Cost model (also the timing the concrete revalidation runs under).
  WcetOptions Wcet;
  /// Exact subset search when the candidate count is at most this;
  /// greedy otherwise.
  unsigned ExactSearchLimit = 8;
};

/// Outcome of one synthesis run.
struct RepairResult {
  /// Every reported leak site is proven leak-free by the re-analysis of
  /// the chosen mitigation set. Vacuously true when LeaksBefore == 0.
  bool Repaired = false;
  /// The run's ExecBudget tripped mid-search; everything else is partial.
  bool BudgetExceeded = false;
  /// Set when the program is outside the synthesizer's domain (e.g. a
  /// Summarize-mode module); empty otherwise.
  std::string Error;
  /// The emitted program (equals the input when nothing was applied).
  Program Patched;
  /// The chosen mitigations, cheapest-first, in original coordinates.
  std::vector<Mitigation> Applied;
  /// Per-site depth clamps of the *patched* program's SpecPlan (parallel
  /// to its sites; UINT32_MAX = unclamped). Feed to MustHitOptions::
  /// SiteDepthClamp when re-analyzing, and to SpeculativeCpu window
  /// overrides at each site branch when executing.
  std::vector<uint32_t> SiteClamps;
  uint64_t WcetBefore = 0;
  /// WCET bound of the emitted program under the emitted clamps — the
  /// repair's reported cost is WcetAfter - WcetBefore (>= 0 unless a
  /// hoist removed accesses outright).
  uint64_t WcetAfter = 0;
  uint64_t LeaksBefore = 0;
  /// Leaks the re-analysis of the chosen set still reports (0 when
  /// Repaired).
  uint64_t LeaksAfter = 0;
  /// Leaks of the initial report that only the speculative analysis sees.
  uint64_t SpecOnlyLeaksBefore = 0;
  /// Candidate mitigations generated.
  unsigned Candidates = 0;
  /// Full program re-analyses the search performed: the initial reports
  /// plus one per distinct mitigation sequence evaluated (cost annotation
  /// and set evaluation; a sequence met again reuses its verdicts).
  unsigned Reanalyses = 0;
  bool UsedExactSearch = false;

  /// Sum of the applied mitigations' standalone costs.
  uint64_t totalCost() const {
    uint64_t Sum = 0;
    for (const Mitigation &M : Applied)
      Sum += M.Cost;
    return Sum;
  }
};

/// Synthesizes a minimum-cost repair for \p CP (InlineUnroll programs
/// only). Deterministic in (program, options).
RepairResult synthesizeRepairs(const CompiledProgram &CP,
                               const RepairOptions &Options = {});

} // namespace specai

#endif // SPECAI_REPAIR_MITIGATIONSYNTH_H
