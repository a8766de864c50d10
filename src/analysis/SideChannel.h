//===- SideChannel.h - Cache timing side channel detection ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache timing side channel detection (paper §2.2, §7.3). An access whose
/// address depends on secret data is *leak-free* when its cache behavior is
/// independent of the secret — which the MUST analysis certifies by proving
/// every line the access could touch resident (then the access hits for
/// every secret value). Otherwise the secret selects between hit and miss,
/// and an attacker timing the program learns about it — the paper's Figure
/// 2/10 scenario, where speculative execution evicts part of a preloaded
/// table.
///
/// The detector reports a leak when some secret-indexed access is reachable
/// and not fully must-hit. Run it once over a non-speculative report and
/// once over a speculative report to reproduce Table 7's contrast.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_ANALYSIS_SIDECHANNEL_H
#define SPECAI_ANALYSIS_SIDECHANNEL_H

#include "analysis/AnalysisPipeline.h"
#include "analysis/Taint.h"

#include <string>
#include <vector>

namespace specai {

/// One potential leak site.
struct LeakSite {
  NodeId Node = InvalidNode;
  /// Array being indexed by secret data.
  VarId Var = InvalidVar;
  /// Leak visible only when speculation is modeled (set by callers that
  /// diff speculative vs non-speculative reports).
  bool SpeculationOnly = false;
  /// Summarize mode: CompiledProgram::Callees index of the CFG holding
  /// Node, or -1 for the entry program (always -1 under InlineUnroll).
  int32_t Callee = -1;
  SourceLoc Loc;
  std::string str(const Program &P) const;
};

/// Result of leak detection over one analysis report.
struct SideChannelReport {
  std::vector<LeakSite> Leaks;
  /// Number of secret-indexed accesses that were proven leak-free
  /// (== LeakFreeSites.size()).
  uint64_t ProvenLeakFree = 0;
  /// The reachable secret-indexed access nodes proven leak-free. The
  /// fuzzer's concrete timing attacker checks these: their attacker-
  /// visible hit/miss behavior must be independent of the secret.
  /// Summarize mode: node ids of callee sites are relative to their own
  /// CFG (disambiguate via LeakFreeLocs, which is what the lowering
  /// oracle compares).
  std::vector<NodeId> LeakFreeSites;
  /// Source location of each LeakFreeSites entry (parallel vector).
  std::vector<SourceLoc> LeakFreeLocs;
  bool leakDetected() const { return !Leaks.empty(); }
};

/// Options of the leak detector.
struct SideChannelOptions {
  /// Test-only fault injection (support/Fault.h); only the three Leak* values
  /// have an effect here. Never set outside tests.
  InjectedFault Fault = InjectedFault::None;
};

/// Scans \p R's classification for secret-indexed accesses that are not
/// guaranteed hits.
SideChannelReport detectLeaks(const CompiledProgram &CP,
                              const MustHitReport &R,
                              const SideChannelOptions &Options = {});

/// Diffs a speculative-analysis leak report against a non-speculative one
/// (the paper's Table 7 contrast): every leak of \p Spec at a site the
/// non-speculative analysis did *not* flag is marked SpeculationOnly —
/// visible to a timing attacker only because speculative execution
/// perturbs the cache. Returns the number of sites flagged.
unsigned annotateSpeculationOnly(SideChannelReport &Spec,
                                 const SideChannelReport &NonSpec,
                                 const SideChannelOptions &Options = {});

} // namespace specai

#endif // SPECAI_ANALYSIS_SIDECHANNEL_H
