//===- Vcfg.h - Virtual control flow planning -------------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discovers the program's speculation sites and colors (paper §5.1, §6.4).
/// A *site* is a conditional branch whose condition depends on memory (the
/// paper: "a virtual control flow occurs at every if-else statement where
/// the branching condition depends on some variables stored in memory").
/// Each site yields two *colors*, one per mispredicted direction: color
/// (site, wrong=T) models speculatively executing the taken side while the
/// actual execution proceeds to the fall-through side, and vice versa.
///
/// The plan also records, per site:
///  - the immediate post-dominator (the control-flow join below the branch,
///    where just-in-time merging folds post-rollback states back into the
///    normal flow, Figure 7's bb4), and
///  - the Load nodes feeding the branch condition (used by the §6.2 dynamic
///    depth bounding: when those loads are must-hits, the condition
///    resolves fast and the speculation window shrinks from b_miss to
///    b_hit).
///
/// The engine never materializes vn_start/vn_stop nodes: the virtual
/// control flow is realized as separate per-color state slots flowing over
/// the original nodes, with the seeding edge (n -> vn_start) at the branch
/// and the conversion edge (vn_stop -> n) at the rollback target. This is
/// the "generalized worklist" formulation the paper sketches at the end of
/// §6.4 ("the special merge nodes ... can be viewed as merely optimization
/// hints").
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_AI_VCFG_H
#define SPECAI_AI_VCFG_H

#include "cfg/Dominators.h"
#include "cfg/FlatCfg.h"

#include <cstdint>
#include <vector>

namespace specai {

/// Index of a speculation color (two per site).
using ColorId = uint32_t;

/// One speculatable branch.
struct SpecSite {
  /// The Br node.
  NodeId Branch = InvalidNode;
  /// Entry node of the taken (true) side.
  NodeId TakenEntry = InvalidNode;
  /// Entry node of the fall-through (false) side.
  NodeId FallEntry = InvalidNode;
  /// Immediate post-dominator of the branch; InvalidNode when the sides
  /// never rejoin (e.g. both return).
  NodeId Ipdom = InvalidNode;
  /// Load nodes feeding the branch condition (flow-insensitive backward
  /// slice through registers).
  std::vector<NodeId> CondLoads;
};

/// One speculative execution color: a site plus the mispredicted side.
struct SpecColor {
  uint32_t Site = 0;
  /// True when the speculated (wrong) side is the taken target.
  bool WrongIsTaken = true;
};

/// The speculation plan of a program: all sites and colors.
class SpecPlan {
public:
  /// Computes the plan. \p Pdom must be the post-dominator tree of \p G.
  /// When \p OnlyMemoryDependent is set (the paper's rule), branches whose
  /// condition never touches memory are skipped.
  static SpecPlan compute(const FlatCfg &G, const DominatorTree &Pdom,
                          bool OnlyMemoryDependent = true);

  const std::vector<SpecSite> &sites() const { return Sites; }
  const std::vector<SpecColor> &colors() const { return Colors; }

  size_t siteCount() const { return Sites.size(); }
  size_t colorCount() const { return Colors.size(); }

  const SpecSite &siteOf(ColorId C) const { return Sites[Colors[C].Site]; }

  /// Entry node of the speculated (mispredicted) side of color \p C.
  NodeId wrongEntry(ColorId C) const {
    const SpecSite &S = siteOf(C);
    return Colors[C].WrongIsTaken ? S.TakenEntry : S.FallEntry;
  }
  /// Entry node of the architecturally correct side (the rollback target).
  NodeId correctEntry(ColorId C) const {
    const SpecSite &S = siteOf(C);
    return Colors[C].WrongIsTaken ? S.FallEntry : S.TakenEntry;
  }

private:
  std::vector<SpecSite> Sites;
  std::vector<SpecColor> Colors;
};

/// Flow-insensitive set of registers whose value (transitively) depends on
/// memory. Exposed for testing.
std::vector<bool> computeMemoryDependentRegs(const Program &P);

} // namespace specai

#endif // SPECAI_AI_VCFG_H
