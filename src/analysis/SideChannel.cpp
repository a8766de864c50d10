//===- SideChannel.cpp ----------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/SideChannel.h"

using namespace specai;

std::string LeakSite::str(const Program &P) const {
  std::string Out = "potential leak: secret-indexed access to '";
  Out += Var < P.Vars.size() ? P.Vars[Var].Name : "<unknown>";
  Out += "' at node " + std::to_string(Node);
  if (Loc.isValid())
    Out += " (line " + Loc.str() + ")";
  if (SpeculationOnly)
    Out += " [speculation-induced]";
  return Out;
}

namespace {

/// Scans one program's secret-indexed accesses into \p Report.
void scanProgram(const FlatCfg &G, const MustHitReport &R,
                 const TaintResult &Taint, int32_t Callee,
                 const SideChannelOptions &Options,
                 SideChannelReport &Report) {
  for (NodeId Node : Taint.SecretIndexedAccesses) {
    if (!R.Reachable[Node])
      continue;
    const Instruction &I = G.inst(Node);
    // Uniform behavior (guaranteed hit for every possible line, or
    // guaranteed miss for every possible line) cannot depend on the
    // secret; only Mixed accesses leak.
    bool Mixed = R.Classes[Node] == CacheDomain::AccessClass::Mixed;
    if (Options.Fault == InjectedFault::LeakSkipMixed)
      Mixed = false;
    if (Mixed && Options.Fault == InjectedFault::LeakDiscountSpeculation &&
        R.SpecPossibleMiss[Node])
      Mixed = false;
    if (!Mixed) {
      ++Report.ProvenLeakFree;
      Report.LeakFreeSites.push_back(Node);
      Report.LeakFreeLocs.push_back(I.Loc);
      continue;
    }
    LeakSite Site;
    Site.Node = Node;
    Site.Var = I.Var;
    Site.Callee = Callee;
    Site.Loc = I.Loc;
    Report.Leaks.push_back(Site);
  }
}

} // namespace

SideChannelReport specai::detectLeaks(const CompiledProgram &CP,
                                      const MustHitReport &R,
                                      const SideChannelOptions &Options) {
  SideChannelReport Report;
  if (CP.Callees.empty()) {
    TaintResult Taint = computeTaint(CP.G);
    scanProgram(CP.G, R, Taint, /*Callee=*/-1, Options, Report);
    return Report;
  }

  // Summarize mode: joint taint over the module, then scan the entry and
  // every callee against its own analysis report. A secret-indexed access
  // inside a callee leaks exactly like its inlined copy would.
  std::vector<const FlatCfg *> Gs;
  Gs.reserve(1 + CP.Callees.size());
  Gs.push_back(&CP.G);
  for (const std::unique_ptr<CompiledProgram> &Callee : CP.Callees)
    Gs.push_back(&Callee->G);
  std::vector<TaintResult> Taints = computeModuleTaint(Gs);

  scanProgram(CP.G, R, Taints[0], /*Callee=*/-1, Options, Report);
  for (size_t I = 0;
       I != CP.Callees.size() && I != R.CalleeReports.size(); ++I)
    scanProgram(CP.Callees[I]->G, *R.CalleeReports[I], Taints[1 + I],
                static_cast<int32_t>(I), Options, Report);
  return Report;
}

unsigned specai::annotateSpeculationOnly(SideChannelReport &Spec,
                                         const SideChannelReport &NonSpec,
                                         const SideChannelOptions &Options) {
  unsigned Flagged = 0;
  for (LeakSite &Site : Spec.Leaks) {
    bool LeaksWithoutSpeculation = false;
    for (const LeakSite &N : NonSpec.Leaks)
      if (N.Node == Site.Node && N.Callee == Site.Callee) {
        LeaksWithoutSpeculation = true;
        break;
      }
    Site.SpeculationOnly = !LeaksWithoutSpeculation &&
                           Options.Fault != InjectedFault::LeakDropSpecOnly;
    Flagged += Site.SpeculationOnly;
  }
  return Flagged;
}
