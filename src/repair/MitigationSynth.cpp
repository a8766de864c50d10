//===- MitigationSynth.cpp ------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "repair/MitigationSynth.h"

#include "memory/MemoryModel.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

using namespace specai;

const char *specai::mitigationKindName(MitigationKind K) {
  switch (K) {
  case MitigationKind::Clamp:
    return "clamp";
  case MitigationKind::Fence:
    return "fence";
  case MitigationKind::Hoist:
    return "hoist";
  case MitigationKind::Preload:
    return "preload";
  }
  return "?";
}

std::string Mitigation::str(const Program &P) const {
  std::string Out = mitigationKindName(Kind);
  switch (Kind) {
  case MitigationKind::Clamp:
    Out += " site " + std::to_string(Site) + " to depth " +
           std::to_string(Depth);
    break;
  case MitigationKind::Fence:
    Out += " at bb" + std::to_string(Block);
    break;
  case MitigationKind::Hoist:
  case MitigationKind::Preload:
    Out += " '";
    Out += Var < P.Vars.size() ? P.Vars[Var].Name : "<unknown>";
    Out += "'";
    if (Kind == MitigationKind::Preload)
      Out += " before node " + std::to_string(Node);
    break;
  }
  Out += " (cost " + std::to_string(Cost) + ")";
  return Out;
}

namespace {

/// A clamp pinned to patched-program coordinates: the site branch's
/// (block, instruction index) after insertion shifting, plus the depth.
struct ClampAt {
  BlockId Block = InvalidBlock;
  uint32_t InstIdx = 0;
  uint32_t Depth = 0;
};

/// Applies \p Set to \p Orig. Insertions (fences, preloads, hoist
/// initializers) never change block ids — branch targets stay valid — so
/// the rewrite is purely local. \p DropInserted emits the FenceDropped
/// fault: every fence and preload insertion is silently omitted (hoist
/// rewrites survive; dropping their initializers would change semantics
/// the *search* never claimed).
Program applyMitigations(const Program &Orig, const FlatCfg &G,
                         const CacheConfig &Cache,
                         const std::vector<Mitigation> &Set,
                         bool DropInserted, std::vector<ClampAt> &ClampsOut) {
  Program P = Orig;
  ClampsOut.clear();

  // Hoists first: they allocate registers and rewrite accesses in place.
  std::map<VarId, RegId> Hoisted;
  for (const Mitigation &M : Set) {
    if (M.Kind != MitigationKind::Hoist || Hoisted.count(M.Var))
      continue;
    RegId R = P.NumRegs++;
    Hoisted.emplace(M.Var, R);
    P.RegGlobals.push_back(
        {P.Vars[M.Var].Name, R, P.Vars[M.Var].IsSecret});
  }
  if (!Hoisted.empty()) {
    for (BasicBlock &B : P.Blocks) {
      for (Instruction &I : B.Insts) {
        if (!I.accessesMemory())
          continue;
        auto It = Hoisted.find(I.Var);
        if (It == Hoisted.end())
          continue;
        if (I.Op == Opcode::Load) {
          // load r, v  ->  mov r, vreg
          Instruction Mov;
          Mov.Op = Opcode::Mov;
          Mov.Loc = I.Loc;
          Mov.Dst = I.Dst;
          Mov.A = Operand::reg(It->second);
          I = Mov;
        } else {
          // store v, x  ->  mov vreg, x
          Instruction Mov;
          Mov.Op = Opcode::Mov;
          Mov.Loc = I.Loc;
          Mov.Dst = It->second;
          Mov.A = I.A;
          I = Mov;
        }
      }
    }
  }

  // Collect insertions as (block, original index, instructions inserted
  // *before* that index). Map order makes the emission deterministic.
  std::map<std::pair<BlockId, uint32_t>, std::vector<Instruction>> Inserts;

  // Hoist initializers: globals with initializers must start with their
  // value in the register (the machine zero-initializes registers, so
  // uninitialized hoists need nothing).
  for (const auto &[Var, Reg] : Hoisted) {
    const MemVar &V = Orig.Vars[Var];
    if (!V.HasInit)
      continue;
    Instruction Mov;
    Mov.Op = Opcode::Mov;
    Mov.Dst = Reg;
    Mov.A = Operand::imm(V.Init.empty() ? 0 : V.Init[0]);
    Inserts[{Program::EntryBlock, 0}].push_back(Mov);
  }

  if (!DropInserted) {
    RegId Scratch = InvalidReg;
    for (const Mitigation &M : Set) {
      if (M.Kind == MitigationKind::Fence) {
        Instruction F;
        F.Op = Opcode::Fence;
        Inserts[{M.Block, 0}].push_back(F);
      } else if (M.Kind == MitigationKind::Preload) {
        if (Scratch == InvalidReg)
          Scratch = P.NumRegs++;
        const MemVar &V = Orig.Vars[M.Var];
        uint64_t Lines =
            (V.sizeInBytes() + Cache.LineSize - 1) / Cache.LineSize;
        uint64_t ElemsPerLine = std::max<uint64_t>(
            1, Cache.LineSize / std::max<uint32_t>(1, V.ElemSize));
        std::vector<Instruction> &At =
            Inserts[{G.blockOf(M.Node), G.instIndexOf(M.Node)}];
        for (uint64_t Line = 0; Line != Lines; ++Line) {
          Instruction L;
          L.Op = Opcode::Load;
          L.Loc = G.inst(M.Node).Loc;
          L.Dst = Scratch;
          L.Var = M.Var;
          if (V.NumElements > 1)
            L.Index = Operand::imm(
                static_cast<int64_t>(Line * ElemsPerLine));
          At.push_back(L);
        }
      }
    }
  }

  // Splice, back to front per block so earlier indices stay valid.
  for (auto It = Inserts.rbegin(); It != Inserts.rend(); ++It) {
    const auto &[Where, Insts] = *It;
    std::vector<Instruction> &Body = P.Blocks[Where.first].Insts;
    uint32_t At = std::min<uint32_t>(Where.second, Body.size());
    Body.insert(Body.begin() + At, Insts.begin(), Insts.end());
  }

  // Clamp coordinates shift by the insertions that landed at or before
  // the branch within its block.
  for (const Mitigation &M : Set) {
    if (M.Kind != MitigationKind::Clamp)
      continue;
    BlockId B = G.blockOf(M.Node);
    uint32_t Idx = G.instIndexOf(M.Node);
    uint32_t Shift = 0;
    for (const auto &[Where, Insts] : Inserts)
      if (Where.first == B && Where.second <= Idx)
        Shift += Insts.size();
    ClampsOut.push_back({B, Idx + Shift, M.Depth});
  }
  return P;
}

/// The verdicts of one evaluated mitigation set.
struct EvalOutcome {
  uint64_t Leaks = 0;
  uint64_t Wcet = 0;
  bool BudgetExceeded = false;
  /// The patched program failed to recompile — a synthesizer bug, never a
  /// search outcome; aborts the synthesis with RepairResult::Error.
  bool CompileFailed = false;
};

/// Maps \p Clamps onto \p CP's SpecPlan. Clamps whose branch left the
/// plan (a hoist can make a condition register-only) are dropped: the
/// engine never speculates there anyway.
std::vector<uint32_t> mapClamps(const CompiledProgram &CP,
                                const std::vector<ClampAt> &Clamps) {
  std::vector<uint32_t> Out(CP.Plan.siteCount(), UINT32_MAX);
  for (const ClampAt &C : Clamps) {
    NodeId Br = CP.G.nodeAt(C.Block, C.InstIdx);
    for (size_t Site = 0; Site != CP.Plan.siteCount(); ++Site)
      if (CP.Plan.sites()[Site].Branch == Br)
        Out[Site] = std::min(Out[Site], C.Depth);
  }
  return Out;
}

bool anyClamped(const std::vector<uint32_t> &Clamps) {
  for (uint32_t C : Clamps)
    if (C != UINT32_MAX)
      return true;
  return false;
}

/// Compiles and analyzes \p Orig patched with \p Set.
EvalOutcome evaluateSet(const Program &Orig, const FlatCfg &G,
                        const RepairOptions &Options,
                        const std::vector<Mitigation> &Set,
                        unsigned &Reanalyses) {
  EvalOutcome Out;
  std::vector<ClampAt> Clamps;
  Program Patched = applyMitigations(Orig, G, Options.Analysis.Cache, Set,
                                     /*DropInserted=*/false, Clamps);
  std::unique_ptr<CompiledProgram> CP = compileProgram(std::move(Patched));
  if (!CP) {
    Out.CompileFailed = true;
    return Out;
  }
  std::vector<uint32_t> SiteClamps = mapClamps(*CP, Clamps);

  MustHitOptions MO = Options.Analysis;
  if (anyClamped(SiteClamps))
    MO.SiteDepthClamp = std::move(SiteClamps);
  MustHitReport R = runMustHitAnalysis(*CP, MO);
  ++Reanalyses;
  if (R.BudgetExceeded) {
    Out.BudgetExceeded = true;
    return Out;
  }
  Out.Leaks = detectLeaks(*CP, R).Leaks.size();
  Out.Wcet = estimateWcet(*CP, R, Options.Wcet).WorstCaseCycles;
  return Out;
}

/// What evaluateSet reads of a mitigation sequence, in order: a fence
/// and a preload at the same position splice in set order, so the same
/// set in another order is another program. Costs are not read.
using SetKey = std::vector<
    std::tuple<uint8_t, uint32_t, uint32_t, BlockId, VarId, NodeId>>;

SetKey setKey(const std::vector<Mitigation> &Set) {
  SetKey Key;
  Key.reserve(Set.size());
  for (const Mitigation &M : Set)
    Key.emplace_back(static_cast<uint8_t>(M.Kind), M.Site, M.Depth, M.Block,
                     M.Var, M.Node);
  return Key;
}

/// Deterministic candidate order: cheapest first, menu rank and site/node
/// ids breaking ties.
bool candidateLess(const Mitigation &A, const Mitigation &B) {
  if (A.Cost != B.Cost)
    return A.Cost < B.Cost;
  if (A.Kind != B.Kind)
    return static_cast<uint8_t>(A.Kind) < static_cast<uint8_t>(B.Kind);
  if (A.Site != B.Site)
    return A.Site < B.Site;
  if (A.Block != B.Block)
    return A.Block < B.Block;
  if (A.Var != B.Var)
    return A.Var < B.Var;
  return A.Node < B.Node;
}

/// The candidate menu for \p CP given its initial leak report.
std::vector<Mitigation>
generateCandidates(const CompiledProgram &CP, const MemoryModel &MM,
                   const SideChannelReport &Leaks,
                   const RepairOptions &Options) {
  const Program &P = *CP.P;
  std::vector<Mitigation> Out;

  // Clamps: one per speculation site, at the floor depth. Depth 0 would
  // be a fence in disguise; real front ends always fetch something, so
  // only a fence may kill a window outright.
  for (uint32_t Site = 0; Site != CP.Plan.siteCount(); ++Site) {
    Mitigation M;
    M.Kind = MitigationKind::Clamp;
    M.Site = Site;
    M.Depth = 1;
    M.Node = CP.Plan.sites()[Site].Branch;
    Out.push_back(M);
  }

  // Fences: one per distinct mispredicted-path entry block.
  std::set<BlockId> FenceBlocks;
  for (const SpecSite &S : CP.Plan.sites()) {
    if (S.TakenEntry != InvalidNode)
      FenceBlocks.insert(CP.G.blockOf(S.TakenEntry));
    if (S.FallEntry != InvalidNode)
      FenceBlocks.insert(CP.G.blockOf(S.FallEntry));
  }
  for (BlockId B : FenceBlocks) {
    Mitigation M;
    M.Kind = MitigationKind::Fence;
    M.Block = B;
    Out.push_back(M);
  }

  // Hoists: accessed scalars (the UnsoundHoist fault drops the scalar
  // guard, which the repair oracle's equivalence replay must catch).
  std::vector<bool> Accessed(P.Vars.size(), false);
  for (const BasicBlock &B : P.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.accessesMemory() && I.Var < Accessed.size())
        Accessed[I.Var] = true;
  for (VarId V = 0; V != P.Vars.size(); ++V) {
    if (!Accessed[V])
      continue;
    if (P.Vars[V].NumElements != 1 &&
        Options.Analysis.Fault != InjectedFault::UnsoundHoist)
      continue;
    Mitigation M;
    M.Kind = MitigationKind::Hoist;
    M.Var = V;
    Out.push_back(M);
  }

  // Preloads: one per leak site whose array can fit in the cache at all;
  // whether residency actually survives to the access is the
  // re-analysis's call.
  std::set<NodeId> PreloadNodes;
  for (const LeakSite &L : Leaks.Leaks) {
    if (L.Node == InvalidNode || !PreloadNodes.insert(L.Node).second)
      continue;
    if (MM.numBlocksOf(L.Var) > Options.Analysis.Cache.NumLines)
      continue;
    Mitigation M;
    M.Kind = MitigationKind::Preload;
    M.Var = L.Var;
    M.Node = L.Node;
    Out.push_back(M);
  }
  return Out;
}

} // namespace

RepairResult specai::synthesizeRepairs(const CompiledProgram &CP,
                                       const RepairOptions &Options) {
  RepairResult Res;
  Res.Patched = *CP.P;
  if (CP.Mode != LoweringMode::InlineUnroll || !CP.Callees.empty()) {
    Res.Error = "repair synthesis requires an InlineUnroll program";
    return Res;
  }
  if (!Options.Analysis.SiteDepthClamp.empty()) {
    Res.Error = "RepairOptions::Analysis.SiteDepthClamp must be empty";
    return Res;
  }

  // Initial verdicts: the speculative report (leaks, WCET baseline) and
  // the non-speculative baseline for the SpeculationOnly labeling.
  MustHitReport R = runMustHitAnalysis(CP, Options.Analysis);
  ++Res.Reanalyses;
  if (R.BudgetExceeded) {
    Res.BudgetExceeded = true;
    return Res;
  }
  SideChannelReport Leaks = detectLeaks(CP, R);
  if (Options.Analysis.Speculative) {
    MustHitOptions NonSpecO = Options.Analysis;
    NonSpecO.Speculative = false;
    MustHitReport NonSpec = runMustHitAnalysis(CP, NonSpecO);
    ++Res.Reanalyses;
    if (NonSpec.BudgetExceeded) {
      Res.BudgetExceeded = true;
      return Res;
    }
    SideChannelReport NonSpecLeaks = detectLeaks(CP, NonSpec);
    Res.SpecOnlyLeaksBefore = annotateSpeculationOnly(Leaks, NonSpecLeaks);
  }
  Res.LeaksBefore = Leaks.Leaks.size();
  Res.WcetBefore = estimateWcet(CP, R, Options.Wcet).WorstCaseCycles;
  Res.WcetAfter = Res.WcetBefore;
  Res.SiteClamps.assign(CP.Plan.siteCount(), UINT32_MAX);
  if (Res.LeaksBefore == 0) {
    Res.Repaired = true;
    return Res;
  }

  MemoryModel MM(*CP.P, Options.Analysis.Cache);
  std::vector<Mitigation> Candidates =
      generateCandidates(CP, MM, Leaks, Options);
  Res.Candidates = Candidates.size();

  // The search meets the same sequence more than once (the cost pass's
  // singletons again in the exact search or the first greedy round, the
  // winning set in the final evaluation), so each distinct sequence is
  // analysed once per synthesis.
  std::map<SetKey, EvalOutcome> Evaluated;
  auto Evaluate = [&](const std::vector<Mitigation> &Set) {
    auto [It, Inserted] = Evaluated.try_emplace(setKey(Set));
    if (Inserted)
      It->second = evaluateSet(*CP.P, CP.G, Options, Set, Res.Reanalyses);
    return It->second;
  };
  // An evaluation that ran out of budget or failed to recompile ends the
  // synthesis.
  auto Aborts = [&](const EvalOutcome &E) {
    Res.BudgetExceeded = E.BudgetExceeded;
    if (E.CompileFailed)
      Res.Error = "patched program failed to recompile";
    return E.BudgetExceeded || E.CompileFailed;
  };

  // Cost-annotate each candidate alone.
  for (Mitigation &M : Candidates) {
    EvalOutcome E = Evaluate({M});
    if (Aborts(E))
      return Res;
    M.Cost = E.Wcet > Res.WcetBefore ? E.Wcet - Res.WcetBefore : 0;
  }
  std::sort(Candidates.begin(), Candidates.end(), candidateLess);

  std::vector<Mitigation> Chosen;
  uint64_t ChosenLeaks = Res.LeaksBefore;

  if (Candidates.size() <= Options.ExactSearchLimit &&
      !Candidates.empty()) {
    // Exact: enumerate subsets in ascending (total cost, size) order; the
    // first leak-free subset is a true minimum-cost repair.
    Res.UsedExactSearch = true;
    struct Subset {
      uint64_t Cost;
      unsigned Size;
      uint32_t Mask;
    };
    std::vector<Subset> Subsets;
    for (uint32_t Mask = 1; Mask < (1u << Candidates.size()); ++Mask) {
      uint64_t Cost = 0;
      unsigned Size = 0;
      for (size_t I = 0; I != Candidates.size(); ++I)
        if (Mask & (1u << I)) {
          Cost += Candidates[I].Cost;
          ++Size;
        }
      Subsets.push_back({Cost, Size, Mask});
    }
    std::sort(Subsets.begin(), Subsets.end(),
              [](const Subset &A, const Subset &B) {
                if (A.Cost != B.Cost)
                  return A.Cost < B.Cost;
                if (A.Size != B.Size)
                  return A.Size < B.Size;
                return A.Mask < B.Mask;
              });
    for (const Subset &S : Subsets) {
      std::vector<Mitigation> Set;
      for (size_t I = 0; I != Candidates.size(); ++I)
        if (S.Mask & (1u << I))
          Set.push_back(Candidates[I]);
      EvalOutcome E = Evaluate(Set);
      if (Aborts(E))
        return Res;
      if (E.Leaks == 0) {
        Chosen = std::move(Set);
        ChosenLeaks = 0;
        break;
      }
    }
  } else {
    // Greedy: repeatedly add the cheapest candidate that strictly shrinks
    // the leak count under full re-analysis, then prune.
    std::vector<bool> InSet(Candidates.size(), false);
    bool Progress = true;
    while (ChosenLeaks > 0 && Progress) {
      Progress = false;
      for (size_t I = 0; I != Candidates.size(); ++I) {
        if (InSet[I])
          continue;
        std::vector<Mitigation> Trial = Chosen;
        Trial.push_back(Candidates[I]);
        EvalOutcome E = Evaluate(Trial);
        if (Aborts(E))
          return Res;
        if (E.Leaks < ChosenLeaks) {
          Chosen = std::move(Trial);
          ChosenLeaks = E.Leaks;
          InSet[I] = true;
          Progress = true;
          break;
        }
      }
    }
    if (ChosenLeaks > 0 && !Candidates.empty()) {
      // No single addition helped strictly, but a combination may (a site
      // leaking through both wrong paths needs both fences before the
      // count drops). Fall back to the whole menu; the prune pass below
      // carves a redundant set back down.
      EvalOutcome E = Evaluate(Candidates);
      if (Aborts(E))
        return Res;
      if (E.Leaks == 0) {
        Chosen = Candidates;
        ChosenLeaks = 0;
      }
    }
    // Prune accepted mitigations made redundant by later ones: drop the
    // costliest removable member, restart until nothing is removable.
    bool Pruned = ChosenLeaks == 0 && Chosen.size() > 1;
    while (Pruned) {
      Pruned = false;
      std::vector<size_t> Order(Chosen.size());
      for (size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
        return Chosen[B].Cost < Chosen[A].Cost;
      });
      for (size_t Victim : Order) {
        std::vector<Mitigation> Trial;
        for (size_t I = 0; I != Chosen.size(); ++I)
          if (I != Victim)
            Trial.push_back(Chosen[I]);
        EvalOutcome E = Evaluate(Trial);
        if (Aborts(E))
          return Res;
        if (E.Leaks == 0) {
          Chosen = std::move(Trial);
          Pruned = Chosen.size() > 1;
          break;
        }
      }
    }
  }

  if (ChosenLeaks != 0) {
    // Unrepairable under this menu; report honestly.
    Res.LeaksAfter = ChosenLeaks;
    return Res;
  }

  // Final honest evaluation of the chosen set (verdicts the oracle holds
  // the synthesizer to).
  std::sort(Chosen.begin(), Chosen.end(), candidateLess);
  EvalOutcome Final = Evaluate(Chosen);
  if (Aborts(Final))
    return Res;
  Res.Repaired = true;
  Res.LeaksAfter = Final.Leaks;
  Res.WcetAfter = Final.Wcet;
  Res.Applied = Chosen;

  // Emission, where the injected repair faults live: the *reported*
  // verdicts above came from the honest search, but what leaves the
  // synthesizer is the patched program and its clamps.
  const InjectedFault Fault = Options.Analysis.Fault;
  std::vector<ClampAt> Clamps;
  Res.Patched = applyMitigations(
      *CP.P, CP.G, Options.Analysis.Cache, Chosen,
      /*DropInserted=*/Fault == InjectedFault::FenceDropped, Clamps);
  std::unique_ptr<CompiledProgram> Emitted = compileProgram(Res.Patched);
  if (!Emitted) {
    Res.Repaired = false;
    Res.Error = "patched program failed to recompile";
    return Res;
  }
  Res.SiteClamps = Fault == InjectedFault::ClampIgnored
                       ? std::vector<uint32_t>(Emitted->Plan.siteCount(),
                                               UINT32_MAX)
                       : mapClamps(*Emitted, Clamps);
  if (Fault == InjectedFault::CostUnderreported) {
    Res.WcetAfter = Res.WcetBefore;
    for (Mitigation &M : Res.Applied)
      M.Cost = 0;
  }
  return Res;
}
