//===- Vcfg.cpp -----------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "ai/Vcfg.h"

#include <algorithm>

using namespace specai;

std::vector<bool> specai::computeMemoryDependentRegs(const Program &P) {
  std::vector<bool> MemDep(P.NumRegs, false);
  bool Changed = true;
  // Flow-insensitive closure: a register is memory dependent if any of its
  // definitions loads from memory or reads a memory-dependent register.
  while (Changed) {
    Changed = false;
    for (const BasicBlock &Block : P.Blocks) {
      for (const Instruction &I : Block.Insts) {
        auto OperandDep = [&](const Operand &Op) {
          return Op.isReg() && MemDep[Op.Reg];
        };
        bool NewDep = false;
        switch (I.Op) {
        case Opcode::Load:
          NewDep = true;
          break;
        case Opcode::Mov:
          NewDep = OperandDep(I.A);
          break;
        case Opcode::Bin:
          NewDep = OperandDep(I.A) || OperandDep(I.B);
          break;
        default:
          continue;
        }
        if (NewDep && I.Dst != InvalidReg && !MemDep[I.Dst]) {
          MemDep[I.Dst] = true;
          Changed = true;
        }
      }
    }
  }
  return MemDep;
}

/// Collects Load nodes that (transitively, flow-insensitively) feed
/// register \p Root.
static std::vector<NodeId> collectFeedingLoads(const FlatCfg &G, RegId Root) {
  const Program &P = G.program();
  std::vector<NodeId> Loads;
  if (Root == InvalidReg)
    return Loads;

  // def map: register -> defining nodes.
  std::vector<std::vector<NodeId>> Defs(P.NumRegs);
  for (NodeId N = 0; N != G.size(); ++N) {
    const Instruction &I = G.inst(N);
    if ((I.Op == Opcode::Mov || I.Op == Opcode::Bin ||
         I.Op == Opcode::Load) &&
        I.Dst != InvalidReg)
      Defs[I.Dst].push_back(N);
  }

  std::vector<bool> SeenReg(P.NumRegs, false);
  std::vector<RegId> Stack{Root};
  SeenReg[Root] = true;
  while (!Stack.empty()) {
    RegId R = Stack.back();
    Stack.pop_back();
    for (NodeId Def : Defs[R]) {
      const Instruction &I = G.inst(Def);
      if (I.Op == Opcode::Load) {
        Loads.push_back(Def);
        continue;
      }
      auto Visit = [&](const Operand &Op) {
        if (Op.isReg() && !SeenReg[Op.Reg]) {
          SeenReg[Op.Reg] = true;
          Stack.push_back(Op.Reg);
        }
      };
      Visit(I.A);
      if (I.Op == Opcode::Bin)
        Visit(I.B);
    }
  }
  std::sort(Loads.begin(), Loads.end());
  Loads.erase(std::unique(Loads.begin(), Loads.end()), Loads.end());
  return Loads;
}

SpecPlan SpecPlan::compute(const FlatCfg &G, const DominatorTree &Pdom,
                           bool OnlyMemoryDependent) {
  SpecPlan Plan;
  std::vector<bool> MemDep;
  if (OnlyMemoryDependent)
    MemDep = computeMemoryDependentRegs(G.program());
  std::vector<bool> Reach = G.reachable();

  for (NodeId N = 0; N != G.size(); ++N) {
    if (!Reach[N])
      continue;
    const Instruction &I = G.inst(N);
    if (I.Op != Opcode::Br || I.TrueTarget == I.FalseTarget)
      continue;
    if (OnlyMemoryDependent &&
        !(I.A.isReg() && I.A.Reg < MemDep.size() && MemDep[I.A.Reg]))
      continue;

    SpecSite Site;
    Site.Branch = N;
    Site.TakenEntry = G.blockStart(I.TrueTarget);
    Site.FallEntry = G.blockStart(I.FalseTarget);
    Site.Ipdom = Pdom.idom(N);
    Site.CondLoads = I.A.isReg() ? collectFeedingLoads(G, I.A.Reg)
                                 : std::vector<NodeId>{};

    uint32_t SiteIdx = static_cast<uint32_t>(Plan.Sites.size());
    Plan.Sites.push_back(std::move(Site));
    Plan.Colors.push_back({SiteIdx, /*WrongIsTaken=*/true});
    Plan.Colors.push_back({SiteIdx, /*WrongIsTaken=*/false});
  }
  return Plan;
}
