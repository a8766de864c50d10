//===- Interp.cpp ---------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include <cassert>

using namespace specai;

Machine::Machine(const Program &P) : P(P) {
  Regs.assign(P.NumRegs, 0);
  Memory.resize(P.Vars.size());
  for (size_t V = 0; V != P.Vars.size(); ++V) {
    const MemVar &Var = P.Vars[V];
    Memory[V].assign(Var.NumElements, 0);
    for (size_t I = 0; I != Var.Init.size() && I != Var.NumElements; ++I)
      Memory[V][I] = Var.Init[I];
  }
  Halted = P.Blocks.empty();
}

void Machine::setMemory(VarId Var, uint64_t Element, int64_t Value) {
  assert(Var < Memory.size() && "variable out of range");
  assert(Element < Memory[Var].size() && "element out of range");
  Memory[Var][Element] = Value;
}

void Machine::setMemoryAll(VarId Var, const std::vector<int64_t> &Values) {
  assert(Var < Memory.size() && "variable out of range");
  for (size_t I = 0; I != Values.size() && I != Memory[Var].size(); ++I)
    Memory[Var][I] = Values[I];
}

bool Machine::setRegGlobal(const std::string &Name, int64_t Value) {
  for (const RegGlobal &G : P.RegGlobals) {
    if (G.Name == Name) {
      Regs[G.Reg] = Value;
      return true;
    }
  }
  return false;
}

int64_t Machine::readMemory(VarId Var, uint64_t Element) const {
  assert(Var < Memory.size() && Element < Memory[Var].size());
  return Memory[Var][Element];
}

int64_t Machine::readReg(RegId Reg) const {
  assert(Reg < Regs.size());
  return Regs[Reg];
}

const Instruction &Machine::currentInstruction() const {
  assert(!Halted && "machine is halted");
  return P.Blocks[CurBlock].Insts[CurInst];
}

int64_t Machine::evalOperand(const Operand &Op) const {
  switch (Op.K) {
  case Operand::Kind::None:
    return 0;
  case Operand::Kind::Imm:
    return Op.Imm;
  case Operand::Kind::Reg:
    return Regs[Op.Reg];
  }
  return 0;
}

Machine::StepResult Machine::step() {
  StepResult R;
  if (Halted) {
    R.DidHalt = true;
    return R;
  }
  R.Block = CurBlock;
  R.InstIndex = CurInst;

  const Instruction &I = P.Blocks[CurBlock].Insts[CurInst];
  switch (I.Op) {
  case Opcode::Mov:
    Regs[I.Dst] = evalOperand(I.A);
    ++CurInst;
    break;
  case Opcode::Bin:
    Regs[I.Dst] = evalIrBinOp(I.BinOp, evalOperand(I.A), evalOperand(I.B));
    ++CurInst;
    break;
  case Opcode::Load: {
    uint64_t Elem =
        I.Index.isNone() ? 0 : P.Vars[I.Var].wrapIndex(evalOperand(I.Index));
    Regs[I.Dst] = Memory[I.Var][Elem];
    R.DidAccess = true;
    R.Access = {I.Var, Elem, /*IsLoad=*/true, CurBlock, CurInst};
    ++CurInst;
    break;
  }
  case Opcode::Store: {
    uint64_t Elem =
        I.Index.isNone() ? 0 : P.Vars[I.Var].wrapIndex(evalOperand(I.Index));
    if (!SuppressStores)
      Memory[I.Var][Elem] = evalOperand(I.A);
    R.DidAccess = true;
    R.Access = {I.Var, Elem, /*IsLoad=*/false, CurBlock, CurInst};
    ++CurInst;
    break;
  }
  case Opcode::Br: {
    bool Taken = evalOperand(I.A) != 0;
    R.WasBranch = true;
    R.BranchTaken = Taken;
    CurBlock = Taken ? I.TrueTarget : I.FalseTarget;
    CurInst = 0;
    break;
  }
  case Opcode::Jmp:
    CurBlock = I.TrueTarget;
    CurInst = 0;
    break;
  case Opcode::Ret:
    RetVal = evalOperand(I.A);
    Halted = true;
    R.DidHalt = true;
    break;
  case Opcode::Call:
    // Summarize-mode programs are analyzed abstractly, never executed;
    // concrete legs always run the InlineUnroll program. If one reaches an
    // interpreter anyway, treat the call result as an unknown zero so the
    // machine stays total.
    Regs[I.Dst] = 0;
    ++CurInst;
    break;
  case Opcode::Fence:
    // Architecturally a no-op; its speculation-barrier effect lives in the
    // pipeline (SpeculativeCpu ends the window) and the abstract engines.
    ++CurInst;
    break;
  }
  return R;
}

uint64_t Machine::run(uint64_t MaxSteps, std::vector<AccessEvent> *Trace) {
  uint64_t Steps = 0;
  while (!Halted && Steps < MaxSteps) {
    StepResult R = step();
    ++Steps;
    if (R.DidAccess && Trace)
      Trace->push_back(R.Access);
  }
  return Steps;
}

Machine::Checkpoint Machine::checkpoint() const {
  return Checkpoint{Regs, CurBlock, CurInst, Halted, RetVal};
}

void Machine::restore(const Checkpoint &C) {
  Regs = C.Regs;
  CurBlock = C.Block;
  CurInst = C.Inst;
  Halted = C.Halted;
  RetVal = C.RetVal;
}

void Machine::jumpTo(BlockId Block, uint32_t Inst) {
  assert(Block < P.Blocks.size());
  CurBlock = Block;
  CurInst = Inst;
  Halted = false;
}
