//===- Interp.h - Concrete IR machine ---------------------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete, single-stepping executor for lowered programs. It serves two
/// substrates: functional testing of the frontend, and the speculative CPU
/// simulator (src/pipeline), which needs instruction-level stepping,
/// register checkpoints for rollback, and a switch that suppresses store
/// commits during speculative windows (stores sit in the store buffer and
/// are squashed on misprediction, so they never touch memory or the cache).
///
/// Array indices are wrapped modulo the array length (total semantics), so
/// wild speculative indexing cannot fault.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_IR_INTERP_H
#define SPECAI_IR_INTERP_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace specai {

/// One dynamic memory access: which element of which variable, and where in
/// the program it happened.
struct AccessEvent {
  VarId Var = InvalidVar;
  uint64_t Element = 0;
  bool IsLoad = true;
  BlockId Block = InvalidBlock;
  uint32_t InstIndex = 0;
};

/// Concrete machine state over a Program.
class Machine {
public:
  explicit Machine(const Program &P);

  /// Overrides the initial value of a memory element (program input).
  void setMemory(VarId Var, uint64_t Element, int64_t Value);
  /// Sets every element of \p Var from \p Values (shorter vectors leave the
  /// tail untouched).
  void setMemoryAll(VarId Var, const std::vector<int64_t> &Values);
  /// Sets a `reg` global by name; returns false if no such register global.
  bool setRegGlobal(const std::string &Name, int64_t Value);

  int64_t readMemory(VarId Var, uint64_t Element) const;
  int64_t readReg(RegId Reg) const;

  bool halted() const { return Halted; }
  int64_t returnValue() const { return RetVal; }

  BlockId currentBlock() const { return CurBlock; }
  uint32_t currentInst() const { return CurInst; }
  /// The instruction that the next step() will execute. Invalid to call
  /// when halted.
  const Instruction &currentInstruction() const;

  /// Effect of one step, for simulator consumption.
  struct StepResult {
    bool DidAccess = false;
    AccessEvent Access;
    bool WasBranch = false;
    bool BranchTaken = false;
    bool DidHalt = false;
    /// Location of the executed instruction (the pre-step program
    /// counter), so per-instruction observers — the simulator's commit
    /// hook, the fuzzer's cycle-charging probe — can attribute the step
    /// to a CFG node without re-deriving the machine's position.
    BlockId Block = InvalidBlock;
    uint32_t InstIndex = 0;
  };

  /// Executes one instruction. No-op (DidHalt=true) when already halted.
  StepResult step();

  /// Runs until halt or \p MaxSteps, appending every access to \p Trace
  /// (pass nullptr to discard). Returns the number of steps executed.
  uint64_t run(uint64_t MaxSteps, std::vector<AccessEvent> *Trace = nullptr);

  /// When true, Store instructions do not modify memory (speculative store
  /// buffering); everything else behaves normally.
  void setSuppressStores(bool Suppress) { SuppressStores = Suppress; }

  /// Register-file + program-counter checkpoint for speculation rollback.
  /// Memory is deliberately not captured: non-speculative memory is only
  /// changed by committed stores, and speculative stores are suppressed.
  struct Checkpoint {
    std::vector<int64_t> Regs;
    BlockId Block;
    uint32_t Inst;
    bool Halted;
    int64_t RetVal;
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint &C);

  /// Forces the program counter; used by the simulator to steer the machine
  /// down a predicted branch target.
  void jumpTo(BlockId Block, uint32_t Inst = 0);

private:
  int64_t evalOperand(const Operand &Op) const;

  const Program &P;
  std::vector<int64_t> Regs;
  std::vector<std::vector<int64_t>> Memory;
  BlockId CurBlock = Program::EntryBlock;
  uint32_t CurInst = 0;
  bool Halted = false;
  bool SuppressStores = false;
  int64_t RetVal = 0;
};

} // namespace specai

#endif // SPECAI_IR_INTERP_H
