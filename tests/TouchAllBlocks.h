//===- TouchAllBlocks.h - Fixtures that access every block ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit fixtures drive CacheAbsState transfers on arbitrary blocks of a
/// hand-built Program. A state tracks only blocks of its MemoryModel's
/// universes, which come from the program's accesses, so such fixtures
/// give their Program one register-indexed load per variable before
/// building the model, which puts every line and symbolic instance of the
/// variable in the universe.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_TESTS_TOUCHALLBLOCKS_H
#define SPECAI_TESTS_TOUCHALLBLOCKS_H

#include "ir/Ir.h"

#include <algorithm>

namespace specai {

/// Inserts the accesses ahead of the terminator of \p P's entry block.
inline void touchAllBlocks(Program &P) {
  std::vector<Instruction> &Insts = P.Blocks.front().Insts;
  for (VarId V = 0; V != P.Vars.size(); ++V) {
    Instruction Load;
    Load.Op = Opcode::Load;
    Load.Dst = 0;
    Load.Var = V;
    Load.Index = Operand::reg(0);
    Insts.insert(Insts.end() - 1, Load);
  }
  P.NumRegs = std::max<uint32_t>(P.NumRegs, 1);
}

} // namespace specai

#endif // SPECAI_TESTS_TOUCHALLBLOCKS_H
