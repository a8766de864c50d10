//===- Ir.h - Three-address IR for cache analysis ---------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact three-address IR. The paper's analysis operates on a CFG whose
/// instructions reference memory; our lowering keeps every named (non-`reg`)
/// variable memory resident — as an LLVM `alloca` would — so loads/stores
/// appear exactly where the paper's example tables show them, and uses
/// fresh virtual registers for temporaries.
///
/// Under the default InlineUnroll lowering a Program is a single fully
/// inlined function: Sema guarantees an acyclic call graph and the lowering
/// inlines every call, which keeps the abstract interpretation
/// intraprocedural as in the paper's evaluation. The Summarize lowering
/// instead keeps one Program per function and links call sites through the
/// Call opcode: the callee is named by an index into CalleeNames, shared by
/// every Program of the module so the interprocedural summary table can be
/// indexed uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_IR_IR_H
#define SPECAI_IR_IR_H

#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace specai {

/// Virtual register index.
using RegId = uint32_t;
inline constexpr RegId InvalidReg = std::numeric_limits<RegId>::max();

/// Memory variable index into Program::Vars.
using VarId = uint32_t;
inline constexpr VarId InvalidVar = std::numeric_limits<VarId>::max();

/// Basic block index into Program::Blocks.
using BlockId = uint32_t;
inline constexpr BlockId InvalidBlock = std::numeric_limits<BlockId>::max();

/// A register or immediate operand (or absent).
struct Operand {
  enum class Kind : uint8_t { None, Reg, Imm };
  Kind K = Kind::None;
  RegId Reg = InvalidReg;
  int64_t Imm = 0;

  static Operand none() { return Operand(); }
  static Operand reg(RegId R) {
    Operand Op;
    Op.K = Kind::Reg;
    Op.Reg = R;
    return Op;
  }
  static Operand imm(int64_t V) {
    Operand Op;
    Op.K = Kind::Imm;
    Op.Imm = V;
    return Op;
  }

  bool isNone() const { return K == Kind::None; }
  bool isReg() const { return K == Kind::Reg; }
  bool isImm() const { return K == Kind::Imm; }

  /// Renders as "r12", "42", or "_".
  std::string str() const;
};

/// Instruction opcodes. Br is a two-way conditional branch; Jmp is
/// unconditional. Every block ends in exactly one of Br/Jmp/Ret. Call only
/// appears in Summarize-mode programs: it transfers to another Program of
/// the module and falls through to the next instruction, so it is *not* a
/// terminator — the abstract engines apply the callee's summary as a
/// single-node effect. Fence is a speculation barrier (the mitigation
/// primitive of docs/MITIGATION.md): architecturally a one-cycle no-op, but
/// a speculative window that reaches one ends there, both in the concrete
/// pipeline (SpeculativeCpu) and in the abstract engines
/// (identity transfer, speculative flows drain at the node). The lowering
/// never emits it; only the repair synthesizer inserts fences.
enum class Opcode : uint8_t { Mov, Bin, Load, Store, Br, Jmp, Ret, Call, Fence };

/// Binary ALU operations; comparisons produce 0/1.
enum class IrBinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Shl,
  Shr,
  And,
  Or,
  Xor,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
};

/// Printable spelling, e.g. "add".
const char *irBinOpName(IrBinOp Op);

/// Evaluates \p Op on concrete values with total semantics (division by
/// zero yields 0, shift counts are masked to 0..63) so the interpreter and
/// constant folder can never trap.
int64_t evalIrBinOp(IrBinOp Op, int64_t L, int64_t R);

/// One IR instruction.
///
/// Field usage by opcode:
///   Mov   : Dst, A
///   Bin   : Dst, BinOp, A, B
///   Load  : Dst, Var, Index (element index operand; None for scalars)
///   Store : Var, Index, A (value)
///   Br    : A (condition), TrueTarget, FalseTarget
///   Jmp   : TrueTarget
///   Ret   : A (optional value)
///   Call  : Dst (return value), Callee (index into Program::CalleeNames)
struct Instruction {
  Opcode Op = Opcode::Mov;
  IrBinOp BinOp = IrBinOp::Add;
  SourceLoc Loc;
  RegId Dst = InvalidReg;
  Operand A;
  Operand B;
  VarId Var = InvalidVar;
  Operand Index;
  BlockId TrueTarget = InvalidBlock;
  BlockId FalseTarget = InvalidBlock;
  /// Call only: which module function is invoked (Program::CalleeNames
  /// index, shared across the module's Programs).
  uint32_t Callee = 0;

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::Jmp || Op == Opcode::Ret;
  }
  bool accessesMemory() const {
    return Op == Opcode::Load || Op == Opcode::Store;
  }
};

/// A memory-resident object: a scalar (NumElements == 1) or a 1-D array.
struct MemVar {
  /// Unique name, e.g. "ph" for globals or "quantl.wd" for locals.
  std::string Name;
  /// Size of one element in bytes (1/2/4/8).
  uint32_t ElemSize = 4;
  uint64_t NumElements = 1;
  /// Source-level `secret` qualifier; seeds the taint analysis.
  bool IsSecret = false;
  /// True for globals with initializers; Init holds the values (shorter
  /// lists zero-fill, as in C).
  bool HasInit = false;
  std::vector<int64_t> Init;

  uint64_t sizeInBytes() const { return NumElements * ElemSize; }

  /// The element an index names: modulo the element count, with total
  /// semantics (negative indices wrap too), so the concrete machine and
  /// the cache analyses agree on out-of-range indices.
  uint64_t wrapIndex(int64_t Index) const {
    if (NumElements == 0)
      return 0;
    int64_t M = Index % static_cast<int64_t>(NumElements);
    if (M < 0)
      M += static_cast<int64_t>(NumElements);
    return static_cast<uint64_t>(M);
  }
};

/// A basic block: zero or more straight-line instructions followed by a
/// terminator.
struct BasicBlock {
  std::string Name;
  std::vector<Instruction> Insts;

  const Instruction &terminator() const {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }
};

/// A `reg`-qualified source variable that lives in a virtual register and is
/// invisible to the cache (the paper's Figure 2 `reg char k`). Kept in the
/// Program so interpreters can seed input values and the taint analysis can
/// find secret registers.
struct RegGlobal {
  std::string Name;
  RegId Reg = InvalidReg;
  bool IsSecret = false;
};

/// A statically known trip count of a counted loop that the Summarize
/// lowering kept rolled: the loop headed by block \p Header executes its
/// header at most \p HeaderExecutions times (trip count + 1 exit test).
/// estimateWcet scales the loop's body by this instead of the global
/// LoopIterationBound.
struct LoopTripRecord {
  BlockId Header = InvalidBlock;
  uint64_t HeaderExecutions = 0;
};

/// A lowered program: the unit of analysis. Fully inlined and unrolled
/// under the InlineUnroll lowering; one Program per function, with rolled
/// loops and Call links, under the Summarize lowering.
class Program {
public:
  std::vector<MemVar> Vars;
  std::vector<RegGlobal> RegGlobals;
  std::vector<BasicBlock> Blocks;
  /// Number of virtual registers used.
  uint32_t NumRegs = 0;
  /// Entry block is always index 0.
  static constexpr BlockId EntryBlock = 0;
  /// Name of the source-level entry function.
  std::string EntryName;
  /// Summarize mode: names of the module's non-entry functions, in
  /// bottom-up call-graph order. Instruction::Callee indexes this table.
  /// Shared (identical) across every Program of one module; empty under
  /// InlineUnroll.
  std::vector<std::string> CalleeNames;
  /// Summarize mode: counted loops kept rolled, with their static bounds.
  std::vector<LoopTripRecord> LoopTrips;

  /// Finds a memory variable by name; InvalidVar if absent.
  VarId findVar(const std::string &Name) const;

  /// Total instruction count across all blocks.
  size_t instructionCount() const;

  /// Renders the whole program as readable text.
  std::string str() const;
};

} // namespace specai

#endif // SPECAI_IR_IR_H
