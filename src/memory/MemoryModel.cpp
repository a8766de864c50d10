//===- MemoryModel.cpp ----------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "memory/MemoryModel.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace specai;

MemoryModel::MemoryModel(const Program &P, const CacheConfig &Config,
                         const std::vector<const Program *> &Callees)
    : P(&P), Config(Config) {
  assert(Config.isValid() && "invalid cache geometry");
  Bases.resize(P.Vars.size());
  BlockCounts.resize(P.Vars.size());
  uint64_t NextAddr = 0;
  for (VarId V = 0; V != P.Vars.size(); ++V) {
    const MemVar &Var = P.Vars[V];
    Bases[V] = NextAddr;
    uint64_t Bytes = Var.sizeInBytes();
    uint64_t Lines = (Bytes + Config.LineSize - 1) / Config.LineSize;
    if (Lines == 0)
      Lines = 1;
    BlockCounts[V] = Lines;
    NextAddr += Lines * Config.LineSize; // Line-aligned placement.
  }
  TotalBlocks = NextAddr / Config.LineSize;
  SymbolicBase = TotalBlocks + 1024; // Gap guards against accidental overlap.

  SymbolicFirst.resize(P.Vars.size());
  uint64_t NextSym = SymbolicBase;
  for (VarId V = 0; V != P.Vars.size(); ++V) {
    SymbolicFirst[V] = NextSym;
    NextSym += BlockCounts[V];
  }

  VarBlocks.resize(P.Vars.size());
  VarSets.resize(P.Vars.size());
  for (VarId V = 0; V != P.Vars.size(); ++V) {
    BlockAddr First = firstBlockOf(V);
    std::vector<BlockAddr> &Blocks = VarBlocks[V];
    Blocks.resize(BlockCounts[V]);
    for (uint64_t I = 0; I != BlockCounts[V]; ++I)
      Blocks[I] = First + I;
    // Consecutive lines walk the sets round-robin, so the first numSets
    // lines already cover every set the variable reaches.
    std::vector<uint32_t> &Sets = VarSets[V];
    uint64_t N = std::min<uint64_t>(BlockCounts[V], Config.numSets());
    Sets.resize(N);
    for (uint64_t I = 0; I != N; ++I)
      Sets[I] = Config.setOf(First + I);
    std::sort(Sets.begin(), Sets.end());
  }

  std::vector<const Program *> Programs = {&P};
  Programs.insert(Programs.end(), Callees.begin(), Callees.end());
  buildUniverse(Programs);
}

void MemoryModel::buildUniverse(const std::vector<const Program *> &Programs) {
  // The blocks a transfer can insert: a known access inserts its line; an
  // unknown-index access inserts a symbolic instance on the MUST side and
  // every line of the array on the MAY side; call effects insert lines
  // the callees access, which the callee programs contribute.
  std::vector<BlockAddr> Blocks;
  std::vector<char> Unknown(P->Vars.size(), 0);
  for (const Program *Prog : Programs)
    for (const BasicBlock &BB : Prog->Blocks)
      for (const Instruction &I : BB.Insts) {
        if (!I.accessesMemory())
          continue;
        const MemVar &Var = P->Vars[I.Var];
        if (I.Index.isImm())
          Blocks.push_back(blockOf(I.Var, Var.wrapIndex(I.Index.Imm)));
        else if (I.Index.isNone() && Var.NumElements == 1)
          Blocks.push_back(firstBlockOf(I.Var));
        else
          // A register index counts as unknown even on a scalar, whose
          // one line CacheDomain accesses directly: a superset that keeps
          // accessUnknown valid on every variable a program indexes.
          Unknown[I.Var] = 1;
      }
  for (VarId V = 0; V != P->Vars.size(); ++V) {
    if (!Unknown[V])
      continue;
    Blocks.insert(Blocks.end(), VarBlocks[V].begin(), VarBlocks[V].end());
    for (uint64_t K = 0; K != BlockCounts[V]; ++K)
      Blocks.push_back(SymbolicFirst[V] + K);
  }
  std::sort(Blocks.begin(), Blocks.end());
  Blocks.erase(std::unique(Blocks.begin(), Blocks.end()), Blocks.end());
  // Group by set; the stable sort keeps each group in BlockAddr order,
  // which is the slot order.
  std::stable_sort(Blocks.begin(), Blocks.end(), [&](BlockAddr A, BlockAddr B) {
    return setOf(A) < setOf(B);
  });

  auto U = std::make_shared<BlockUniverse>();
  size_t Cap = 16;
  while (Cap < 2 * Blocks.size())
    Cap <<= 1;
  U->Shift = 64 - static_cast<unsigned>(std::countr_zero(Cap));
  U->Table.assign(Cap, BlockUniverse::Entry{BlockUniverse::NoBlock, 0, 0, 0});
  uint32_t First = 0, PrevSet = 0;
  for (size_t I = 0; I != Blocks.size(); ++I) {
    uint32_t Set = setOf(Blocks[I]);
    if (I && Set != PrevSet)
      First = static_cast<uint32_t>(I); // A set's group starts its slots.
    PrevSet = Set;
    BlockUniverse::Entry E{Blocks[I], Set, static_cast<uint32_t>(I) - First,
                           First};
    size_t H = U->hashOf(E.Block);
    while (U->Table[H].Block != BlockUniverse::NoBlock)
      H = (H + 1) & (Cap - 1);
    U->Table[H] = E;
  }
  U->Blocks = std::move(Blocks);
  Universe = std::move(U);
}

BlockUniverse::Loc BlockUniverse::locate(BlockAddr Block) const {
  size_t Mask = Table.size() - 1;
  for (size_t H = hashOf(Block);; H = (H + 1) & Mask) {
    const Entry &E = Table[H];
    if (E.Block == NoBlock)
      return {};
    if (E.Block == Block)
      return {E.Set, E.Slot, Blocks.data() + E.First};
  }
}

BlockAddr MemoryModel::blockOf(VarId Var, uint64_t Element) const {
  assert(Var < Bases.size() && "variable out of range");
  const MemVar &V = P->Vars[Var];
  uint64_t Elem = V.NumElements == 0 ? 0 : Element % V.NumElements;
  uint64_t Addr = Bases[Var] + Elem * V.ElemSize;
  return Addr / Config.LineSize;
}

BlockAddr MemoryModel::symbolicBlock(VarId Var, uint64_t K) const {
  assert(Var < SymbolicFirst.size() && "variable out of range");
  uint64_t Cap = BlockCounts[Var] == 0 ? 1 : BlockCounts[Var];
  if (K >= Cap)
    K = Cap - 1;
  return SymbolicFirst[Var] + K;
}

VarId MemoryModel::varOfBlock(BlockAddr Block) const {
  // Both the line bases and the symbolic ranges ascend with the variable
  // id, so the owner is the last variable starting at or below Block.
  bool Sym = isSymbolic(Block);
  const std::vector<uint64_t> &Starts = Sym ? SymbolicFirst : Bases;
  uint64_t Key = Sym ? Block : Block * Config.LineSize;
  auto It = std::upper_bound(Starts.begin(), Starts.end(), Key);
  if (It == Starts.begin())
    return InvalidVar;
  VarId V = static_cast<VarId>(It - Starts.begin() - 1);
  uint64_t Span = Sym ? BlockCounts[V] : BlockCounts[V] * Config.LineSize;
  return Key - Starts[V] < Span ? V : InvalidVar;
}

uint32_t MemoryModel::setOf(BlockAddr Block) const {
  if (!isSymbolic(Block))
    return Config.setOf(Block);
  // Instance k of an array pressures the set its k-th line would occupy.
  VarId V = varOfBlock(Block);
  if (V == InvalidVar)
    return Config.setOf(Block);
  uint64_t K = Block - SymbolicFirst[V];
  return Config.setOf(firstBlockOf(V) + K);
}

std::string MemoryModel::blockName(BlockAddr Block) const {
  VarId V = varOfBlock(Block);
  if (V == InvalidVar)
    return "<block " + std::to_string(Block) + ">";
  const MemVar &Var = P->Vars[V];
  if (isSymbolic(Block)) {
    uint64_t K = Block - SymbolicFirst[V];
    // Paper style: first nondeterministic pick prints as name[1*].
    return Var.Name + "[" + std::to_string(K + 1) + "*]";
  }
  if (BlockCounts[V] == 1 && Var.NumElements == 1)
    return Var.Name;
  uint64_t Line = Block - firstBlockOf(V);
  return Var.Name + "[" + std::to_string(Line) + "]";
}
