//===- MemoryModel.h - Variables to cache blocks ----------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lays program variables out in a line-aligned address space and maps
/// (variable, element) accesses to cache blocks. Matching the paper's §2
/// setup, every variable starts on its own cache line ("ph, l1, l2 and p
/// are mapped to different cache lines").
///
/// Accesses whose element index is statically unknown are modeled with
/// *symbolic instance blocks*: the k-th unknown access at a site picks the
/// k-th fresh instance, the paper's `decis_lev[1*]`, `decis_lev[2*]`
/// notation (Table 1). Instances are capped at the number of lines the
/// array spans, since the array can never occupy more lines than that.
///
/// Each cache set has a static *block universe*: the blocks some transfer
/// of the program can insert into an abstract cache state (constant-index
/// lines, every line and symbolic instance of an array with an unknown-
/// index access, and whatever the module's callees insert under the
/// Summarize lowering). A universe numbers its blocks with dense *slots*
/// in increasing BlockAddr order, so the abstract state can store ages in
/// lanes indexed by slot and still walk them in canonical block order
/// (docs/PERFORMANCE.md, "Packed age lanes").
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_MEMORY_MEMORYMODEL_H
#define SPECAI_MEMORY_MEMORYMODEL_H

#include "cache/CacheSim.h"
#include "ir/Ir.h"

#include <memory>
#include <string>
#include <vector>

namespace specai {

/// The per-set block universes of one MemoryModel: a read-only table,
/// shared by every abstract cache state built over the model.
class BlockUniverse {
public:
  /// Where a universe block sits. \c SetBlocks is the slot -> block table
  /// of its set; null when the block is in no universe.
  struct Loc {
    uint32_t Set = 0;
    uint32_t Slot = 0;
    const BlockAddr *SetBlocks = nullptr;

    bool valid() const { return SetBlocks != nullptr; }
  };

  /// (set, slot) of \p Block; invalid when no transfer can insert it.
  Loc locate(BlockAddr Block) const;

private:
  friend class MemoryModel;

  /// Universe blocks grouped by set (ascending), each group ascending:
  /// a set's slot -> block table is its group.
  std::vector<BlockAddr> Blocks;
  /// Open-addressing block -> location table (power-of-two capacity,
  /// linear probing; empty slots hold NoBlock).
  struct Entry {
    BlockAddr Block;
    uint32_t Set;
    uint32_t Slot;
    uint32_t First;
  };
  static constexpr BlockAddr NoBlock = ~BlockAddr(0);
  std::vector<Entry> Table;
  /// 64 - log2(Table.size()): Fibonacci hashing keeps the top bits.
  unsigned Shift = 64;

  size_t hashOf(BlockAddr Block) const {
    return static_cast<size_t>((Block * 0x9E3779B97F4A7C15ULL) >> Shift);
  }
};

/// Address layout and block naming for one Program under one cache
/// geometry. Both must outlive the model.
class MemoryModel {
public:
  /// Lays out \p P's variables and builds the block universes from the
  /// accesses of \p P and of \p Callees: the module's other functions
  /// under the Summarize lowering, which share P's layout and whose
  /// blocks call summaries insert into P's states.
  MemoryModel(const Program &P, const CacheConfig &Config,
              const std::vector<const Program *> &Callees = {});

  const CacheConfig &config() const { return Config; }
  const Program &program() const { return *P; }

  /// Line-aligned base byte address of a variable.
  uint64_t baseAddrOf(VarId Var) const { return Bases[Var]; }

  /// Number of cache lines the variable spans.
  uint64_t numBlocksOf(VarId Var) const { return BlockCounts[Var]; }

  /// Concrete block holding element \p Element of \p Var.
  BlockAddr blockOf(VarId Var, uint64_t Element) const;

  /// First concrete block of \p Var (its blocks are contiguous).
  BlockAddr firstBlockOf(VarId Var) const {
    return Bases[Var] / Config.LineSize;
  }

  /// Total number of concrete blocks across all variables.
  uint64_t numConcreteBlocks() const { return TotalBlocks; }

  /// The k-th symbolic instance block of array \p Var; \p K saturates at
  /// numBlocksOf(Var) - 1.
  BlockAddr symbolicBlock(VarId Var, uint64_t K) const;

  bool isSymbolic(BlockAddr Block) const { return Block >= SymbolicBase; }

  /// Variable owning a block (concrete or symbolic); InvalidVar for
  /// addresses outside the layout.
  VarId varOfBlock(BlockAddr Block) const;

  /// Cache set of a block. Symbolic instances adopt the set of the
  /// corresponding concrete line of their array, so set pressure lands
  /// where the real access could.
  uint32_t setOf(BlockAddr Block) const;

  /// Human-readable block name: "p", "ph[3]", "decis_levl[2*]".
  std::string blockName(BlockAddr Block) const;

  /// All concrete blocks of \p Var, ascending.
  const std::vector<BlockAddr> &blocksOf(VarId Var) const {
    return VarBlocks[Var];
  }

  /// Cache sets that \p Var's lines may map to (sorted, deduplicated).
  const std::vector<uint32_t> &setsOf(VarId Var) const {
    return VarSets[Var];
  }

  /// The per-set block universes abstract cache states index by slot.
  const BlockUniverse &universe() const { return *Universe; }

private:
  void buildUniverse(const std::vector<const Program *> &Programs);

  const Program *P;
  CacheConfig Config;
  std::vector<uint64_t> Bases;
  std::vector<uint64_t> BlockCounts;
  uint64_t TotalBlocks = 0;
  /// Symbolic ids start here (above any concrete block).
  BlockAddr SymbolicBase = 0;
  /// Per variable: first symbolic id.
  std::vector<uint64_t> SymbolicFirst;
  /// Per variable: blocksOf / setsOf, built once.
  std::vector<std::vector<BlockAddr>> VarBlocks;
  std::vector<std::vector<uint32_t>> VarSets;
  /// Shared so states stay decodable across copies of the model.
  std::shared_ptr<const BlockUniverse> Universe;
};

} // namespace specai

#endif // SPECAI_MEMORY_MEMORYMODEL_H
