//===- RefCacheState.h - Reference AgedBlock-vector cache states -*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retained *reference* implementation of the abstract cache state:
/// the exact AgedBlock-vector representation CacheAbsState used before the
/// packed per-set SWAR rewrite (docs/PERFORMANCE.md, "Packed age lanes").
/// Semantics are documented in CacheState.h; this file preserves them
/// entry-for-entry so the representation-differential property harness
/// (tests/packed_state_test.cpp) can assert, operation by operation, that
/// the packed transfers/joins/widenings/containments compute identical
/// abstract states.
///
/// This class is *not* a hot path and must stay boring: every transfer is
/// the original scalar loop, every join the original merge walk. When the
/// packed and reference states disagree, the reference is the spec.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_TESTS_REFERENCE_REFCACHESTATE_H
#define SPECAI_TESTS_REFERENCE_REFCACHESTATE_H

#include "domain/CacheState.h"
#include "memory/MemoryModel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace specai {

/// The MUST/MAY entries of one cache set, each sorted by block — the
/// pre-packing representation.
struct RefSetPartition {
  uint32_t Set = 0;
  std::vector<AgedBlock> Must;
  std::vector<AgedBlock> May;

  bool operator==(const RefSetPartition &RHS) const = default;
};

/// Reference abstract cache state; see the file comment. API mirrors
/// CacheAbsState so the differential harness can drive both through one
/// templated script.
class RefCacheState {
public:
  static RefCacheState bottom() {
    RefCacheState S;
    S.Bottom = true;
    return S;
  }
  static RefCacheState empty() { return RefCacheState(); }

  bool isBottom() const { return Bottom; }

  uint32_t mustAge(BlockAddr Block, uint32_t Assoc) const;
  uint32_t mayAge(BlockAddr Block, uint32_t Assoc) const;
  bool isMustCached(BlockAddr Block) const;

  void accessBlock(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessUnknown(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                     bool UseShadow);
  void applyCallEffect(const std::vector<uint32_t> &SetPressure,
                       const std::vector<AgedBlock> &ExitMust,
                       const std::vector<BlockAddr> &MayBlocks,
                       const MemoryModel &MM, bool UseShadow,
                       bool InsertExitMust, bool ApplyPressure);

  bool joinInto(const RefCacheState &From, bool UseShadow);
  bool leq(const RefCacheState &RHS, uint32_t Assoc) const;
  void widenFrom(const RefCacheState &Prev, uint32_t Assoc);

  bool operator==(const RefCacheState &RHS) const;

  const std::vector<RefSetPartition> &partitions() const {
    return P ? P->Parts : emptyParts();
  }

  std::vector<AgedBlock> mustEntries() const;
  std::vector<AgedBlock> mayEntries() const;

  std::string str(const MemoryModel &MM) const;

private:
  struct Payload {
    std::vector<RefSetPartition> Parts;
  };

  static const std::vector<RefSetPartition> &emptyParts();

  Payload &mut();
  void normalize();
  const RefSetPartition *findPart(uint32_t Set) const;

  void accessBlockLru(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessBlockFifo(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessBlockPlru(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessUnknownLru(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                        bool UseShadow);
  void accessUnknownFifo(VarId Var, const MemoryModel &MM, bool UseShadow);
  void accessUnknownPlru(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                         bool UseShadow);

  bool Bottom = false;
  std::shared_ptr<Payload> P;
};

} // namespace specai

#endif // SPECAI_TESTS_REFERENCE_REFCACHESTATE_H
