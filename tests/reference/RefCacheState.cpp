//===- RefCacheState.cpp --------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// The pre-packing scalar implementation, preserved verbatim as the spec of
// the packed representation (see RefCacheState.h). Deliberately unoptimized.
//
//===----------------------------------------------------------------------===//

#include "reference/RefCacheState.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <map>

using namespace specai;

namespace {

/// Binary search for a block in a sorted AgedBlock vector; returns the
/// iterator (end if absent is signaled by block mismatch).
std::vector<AgedBlock>::const_iterator find(const std::vector<AgedBlock> &Vec,
                                            BlockAddr Block) {
  auto It = std::lower_bound(
      Vec.begin(), Vec.end(), Block,
      [](const AgedBlock &E, BlockAddr B) { return E.Block < B; });
  if (It != Vec.end() && It->Block == Block)
    return It;
  return Vec.end();
}

/// Inserts or overwrites (Block -> Age), keeping the vector sorted.
void setAge(std::vector<AgedBlock> &Vec, BlockAddr Block, uint16_t Age) {
  auto It = std::lower_bound(
      Vec.begin(), Vec.end(), Block,
      [](const AgedBlock &E, BlockAddr B) { return E.Block < B; });
  if (It != Vec.end() && It->Block == Block) {
    It->Age = Age;
    return;
  }
  Vec.insert(It, AgedBlock{Block, Age});
}

/// Age of \p Block in a sorted entry vector; \p Assoc + 1 when absent.
uint32_t ageIn(const std::vector<AgedBlock> &Vec, BlockAddr Block,
               uint32_t Assoc) {
  auto It = find(Vec, Block);
  return It == Vec.end() ? Assoc + 1 : It->Age;
}

/// Partition lookup in a set-sorted partition vector.
std::vector<RefSetPartition>::const_iterator
findPartIn(const std::vector<RefSetPartition> &Parts, uint32_t Set) {
  auto It = std::lower_bound(
      Parts.begin(), Parts.end(), Set,
      [](const RefSetPartition &P, uint32_t S) { return P.Set < S; });
  if (It != Parts.end() && It->Set == Set)
    return It;
  return Parts.end();
}

/// Find-or-insert the partition of \p Set, keeping the vector set-sorted.
/// Returns an index (not a reference: the insert may reallocate).
size_t ensurePart(std::vector<RefSetPartition> &Parts, uint32_t Set) {
  auto It = std::lower_bound(
      Parts.begin(), Parts.end(), Set,
      [](const RefSetPartition &P, uint32_t S) { return P.Set < S; });
  if (It == Parts.end() || It->Set != Set)
    It = Parts.insert(It, RefSetPartition{Set, {}, {}});
  return static_cast<size_t>(It - Parts.begin());
}

} // namespace

const std::vector<RefSetPartition> &RefCacheState::emptyParts() {
  static const std::vector<RefSetPartition> Empty;
  return Empty;
}

RefCacheState::Payload &RefCacheState::mut() {
  if (!P)
    P = std::make_shared<Payload>();
  else if (P.use_count() > 1)
    P = std::make_shared<Payload>(*P);
  return *P;
}

void RefCacheState::normalize() {
  if (!P)
    return;
  std::vector<RefSetPartition> &Parts = P->Parts;
  Parts.erase(std::remove_if(Parts.begin(), Parts.end(),
                             [](const RefSetPartition &Part) {
                               return Part.Must.empty() && Part.May.empty();
                             }),
              Parts.end());
  if (Parts.empty())
    P.reset();
}

const RefSetPartition *RefCacheState::findPart(uint32_t Set) const {
  if (!P)
    return nullptr;
  auto It = findPartIn(P->Parts, Set);
  return It == P->Parts.end() ? nullptr : &*It;
}

uint32_t RefCacheState::mustAge(BlockAddr Block, uint32_t Assoc) const {
  for (const RefSetPartition &Part : partitions()) {
    auto It = find(Part.Must, Block);
    if (It != Part.Must.end())
      return It->Age;
  }
  return Assoc + 1;
}

uint32_t RefCacheState::mayAge(BlockAddr Block, uint32_t Assoc) const {
  for (const RefSetPartition &Part : partitions()) {
    auto It = find(Part.May, Block);
    if (It != Part.May.end())
      return It->Age;
  }
  return Assoc + 1;
}

bool RefCacheState::isMustCached(BlockAddr Block) const {
  for (const RefSetPartition &Part : partitions())
    if (find(Part.Must, Block) != Part.Must.end())
      return true;
  return false;
}

void RefCacheState::accessBlock(BlockAddr Block, const MemoryModel &MM,
                                bool UseShadow) {
  assert(!Bottom && "transfer on bottom state");
  switch (MM.config().Policy) {
  case ReplacementPolicy::Lru:
    return accessBlockLru(Block, MM, UseShadow);
  case ReplacementPolicy::Fifo:
    return accessBlockFifo(Block, MM, UseShadow);
  case ReplacementPolicy::Plru:
    return accessBlockPlru(Block, MM, UseShadow);
  }
}

void RefCacheState::accessBlockLru(BlockAddr Block, const MemoryModel &MM,
                                   bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  uint32_t Set = MM.setOf(Block);

  const RefSetPartition *Old = findPart(Set);
  uint32_t VMustOld = Old ? ageIn(Old->Must, Block, Assoc) : Assoc + 1;
  uint32_t VMayOld = Old ? ageIn(Old->May, Block, Assoc) : Assoc + 1;

  Payload &PL = mut();
  RefSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  if (UseShadow) {
    // MAY (shadow) update first, Appendix B: ∃u with Age(∃u) <= Age(∃v)
    // ages by one; older shadows keep their age.
    std::vector<AgedBlock> &May = Part.May;
    for (size_t I = 0; I != May.size();) {
      AgedBlock &U = May[I];
      if (U.Block != Block && U.Age <= VMayOld) {
        if (++U.Age > Assoc) {
          May.erase(May.begin() + static_cast<ptrdiff_t>(I));
          continue; // Do not advance; erased current element.
        }
      }
      ++I;
    }
    setAge(May, Block, 1);
  }

  // MUST update. With shadows, the refined rule (Appendix B): u ages only
  // when at least Age(u) shadow blocks (other than u) are at least as young
  // as u.
  std::vector<AgedBlock> &Must = Part.Must;
  for (size_t I = 0; I != Must.size();) {
    AgedBlock &U = Must[I];
    if (U.Block != Block && U.Age < VMustOld) {
      bool ShouldAge = true;
      if (UseShadow) {
        uint32_t NYoung = 0;
        for (const AgedBlock &W : Part.May) {
          if (W.Block == U.Block)
            continue;
          if (W.Age <= U.Age)
            ++NYoung;
        }
        ShouldAge = NYoung >= U.Age;
      }
      if (ShouldAge && ++U.Age > Assoc) {
        Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
        continue;
      }
    }
    ++I;
  }
  setAge(Must, Block, 1);
}

void RefCacheState::accessBlockFifo(BlockAddr Block, const MemoryModel &MM,
                                    bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  uint32_t Set = MM.setOf(Block);

  const RefSetPartition *Old = findPart(Set);
  uint32_t VMustOld = Old ? ageIn(Old->Must, Block, Assoc) : Assoc + 1;
  // A provably resident block hits on every path, and a FIFO hit leaves
  // the whole set untouched: the transfer is exactly the identity.
  if (VMustOld <= Assoc)
    return;

  uint32_t VMayOld = Old ? ageIn(Old->May, Block, Assoc) : Assoc + 1;
  bool DefiniteMiss = UseShadow && VMayOld > Assoc;

  Payload &PL = mut();
  RefSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  if (UseShadow) {
    if (DefiniteMiss) {
      std::vector<AgedBlock> &May = Part.May;
      for (size_t I = 0; I != May.size();) {
        AgedBlock &U = May[I];
        if (U.Block != Block && ++U.Age > Assoc) {
          May.erase(May.begin() + static_cast<ptrdiff_t>(I));
          continue;
        }
        ++I;
      }
    }
    setAge(Part.May, Block, 1);
  }

  std::vector<AgedBlock> &Must = Part.Must;
  for (size_t I = 0; I != Must.size();) {
    AgedBlock &U = Must[I];
    if (U.Block != Block && ++U.Age > Assoc) {
      Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
      continue;
    }
    ++I;
  }
  if (DefiniteMiss)
    setAge(Must, Block, 1);
  else if (Assoc <= UINT16_MAX)
    setAge(Must, Block, static_cast<uint16_t>(Assoc));
  normalize();
}

void RefCacheState::accessBlockPlru(BlockAddr Block, const MemoryModel &MM,
                                    bool UseShadow) {
  uint32_t Cap = MM.config().mustAgeCap();
  uint32_t Set = MM.setOf(Block);

  Payload &PL = mut();
  RefSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  std::vector<AgedBlock> &Must = Part.Must;
  for (size_t I = 0; I != Must.size();) {
    AgedBlock &U = Must[I];
    if (U.Block != Block && ++U.Age > Cap) {
      Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
      continue;
    }
    ++I;
  }
  setAge(Must, Block, 1);
  if (UseShadow)
    setAge(Part.May, Block, 1);
  normalize();
}

void RefCacheState::accessUnknown(VarId Var, uint64_t InstanceK,
                                  const MemoryModel &MM, bool UseShadow) {
  assert(!Bottom && "transfer on bottom state");
  switch (MM.config().Policy) {
  case ReplacementPolicy::Lru:
    return accessUnknownLru(Var, InstanceK, MM, UseShadow);
  case ReplacementPolicy::Fifo:
    return accessUnknownFifo(Var, MM, UseShadow);
  case ReplacementPolicy::Plru:
    return accessUnknownPlru(Var, InstanceK, MM, UseShadow);
  }
}

void RefCacheState::accessUnknownLru(VarId Var, uint64_t InstanceK,
                                     const MemoryModel &MM, bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  std::vector<BlockAddr> ArrayBlocks = MM.blocksOf(Var);
  uint32_t MaxAge = 0;
  bool AllCached = true;
  for (BlockAddr Block : ArrayBlocks) {
    uint32_t Age = mustAge(Block, Assoc);
    if (Age > Assoc) {
      AllCached = false;
      break;
    }
    MaxAge = std::max(MaxAge, Age);
  }

  if (AllCached) {
    bool AnyAging = false;
    for (const RefSetPartition &Part : partitions()) {
      if (!IsCandidateSet(Part.Set))
        continue;
      for (const AgedBlock &U : Part.Must)
        if (U.Age < MaxAge) {
          AnyAging = true;
          break;
        }
      if (AnyAging)
        break;
    }
    if (AnyAging) {
      Payload &PL = mut();
      for (RefSetPartition &Part : PL.Parts) {
        if (!IsCandidateSet(Part.Set))
          continue;
        for (AgedBlock &U : Part.Must)
          if (U.Age < MaxAge)
            ++U.Age; // Stays <= MaxAge <= Assoc: a hit evicts nothing.
      }
    } else if (!UseShadow) {
      return;
    }
  } else {
    Payload &PL = mut();
    for (RefSetPartition &Part : PL.Parts) {
      if (!IsCandidateSet(Part.Set))
        continue;
      std::vector<AgedBlock> &Must = Part.Must;
      for (size_t I = 0; I != Must.size();) {
        if (++Must[I].Age > Assoc) {
          Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
          continue;
        }
        ++I;
      }
    }
    BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
    size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
    setAge(PL.Parts[Idx].Must, Instance, 1);
  }

  if (UseShadow) {
    Payload &PL = mut();
    for (BlockAddr Block : ArrayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      setAge(PL.Parts[Idx].May, Block, 1);
    }
    if (!AllCached) {
      BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
      setAge(PL.Parts[Idx].May, Instance, 1);
    }
  }
  normalize();
}

void RefCacheState::accessUnknownFifo(VarId Var, const MemoryModel &MM,
                                      bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  std::vector<BlockAddr> ArrayBlocks = MM.blocksOf(Var);
  bool AllCached = true;
  for (BlockAddr Block : ArrayBlocks)
    if (mustAge(Block, Assoc) > Assoc) {
      AllCached = false;
      break;
    }
  if (AllCached)
    return;

  Payload &PL = mut();
  for (RefSetPartition &Part : PL.Parts) {
    if (!IsCandidateSet(Part.Set))
      continue;
    std::vector<AgedBlock> &Must = Part.Must;
    for (size_t I = 0; I != Must.size();) {
      if (++Must[I].Age > Assoc) {
        Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
        continue;
      }
      ++I;
    }
  }
  if (UseShadow) {
    for (BlockAddr Block : ArrayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      setAge(PL.Parts[Idx].May, Block, 1);
    }
  }
  normalize();
}

void RefCacheState::accessUnknownPlru(VarId Var, uint64_t InstanceK,
                                      const MemoryModel &MM, bool UseShadow) {
  uint32_t Cap = MM.config().mustAgeCap();
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  Payload &PL = mut();
  for (RefSetPartition &Part : PL.Parts) {
    if (!IsCandidateSet(Part.Set))
      continue;
    std::vector<AgedBlock> &Must = Part.Must;
    for (size_t I = 0; I != Must.size();) {
      if (++Must[I].Age > Cap) {
        Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
        continue;
      }
      ++I;
    }
  }
  BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
  size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
  setAge(PL.Parts[Idx].Must, Instance, 1);

  if (UseShadow) {
    std::vector<BlockAddr> ArrayBlocks = MM.blocksOf(Var);
    for (BlockAddr Block : ArrayBlocks) {
      size_t I = ensurePart(PL.Parts, MM.setOf(Block));
      setAge(PL.Parts[I].May, Block, 1);
    }
    size_t I = ensurePart(PL.Parts, MM.setOf(Instance));
    setAge(PL.Parts[I].May, Instance, 1);
  }
  normalize();
}

void RefCacheState::applyCallEffect(const std::vector<uint32_t> &SetPressure,
                                    const std::vector<AgedBlock> &ExitMust,
                                    const std::vector<BlockAddr> &MayBlocks,
                                    const MemoryModel &MM, bool UseShadow,
                                    bool InsertExitMust, bool ApplyPressure) {
  if (Bottom)
    return;
  uint32_t Assoc = MM.config().Associativity;
  bool IsLru = MM.config().Policy == ReplacementPolicy::Lru;

  if (ApplyPressure) {
    bool AnyWork = false;
    for (const RefSetPartition &Part : partitions())
      if (Part.Set < SetPressure.size() && SetPressure[Part.Set] > 0 &&
          !Part.Must.empty()) {
        AnyWork = true;
        break;
      }
    if (AnyWork) {
      Payload &PL = mut();
      for (RefSetPartition &Part : PL.Parts) {
        uint32_t K =
            Part.Set < SetPressure.size() ? SetPressure[Part.Set] : 0;
        if (K == 0 || Part.Must.empty())
          continue;
        if (!IsLru) {
          Part.Must.clear();
          continue;
        }
        std::vector<AgedBlock> &Must = Part.Must;
        for (size_t I = 0; I != Must.size();) {
          uint32_t NewAge = Must[I].Age + K;
          if (NewAge > Assoc) {
            Must.erase(Must.begin() + static_cast<ptrdiff_t>(I));
            continue;
          }
          Must[I].Age = static_cast<uint16_t>(NewAge);
          ++I;
        }
      }
    }
  }

  if (InsertExitMust && !ExitMust.empty()) {
    Payload &PL = mut();
    for (const AgedBlock &E : ExitMust) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(E.Block));
      std::vector<AgedBlock> &Must = PL.Parts[Idx].Must;
      auto It = std::lower_bound(
          Must.begin(), Must.end(), E.Block,
          [](const AgedBlock &A, BlockAddr B) { return A.Block < B; });
      if (It != Must.end() && It->Block == E.Block)
        It->Age = std::min(It->Age, E.Age);
      else
        Must.insert(It, E);
    }
  }

  if (UseShadow && !MayBlocks.empty()) {
    Payload &PL = mut();
    for (BlockAddr Block : MayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      setAge(PL.Parts[Idx].May, Block, 1);
    }
  }
  normalize();
}

namespace {

/// Would `Into ⊔= From` change Into? A pure read-only merge walk.
bool joinWouldChange(const std::vector<RefSetPartition> &Into,
                     const std::vector<RefSetPartition> &From,
                     bool UseShadow) {
  size_t I = 0, J = 0;
  while (I != Into.size() || J != From.size()) {
    if (J == From.size() ||
        (I != Into.size() && Into[I].Set < From[J].Set)) {
      if (!Into[I].Must.empty())
        return true; // Whole partition leaves the MUST intersection.
      ++I;
      continue;
    }
    if (I == Into.size() || Into[I].Set > From[J].Set) {
      if (UseShadow && !From[J].May.empty())
        return true; // New MAY partition enters the union.
      ++J;
      continue;
    }
    const RefSetPartition &A = Into[I], &B = From[J];
    {
      size_t X = 0, Y = 0;
      while (X != A.Must.size()) {
        if (Y == B.Must.size() || A.Must[X].Block < B.Must[Y].Block)
          return true; // Dropped from the intersection.
        if (A.Must[X].Block > B.Must[Y].Block) {
          ++Y;
          continue;
        }
        if (B.Must[Y].Age > A.Must[X].Age)
          return true; // Age grows to the max.
        ++X;
        ++Y;
      }
    }
    if (UseShadow) {
      size_t X = 0, Y = 0;
      while (Y != B.May.size()) {
        if (X == A.May.size() || A.May[X].Block > B.May[Y].Block)
          return true; // New shadow entry.
        if (A.May[X].Block < B.May[Y].Block) {
          ++X;
          continue;
        }
        if (B.May[Y].Age < A.May[X].Age)
          return true; // Age shrinks to the min.
        ++X;
        ++Y;
      }
    }
    ++I;
    ++J;
  }
  return false;
}

/// MUST intersection with max ages.
std::vector<AgedBlock> mergeMust(const std::vector<AgedBlock> &A,
                                 const std::vector<AgedBlock> &B) {
  std::vector<AgedBlock> Out;
  Out.reserve(std::min(A.size(), B.size()));
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I].Block < B[J].Block)
      ++I;
    else if (A[I].Block > B[J].Block)
      ++J;
    else {
      Out.push_back(AgedBlock{A[I].Block, std::max(A[I].Age, B[J].Age)});
      ++I;
      ++J;
    }
  }
  return Out;
}

/// MAY union with min ages.
std::vector<AgedBlock> mergeMay(const std::vector<AgedBlock> &A,
                                const std::vector<AgedBlock> &B) {
  std::vector<AgedBlock> Out;
  Out.reserve(A.size() + B.size());
  size_t I = 0, J = 0;
  while (I != A.size() || J != B.size()) {
    if (J == B.size() || (I != A.size() && A[I].Block < B[J].Block))
      Out.push_back(A[I++]);
    else if (I == A.size() || A[I].Block > B[J].Block)
      Out.push_back(B[J++]);
    else {
      Out.push_back(AgedBlock{A[I].Block, std::min(A[I].Age, B[J].Age)});
      ++I;
      ++J;
    }
  }
  return Out;
}

} // namespace

bool RefCacheState::joinInto(const RefCacheState &From, bool UseShadow) {
  if (From.Bottom)
    return false;
  if (Bottom) {
    Bottom = false;
    P = From.P; // Copy-on-write: a refcount bump, not an entry copy.
    if (!UseShadow && P) {
      bool AnyMay = false;
      for (const RefSetPartition &Part : P->Parts)
        if (!Part.May.empty()) {
          AnyMay = true;
          break;
        }
      if (AnyMay) {
        Payload &PL = mut();
        for (RefSetPartition &Part : PL.Parts)
          Part.May.clear();
        normalize();
      }
    }
    return true;
  }
  if (P == From.P)
    return false; // Shared storage: identical states, join is a no-op.

  const std::vector<RefSetPartition> &Into = partitions();
  const std::vector<RefSetPartition> &Src = From.partitions();
  if (!joinWouldChange(Into, Src, UseShadow))
    return false;

  auto NewP = std::make_shared<Payload>();
  std::vector<RefSetPartition> &Out = NewP->Parts;
  Out.reserve(std::max(Into.size(), Src.size()));
  size_t I = 0, J = 0;
  while (I != Into.size() || J != Src.size()) {
    RefSetPartition Part;
    if (J == Src.size() || (I != Into.size() && Into[I].Set < Src[J].Set)) {
      Part.Set = Into[I].Set;
      Part.May = Into[I].May;
      ++I;
    } else if (I == Into.size() || Into[I].Set > Src[J].Set) {
      Part.Set = Src[J].Set;
      if (UseShadow)
        Part.May = Src[J].May;
      ++J;
    } else {
      Part.Set = Into[I].Set;
      Part.Must = mergeMust(Into[I].Must, Src[J].Must);
      Part.May = UseShadow ? mergeMay(Into[I].May, Src[J].May) : Into[I].May;
      ++I;
      ++J;
    }
    if (!Part.Must.empty() || !Part.May.empty())
      Out.push_back(std::move(Part));
  }
  if (Out.empty())
    P.reset();
  else
    P = std::move(NewP);
  return true;
}

bool RefCacheState::leq(const RefCacheState &RHS, uint32_t Assoc) const {
  if (Bottom)
    return true;
  if (RHS.Bottom)
    return false;
  for (const RefSetPartition &RPart : RHS.partitions()) {
    const RefSetPartition *LPart = findPart(RPart.Set);
    for (const AgedBlock &E : RPart.Must) {
      uint32_t Mine = LPart ? ageIn(LPart->Must, E.Block, Assoc) : Assoc + 1;
      if (Mine > E.Age)
        return false;
    }
  }
  for (const RefSetPartition &LPart : partitions()) {
    const RefSetPartition *RPart = RHS.findPart(LPart.Set);
    for (const AgedBlock &E : LPart.May) {
      uint32_t Theirs = RPart ? ageIn(RPart->May, E.Block, Assoc) : Assoc + 1;
      if (E.Age < Theirs)
        return false;
    }
  }
  return true;
}

void RefCacheState::widenFrom(const RefCacheState &Prev, uint32_t Assoc) {
  if (Bottom || Prev.Bottom)
    return;
  auto Grew = [&](const RefSetPartition &Part, const AgedBlock &E) {
    const RefSetPartition *PPart = Prev.findPart(Part.Set);
    uint32_t PrevAge = PPart ? ageIn(PPart->Must, E.Block, Assoc) : Assoc + 1;
    return PrevAge <= Assoc && E.Age > PrevAge;
  };
  bool AnyGrew = false;
  for (const RefSetPartition &Part : partitions()) {
    for (const AgedBlock &E : Part.Must)
      if (Grew(Part, E)) {
        AnyGrew = true;
        break;
      }
    if (AnyGrew)
      break;
  }
  if (!AnyGrew)
    return;
  Payload &PL = mut();
  for (RefSetPartition &Part : PL.Parts)
    Part.Must.erase(std::remove_if(Part.Must.begin(), Part.Must.end(),
                                   [&](const AgedBlock &E) {
                                     return Grew(Part, E);
                                   }),
                    Part.Must.end());
  normalize();
}

bool RefCacheState::operator==(const RefCacheState &RHS) const {
  if (Bottom != RHS.Bottom)
    return false;
  if (Bottom)
    return true;
  if (P == RHS.P)
    return true; // Shared storage (or both empty).
  return partitions() == RHS.partitions();
}

std::vector<AgedBlock> RefCacheState::mustEntries() const {
  std::vector<AgedBlock> Out;
  for (const RefSetPartition &Part : partitions())
    Out.insert(Out.end(), Part.Must.begin(), Part.Must.end());
  std::sort(Out.begin(), Out.end(),
            [](const AgedBlock &A, const AgedBlock &B) {
              return A.Block < B.Block;
            });
  return Out;
}

std::vector<AgedBlock> RefCacheState::mayEntries() const {
  std::vector<AgedBlock> Out;
  for (const RefSetPartition &Part : partitions())
    Out.insert(Out.end(), Part.May.begin(), Part.May.end());
  std::sort(Out.begin(), Out.end(),
            [](const AgedBlock &A, const AgedBlock &B) {
              return A.Block < B.Block;
            });
  return Out;
}

std::string RefCacheState::str(const MemoryModel &MM) const {
  if (Bottom)
    return "⊥";
  std::map<uint32_t, std::vector<std::string>> ByAge;
  for (const RefSetPartition &Part : partitions()) {
    for (const AgedBlock &E : Part.Must)
      ByAge[E.Age].push_back(MM.blockName(E.Block));
    for (const AgedBlock &E : Part.May)
      ByAge[E.Age].push_back("∃" + MM.blockName(E.Block));
  }
  std::string Out = "{";
  bool FirstGroup = true;
  for (auto &[Age, Names] : ByAge) {
    std::sort(Names.begin(), Names.end());
    for (const std::string &Name : Names) {
      if (!FirstGroup)
        Out += ", ";
      FirstGroup = false;
      Out += Name + "@" + std::to_string(Age);
    }
  }
  Out += "}";
  return Out;
}
