//===- CacheState.cpp -----------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// Packed-representation implementation. Transfer semantics are documented
// in CacheState.h and preserved entry-for-entry from the reference
// implementation (tests/reference/RefCacheState.cpp); the differential
// harness (tests/packed_state_test.cpp) holds the two in lock-step.
//
//===----------------------------------------------------------------------===//

#include "domain/CacheState.h"


#include <algorithm>
#include <cassert>
#include <cstddef>
#include <map>

using namespace specai;

//===----------------------------------------------------------------------===//
// SWAR lane algebra
//===----------------------------------------------------------------------===//

namespace {

/// \p V replicated into every L-bit lane.
constexpr uint64_t repeatLane(unsigned L, uint64_t V) {
  uint64_t W = 0;
  for (unsigned S = 0; S < 64; S += L)
    W |= V << S;
  return W;
}

/// Per-width lane masks. `Ones` has each lane's LSB set, `High` each
/// lane's MSB, `Low` everything else. 64 % L == 0 for all three widths, so
/// the masks cover the word exactly.
struct LaneOps {
  uint64_t Ones, High, Low;
};

constexpr LaneOps LaneTab[3] = {
    {repeatLane(4, 1), repeatLane(4, 8), ~repeatLane(4, 8)},
    {repeatLane(8, 1), repeatLane(8, 128), ~repeatLane(8, 128)},
    {repeatLane(16, 1), repeatLane(16, 32768), ~repeatLane(16, 32768)},
};

const LaneOps &opsFor(unsigned LaneBits) {
  assert(LaneBits == 4 || LaneBits == 8 || LaneBits == 16);
  return LaneTab[LaneBits == 4 ? 0 : LaneBits == 8 ? 1 : 2];
}

/// High-bit mask of lanes with a nonzero value. Adding Low to each lane's
/// low bits carries into the MSB exactly when the low bits are nonzero;
/// OR-ing the word itself catches set MSBs. No cross-lane carries: each
/// lane sum is < 2^L.
uint64_t laneNonzero(uint64_t W, const LaneOps &O) {
  return (((W & O.Low) + O.Low) | W) & O.High;
}

/// High-bit mask of lanes where A >= B (unsigned). Classic SWAR compare:
/// the borrow-free subtraction (A|High) - (B&Low) decides lanes whose MSBs
/// match; MSB-differing lanes are decided by A's MSB alone.
uint64_t laneGE(uint64_t A, uint64_t B, const LaneOps &O) {
  uint64_t T = (A | O.High) - (B & O.Low);
  return ((A & ~B) | (~(A ^ B) & T)) & O.High;
}

} // namespace

//===----------------------------------------------------------------------===//
// PackedAges
//===----------------------------------------------------------------------===//

size_t PackedAges::find(BlockAddr Block) const {
  auto It = std::lower_bound(Blks.begin(), Blks.end(), Block);
  if (It != Blks.end() && *It == Block)
    return static_cast<size_t>(It - Blks.begin());
  return npos;
}

void PackedAges::installLaneBits(unsigned LaneBits) {
  assert(LaneBits == 4 || LaneBits == 8 || LaneBits == 16);
  LaneLog = LaneBits == 4 ? 2 : LaneBits == 8 ? 3 : 4;
}

void PackedAges::retruncate() {
  if (Blks.empty()) {
    Words.clear();
    LaneLog = 0;
    return;
  }
  Words.resize(wordsFor(Blks.size()));
  // Zero the tail lanes of the last word so bulk ops stay unmasked.
  size_t Rem = Blks.size() & ((size_t(1) << lanesPerWordLog()) - 1);
  if (Rem) {
    unsigned UsedBits = static_cast<unsigned>(Rem << LaneLog);
    Words.back() &= (uint64_t(1) << UsedBits) - 1;
  }
}

void PackedAges::set(BlockAddr Block, uint16_t Age, unsigned LaneBits) {
  size_t Pos = static_cast<size_t>(
      std::lower_bound(Blks.begin(), Blks.end(), Block) - Blks.begin());
  if (Pos != Blks.size() && Blks[Pos] == Block) {
    setAgeAt(Pos, Age);
    return;
  }
  if (Blks.empty())
    installLaneBits(LaneBits);
  assert(laneBits() == LaneBits && "mixed lane widths in one entry list");
  Blks.insert(Blks.begin() + static_cast<ptrdiff_t>(Pos), Block);
  if (Words.size() < wordsFor(Blks.size()))
    Words.push_back(0);
  for (size_t I = Blks.size() - 1; I > Pos; --I)
    setAgeAt(I, ageAt(I - 1));
  setAgeAt(Pos, Age);
}

void PackedAges::append(BlockAddr Block, uint16_t Age, unsigned LaneBits) {
  if (Blks.empty())
    installLaneBits(LaneBits);
  assert(laneBits() == LaneBits && "mixed lane widths in one entry list");
  assert((Blks.empty() || Blks.back() < Block) && "append must keep order");
  size_t I = Blks.size();
  Blks.push_back(Block);
  if (Words.size() < wordsFor(Blks.size()))
    Words.push_back(0);
  setAgeAt(I, Age);
}

void PackedAges::eraseAt(size_t I) {
  size_t N = Blks.size();
  for (size_t K = I; K + 1 < N; ++K)
    setAgeAt(K, ageAt(K + 1));
  Blks.erase(Blks.begin() + static_cast<ptrdiff_t>(I));
  retruncate();
}

void PackedAges::clear() {
  Blks.clear();
  Words.clear();
  LaneLog = 0;
}

void PackedAges::compactAgesAbove(uint32_t Cap) {
  size_t OutN = 0, N = Blks.size();
  for (size_t I = 0; I != N; ++I) {
    uint16_t Age = ageAt(I);
    if (Age > Cap)
      continue;
    if (OutN != I) {
      Blks[OutN] = Blks[I];
      setAgeAt(OutN, Age);
    }
    ++OutN;
  }
  if (OutN != N) {
    Blks.resize(OutN);
    retruncate();
  }
}

void PackedAges::removeFlagged(const std::vector<char> &Remove) {
  assert(Remove.size() == Blks.size());
  size_t OutN = 0, N = Blks.size();
  for (size_t I = 0; I != N; ++I) {
    if (Remove[I])
      continue;
    if (OutN != I) {
      Blks[OutN] = Blks[I];
      setAgeAt(OutN, ageAt(I));
    }
    ++OutN;
  }
  if (OutN != N) {
    Blks.resize(OutN);
    retruncate();
  }
}

void PackedAges::agePredLE(uint32_t MaxOldAge, size_t Skip, uint32_t Cap) {
  if (Blks.empty() || MaxOldAge == 0)
    return;
  const LaneOps &O = opsFor(laneBits());
  assert(uint64_t(Cap) + 1 <= laneMask() && "cap+1 must fit a lane");
  uint64_t BV = O.Ones * std::min<uint64_t>(MaxOldAge, laneMask());
  uint64_t BCap1 = O.Ones * (uint64_t(Cap) + 1);
  unsigned MsbShift = laneBits() - 1;
  size_t SkipWord = Skip == npos ? npos : wordOf(Skip);
  uint64_t SkipBit =
      Skip == npos ? 0 : uint64_t(1) << (shiftOf(Skip) + MsbShift);
  bool AnyEvict = false;
  for (size_t W = 0; W != Words.size(); ++W) {
    uint64_t A = Words[W];
    // Lanes holding a real entry (age >= 1) at age <= MaxOldAge.
    uint64_t M = laneNonzero(A, O) & laneGE(BV, A, O);
    if (W == SkipWord)
      M &= ~SkipBit;
    if (!M)
      continue;
    A += M >> MsbShift; // Masked +1; ages stay <= cap+1, no lane overflow.
    if (O.High & ~laneNonzero(A ^ BCap1, O))
      AnyEvict = true; // Some lane just aged to cap+1.
    Words[W] = A;
  }
  if (AnyEvict)
    compactAgesAbove(Cap);
}

bool PackedAges::anyAgeLT(uint32_t V) const {
  if (Blks.empty() || V <= 1)
    return false;
  const LaneOps &O = opsFor(laneBits());
  uint64_t BV = O.Ones * std::min<uint64_t>(V, laneMask());
  for (uint64_t A : Words)
    if (laneNonzero(A, O) & ~laneGE(A, BV, O))
      return true;
  return false;
}

void PackedAges::addPressure(uint32_t K, uint32_t Cap) {
  if (Blks.empty() || K == 0)
    return;
  if (K > Cap) {
    clear();
    return;
  }
  // Age + K > Cap evicts, i.e. everything above Cap - K goes; survivors
  // take the un-masked add (their lanes stay <= Cap).
  compactAgesAbove(Cap - K);
  if (Blks.empty())
    return;
  const LaneOps &O = opsFor(laneBits());
  unsigned MsbShift = laneBits() - 1;
  for (uint64_t &W : Words)
    W += (laneNonzero(W, O) >> MsbShift) * K;
}

bool PackedAges::allLanesGE(const PackedAges &RHS) const {
  assert(sameBlocks(RHS) && "allLanesGE requires identical block lists");
  if (empty())
    return true;
  assert(LaneLog == RHS.LaneLog);
  const LaneOps &O = opsFor(laneBits());
  for (size_t W = 0; W != Words.size(); ++W)
    if (laneGE(Words[W], RHS.Words[W], O) != O.High)
      return false; // Tail lanes are 0 on both sides and compare GE.
  return true;
}

void PackedAges::assignMustMerge(const PackedAges &A, const PackedAges &B) {
  assert(this != &A && this != &B);
  if (A.empty() || B.empty()) {
    clear();
    return;
  }
  assert(A.LaneLog == B.LaneLog);
  if (A.sameBlocks(B)) {
    Blks = A.Blks;
    LaneLog = A.LaneLog;
    Words.resize(A.Words.size());
    const LaneOps &O = opsFor(A.laneBits());
    unsigned MsbShift = A.laneBits() - 1;
    uint64_t LM = A.laneMask();
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t X = A.Words[W], Y = B.Words[W];
      uint64_t Exp = (laneGE(X, Y, O) >> MsbShift) * LM;
      Words[W] = Y ^ ((X ^ Y) & Exp); // Lanewise max.
    }
    return;
  }
  clear();
  unsigned LB = A.laneBits();
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    BlockAddr BA = A.blockAt(I), BB = B.blockAt(J);
    if (BA < BB)
      ++I;
    else if (BA > BB)
      ++J;
    else {
      append(BA, std::max(A.ageAt(I), B.ageAt(J)), LB);
      ++I;
      ++J;
    }
  }
}

void PackedAges::assignMayMerge(const PackedAges &A, const PackedAges &B) {
  assert(this != &A && this != &B);
  if (B.empty()) {
    *this = A;
    return;
  }
  if (A.empty()) {
    *this = B;
    return;
  }
  assert(A.LaneLog == B.LaneLog);
  if (A.sameBlocks(B)) {
    Blks = A.Blks;
    LaneLog = A.LaneLog;
    Words.resize(A.Words.size());
    const LaneOps &O = opsFor(A.laneBits());
    unsigned MsbShift = A.laneBits() - 1;
    uint64_t LM = A.laneMask();
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t X = A.Words[W], Y = B.Words[W];
      uint64_t Exp = (laneGE(X, Y, O) >> MsbShift) * LM;
      Words[W] = X ^ ((X ^ Y) & Exp); // Lanewise min.
    }
    return;
  }
  clear();
  unsigned LB = A.laneBits();
  size_t I = 0, J = 0;
  while (I != A.size() || J != B.size()) {
    if (J == B.size() || (I != A.size() && A.blockAt(I) < B.blockAt(J))) {
      append(A.blockAt(I), A.ageAt(I), LB);
      ++I;
    } else if (I == A.size() || A.blockAt(I) > B.blockAt(J)) {
      append(B.blockAt(J), B.ageAt(J), LB);
      ++J;
    } else {
      append(A.blockAt(I), std::min(A.ageAt(I), B.ageAt(J)), LB);
      ++I;
      ++J;
    }
  }
}

void PackedAges::mustMergeInPlace(const PackedAges &From,
                                  PackedAges &Scratch) {
  if (empty())
    return;
  if (From.empty()) {
    clear();
    return;
  }
  assert(LaneLog == From.LaneLog);
  if (sameBlocks(From)) {
    const LaneOps &O = opsFor(laneBits());
    unsigned MsbShift = laneBits() - 1;
    uint64_t LM = laneMask();
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t X = Words[W], Y = From.Words[W];
      uint64_t Exp = (laneGE(X, Y, O) >> MsbShift) * LM;
      Words[W] = Y ^ ((X ^ Y) & Exp); // Lanewise max.
    }
    return;
  }
  Scratch.assignMustMerge(*this, From);
  std::swap(Blks, Scratch.Blks);
  std::swap(Words, Scratch.Words);
  std::swap(LaneLog, Scratch.LaneLog);
}

void PackedAges::mayMergeInPlace(const PackedAges &From,
                                 PackedAges &Scratch) {
  if (From.empty())
    return;
  if (empty()) {
    *this = From;
    return;
  }
  assert(LaneLog == From.LaneLog);
  if (sameBlocks(From)) {
    const LaneOps &O = opsFor(laneBits());
    unsigned MsbShift = laneBits() - 1;
    uint64_t LM = laneMask();
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t X = Words[W], Y = From.Words[W];
      uint64_t Exp = (laneGE(X, Y, O) >> MsbShift) * LM;
      Words[W] = X ^ ((X ^ Y) & Exp); // Lanewise min.
    }
    return;
  }
  Scratch.assignMayMerge(*this, From);
  std::swap(Blks, Scratch.Blks);
  std::swap(Words, Scratch.Words);
  std::swap(LaneLog, Scratch.LaneLog);
}

bool PackedAges::mustJoinWouldChange(const PackedAges &From) const {
  if (empty())
    return false; // Intersection stays empty.
  if (From.empty())
    return true; // Every entry leaves the intersection.
  if (sameBlocks(From))
    return !allLanesGE(From); // Change iff some From age exceeds ours.
  size_t I = 0, J = 0;
  while (I != size()) {
    if (J == From.size() || blockAt(I) < From.blockAt(J))
      return true; // Dropped from the intersection.
    if (blockAt(I) > From.blockAt(J)) {
      ++J;
      continue;
    }
    if (From.ageAt(J) > ageAt(I))
      return true; // Age grows to the max.
    ++I;
    ++J;
  }
  return false;
}

bool PackedAges::mayJoinWouldChange(const PackedAges &From) const {
  if (From.empty())
    return false;
  if (empty())
    return true; // New shadow entries enter the union.
  if (sameBlocks(From))
    return !From.allLanesGE(*this); // Change iff some From age undercuts.
  size_t I = 0, J = 0;
  while (J != From.size()) {
    if (I == size() || blockAt(I) > From.blockAt(J))
      return true; // New shadow entry.
    if (blockAt(I) < From.blockAt(J)) {
      ++I;
      continue;
    }
    if (From.ageAt(J) < ageAt(I))
      return true; // Age shrinks to the min.
    ++I;
    ++J;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// CacheAbsState: payload plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Partition lookup in a set-sorted partition vector.
std::vector<CacheSetPartition>::const_iterator
findPartIn(const std::vector<CacheSetPartition> &Parts, uint32_t Set) {
  auto It = std::lower_bound(
      Parts.begin(), Parts.end(), Set,
      [](const CacheSetPartition &P, uint32_t S) { return P.Set < S; });
  if (It != Parts.end() && It->Set == Set)
    return It;
  return Parts.end();
}

/// Find-or-insert the partition of \p Set, keeping the vector set-sorted.
/// Returns an index (not a reference: the insert may reallocate).
size_t ensurePart(std::vector<CacheSetPartition> &Parts, uint32_t Set) {
  auto It = std::lower_bound(
      Parts.begin(), Parts.end(), Set,
      [](const CacheSetPartition &P, uint32_t S) { return P.Set < S; });
  if (It == Parts.end() || It->Set != Set)
    It = Parts.insert(It, CacheSetPartition{Set, {}, {}});
  return static_cast<size_t>(It - Parts.begin());
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// MUST lane width for \p MM's policy (from the policy age cap).
unsigned mustLanesOf(const MemoryModel &MM) {
  return CacheAbsState::packedLaneBits(MM.config().mustAgeCap());
}

/// MAY lane width: shadow ages are bounded by the associativity under
/// every policy.
unsigned mayLanesOf(const MemoryModel &MM) {
  return CacheAbsState::packedLaneBits(MM.config().Associativity);
}

} // namespace

const std::vector<CacheSetPartition> &CacheAbsState::emptyParts() {
  static const std::vector<CacheSetPartition> Empty;
  return Empty;
}

CacheAbsState::Payload *CacheAbsState::allocPayload() {
  Payload *PL = RecyclingArena<Payload>::allocateFromActive();
  PL->RefCount.store(1, std::memory_order_relaxed);
  PL->HashKnown.store(false, std::memory_order_relaxed);
  return PL;
}

CacheAbsState::Payload &CacheAbsState::mut() {
  if (!P) {
    P = allocPayload();
    P->Parts.clear();
  } else if (P->RefCount.load(std::memory_order_acquire) > 1) {
    Payload *N = allocPayload();
    // Element-wise vector copy-assignment reuses the recycled partition
    // buffers — the fixpoint's clone-transfer-join steady state allocates
    // nothing once the arena is warm.
    N->Parts = P->Parts;
    release(P);
    P = N;
  }
  P->HashKnown.store(false, std::memory_order_relaxed);
  return *P;
}

void CacheAbsState::normalize() {
  if (!P)
    return;
  // A shared payload is never mutated here: partitions only need scrubbing
  // after a mutator, which already unshared.
  std::vector<CacheSetPartition> &Parts = P->Parts;
  Parts.erase(std::remove_if(Parts.begin(), Parts.end(),
                             [](const CacheSetPartition &Part) {
                               return Part.Must.empty() && Part.May.empty();
                             }),
              Parts.end());
  if (Parts.empty()) {
    release(P);
    P = nullptr;
  }
}

const CacheSetPartition *CacheAbsState::findPart(uint32_t Set) const {
  if (!P)
    return nullptr;
  auto It = findPartIn(P->Parts, Set);
  return It == P->Parts.end() ? nullptr : &*It;
}

uint32_t CacheAbsState::mustAge(BlockAddr Block, uint32_t Assoc) const {
  // The block's set is unknown here (no MemoryModel); a block lives in
  // exactly one partition, so probe each. Partition counts are tiny (one
  // for fully associative geometries).
  for (const CacheSetPartition &Part : partitions()) {
    size_t I = Part.Must.find(Block);
    if (I != PackedAges::npos)
      return Part.Must.ageAt(I);
  }
  return Assoc + 1;
}

uint32_t CacheAbsState::mayAge(BlockAddr Block, uint32_t Assoc) const {
  for (const CacheSetPartition &Part : partitions()) {
    size_t I = Part.May.find(Block);
    if (I != PackedAges::npos)
      return Part.May.ageAt(I);
  }
  return Assoc + 1;
}

bool CacheAbsState::isMustCached(BlockAddr Block) const {
  for (const CacheSetPartition &Part : partitions())
    if (Part.Must.find(Block) != PackedAges::npos)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Access transfers
//===----------------------------------------------------------------------===//

void CacheAbsState::accessBlock(BlockAddr Block, const MemoryModel &MM,
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

namespace {

/// The refined MUST aging of Appendix B under LRU: u ages only when at
/// least Age(u) shadow blocks other than u are at least as young as u.
/// NYoung(u) comes from a histogram of the (already updated) MAY ages —
/// LeqCnt[a] counts shadow entries with age <= a — plus a sorted merge
/// walk to subtract u's own shadow entry, making the whole pass
/// O(n + assoc) instead of the reference's O(n^2).
void ageMustShadowLru(PackedAges &Must, const PackedAges &May,
                      BlockAddr Touched, uint32_t VMustOld, uint32_t Assoc) {
  if (Must.empty())
    return;
  size_t MustN = Must.size(), MayN = May.size();
  bool AnyEvict = false;

  if (MustN * MayN <= 256) {
    // Tiny states (the fuzz corpus's common case): the direct O(n*m)
    // count beats building a histogram sized by the associativity.
    for (size_t I = 0; I != MustN; ++I) {
      BlockAddr B = Must.blockAt(I);
      uint16_t Age = Must.ageAt(I);
      if (B == Touched || Age >= VMustOld)
        continue;
      uint32_t NYoung = 0;
      for (size_t J = 0; J != MayN; ++J)
        if (May.blockAt(J) != B && May.ageAt(J) <= Age)
          ++NYoung;
      if (NYoung >= Age) {
        Must.setAgeAt(I, static_cast<uint16_t>(Age + 1));
        if (Age + 1u > Assoc)
          AnyEvict = true;
      }
    }
    if (AnyEvict)
      Must.compactAgesAbove(Assoc);
    return;
  }

  // Dense states: LeqCnt[a] = #shadow entries with age <= a, built once in
  // O(m + assoc); a sorted merge walk subtracts u's own shadow entry.
  constexpr uint32_t StackCap = 2048;
  uint32_t StackBuf[StackCap + 2];
  std::vector<uint32_t> HeapBuf;
  uint32_t *LeqCnt;
  if (Assoc <= StackCap) {
    LeqCnt = StackBuf;
  } else {
    HeapBuf.resize(size_t(Assoc) + 2);
    LeqCnt = HeapBuf.data();
  }
  std::fill(LeqCnt, LeqCnt + Assoc + 2, 0u);
  for (size_t I = 0; I != MayN; ++I)
    ++LeqCnt[May.ageAt(I)]; // MAY ages are in [1, Assoc].
  for (uint32_t A = 1; A <= Assoc + 1; ++A)
    LeqCnt[A] += LeqCnt[A - 1];

  size_t J = 0;
  for (size_t I = 0; I != MustN; ++I) {
    BlockAddr B = Must.blockAt(I);
    uint16_t Age = Must.ageAt(I);
    while (J != MayN && May.blockAt(J) < B)
      ++J;
    if (B == Touched || Age >= VMustOld)
      continue;
    uint32_t NYoung = LeqCnt[Age];
    if (J != MayN && May.blockAt(J) == B && May.ageAt(J) <= Age)
      --NYoung; // u's own shadow entry does not count.
    if (NYoung >= Age) {
      Must.setAgeAt(I, static_cast<uint16_t>(Age + 1));
      if (Age + 1u > Assoc)
        AnyEvict = true;
    }
  }
  if (AnyEvict)
    Must.compactAgesAbove(Assoc);
}

} // namespace

void CacheAbsState::accessBlockLru(BlockAddr Block, const MemoryModel &MM,
                                   bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  unsigned Lanes = mustLanesOf(MM); // == mayLanesOf: LRU cap is the assoc.
  uint32_t Set = MM.setOf(Block);

  // Previous ages, read before any update. Only the accessed set's
  // partition can hold the block. The found positions stay valid across
  // mut(): cloning copies entry lists verbatim and ensurePart only ever
  // inserts whole partitions.
  const CacheSetPartition *Old = findPart(Set);
  size_t MustPos = Old ? Old->Must.find(Block) : PackedAges::npos;
  size_t MayPos = Old ? Old->May.find(Block) : PackedAges::npos;
  uint32_t VMustOld =
      MustPos == PackedAges::npos ? Assoc + 1 : Old->Must.ageAt(MustPos);
  uint32_t VMayOld =
      MayPos == PackedAges::npos ? Assoc + 1 : Old->May.ageAt(MayPos);

  Payload &PL = mut();
  CacheSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  if (UseShadow) {
    // MAY (shadow) update first, Appendix B: ∃u with Age(∃u) <= Age(∃v)
    // ages by one; older shadows keep their age. The partition holds only
    // this set's entries, so no per-entry set check is needed.
    Part.May.agePredLE(VMayOld, MayPos, Assoc);
    Part.May.set(Block, 1, Lanes);
  }

  // MUST update; the refined NYoung rule reads the updated MAY side.
  if (UseShadow)
    ageMustShadowLru(Part.Must, Part.May, Block, VMustOld, Assoc);
  else
    Part.Must.agePredLE(VMustOld - 1, MustPos, Assoc);
  Part.Must.set(Block, 1, Lanes);
}

void CacheAbsState::accessBlockFifo(BlockAddr Block, const MemoryModel &MM,
                                    bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  unsigned Lanes = mustLanesOf(MM); // FIFO cap is the assoc; MAY matches.
  uint32_t Set = MM.setOf(Block);

  const CacheSetPartition *Old = findPart(Set);
  uint32_t VMustOld = Old ? Old->Must.ageOf(Block, Assoc + 1) : Assoc + 1;
  // A provably resident block hits on every path, and a FIFO hit leaves
  // the whole set untouched (no rejuvenation): the transfer is exactly the
  // identity. This is also what makes repeated accesses must-hits.
  if (VMustOld <= Assoc)
    return;

  // Possible miss. With shadows, a block absent from MAY is not cached on
  // any path, so the access is a *definite* miss: it lands at insertion
  // position 1 and pushes every other line of the set one position deeper.
  // Without that proof the touched block still ends resident either way
  // (hit: it already was; miss: it is inserted), but only at the weakest
  // bound — position <= associativity.
  uint32_t VMayOld = Old ? Old->May.ageOf(Block, Assoc + 1) : Assoc + 1;
  bool DefiniteMiss = UseShadow && VMayOld > Assoc;

  Payload &PL = mut();
  CacheSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  if (UseShadow) {
    if (DefiniteMiss)
      // Every path misses, so every other line's insertion position (and
      // with it its MAY lower bound) advances by one.
      Part.May.agePredLE(Assoc, Part.May.find(Block), Assoc);
    Part.May.set(Block, 1, Lanes);
  }

  // MUST: the access may miss, displacing every tracked line of the set
  // one insertion position.
  Part.Must.agePredLE(Assoc, Part.Must.find(Block), Assoc);
  if (DefiniteMiss)
    Part.Must.set(Block, 1, Lanes);
  else if (Assoc <= UINT16_MAX)
    // Resident either way, but only at the weakest bound. Geometries
    // whose associativity does not fit the age field simply leave the
    // block untracked (sound: untracked = not provably resident).
    Part.Must.set(Block, static_cast<uint16_t>(Assoc), Lanes);
  normalize();
}

void CacheAbsState::accessBlockPlru(BlockAddr Block, const MemoryModel &MM,
                                    bool UseShadow) {
  // The sound tree bound (docs/DOMAINS.md): a k-way tree-PLRU evicts a
  // block only once every direction bit on its root path points toward it,
  // and one access to another line flips at most one of those log2(k)
  // bits. Ages therefore live in [1, log2(k) + 1], every access ages
  // every other tracked block of the set by one (hit or miss — hits flip
  // tree bits too, so the LRU relative-age refinement does not apply, and
  // neither does the recency-based shadow NYoung rule), and the touched
  // block is fully protected at age 1 afterwards.
  uint32_t Cap = MM.config().mustAgeCap();
  uint32_t Set = MM.setOf(Block);

  Payload &PL = mut();
  CacheSetPartition &Part = PL.Parts[ensurePart(PL.Parts, Set)];

  Part.Must.agePredLE(Cap, Part.Must.find(Block), Cap);
  Part.Must.set(Block, 1, mustLanesOf(MM));
  // MAY: the touched block may be the youngest; other lower bounds stay
  // valid because no access is guaranteed to flip a bit toward a
  // particular block (tree ages are not monotone across paths).
  if (UseShadow)
    Part.May.set(Block, 1, mayLanesOf(MM));
  normalize();
}

void CacheAbsState::accessUnknown(VarId Var, uint64_t InstanceK,
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

void CacheAbsState::accessUnknownLru(VarId Var, uint64_t InstanceK,
                                     const MemoryModel &MM, bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  // Guaranteed-hit refinement (paper §2.2's ph[k]): when every line of the
  // array is provably resident, the access hits some line of age at most
  // MaxAge; only strictly younger blocks can age, and nothing is evicted.
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
    // Pure aging with no eviction and no insertion: skip the payload clone
    // when nothing moves and the MAY side will not be touched either.
    bool AnyAging = false;
    for (const CacheSetPartition &Part : partitions())
      if (IsCandidateSet(Part.Set) && Part.Must.anyAgeLT(MaxAge)) {
        AnyAging = true;
        break;
      }
    if (AnyAging) {
      Payload &PL = mut();
      for (CacheSetPartition &Part : PL.Parts)
        if (IsCandidateSet(Part.Set))
          // Aged lanes stay <= MaxAge <= Assoc: a hit evicts nothing.
          Part.Must.agePredLE(MaxAge - 1, PackedAges::npos, Assoc);
    } else if (!UseShadow) {
      return;
    }
  } else {
    // Conservative MUST aging: the unknown line may be a miss in any
    // candidate set, displacing one position everywhere.
    Payload &PL = mut();
    for (CacheSetPartition &Part : PL.Parts)
      if (IsCandidateSet(Part.Set))
        Part.Must.agePredLE(Assoc, PackedAges::npos, Assoc);
    // The nondeterministically picked fresh line (decis_levl[k*]).
    BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
    size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
    PL.Parts[Idx].Must.set(Instance, 1, mustLanesOf(MM));
  }

  if (UseShadow) {
    // Any line of the array may now be the youngest in its set.
    Payload &PL = mut();
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : ArrayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      PL.Parts[Idx].May.set(Block, 1, MayL);
    }
    if (!AllCached) {
      BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
      PL.Parts[Idx].May.set(Instance, 1, MayL);
    }
  }
  normalize();
}

void CacheAbsState::accessUnknownFifo(VarId Var, const MemoryModel &MM,
                                      bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  // When every line of the array is provably resident the access hits
  // whichever line it touches, and a FIFO hit is the identity.
  std::vector<BlockAddr> ArrayBlocks = MM.blocksOf(Var);
  bool AllCached = true;
  for (BlockAddr Block : ArrayBlocks)
    if (mustAge(Block, Assoc) > Assoc) {
      AllCached = false;
      break;
    }
  if (AllCached)
    return;

  // Possible miss in any candidate set: every tracked line there may be
  // displaced one insertion position. The touched line ends resident, but
  // which line it is is unknown, so no MUST entry can claim it (a symbolic
  // instance at the weakest bound would be evicted by the next possible
  // miss anyway).
  Payload &PL = mut();
  for (CacheSetPartition &Part : PL.Parts)
    if (IsCandidateSet(Part.Set))
      Part.Must.agePredLE(Assoc, PackedAges::npos, Assoc);
  if (UseShadow) {
    // Any line of the array may now sit at insertion position 1.
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : ArrayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      PL.Parts[Idx].May.set(Block, 1, MayL);
    }
  }
  normalize();
}

void CacheAbsState::accessUnknownPlru(VarId Var, uint64_t InstanceK,
                                      const MemoryModel &MM, bool UseShadow) {
  uint32_t Cap = MM.config().mustAgeCap();
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  // Hit or miss, the access flips tree bits in whichever candidate set it
  // lands in, so every tracked block there ages one step toward the tree
  // bound; the touched line itself ends fully protected, represented by
  // the fresh symbolic instance at age 1 (its concrete age is 1 whether
  // the access hit or filled).
  Payload &PL = mut();
  for (CacheSetPartition &Part : PL.Parts)
    if (IsCandidateSet(Part.Set))
      Part.Must.agePredLE(Cap, PackedAges::npos, Cap);
  BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
  size_t Idx = ensurePart(PL.Parts, MM.setOf(Instance));
  PL.Parts[Idx].Must.set(Instance, 1, mustLanesOf(MM));

  if (UseShadow) {
    unsigned MayL = mayLanesOf(MM);
    std::vector<BlockAddr> ArrayBlocks = MM.blocksOf(Var);
    for (BlockAddr Block : ArrayBlocks) {
      size_t I = ensurePart(PL.Parts, MM.setOf(Block));
      PL.Parts[I].May.set(Block, 1, MayL);
    }
    size_t I = ensurePart(PL.Parts, MM.setOf(Instance));
    PL.Parts[I].May.set(Instance, 1, MayL);
  }
  normalize();
}

void CacheAbsState::applyCallEffect(const std::vector<uint32_t> &SetPressure,
                                    const std::vector<AgedBlock> &ExitMust,
                                    const std::vector<BlockAddr> &MayBlocks,
                                    const MemoryModel &MM, bool UseShadow,
                                    bool InsertExitMust, bool ApplyPressure) {
  if (Bottom)
    return;
  uint32_t Assoc = MM.config().Associativity;
  bool IsLru = MM.config().Policy == ReplacementPolicy::Lru;

  if (ApplyPressure) {
    // Probe first so the no-op case (nothing tracked in any pressured set)
    // never clones the payload.
    bool AnyWork = false;
    for (const CacheSetPartition &Part : partitions())
      if (Part.Set < SetPressure.size() && SetPressure[Part.Set] > 0 &&
          !Part.Must.empty()) {
        AnyWork = true;
        break;
      }
    if (AnyWork) {
      Payload &PL = mut();
      for (CacheSetPartition &Part : PL.Parts) {
        uint32_t K =
            Part.Set < SetPressure.size() ? SetPressure[Part.Set] : 0;
        if (K == 0 || Part.Must.empty())
          continue;
        if (!IsLru) {
          Part.Must.clear();
          continue;
        }
        Part.Must.addPressure(K, Assoc);
      }
    }
  }

  if (InsertExitMust && !ExitMust.empty()) {
    Payload &PL = mut();
    unsigned MustL = mustLanesOf(MM);
    for (const AgedBlock &E : ExitMust) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(E.Block));
      PackedAges &Must = PL.Parts[Idx].Must;
      // Both the surviving caller bound and the callee exit bound are valid
      // age upper bounds; keep the tighter one.
      size_t Pos = Must.find(E.Block);
      if (Pos != PackedAges::npos)
        Must.setAgeAt(Pos, std::min(Must.ageAt(Pos), E.Age));
      else
        Must.set(E.Block, E.Age, MustL);
    }
  }

  if (UseShadow && !MayBlocks.empty()) {
    Payload &PL = mut();
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : MayBlocks) {
      size_t Idx = ensurePart(PL.Parts, MM.setOf(Block));
      PL.Parts[Idx].May.set(Block, 1, MayL);
    }
  }
  normalize();
}

//===----------------------------------------------------------------------===//
// Join / order / widening
//===----------------------------------------------------------------------===//

namespace {

/// Would `Into ⊔= From` change Into? A pure read-only merge walk: MUST is
/// intersection/max (change = a dropped entry or a grown age), MAY is
/// union/min (change = a new entry or a shrunk age). Peer partitions with
/// identical block lists compare a word at a time.
bool joinWouldChange(const std::vector<CacheSetPartition> &Into,
                     const std::vector<CacheSetPartition> &From,
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
    if (Into[I].Must.mustJoinWouldChange(From[J].Must))
      return true;
    if (UseShadow && Into[I].May.mayJoinWouldChange(From[J].May))
      return true;
    ++I;
    ++J;
  }
  return false;
}

} // namespace

bool CacheAbsState::joinInto(const CacheAbsState &From, bool UseShadow) {
  if (From.Bottom)
    return false;
  if (Bottom) {
    Bottom = false;
    assert(!P && "bottom states own no payload");
    P = From.P; // Copy-on-write: a refcount bump, not an entry copy.
    if (P)
      P->RefCount.fetch_add(1, std::memory_order_relaxed);
    if (!UseShadow && P) {
      bool AnyMay = false;
      for (const CacheSetPartition &Part : P->Parts)
        if (!Part.May.empty()) {
          AnyMay = true;
          break;
        }
      if (AnyMay) {
        Payload &PL = mut();
        for (CacheSetPartition &Part : PL.Parts)
          Part.May.clear();
        normalize();
      }
    }
    return true;
  }
  if (P == From.P)
    return false; // Shared storage: identical states, join is a no-op.
  // Hash-equality early exit: equal structures join to themselves.
  if (P && From.P && P->HashKnown.load(std::memory_order_acquire) &&
      From.P->HashKnown.load(std::memory_order_acquire) &&
      P->Hash.load(std::memory_order_relaxed) ==
          From.P->Hash.load(std::memory_order_relaxed) &&
      P->Parts == From.P->Parts)
    return false;

  const std::vector<CacheSetPartition> &Into = partitions();
  const std::vector<CacheSetPartition> &Src = From.partitions();
  if (!joinWouldChange(Into, Src, UseShadow))
    return false;

  // Uniquely-owned destination (the engines' slot accumulators after
  // their first rebuild): merge in place — sameBlocks partitions update
  // word-at-a-time with zero allocation, others swap through a reused
  // scratch — instead of cloning every partition into a fresh payload.
  if (P && P->RefCount.load(std::memory_order_relaxed) == 1) {
    std::vector<CacheSetPartition> &Dst = P->Parts;
    PackedAges ScratchMust, ScratchMay;
    size_t I = 0, J = 0;
    while (I != Dst.size() || J != Src.size()) {
      if (J == Src.size() || (I != Dst.size() && Dst[I].Set < Src[J].Set)) {
        Dst[I].Must.clear(); // Whole partition leaves the intersection.
        ++I;
      } else if (I == Dst.size() || Dst[I].Set > Src[J].Set) {
        if (UseShadow && !Src[J].May.empty()) {
          Dst.insert(Dst.begin() + static_cast<ptrdiff_t>(I),
                     CacheSetPartition{Src[J].Set, {}, Src[J].May});
          ++I;
        }
        ++J;
      } else {
        Dst[I].Must.mustMergeInPlace(Src[J].Must, ScratchMust);
        if (UseShadow)
          Dst[I].May.mayMergeInPlace(Src[J].May, ScratchMay);
        ++I;
        ++J;
      }
    }
    size_t Kept = 0;
    for (size_t K = 0; K != Dst.size(); ++K) {
      if (Dst[K].Must.empty() && Dst[K].May.empty())
        continue;
      if (Kept != K)
        Dst[Kept] = std::move(Dst[K]);
      ++Kept;
    }
    Dst.resize(Kept);
    P->HashKnown.store(false, std::memory_order_relaxed);
    if (Dst.empty()) {
      release(P);
      P = nullptr;
    }
    return true;
  }

  // Build the merged payload fresh; the no-change path above keeps this
  // allocation off the fixed-point steady state, and the arena recycles
  // the partition buffers of the payload this replaces.
  Payload *NewP = allocPayload();
  std::vector<CacheSetPartition> &Out = NewP->Parts;
  size_t OutN = 0;

  if (Out.capacity() < std::max(Into.size(), Src.size()))
    Out.reserve(std::max(Into.size(), Src.size()));
  size_t I = 0, J = 0;
  while (I != Into.size() || J != Src.size()) {
    // Recycled payloads carry leftover partitions; reuse them as output
    // slots so a warm join allocates nothing.
    if (OutN == Out.size())
      Out.emplace_back();
    CacheSetPartition &Part = Out[OutN];
    if (J == Src.size() || (I != Into.size() && Into[I].Set < Src[J].Set)) {
      // Our set only: MUST intersection is empty, MAY keeps our entries
      // (untouched when shadows are off, matching the flat representation).
      Part.Set = Into[I].Set;
      Part.Must.clear();
      Part.May = Into[I].May;
      ++I;
    } else if (I == Into.size() || Into[I].Set > Src[J].Set) {
      // Their set only: nothing joins MUST; MAY union adopts theirs.
      Part.Set = Src[J].Set;
      Part.Must.clear();
      if (UseShadow)
        Part.May = Src[J].May;
      else
        Part.May.clear();
      ++J;
    } else {
      Part.Set = Into[I].Set;
      Part.Must.assignMustMerge(Into[I].Must, Src[J].Must);
      if (UseShadow)
        Part.May.assignMayMerge(Into[I].May, Src[J].May);
      else
        Part.May = Into[I].May;
      ++I;
      ++J;
    }
    if (!Part.Must.empty() || !Part.May.empty())
      ++OutN;
  }
  Out.resize(OutN);

  if (OutN == 0) {
    release(NewP);
    if (P)
      release(P);
    P = nullptr;
  } else {
    if (P)
      release(P);
    P = NewP;
  }
  return true;
}

bool CacheAbsState::leq(const CacheAbsState &RHS, uint32_t Assoc) const {
  if (Bottom)
    return true;
  if (RHS.Bottom)
    return false;
  // MUST ages are upper bounds and join takes max, so larger ages sit
  // higher in the lattice: S ⊑ S' iff ∀b mustAge_S(b) <= mustAge_S'(b).
  // Blocks RHS does not track have age Assoc+1 there, which dominates
  // everything, so only RHS's tracked blocks need checking.
  for (const CacheSetPartition &RPart : RHS.partitions()) {
    const CacheSetPartition *LPart = findPart(RPart.Set);
    if (!LPart) {
      if (!RPart.Must.empty())
        return false;
      continue;
    }
    if (LPart->Must.sameBlocks(RPart.Must)) {
      // Identical tracked blocks: one subtract-and-test per word.
      if (!RPart.Must.allLanesGE(LPart->Must))
        return false;
      continue;
    }
    for (size_t K = 0, N = RPart.Must.size(); K != N; ++K) {
      uint32_t Mine =
          LPart->Must.ageOf(RPart.Must.blockAt(K), Assoc + 1);
      if (Mine > RPart.Must.ageAt(K))
        return false;
    }
  }
  // MAY ages are lower bounds with min-join: S ⊑ S' iff
  // ∀b mayAge_S(b) >= mayAge_S'(b); untracked blocks on our side are
  // Assoc+1 and dominate.
  for (const CacheSetPartition &LPart : partitions()) {
    const CacheSetPartition *RPart = RHS.findPart(LPart.Set);
    if (!RPart) {
      if (!LPart.May.empty())
        return false;
      continue;
    }
    if (LPart.May.sameBlocks(RPart->May)) {
      if (!LPart.May.allLanesGE(RPart->May))
        return false;
      continue;
    }
    for (size_t K = 0, N = LPart.May.size(); K != N; ++K) {
      uint32_t Theirs = RPart->May.ageOf(LPart.May.blockAt(K), Assoc + 1);
      if (LPart.May.ageAt(K) < Theirs)
        return false;
    }
  }
  return true;
}

void CacheAbsState::widenFrom(const CacheAbsState &Prev, uint32_t Assoc) {
  if (Bottom || Prev.Bottom)
    return;
  // Evict MUST entries whose age grew since the previous iterate. Probe
  // first so the stable case never clones the payload.
  auto Grew = [&](uint32_t Set, BlockAddr Block, uint16_t Age) {
    const CacheSetPartition *PPart = Prev.findPart(Set);
    uint32_t PrevAge =
        PPart ? PPart->Must.ageOf(Block, Assoc + 1) : Assoc + 1;
    return PrevAge <= Assoc && Age > PrevAge;
  };
  bool AnyGrew = false;
  for (const CacheSetPartition &Part : partitions()) {
    for (size_t I = 0, N = Part.Must.size(); I != N && !AnyGrew; ++I)
      AnyGrew = Grew(Part.Set, Part.Must.blockAt(I), Part.Must.ageAt(I));
    if (AnyGrew)
      break;
  }
  if (!AnyGrew)
    return;
  Payload &PL = mut();
  std::vector<char> Remove;
  for (CacheSetPartition &Part : PL.Parts) {
    size_t N = Part.Must.size();
    Remove.assign(N, 0);
    bool Any = false;
    for (size_t I = 0; I != N; ++I)
      if (Grew(Part.Set, Part.Must.blockAt(I), Part.Must.ageAt(I))) {
        Remove[I] = 1;
        Any = true;
      }
    if (Any)
      Part.Must.removeFlagged(Remove);
  }
  normalize();
  // MAY ages descend toward 1 on a finite ladder; no acceleration needed.
}

bool CacheAbsState::operator==(const CacheAbsState &RHS) const {
  if (Bottom != RHS.Bottom)
    return false;
  if (Bottom)
    return true;
  if (P == RHS.P)
    return true; // Shared storage (or both empty).
  // Canonical form: a live payload always has at least one partition, so
  // an empty state never equals a non-empty one here.
  if (P && RHS.P && P->HashKnown.load(std::memory_order_acquire) &&
      RHS.P->HashKnown.load(std::memory_order_acquire) &&
      P->Hash.load(std::memory_order_relaxed) !=
          RHS.P->Hash.load(std::memory_order_relaxed))
    return false;
  return partitions() == RHS.partitions();
}

//===----------------------------------------------------------------------===//
// Canonical views, hashing, rendering
//===----------------------------------------------------------------------===//

std::vector<AgedBlock> CacheAbsState::mustEntries() const {
  std::vector<AgedBlock> Out;
  for (const CacheSetPartition &Part : partitions())
    for (const AgedBlock E : Part.Must)
      Out.push_back(E);
  std::sort(Out.begin(), Out.end(),
            [](const AgedBlock &A, const AgedBlock &B) {
              return A.Block < B.Block;
            });
  return Out;
}

std::vector<AgedBlock> CacheAbsState::mayEntries() const {
  std::vector<AgedBlock> Out;
  for (const CacheSetPartition &Part : partitions())
    for (const AgedBlock E : Part.May)
      Out.push_back(E);
  std::sort(Out.begin(), Out.end(),
            [](const AgedBlock &A, const AgedBlock &B) {
              return A.Block < B.Block;
            });
  return Out;
}

uint64_t CacheAbsState::structuralHash() const {
  if (Bottom)
    return 0xB0770B0770ULL;
  if (!P)
    return 0x9E3779B97F4A7C15ULL; // The empty (entry) state.
  if (P->HashKnown.load(std::memory_order_acquire))
    return P->Hash.load(std::memory_order_relaxed);
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    H = (H ^ splitmix64(V)) * 0x100000001b3ULL;
  };
  Mix(P->Parts.size());
  for (const CacheSetPartition &Part : P->Parts) {
    Mix(Part.Set);
    Mix(Part.Must.size());
    for (const AgedBlock E : Part.Must) {
      Mix(E.Block);
      Mix(E.Age);
    }
    Mix(Part.May.size());
    for (const AgedBlock E : Part.May) {
      Mix(E.Block);
      Mix(E.Age);
    }
  }
  // Racing readers of a shared payload compute the same value; the
  // release/acquire pair orders the value before the flag.
  P->Hash.store(H, std::memory_order_relaxed);
  P->HashKnown.store(true, std::memory_order_release);
  return H;
}

std::string CacheAbsState::str(const MemoryModel &MM) const {
  if (Bottom)
    return "⊥";
  // Group by age, youngest first, like the paper's tables.
  std::map<uint32_t, std::vector<std::string>> ByAge;
  for (const CacheSetPartition &Part : partitions()) {
    for (const AgedBlock E : Part.Must)
      ByAge[E.Age].push_back(MM.blockName(E.Block));
    for (const AgedBlock E : Part.May)
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
