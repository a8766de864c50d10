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

unsigned PackedAges::mustJoinOrder(const PackedAges &From) const {
  if (empty())
    return JoinKeepsThis | (From.empty() ? JoinYieldsFrom : 0);
  if (From.empty())
    return JoinYieldsFrom; // Every entry leaves the intersection.
  if (sameBlocks(From)) {
    // Lane max. Keeping ours and yielding theirs at once means equal lanes.
    if (allLanesGE(From))
      return JoinKeepsThis | (Words == From.Words ? JoinYieldsFrom : 0);
    return From.allLanesGE(*this) ? JoinYieldsFrom : 0;
  }
  unsigned Order = JoinKeepsThis | JoinYieldsFrom;
  size_t I = 0, J = 0;
  while (Order && (I != size() || J != From.size())) {
    if (J == From.size() || (I != size() && blockAt(I) < From.blockAt(J))) {
      Order &= ~JoinKeepsThis; // Ours leaves the intersection.
      ++I;
    } else if (I == size() || blockAt(I) > From.blockAt(J)) {
      Order &= ~JoinYieldsFrom; // Theirs leaves the intersection.
      ++J;
    } else {
      if (From.ageAt(J) > ageAt(I))
        Order &= ~JoinKeepsThis; // Our age grows to the max.
      else if (ageAt(I) > From.ageAt(J))
        Order &= ~JoinYieldsFrom;
      ++I;
      ++J;
    }
  }
  return Order;
}

unsigned PackedAges::mayJoinOrder(const PackedAges &From) const {
  if (From.empty())
    return JoinKeepsThis | (empty() ? JoinYieldsFrom : 0);
  if (empty())
    return JoinYieldsFrom; // Their shadow entries enter the union.
  if (sameBlocks(From)) { // Lane min: the mirror image of the MUST case.
    if (From.allLanesGE(*this))
      return JoinKeepsThis | (Words == From.Words ? JoinYieldsFrom : 0);
    return allLanesGE(From) ? JoinYieldsFrom : 0;
  }
  unsigned Order = JoinKeepsThis | JoinYieldsFrom;
  size_t I = 0, J = 0;
  while (Order && (I != size() || J != From.size())) {
    if (J == From.size() || (I != size() && blockAt(I) < From.blockAt(J))) {
      Order &= ~JoinYieldsFrom; // Ours joins the union.
      ++I;
    } else if (I == size() || blockAt(I) > From.blockAt(J)) {
      Order &= ~JoinKeepsThis; // Theirs joins the union.
      ++J;
    } else {
      if (From.ageAt(J) < ageAt(I))
        Order &= ~JoinKeepsThis; // Our age shrinks to the min.
      else if (ageAt(I) < From.ageAt(J))
        Order &= ~JoinYieldsFrom;
      ++I;
      ++J;
    }
  }
  return Order;
}

//===----------------------------------------------------------------------===//
// CacheAbsState: payload plumbing
//===----------------------------------------------------------------------===//

namespace {

/// First node of a set-sorted partition-pointer vector whose set is not
/// below \p Set.
template <typename NodePtrVec>
auto lowerBoundSet(NodePtrVec &Parts, uint32_t Set) {
  return std::lower_bound(
      Parts.begin(), Parts.end(), Set,
      [](const auto *N, uint32_t S) { return N->Part.Set < S; });
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

CacheAbsState::Payload *CacheAbsState::allocPayload() {
  Payload *PL = RecyclingArena<Payload>::allocateFromActive();
  PL->RefCount.store(1, std::memory_order_relaxed);
  PL->Hash.store(0, std::memory_order_relaxed);
  assert(PL->Parts.empty() && "retired payloads hold no partitions");
  return PL;
}

CacheAbsState::PartNode *CacheAbsState::allocNode() {
  PartNode *N = RecyclingArena<PartNode>::allocateFromActive();
  N->RefCount.store(1, std::memory_order_relaxed);
  N->Hash.store(0, std::memory_order_relaxed);
  return N;
}

CacheAbsState::PartNode *CacheAbsState::copyNode(const PartNode &From) {
  PartNode *N = allocNode();
  // Copy-assignment reuses a recycled node's entry buffers, so the
  // clone-transfer-join steady state allocates nothing once the arena is
  // warm.
  N->Part = From.Part;
  return N;
}

void CacheAbsState::unshareWith(size_t Idx, PartNode *Slot) {
  // Copy the partition pointers, not the partitions: each mutator
  // unshares only the partitions it writes. Slot Idx is filled before the
  // old payload is released, so its old node is still alive to copy.
  Payload *N = allocPayload();
  N->Parts = P->Parts;
  for (size_t I = 0; I != N->Parts.size(); ++I)
    if (I != Idx)
      retain(N->Parts[I]);
    else
      N->Parts[I] = Slot ? Slot : copyNode(*N->Parts[I]);
  release(P);
  P = N;
}

CacheAbsState::Payload &CacheAbsState::mut() {
  if (!P)
    P = allocPayload();
  else if (P->RefCount.load(std::memory_order_acquire) > 1)
    unshareWith(PackedAges::npos, nullptr);
  else
    P->Hash.store(0, std::memory_order_relaxed);
  return *P;
}

CacheSetPartition &CacheAbsState::mutPart(size_t Idx) {
  if (P->RefCount.load(std::memory_order_acquire) > 1) {
    unshareWith(Idx, nullptr);
    return P->Parts[Idx]->Part;
  }
  P->Hash.store(0, std::memory_order_relaxed);
  PartNode *&Slot = P->Parts[Idx];
  if (Slot->RefCount.load(std::memory_order_acquire) > 1) {
    PartNode *N = copyNode(*Slot);
    releaseNode(Slot);
    Slot = N;
  } else {
    Slot->Hash.store(0, std::memory_order_relaxed);
  }
  return Slot->Part;
}

void CacheAbsState::setPart(size_t Idx, PartNode *N) {
  if (P->RefCount.load(std::memory_order_acquire) > 1) {
    unshareWith(Idx, N);
    return;
  }
  P->Hash.store(0, std::memory_order_relaxed);
  releaseNode(P->Parts[Idx]);
  P->Parts[Idx] = N;
}

CacheSetPartition &CacheAbsState::ensurePart(uint32_t Set) {
  if (P) {
    auto It = lowerBoundSet(P->Parts, Set);
    if (It != P->Parts.end() && (*It)->Part.Set == Set)
      return mutPart(static_cast<size_t>(It - P->Parts.begin()));
  }
  Payload &PL = mut();
  PartNode *N = allocNode();
  N->Part.Set = Set;
  N->Part.Must.clear();
  N->Part.May.clear();
  PL.Parts.insert(lowerBoundSet(PL.Parts, Set), N);
  return N->Part;
}

void CacheAbsState::normalize() {
  if (!P)
    return;
  // A shared payload is never mutated here: partitions only need scrubbing
  // after a mutator, which already unshared the payload (an empty
  // partition is always one a mutator just wrote, so it is unique too).
  std::vector<PartNode *> &Parts = P->Parts;
  size_t Kept = 0;
  for (PartNode *N : Parts) {
    if (N->Part.Must.empty() && N->Part.May.empty())
      releaseNode(N);
    else
      Parts[Kept++] = N;
  }
  Parts.resize(Kept);
  if (Parts.empty()) {
    release(P);
    P = nullptr;
  }
}

const CacheAbsState::PartNode *CacheAbsState::findNode(uint32_t Set) const {
  if (!P)
    return nullptr;
  auto It = lowerBoundSet(P->Parts, Set);
  return It != P->Parts.end() && (*It)->Part.Set == Set ? *It : nullptr;
}

const CacheSetPartition *CacheAbsState::findPart(uint32_t Set) const {
  const PartNode *N = findNode(Set);
  return N ? &N->Part : nullptr;
}

bool CacheAbsState::sharesPartitionWith(const CacheAbsState &RHS,
                                        uint32_t Set) const {
  const PartNode *N = findNode(Set);
  return N && N == RHS.findNode(Set);
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

void CacheAbsState::ageSets(const std::vector<uint32_t> &Sets,
                            uint32_t Cap) {
  for (size_t I = 0; I != nodes().size(); ++I) {
    const CacheSetPartition &Part = nodes()[I]->Part;
    // Every tracked age is <= Cap, so any MUST entry ages: only partitions
    // with entries are unshared.
    if (!Part.Must.empty() &&
        std::binary_search(Sets.begin(), Sets.end(), Part.Set))
      mutPart(I).Must.agePredLE(Cap, PackedAges::npos, Cap);
  }
}

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
  // ensurePart: unsharing copies entry lists verbatim.
  const CacheSetPartition *Old = findPart(Set);
  size_t MustPos = Old ? Old->Must.find(Block) : PackedAges::npos;
  size_t MayPos = Old ? Old->May.find(Block) : PackedAges::npos;
  uint32_t VMustOld =
      MustPos == PackedAges::npos ? Assoc + 1 : Old->Must.ageAt(MustPos);
  uint32_t VMayOld =
      MayPos == PackedAges::npos ? Assoc + 1 : Old->May.ageAt(MayPos);

  CacheSetPartition &Part = ensurePart(Set);

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

  CacheSetPartition &Part = ensurePart(Set);

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

  CacheSetPartition &Part = ensurePart(Set);

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
      for (size_t I = 0; I != nodes().size(); ++I) {
        const CacheSetPartition &Part = nodes()[I]->Part;
        if (IsCandidateSet(Part.Set) && Part.Must.anyAgeLT(MaxAge))
          // Aged lanes stay <= MaxAge <= Assoc: a hit evicts nothing.
          mutPart(I).Must.agePredLE(MaxAge - 1, PackedAges::npos, Assoc);
      }
    } else if (!UseShadow) {
      return;
    }
  } else {
    // Conservative MUST aging: the unknown line may be a miss in any
    // candidate set, displacing one position everywhere.
    ageSets(Sets, Assoc);
    // The nondeterministically picked fresh line (decis_levl[k*]).
    BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
    ensurePart(MM.setOf(Instance)).Must.set(Instance, 1, mustLanesOf(MM));
  }

  if (UseShadow) {
    // Any line of the array may now be the youngest in its set.
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : ArrayBlocks)
      ensurePart(MM.setOf(Block)).May.set(Block, 1, MayL);
    if (!AllCached) {
      BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
      ensurePart(MM.setOf(Instance)).May.set(Instance, 1, MayL);
    }
  }
  normalize();
}

void CacheAbsState::accessUnknownFifo(VarId Var, const MemoryModel &MM,
                                      bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.

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
  ageSets(Sets, Assoc);
  if (UseShadow) {
    // Any line of the array may now sit at insertion position 1.
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : ArrayBlocks)
      ensurePart(MM.setOf(Block)).May.set(Block, 1, MayL);
  }
  normalize();
}

void CacheAbsState::accessUnknownPlru(VarId Var, uint64_t InstanceK,
                                      const MemoryModel &MM, bool UseShadow) {
  uint32_t Cap = MM.config().mustAgeCap();
  std::vector<uint32_t> Sets = MM.setsOf(Var); // Sorted, deduplicated.

  // Hit or miss, the access flips tree bits in whichever candidate set it
  // lands in, so every tracked block there ages one step toward the tree
  // bound; the touched line itself ends fully protected, represented by
  // the fresh symbolic instance at age 1 (its concrete age is 1 whether
  // the access hit or filled).
  ageSets(Sets, Cap);
  BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
  ensurePart(MM.setOf(Instance)).Must.set(Instance, 1, mustLanesOf(MM));

  if (UseShadow) {
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : MM.blocksOf(Var))
      ensurePart(MM.setOf(Block)).May.set(Block, 1, MayL);
    ensurePart(MM.setOf(Instance)).May.set(Instance, 1, MayL);
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
      for (size_t I = 0; I != nodes().size(); ++I) {
        const CacheSetPartition &Part = nodes()[I]->Part;
        uint32_t K =
            Part.Set < SetPressure.size() ? SetPressure[Part.Set] : 0;
        if (K == 0 || Part.Must.empty())
          continue;
        if (IsLru)
          mutPart(I).Must.addPressure(K, Assoc);
        else
          mutPart(I).Must.clear();
      }
    }
  }

  if (InsertExitMust && !ExitMust.empty()) {
    unsigned MustL = mustLanesOf(MM);
    for (const AgedBlock &E : ExitMust) {
      PackedAges &Must = ensurePart(MM.setOf(E.Block)).Must;
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
    unsigned MayL = mayLanesOf(MM);
    for (BlockAddr Block : MayBlocks)
      ensurePart(MM.setOf(Block)).May.set(Block, 1, MayL);
  }
  normalize();
}

//===----------------------------------------------------------------------===//
// Join / order / widening
//===----------------------------------------------------------------------===//
//
// Every walk below pairs the partitions of two states by set and skips
// pairs held in the same node: a shared partition is equal to itself, so
// it can neither change a join nor break an order or equality check.

namespace {

/// Where `Into ⊔ From` lands for two partitions of one set, as a
/// PackedAges::JoinKeepsThis / JoinYieldsFrom mask over both sides.
/// Without shadows the join leaves Into's MAY entries alone, so it
/// yields From only when those already equal From's.
unsigned partJoinOrder(const CacheSetPartition &Into,
                       const CacheSetPartition &From, bool UseShadow) {
  unsigned Must = Into.Must.mustJoinOrder(From.Must);
  if (!Must)
    return 0; // Changes ours and is not theirs, whatever MAY does.
  if (UseShadow)
    return Must & Into.May.mayJoinOrder(From.May);
  return Must & (PackedAges::JoinKeepsThis |
                 (Into.May == From.May ? PackedAges::JoinYieldsFrom : 0));
}

} // namespace

const std::vector<CacheAbsState::PartNode *> &CacheAbsState::noNodes() {
  static const std::vector<PartNode *> None;
  return None;
}

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
      // Without shadows the join keeps no MAY entries: unshare and clear
      // only the partitions that hold some.
      auto HasMay = [](const PartNode *N) { return !N->Part.May.empty(); };
      if (std::any_of(P->Parts.begin(), P->Parts.end(), HasMay)) {
        for (size_t I = 0; I != P->Parts.size(); ++I)
          if (HasMay(P->Parts[I]))
            mutPart(I).May.clear();
        normalize();
      }
    }
    return true;
  }
  if (P == From.P)
    return false; // Shared storage: identical states, join is a no-op.

  // One merge walk by set. The payload is unshared on the first partition
  // the join changes, and then only the changed partitions are; a join
  // that changes nothing copies nothing. Unsharing copies the node
  // pointers in order, so the walk's indices stay valid across it.
  const std::vector<PartNode *> &Src = From.nodes();
  bool Changed = false, EmptiedSome = false;
  auto WroteEmpty = [&](size_t Idx) {
    const CacheSetPartition &Part = nodes()[Idx]->Part;
    return Part.Must.empty() && Part.May.empty();
  };
  size_t I = 0, J = 0;
  while (I != nodes().size() || J != Src.size()) {
    const std::vector<PartNode *> &Dst = nodes();
    if (J == Src.size() ||
        (I != Dst.size() && Dst[I]->Part.Set < Src[J]->Part.Set)) {
      // Our set only: the MUST intersection is empty there; MAY keeps our
      // entries (untouched when shadows are off).
      if (!Dst[I]->Part.Must.empty()) {
        mutPart(I).Must.clear();
        Changed = true;
        EmptiedSome |= WroteEmpty(I);
      }
      ++I;
    } else if (I == Dst.size() || Dst[I]->Part.Set > Src[J]->Part.Set) {
      // Their set only: nothing joins MUST; the MAY union adopts theirs.
      const CacheSetPartition &Theirs = Src[J]->Part;
      if (UseShadow && !Theirs.May.empty()) {
        PartNode *N;
        if (Theirs.Must.empty()) {
          N = retain(Src[J]); // The joined partition is exactly theirs.
        } else {
          N = allocNode();
          N->Part.Set = Theirs.Set;
          N->Part.Must.clear();
          N->Part.May = Theirs.May;
        }
        Payload &PL = mut();
        PL.Parts.insert(PL.Parts.begin() + static_cast<ptrdiff_t>(I), N);
        Changed = true;
        ++I;
      }
      ++J;
    } else {
      if (Dst[I] != Src[J]) {
        unsigned Order = partJoinOrder(Dst[I]->Part, Src[J]->Part, UseShadow);
        if (!(Order & PackedAges::JoinKeepsThis)) {
          joinPartInto(I, Src[J], Order & PackedAges::JoinYieldsFrom,
                       UseShadow);
          Changed = true;
          EmptiedSome |= WroteEmpty(I);
        }
      }
      ++I;
      ++J;
    }
  }
  if (EmptiedSome)
    normalize();
  return Changed;
}

void CacheAbsState::joinPartInto(size_t Idx, PartNode *From,
                                 bool YieldsFrom, bool UseShadow) {
  if (YieldsFrom) {
    // Adopt their node instead of building an equal copy, so both states
    // share it from here on.
    setPart(Idx, retain(From));
    return;
  }
  const PartNode *Ours = P->Parts[Idx];
  const CacheSetPartition &Mine = Ours->Part, &Theirs = From->Part;
  if (P->RefCount.load(std::memory_order_acquire) > 1 ||
      Ours->RefCount.load(std::memory_order_acquire) > 1) {
    // Shared: build the joined partition in a fresh node rather than
    // copying ours and merging into the copy.
    PartNode *N = allocNode();
    N->Part.Set = Mine.Set;
    N->Part.Must.assignMustMerge(Mine.Must, Theirs.Must);
    if (UseShadow)
      N->Part.May.assignMayMerge(Mine.May, Theirs.May);
    else
      N->Part.May = Mine.May;
    setPart(Idx, N);
    return;
  }
  CacheSetPartition &Part = mutPart(Idx);
  PackedAges Scratch;
  Part.Must.mustMergeInPlace(Theirs.Must, Scratch);
  if (UseShadow)
    Part.May.mayMergeInPlace(Theirs.May, Scratch);
}

bool CacheAbsState::leq(const CacheAbsState &RHS, uint32_t /*Assoc*/) const {
  if (Bottom)
    return true;
  if (RHS.Bottom)
    return false;
  if (P == RHS.P)
    return true; // Shared storage (or both empty).
  // this ⊑ RHS iff joining this into RHS (with shadows) changes nothing:
  // MUST ages are upper bounds joined by max over the intersection, MAY
  // ages lower bounds joined by min over the union, and a block a side
  // does not track sits at Assoc + 1 there.
  const std::vector<PartNode *> &L = nodes(), &R = RHS.nodes();
  size_t I = 0, J = 0;
  while (I != L.size() || J != R.size()) {
    if (J == R.size() || (I != L.size() && L[I]->Part.Set < R[J]->Part.Set)) {
      // RHS tracks nothing in this set: any MAY entry of ours undercuts
      // its Assoc + 1.
      if (!L[I]->Part.May.empty())
        return false;
      ++I;
    } else if (I == L.size() || L[I]->Part.Set > R[J]->Part.Set) {
      // We track nothing in this set: any MUST entry of RHS is tighter
      // than our Assoc + 1.
      if (!R[J]->Part.Must.empty())
        return false;
      ++J;
    } else {
      if (L[I] != R[J] &&
          !(partJoinOrder(R[J]->Part, L[I]->Part, /*UseShadow=*/true) &
            PackedAges::JoinKeepsThis))
        return false;
      ++I;
      ++J;
    }
  }
  return true;
}

void CacheAbsState::widenFrom(const CacheAbsState &Prev, uint32_t Assoc) {
  if (Bottom || Prev.Bottom || P == Prev.P)
    return;
  // Evict MUST entries whose age grew since the previous iterate. Only
  // partitions with such an entry are unshared, so the stable case never
  // clones anything.
  const std::vector<PartNode *> &PrevParts = Prev.nodes();
  std::vector<char> Remove;
  bool Changed = false;
  size_t J = 0;
  for (size_t I = 0; I != nodes().size(); ++I) {
    // Re-read through nodes(): unsharing the payload below replaces P.
    const PartNode *Ours = nodes()[I];
    uint32_t Set = Ours->Part.Set;
    while (J != PrevParts.size() && PrevParts[J]->Part.Set < Set)
      ++J;
    // Prev tracks nothing in this set (every age Assoc+1, so nothing
    // grew), or holds the very same partition.
    if (J == PrevParts.size() || PrevParts[J]->Part.Set != Set ||
        PrevParts[J] == Ours)
      continue;
    const PackedAges &Must = Ours->Part.Must;
    const PackedAges &PrevMust = PrevParts[J]->Part.Must;
    size_t N = Must.size();
    Remove.assign(N, 0);
    bool Any = false;
    for (size_t K = 0; K != N; ++K) {
      uint32_t PrevAge = PrevMust.ageOf(Must.blockAt(K), Assoc + 1);
      if (PrevAge <= Assoc && Must.ageAt(K) > PrevAge) {
        Remove[K] = 1;
        Any = true;
      }
    }
    if (Any) {
      mutPart(I).Must.removeFlagged(Remove);
      Changed = true;
    }
  }
  if (Changed)
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
  if (!P || !RHS.P)
    return false;
  auto HashesDiffer = [](const std::atomic<uint64_t> &A,
                         const std::atomic<uint64_t> &B) {
    uint64_t HA = A.load(std::memory_order_relaxed);
    uint64_t HB = B.load(std::memory_order_relaxed);
    return HA && HB && HA != HB;
  };
  if (HashesDiffer(P->Hash, RHS.P->Hash) ||
      P->Parts.size() != RHS.P->Parts.size())
    return false;
  for (size_t I = 0, N = P->Parts.size(); I != N; ++I) {
    const PartNode *A = P->Parts[I], *B = RHS.P->Parts[I];
    if (A != B && (HashesDiffer(A->Hash, B->Hash) || !(A->Part == B->Part)))
      return false;
  }
  return true;
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

namespace {

/// FNV-style accumulator over splitmix64-scrambled words.
struct HashMixer {
  uint64_t H = 0xcbf29ce484222325ULL;
  void mix(uint64_t V) { H = (H ^ splitmix64(V)) * 0x100000001b3ULL; }
  /// The mixed value, never 0 (0 marks "not computed" in the caches).
  uint64_t value() const { return H ? H : 1; }
};

} // namespace

uint64_t CacheAbsState::nodeHash(const PartNode &N) {
  if (uint64_t H = N.Hash.load(std::memory_order_relaxed))
    return H;
  HashMixer M;
  M.mix(N.Part.Set);
  M.mix(N.Part.Must.size());
  for (const AgedBlock E : N.Part.Must) {
    M.mix(E.Block);
    M.mix(E.Age);
  }
  M.mix(N.Part.May.size());
  for (const AgedBlock E : N.Part.May) {
    M.mix(E.Block);
    M.mix(E.Age);
  }
  // Racing readers of a shared node compute and store the same value.
  N.Hash.store(M.value(), std::memory_order_relaxed);
  return M.value();
}

uint64_t CacheAbsState::structuralHash() const {
  if (Bottom)
    return 0xB0770B0770ULL;
  if (!P)
    return 0x9E3779B97F4A7C15ULL; // The empty (entry) state.
  if (uint64_t H = P->Hash.load(std::memory_order_relaxed))
    return H;
  // Combine the per-partition hashes; only partitions written since they
  // were last hashed walk their entries.
  HashMixer M;
  M.mix(P->Parts.size());
  for (const PartNode *N : P->Parts)
    M.mix(nodeHash(*N));
  P->Hash.store(M.value(), std::memory_order_relaxed);
  return M.value();
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
