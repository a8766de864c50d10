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
#include <bit>
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

/// Lane-flag to lane-mask expansion: every lane whose MSB is set in \p H
/// becomes all ones. MSB minus LSB fills the bits between them without a
/// borrow across lanes; the OR restores the MSB.
uint64_t expandLanes(uint64_t H, unsigned LaneBits) {
  return (H - (H >> (LaneBits - 1))) | H;
}

/// Word \p K (absolute) of a window starting at \p Base, 0 outside it.
uint64_t wordAt(const std::vector<uint64_t> &Words, uint32_t Base, size_t K) {
  size_t I = K - Base;
  return I < Words.size() ? Words[I] : 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// PackedAges
//===----------------------------------------------------------------------===//

void PackedAges::const_iterator::seek() {
  const std::vector<uint64_t> &Words = PA->Words;
  if (W >= Words.size()) {
    W = Words.size();
    Pending = 0;
    return;
  }
  const LaneOps &O = opsFor(PA->laneBits());
  while (W != Words.size() && !(Pending = laneNonzero(Words[W], O)))
    ++W;
}

SlotAge PackedAges::const_iterator::operator*() const {
  unsigned Lane = static_cast<unsigned>(std::countr_zero(Pending)) >>
                  PA->LaneLog;
  uint32_t Slot = static_cast<uint32_t>(
      ((size_t(PA->BaseWord) + W) << PA->lanesPerWordLog()) + Lane);
  return {Slot, PA->ageAt(Slot)};
}

void PackedAges::installLaneBits(unsigned LaneBits) {
  assert(LaneBits == 4 || LaneBits == 8 || LaneBits == 16);
  LaneLog = LaneBits == 4 ? 2 : LaneBits == 8 ? 3 : 4;
}

void PackedAges::clear() {
  Words.clear();
  BaseWord = 0;
  LaneLog = 0;
}

void PackedAges::trim() {
  size_t Lo = 0, Hi = Words.size();
  while (Lo != Hi && !Words[Lo])
    ++Lo;
  if (Lo == Hi) {
    clear();
    return;
  }
  while (!Words[Hi - 1])
    --Hi;
  if (Lo)
    Words.erase(Words.begin(), Words.begin() + static_cast<ptrdiff_t>(Lo));
  Words.resize(Hi - Lo);
  BaseWord += static_cast<uint32_t>(Lo);
}

void PackedAges::set(uint32_t Slot, uint16_t Age, unsigned LaneBits) {
  assert(Age >= 1 && "zero lanes mean absent");
  if (empty()) {
    installLaneBits(LaneBits);
    BaseWord = Slot >> lanesPerWordLog();
    Words.assign(1, 0);
  }
  assert(laneBits() == LaneBits && "mixed lane widths in one entry list");
  uint32_t W = Slot >> lanesPerWordLog();
  if (W < BaseWord) {
    Words.insert(Words.begin(), BaseWord - W, 0);
    BaseWord = W;
  } else if (W - BaseWord >= Words.size()) {
    Words.resize(W - BaseWord + 1, 0);
  }
  uint64_t &Word = Words[W - BaseWord];
  unsigned Sh = shiftOf(Slot);
  Word = (Word & ~(laneMask() << Sh)) | (static_cast<uint64_t>(Age) << Sh);
}

void PackedAges::compactAgesAbove(uint32_t Cap) {
  if (empty())
    return;
  const LaneOps &O = opsFor(laneBits());
  uint64_t BCap1 = O.Ones * std::min<uint64_t>(uint64_t(Cap) + 1, laneMask());
  bool Any = false;
  for (uint64_t &W : Words) {
    uint64_t Over = laneGE(W, BCap1, O); // Zero lanes are below cap + 1.
    if (Over) {
      W &= ~expandLanes(Over, laneBits());
      Any = true;
    }
  }
  if (Any)
    trim();
}

void PackedAges::agePredLE(uint32_t MaxOldAge, uint32_t Skip, uint32_t Cap) {
  if (empty() || MaxOldAge == 0)
    return;
  const LaneOps &O = opsFor(laneBits());
  assert(uint64_t(Cap) + 1 <= laneMask() && "cap+1 must fit a lane");
  uint64_t BV = O.Ones * std::min<uint64_t>(MaxOldAge, laneMask());
  uint64_t BCap1 = O.Ones * (uint64_t(Cap) + 1);
  unsigned MsbShift = laneBits() - 1;
  size_t SkipWord = Skip == NoSlot
                        ? Words.size()
                        : (size_t(Skip) >> lanesPerWordLog()) - BaseWord;
  uint64_t SkipBit =
      Skip == NoSlot ? 0 : uint64_t(1) << (shiftOf(Skip) + MsbShift);
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
  if (empty() || V <= 1)
    return false;
  const LaneOps &O = opsFor(laneBits());
  uint64_t BV = O.Ones * std::min<uint64_t>(V, laneMask());
  for (uint64_t A : Words)
    if (laneNonzero(A, O) & ~laneGE(A, BV, O))
      return true;
  return false;
}

void PackedAges::addPressure(uint32_t K, uint32_t Cap) {
  if (empty() || K == 0)
    return;
  if (K > Cap) {
    clear();
    return;
  }
  // Age + K > Cap evicts, i.e. everything above Cap - K goes; survivors
  // take the un-masked add (their lanes stay <= Cap).
  compactAgesAbove(Cap - K);
  if (empty())
    return;
  const LaneOps &O = opsFor(laneBits());
  unsigned MsbShift = laneBits() - 1;
  for (uint64_t &W : Words)
    W += (laneNonzero(W, O) >> MsbShift) * K;
}

void PackedAges::ageByShadow(const PackedAges &May, uint32_t Touched,
                             uint32_t VMustOld, uint32_t Assoc) {
  if (empty() || May.empty() || VMustOld <= 1)
    return; // No shadow entry: NYoung(u) = 0 < Age(u) everywhere.
  assert(LaneLog == May.LaneLog && "LRU lanes share one width");
  const LaneOps &O = opsFor(laneBits());
  unsigned LB = laneBits(), MsbShift = LB - 1;
  uint64_t LM = laneMask();
  // Only ages below VMustOld move, and NYoung(u) >= Age(u) needs Age(u)
  // shadow entries besides u's own: Top is the oldest age read.
  uint32_t MayN = 0;
  for (uint64_t Y : May.Words)
    MayN += static_cast<uint32_t>(std::popcount(laneNonzero(Y, O)));
  uint32_t Top = std::min(VMustOld - 1, MayN);
  size_t TouchedWord = (size_t(Touched) >> lanesPerWordLog()) - BaseWord;
  uint64_t TouchedMsb = uint64_t(1) << (shiftOf(Touched) + MsbShift);
  auto Candidates = [&](size_t I, uint32_t MaxAge) {
    uint64_t X = Words[I];
    uint64_t M = laneNonzero(X, O) & laneGE(O.Ones * MaxAge, X, O);
    return I == TouchedWord ? M & ~TouchedMsb : M;
  };
  bool Any = false;
  for (size_t I = 0; I != Words.size() && !Any; ++I)
    Any = Candidates(I, Top) != 0;
  if (!Any)
    return;

  // LeqCnt[a] = #shadow entries with age <= a, for a <= Top; older
  // entries are never read.
  constexpr uint32_t StackCap = 2048;
  uint32_t StackBuf[StackCap + 1];
  std::vector<uint32_t> HeapBuf;
  uint32_t *LeqCnt = StackBuf;
  if (Top > StackCap) {
    HeapBuf.resize(size_t(Top) + 1);
    LeqCnt = HeapBuf.data();
  }
  std::fill(LeqCnt, LeqCnt + Top + 1, 0u);
  uint64_t BTop = O.Ones * Top;
  for (uint64_t Y : May.Words)
    for (uint64_t M = laneNonzero(Y, O) & laneGE(BTop, Y, O); M; M &= M - 1)
      ++LeqCnt[(Y >> (std::countr_zero(M) - MsbShift)) & LM];
  // Prefix sum through a register: `LeqCnt[A] += LeqCnt[A - 1]` would
  // reload each store it just made.
  uint32_t Sum = 0;
  for (uint32_t A = 0; A <= Top; ++A) {
    Sum += LeqCnt[A];
    LeqCnt[A] = Sum;
  }

  bool AnyEvict = false;
  for (size_t I = 0; I != Words.size(); ++I) {
    uint64_t Cand = Candidates(I, Top);
    if (!Cand)
      continue;
    uint64_t X = Words[I];
    uint64_t Y = wordAt(May.Words, May.BaseWord, BaseWord + I);
    // u's own shadow entry, where it counts toward NYoung(u).
    uint64_t Own = laneNonzero(Y, O) & laneGE(X, Y, O);
    uint64_t Inc = 0;
    // Branch-free per lane: whether u ages is data, not control flow.
    for (uint64_t M = Cand; M; M &= M - 1) {
      unsigned Msb = static_cast<unsigned>(std::countr_zero(M));
      uint32_t Age = static_cast<uint32_t>((X >> (Msb - MsbShift)) & LM);
      bool Ages = LeqCnt[Age] - ((Own >> Msb) & 1) >= Age;
      Inc |= uint64_t(Ages) << (Msb - MsbShift);
      AnyEvict |= Ages & (Age == Assoc);
    }
    Words[I] = X + Inc; // Ages stay <= Assoc + 1: no lane overflow.
  }
  if (AnyEvict)
    compactAgesAbove(Assoc);
}

bool PackedAges::grewFrom(const PackedAges &Prev) const {
  if (empty() || Prev.empty())
    return false;
  assert(LaneLog == Prev.LaneLog);
  const LaneOps &O = opsFor(laneBits());
  for (size_t I = 0; I != Words.size(); ++I) {
    uint64_t X = Words[I], Y = wordAt(Prev.Words, Prev.BaseWord, BaseWord + I);
    if (laneNonzero(Y, O) & ~laneGE(Y, X, O)) // Y present and X > Y.
      return true;
  }
  return false;
}

void PackedAges::removeGrownFrom(const PackedAges &Prev) {
  if (empty() || Prev.empty())
    return;
  const LaneOps &O = opsFor(laneBits());
  for (size_t I = 0; I != Words.size(); ++I) {
    uint64_t Y = wordAt(Prev.Words, Prev.BaseWord, BaseWord + I);
    uint64_t Grown = laneNonzero(Y, O) & ~laneGE(Y, Words[I], O);
    Words[I] &= ~expandLanes(Grown, laneBits());
  }
  trim();
}

void PackedAges::assignMustJoin(const PackedAges &A, const PackedAges &B) {
  assert(this != &B);
  if (A.empty() || B.empty()) {
    clear();
    return;
  }
  assert(A.LaneLog == B.LaneLog);
  // The intersection lives in the overlap of the two windows. Writing
  // word K to index K - Lo never passes A's index K - A.BaseWord, so the
  // forward pass may read A from the words it overwrites.
  size_t Lo = std::max(A.BaseWord, B.BaseWord);
  size_t Hi = std::min(A.BaseWord + A.Words.size(),
                       B.BaseWord + B.Words.size());
  if (Lo >= Hi) {
    clear();
    return;
  }
  unsigned LB = A.laneBits();
  const LaneOps &O = opsFor(LB);
  uint32_t ABase = A.BaseWord;
  if (this != &A)
    LaneLog = A.LaneLog;
  Words.resize(std::max(Words.size(), Hi - Lo));
  for (size_t K = Lo; K != Hi; ++K) {
    uint64_t X = A.Words[K - ABase], Y = B.Words[K - B.BaseWord];
    uint64_t Max = Y ^ ((X ^ Y) & expandLanes(laneGE(X, Y, O), LB));
    // Both lanes are present exactly where the lane min is nonzero.
    uint64_t Min = X ^ Y ^ Max;
    Words[K - Lo] = Max & expandLanes(laneNonzero(Min, O), LB);
  }
  Words.resize(Hi - Lo);
  BaseWord = static_cast<uint32_t>(Lo);
  trim();
}

void PackedAges::assignMayJoin(const PackedAges &A, const PackedAges &B) {
  assert(this != &B);
  if (B.empty()) {
    if (this != &A)
      *this = A;
    return;
  }
  if (A.empty()) {
    *this = B;
    return;
  }
  assert(A.LaneLog == B.LaneLog);
  // The union spans both windows. Writing word K to index K - Lo never
  // falls below A's index K - A.BaseWord, so a backward pass may read A
  // from the words it overwrites.
  uint32_t ABase = A.BaseWord;
  size_t ASize = A.Words.size();
  size_t Lo = std::min(ABase, B.BaseWord);
  size_t Hi = std::max(ABase + ASize, B.BaseWord + B.Words.size());
  unsigned LB = A.laneBits();
  const LaneOps &O = opsFor(LB);
  if (this != &A)
    LaneLog = A.LaneLog;
  Words.resize(std::max(Words.size(), Hi - Lo));
  for (size_t K = Hi; K-- != Lo;) {
    size_t AI = K - ABase, BI = K - B.BaseWord;
    uint64_t X = AI < ASize ? A.Words[AI] : 0;
    uint64_t Y = BI < B.Words.size() ? B.Words[BI] : 0;
    // The lane min where both are present (the min is nonzero), else the
    // lane max: the one present lane, or zero.
    uint64_t Max = Y ^ ((X ^ Y) & expandLanes(laneGE(X, Y, O), LB));
    uint64_t Min = X ^ Y ^ Max;
    Words[K - Lo] = Max ^ ((Max ^ Min) & expandLanes(laneNonzero(Min, O), LB));
  }
  Words.resize(Hi - Lo);
  BaseWord = static_cast<uint32_t>(Lo);
}

unsigned PackedAges::notBelow(const PackedAges &RHS) const {
  if (empty() || RHS.empty())
    return (empty() ? 0 : 1) | (RHS.empty() ? 0 : 2);
  assert(LaneLog == RHS.LaneLog);
  // Trimmed windows end in nonzero words, so a window reaching past the
  // other's holds entries the other lacks.
  size_t End = BaseWord + Words.size();
  size_t RHSEnd = RHS.BaseWord + RHS.Words.size();
  unsigned Bits = (BaseWord < RHS.BaseWord || End > RHSEnd ? 1 : 0) |
                  (RHS.BaseWord < BaseWord || RHSEnd > End ? 2 : 0);
  const LaneOps &O = opsFor(laneBits());
  size_t Lo = std::max(BaseWord, RHS.BaseWord), Hi = std::min(End, RHSEnd);
  for (size_t K = Lo; K < Hi && Bits != 3; ++K) {
    uint64_t X = Words[K - BaseWord], Y = RHS.Words[K - RHS.BaseWord];
    if (X == Y)
      continue;
    uint64_t NX = laneNonzero(X, O), NY = laneNonzero(Y, O);
    uint64_t GE = laneGE(X, Y, O);
    uint64_t LE = (~GE | ~laneNonzero(X ^ Y, O)) & O.High;
    if (NX & ~(NY & GE))
      Bits |= 1; // One of ours is missing there or older there.
    if (NY & ~(NX & LE))
      Bits |= 2; // One of theirs is missing here or older here.
  }
  return Bits;
}

unsigned PackedAges::mustJoinOrder(const PackedAges &From) const {
  // The lane max keeps ours iff every entry of ours is in From at an age
  // no older, and yields From's in the mirror case.
  unsigned Bits = notBelow(From);
  return (Bits & 1 ? 0 : JoinKeepsThis) | (Bits & 2 ? 0 : JoinYieldsFrom);
}

unsigned PackedAges::mayJoinOrder(const PackedAges &From) const {
  // The union keeps ours iff every entry of From is here at an age no
  // older: the mirror image of the MUST case.
  unsigned Bits = notBelow(From);
  return (Bits & 2 ? 0 : JoinKeepsThis) | (Bits & 1 ? 0 : JoinYieldsFrom);
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
  PL->RefCount = 1;
  PL->Hash = 0;
  assert(PL->Parts.empty() && "retired payloads hold no partitions");
  return PL;
}

CacheAbsState::PartNode *CacheAbsState::allocNode() {
  PartNode *N = RecyclingArena<PartNode>::allocateFromActive();
  N->RefCount = 1;
  N->Hash = 0;
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
  else if (P->RefCount > 1)
    unshareWith(NoPart, nullptr);
  else
    P->Hash = 0;
  return *P;
}

CacheSetPartition &CacheAbsState::mutPart(size_t Idx) {
  if (P->RefCount > 1) {
    unshareWith(Idx, nullptr);
    return P->Parts[Idx]->Part;
  }
  P->Hash = 0;
  PartNode *&Slot = P->Parts[Idx];
  if (Slot->RefCount > 1) {
    PartNode *N = copyNode(*Slot);
    releaseNode(Slot);
    Slot = N;
  } else {
    Slot->Hash = 0;
  }
  return Slot->Part;
}

void CacheAbsState::setPart(size_t Idx, PartNode *N) {
  if (P->RefCount > 1) {
    unshareWith(Idx, N);
    return;
  }
  P->Hash = 0;
  releaseNode(P->Parts[Idx]);
  P->Parts[Idx] = N;
}

CacheSetPartition &CacheAbsState::ensurePart(const BlockUniverse::Loc &L,
                                             const BlockUniverse &U) {
  assert(L.valid() && "block outside the model's universe");
  if (P) {
    auto It = lowerBoundSet(P->Parts, L.Set);
    if (It != P->Parts.end() && (*It)->Part.Set == L.Set)
      return mutPart(static_cast<size_t>(It - P->Parts.begin()));
  }
  Payload &PL = mut();
  PartNode *N = allocNode();
  N->Part.Set = L.Set;
  N->Part.U = &U;
  N->Part.Blocks = L.SetBlocks;
  N->Part.Must.clear();
  N->Part.May.clear();
  PL.Parts.insert(lowerBoundSet(PL.Parts, L.Set), N);
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

uint16_t CacheAbsState::laneOf(const BlockUniverse &U, BlockAddr Block,
                              bool May) const {
  BlockUniverse::Loc L = U.locate(Block);
  const CacheSetPartition *Part = L.valid() ? findPart(L.Set) : nullptr;
  if (!Part)
    return 0;
  return (May ? Part->May : Part->Must).ageAt(L.Slot);
}

uint32_t CacheAbsState::mustAge(BlockAddr Block, uint32_t Assoc) const {
  const BlockUniverse *U = universe();
  uint16_t Age = U ? laneOf(*U, Block, /*May=*/false) : 0;
  return Age ? Age : Assoc + 1;
}

uint32_t CacheAbsState::mayAge(BlockAddr Block, uint32_t Assoc) const {
  const BlockUniverse *U = universe();
  uint16_t Age = U ? laneOf(*U, Block, /*May=*/true) : 0;
  return Age ? Age : Assoc + 1;
}

bool CacheAbsState::isMustCached(BlockAddr Block) const {
  const BlockUniverse *U = universe();
  return U && laneOf(*U, Block, /*May=*/false) != 0;
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
      mutPart(I).Must.agePredLE(Cap, PackedAges::NoSlot, Cap);
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

void CacheAbsState::accessBlockLru(BlockAddr Block, const MemoryModel &MM,
                                   bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  unsigned Lanes = mustLanesOf(MM); // == mayLanesOf: LRU cap is the assoc.
  const BlockUniverse &U = MM.universe();
  BlockUniverse::Loc L = U.locate(Block);

  // Previous ages, read before any update. Only the accessed set's
  // partition can hold the block.
  const CacheSetPartition *Old = findPart(L.Set);
  uint32_t VMustOld = Old ? Old->Must.ageAt(L.Slot) : 0;
  uint32_t VMayOld = Old ? Old->May.ageAt(L.Slot) : 0;
  if (!VMustOld)
    VMustOld = Assoc + 1;
  if (!VMayOld)
    VMayOld = Assoc + 1;

  CacheSetPartition &Part = ensurePart(L, U);

  if (UseShadow) {
    // MAY (shadow) update first, Appendix B: ∃u with Age(∃u) <= Age(∃v)
    // ages by one; older shadows keep their age. The partition holds only
    // this set's entries, so no per-entry set check is needed.
    Part.May.agePredLE(VMayOld, L.Slot, Assoc);
    Part.May.set(L.Slot, 1, Lanes);
  }

  // MUST update; the refined NYoung rule reads the updated MAY side.
  if (UseShadow)
    Part.Must.ageByShadow(Part.May, L.Slot, VMustOld, Assoc);
  else
    Part.Must.agePredLE(VMustOld - 1, L.Slot, Assoc);
  Part.Must.set(L.Slot, 1, Lanes);
}

void CacheAbsState::accessBlockFifo(BlockAddr Block, const MemoryModel &MM,
                                    bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  unsigned Lanes = mustLanesOf(MM); // FIFO cap is the assoc; MAY matches.
  const BlockUniverse &U = MM.universe();
  BlockUniverse::Loc L = U.locate(Block);

  const CacheSetPartition *Old = findPart(L.Set);
  // A provably resident block hits on every path, and a FIFO hit leaves
  // the whole set untouched (no rejuvenation): the transfer is exactly the
  // identity. This is also what makes repeated accesses must-hits.
  if (Old && Old->Must.ageAt(L.Slot))
    return;

  // Possible miss. With shadows, a block absent from MAY is not cached on
  // any path, so the access is a *definite* miss: it lands at insertion
  // position 1 and pushes every other line of the set one position deeper.
  // Without that proof the touched block still ends resident either way
  // (hit: it already was; miss: it is inserted), but only at the weakest
  // bound — position <= associativity.
  bool DefiniteMiss = UseShadow && !(Old && Old->May.ageAt(L.Slot));

  CacheSetPartition &Part = ensurePart(L, U);

  if (UseShadow) {
    if (DefiniteMiss)
      // Every path misses, so every other line's insertion position (and
      // with it its MAY lower bound) advances by one.
      Part.May.agePredLE(Assoc, L.Slot, Assoc);
    Part.May.set(L.Slot, 1, Lanes);
  }

  // MUST: the access may miss, displacing every tracked line of the set
  // one insertion position.
  Part.Must.agePredLE(Assoc, L.Slot, Assoc);
  if (DefiniteMiss)
    Part.Must.set(L.Slot, 1, Lanes);
  else if (Assoc <= UINT16_MAX)
    // Resident either way, but only at the weakest bound. Geometries
    // whose associativity does not fit the age field simply leave the
    // block untracked (sound: untracked = not provably resident).
    Part.Must.set(L.Slot, static_cast<uint16_t>(Assoc), Lanes);
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
  const BlockUniverse &U = MM.universe();
  BlockUniverse::Loc L = U.locate(Block);

  CacheSetPartition &Part = ensurePart(L, U);

  Part.Must.agePredLE(Cap, L.Slot, Cap);
  Part.Must.set(L.Slot, 1, mustLanesOf(MM));
  // MAY: the touched block may be the youngest; other lower bounds stay
  // valid because no access is guaranteed to flip a bit toward a
  // particular block (tree ages are not monotone across paths).
  if (UseShadow)
    Part.May.set(L.Slot, 1, mayLanesOf(MM));
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

void CacheAbsState::insertMay(const std::vector<BlockAddr> &Blocks,
                              const MemoryModel &MM) {
  const BlockUniverse &U = MM.universe();
  unsigned MayL = mayLanesOf(MM);
  for (BlockAddr Block : Blocks) {
    BlockUniverse::Loc L = U.locate(Block);
    ensurePart(L, U).May.set(L.Slot, 1, MayL);
  }
}

void CacheAbsState::accessUnknownLru(VarId Var, uint64_t InstanceK,
                                     const MemoryModel &MM, bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  const BlockUniverse &U = MM.universe();
  const std::vector<uint32_t> &Sets = MM.setsOf(Var); // Sorted, unique.
  auto IsCandidateSet = [&](uint32_t Set) {
    return std::binary_search(Sets.begin(), Sets.end(), Set);
  };

  // Guaranteed-hit refinement (paper §2.2's ph[k]): when every line of the
  // array is provably resident, the access hits some line of age at most
  // MaxAge; only strictly younger blocks can age, and nothing is evicted.
  const std::vector<BlockAddr> &ArrayBlocks = MM.blocksOf(Var);
  uint32_t MaxAge = 0;
  bool AllCached = true;
  for (BlockAddr Block : ArrayBlocks) {
    uint32_t Age = laneOf(U, Block, /*May=*/false);
    if (!Age) {
      AllCached = false;
      break;
    }
    MaxAge = std::max(MaxAge, Age);
  }

  BlockAddr Instance = MM.symbolicBlock(Var, InstanceK);
  BlockUniverse::Loc IL = U.locate(Instance);
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
          mutPart(I).Must.agePredLE(MaxAge - 1, PackedAges::NoSlot, Assoc);
      }
    } else if (!UseShadow) {
      return;
    }
  } else {
    // Conservative MUST aging: the unknown line may be a miss in any
    // candidate set, displacing one position everywhere.
    ageSets(Sets, Assoc);
    // The nondeterministically picked fresh line (decis_levl[k*]).
    ensurePart(IL, U).Must.set(IL.Slot, 1, mustLanesOf(MM));
  }

  if (UseShadow) {
    // Any line of the array may now be the youngest in its set.
    insertMay(ArrayBlocks, MM);
    if (!AllCached)
      ensurePart(IL, U).May.set(IL.Slot, 1, mayLanesOf(MM));
  }
  normalize();
}

void CacheAbsState::accessUnknownFifo(VarId Var, const MemoryModel &MM,
                                      bool UseShadow) {
  uint32_t Assoc = MM.config().Associativity;
  const BlockUniverse &U = MM.universe();

  // When every line of the array is provably resident the access hits
  // whichever line it touches, and a FIFO hit is the identity.
  const std::vector<BlockAddr> &ArrayBlocks = MM.blocksOf(Var);
  bool AllCached = true;
  for (BlockAddr Block : ArrayBlocks)
    if (!laneOf(U, Block, /*May=*/false)) {
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
  ageSets(MM.setsOf(Var), Assoc);
  if (UseShadow)
    // Any line of the array may now sit at insertion position 1.
    insertMay(ArrayBlocks, MM);
  normalize();
}

void CacheAbsState::accessUnknownPlru(VarId Var, uint64_t InstanceK,
                                      const MemoryModel &MM, bool UseShadow) {
  uint32_t Cap = MM.config().mustAgeCap();
  const BlockUniverse &U = MM.universe();

  // Hit or miss, the access flips tree bits in whichever candidate set it
  // lands in, so every tracked block there ages one step toward the tree
  // bound; the touched line itself ends fully protected, represented by
  // the fresh symbolic instance at age 1 (its concrete age is 1 whether
  // the access hit or filled).
  ageSets(MM.setsOf(Var), Cap);
  BlockUniverse::Loc IL = U.locate(MM.symbolicBlock(Var, InstanceK));
  ensurePart(IL, U).Must.set(IL.Slot, 1, mustLanesOf(MM));

  if (UseShadow) {
    insertMay(MM.blocksOf(Var), MM);
    ensurePart(IL, U).May.set(IL.Slot, 1, mayLanesOf(MM));
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
    const BlockUniverse &U = MM.universe();
    unsigned MustL = mustLanesOf(MM);
    for (const AgedBlock &E : ExitMust) {
      BlockUniverse::Loc L = U.locate(E.Block);
      PackedAges &Must = ensurePart(L, U).Must;
      // Both the surviving caller bound and the callee exit bound are valid
      // age upper bounds; keep the tighter one.
      uint16_t Age = Must.ageAt(L.Slot);
      Must.set(L.Slot, Age ? std::min(Age, E.Age) : E.Age, MustL);
    }
  }

  if (UseShadow)
    insertMay(MayBlocks, MM);
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
      ++P->RefCount;
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
          N->Part.U = Theirs.U;
          N->Part.Blocks = Theirs.Blocks;
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
  if (P->RefCount > 1 || Ours->RefCount > 1) {
    // Shared: build the joined partition in a fresh node rather than
    // copying ours and merging into the copy.
    PartNode *N = allocNode();
    N->Part.Set = Mine.Set;
    N->Part.U = Mine.U;
    N->Part.Blocks = Mine.Blocks;
    N->Part.Must.assignMustJoin(Mine.Must, Theirs.Must);
    if (UseShadow)
      N->Part.May.assignMayJoin(Mine.May, Theirs.May);
    else
      N->Part.May = Mine.May;
    setPart(Idx, N);
    return;
  }
  CacheSetPartition &Part = mutPart(Idx);
  Part.Must.assignMustJoin(Part.Must, Theirs.Must);
  if (UseShadow)
    Part.May.assignMayJoin(Part.May, Theirs.May);
}

bool CacheAbsState::leq(const CacheAbsState &RHS) const {
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

void CacheAbsState::widenFrom(const CacheAbsState &Prev) {
  if (Bottom || Prev.Bottom || P == Prev.P)
    return;
  // Evict MUST entries whose age grew since the previous iterate. Only
  // partitions with such an entry are unshared, so the stable case never
  // clones anything.
  const std::vector<PartNode *> &PrevParts = Prev.nodes();
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
    const PackedAges &PrevMust = PrevParts[J]->Part.Must;
    if (Ours->Part.Must.grewFrom(PrevMust)) {
      mutPart(I).Must.removeGrownFrom(PrevMust);
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
  // Cached hashes (0 = not computed) that differ prove inequality.
  if ((P->Hash && RHS.P->Hash && P->Hash != RHS.P->Hash) ||
      P->Parts.size() != RHS.P->Parts.size())
    return false;
  for (size_t I = 0, N = P->Parts.size(); I != N; ++I) {
    const PartNode *A = P->Parts[I], *B = RHS.P->Parts[I];
    if (A != B && ((A->Hash && B->Hash && A->Hash != B->Hash) ||
                   !(A->Part == B->Part)))
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
    for (const AgedBlock E : Part.must())
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
    for (const AgedBlock E : Part.may())
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
  if (N.Hash)
    return N.Hash;
  // Canonical windows make equal partitions word-for-word equal.
  HashMixer M;
  M.mix(N.Part.Set);
  for (const PackedAges *Ages : {&N.Part.Must, &N.Part.May}) {
    M.mix(Ages->baseWord());
    M.mix(Ages->words().size());
    for (uint64_t W : Ages->words())
      M.mix(W);
  }
  N.Hash = M.value();
  return N.Hash;
}

uint64_t CacheAbsState::structuralHash() const {
  if (Bottom)
    return 0xB0770B0770ULL;
  if (!P)
    return 0x9E3779B97F4A7C15ULL; // The empty (entry) state.
  if (P->Hash)
    return P->Hash;
  // Combine the per-partition hashes; only partitions written since they
  // were last hashed walk their entries.
  HashMixer M;
  M.mix(P->Parts.size());
  for (const PartNode *N : P->Parts)
    M.mix(nodeHash(*N));
  P->Hash = M.value();
  return P->Hash;
}

std::string CacheAbsState::str(const MemoryModel &MM) const {
  if (Bottom)
    return "⊥";
  // Group by age, youngest first, like the paper's tables.
  std::map<uint32_t, std::vector<std::string>> ByAge;
  for (const CacheSetPartition &Part : partitions()) {
    for (const AgedBlock E : Part.must())
      ByAge[E.Age].push_back(MM.blockName(E.Block));
    for (const AgedBlock E : Part.may())
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
