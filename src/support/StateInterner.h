//===- StateInterner.h - Hash-consing pool for abstract states --*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash-consing pool for copy-on-write abstract states. The speculative
/// engine's PR/SS slot maps hold many structurally identical states per
/// (branch, color) — both colors of a site are seeded from the same branch
/// output, and re-drains regenerate the same states over and over.
/// Interning canonicalizes them onto one shared payload, so slot joins hit
/// the domain's shared-storage O(1) no-change fast path instead of walking
/// entries, and duplicate payload memory collapses.
///
/// The pool is one open-addressing table of (hash, state) slots keyed by
/// the state's cached structural hash, probed linearly: a lookup reads
/// consecutive slots of one array, comparing hashes first and states only
/// on a hash match. Pooled states are pairwise distinct, and the first
/// state interned for a structure stays its representative.
///
/// Requirements on StateT: default construction (empty slots hold one),
/// cheap copies that alias storage (copy-on-write handles),
/// `uint64_t structuralHash() const`, and structural `operator==`.
/// Methods instantiate lazily, so declaring an interner for a state type
/// without these hooks is harmless as long as intern() is never called
/// (the engine gates on the domain's capability).
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SUPPORT_STATEINTERNER_H
#define SPECAI_SUPPORT_STATEINTERNER_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace specai {

/// Hash-consing pool of StateT values. Not thread-safe; one pool per
/// analysis run.
template <typename StateT> class StateInterner {
public:
  /// Slots of a fresh table: most analyses pool tens to about 1,500
  /// states, so the table starts small and doubles past half full.
  static constexpr size_t InitialSlots = 64;
  static_assert(std::has_single_bit(InitialSlots));

  /// Returns the canonical value equal to \p S. The returned handle
  /// aliases the pooled representative's storage, so later copies and
  /// equality checks against other interned values are O(1).
  StateT intern(const StateT &S) {
    uint64_t H = S.structuralHash();
    H += H == 0; // A zero hash marks an empty slot.
    if (Slots.empty())
      Slots.resize(InitialSlots);
    size_t Mask = Slots.size() - 1;
    size_t I = home(H);
    for (; Slots[I].Hash; I = (I + 1) & Mask)
      if (Slots[I].Hash == H && Slots[I].State == S) {
        ++HitCount;
        return Slots[I].State;
      }
    ++MissCount;
    if (States >= MaxStates)
      return S; // Pool is full: hand the input back un-pooled.
    ++States;
    Slots[I].Hash = H;
    Slots[I].State = S;
    if (2 * States > Slots.size())
      grow();
    return S; // S aliases the new representative's storage.
  }

  /// Times intern() found an existing representative.
  uint64_t hits() const { return HitCount; }
  /// Times intern() saw a new structure.
  uint64_t misses() const { return MissCount; }
  /// Distinct states pooled.
  uint64_t size() const { return States; }

private:
  /// Safety valve against pathological runs; generous next to real
  /// fixpoints, which stabilize on a few states per (node, color).
  static constexpr uint64_t MaxStates = 1 << 20;

  struct Slot {
    uint64_t Hash = 0; ///< 0: empty.
    StateT State;
  };

  /// The first slot probed for \p H: Fibonacci hashing takes the table
  /// index from the product's top bits, so any hash bits spread.
  size_t home(uint64_t H) const {
    return static_cast<size_t>((H * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  /// Doubles the table and re-places every pooled state; pooled states
  /// are distinct, so no equality test is needed.
  void grow() {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    --Shift;
    size_t Mask = Slots.size() - 1;
    for (Slot &E : Old) {
      if (!E.Hash)
        continue;
      size_t I = home(E.Hash);
      while (Slots[I].Hash)
        I = (I + 1) & Mask;
      Slots[I].Hash = E.Hash;
      Slots[I].State = std::move(E.State);
    }
  }

  std::vector<Slot> Slots;
  /// 64 - log2(Slots.size()) once the table exists.
  unsigned Shift = 64 - std::countr_zero(InitialSlots);
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
  uint64_t States = 0;
};

} // namespace specai

#endif // SPECAI_SUPPORT_STATEINTERNER_H
