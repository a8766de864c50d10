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
/// Requirements on StateT: cheap copies that alias storage (copy-on-write
/// handles), `uint64_t structuralHash() const`, and structural
/// `operator==`. Methods instantiate lazily, so declaring an interner for
/// a state type without these hooks is harmless as long as intern() is
/// never called (the engine gates on the domain's capability).
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SUPPORT_STATEINTERNER_H
#define SPECAI_SUPPORT_STATEINTERNER_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace specai {

/// Hash-consing pool of StateT values. Not thread-safe; one pool per
/// analysis run.
template <typename StateT> class StateInterner {
public:
  /// Returns the canonical value equal to \p S. The returned handle
  /// aliases the pooled representative's storage, so later copies and
  /// equality checks against other interned values are O(1).
  StateT intern(const StateT &S) {
    uint64_t H = S.structuralHash();
    std::vector<StateT> &Bucket = Pool[H];
    for (const StateT &Canon : Bucket)
      if (Canon == S) {
        ++HitCount;
        return Canon;
      }
    ++MissCount;
    if (States >= MaxStates)
      return S; // Pool is full: hand the input back un-pooled.
    ++States;
    Bucket.push_back(S);
    return Bucket.back();
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

  std::unordered_map<uint64_t, std::vector<StateT>> Pool;
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
  uint64_t States = 0;
};

} // namespace specai

#endif // SPECAI_SUPPORT_STATEINTERNER_H
