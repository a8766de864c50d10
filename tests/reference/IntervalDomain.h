//===- IntervalDomain.h - Interval abstract domain --------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic interval domain over registers and scalar memory variables.
/// The paper stresses that the virtual-control-flow lifting "is generally
/// applicable, regardless of how the abstract state is defined" (§1) and
/// names the interval domain explicitly; this instantiation demonstrates
/// the engine is domain-generic: the same fixpoint engine runs over
/// intervals unchanged, with and without a speculation plan.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_TESTS_REFERENCE_INTERVALDOMAIN_H
#define SPECAI_TESTS_REFERENCE_INTERVALDOMAIN_H

#include "cfg/FlatCfg.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace specai {

/// A (possibly unbounded) integer interval [Lo, Hi].
struct Interval {
  static constexpr int64_t NegInf = std::numeric_limits<int64_t>::min();
  static constexpr int64_t PosInf = std::numeric_limits<int64_t>::max();

  int64_t Lo = NegInf;
  int64_t Hi = PosInf;

  static Interval top() { return Interval(); }
  static Interval constant(int64_t V) { return Interval{V, V}; }

  bool isTop() const { return Lo == NegInf && Hi == PosInf; }
  bool isConstant() const { return Lo == Hi; }
  bool contains(int64_t V) const { return Lo <= V && V <= Hi; }

  Interval join(const Interval &RHS) const {
    return Interval{std::min(Lo, RHS.Lo), std::max(Hi, RHS.Hi)};
  }
  /// Standard interval widening: unstable bounds jump to infinity.
  Interval widen(const Interval &Prev) const {
    return Interval{Lo < Prev.Lo ? NegInf : Lo, Hi > Prev.Hi ? PosInf : Hi};
  }

  Interval add(const Interval &RHS) const;
  Interval sub(const Interval &RHS) const;
  Interval mul(const Interval &RHS) const;
  /// Comparison result as a 0/1 interval (collapses when decided).
  static Interval fromBool(bool CanBeFalse, bool CanBeTrue);

  bool operator==(const Interval &RHS) const = default;

  std::string str() const;
};

/// State: intervals for registers and scalar memory variables. Arrays are
/// not tracked (their elements read as top).
class IntervalState {
public:
  static IntervalState bottom() {
    IntervalState S;
    S.Bottom = true;
    return S;
  }
  static IntervalState top() { return IntervalState(); }

  bool isBottom() const { return Bottom; }

  Interval reg(RegId R) const;
  Interval scalar(VarId V) const;
  void setReg(RegId R, Interval I);
  void setScalar(VarId V, Interval I);

  bool joinInto(const IntervalState &From);
  void widenFrom(const IntervalState &Prev);
  bool operator==(const IntervalState &RHS) const = default;

  std::string str() const;

private:
  bool Bottom = false;
  // Top entries are dropped so states stay small; absent = top.
  std::map<RegId, Interval> Regs;
  std::map<VarId, Interval> Scalars;
};

/// Engine-facing interval domain over a flat CFG.
class IntervalDomain {
public:
  using State = IntervalState;

  explicit IntervalDomain(const FlatCfg &G) : G(&G) {}

  State bottom() const { return State::bottom(); }
  State entry() const { return State::top(); }
  bool isBottom(const State &S) const { return S.isBottom(); }

  void transfer(State &S, NodeId N);
  /// In speculative windows stores are buffered and squashed, never
  /// reaching memory (ir/Interp.h's SuppressStores; there is no
  /// store-to-load forwarding in the substrate), so a speculative Store
  /// must not update the stored scalar's interval.
  void transferSpeculative(State &S, NodeId N) {
    if (G->inst(N).Op == Opcode::Store)
      return;
    transfer(S, N);
  }
  bool joinInto(State &Into, const State &From) const {
    return Into.joinInto(From);
  }
  void widen(State &Cur, const State &Prev) const { Cur.widenFrom(Prev); }

  /// Intervals carry no cache information, so no access is ever a provable
  /// hit; the speculative engine's dynamic depth bounding simply keeps
  /// b_miss for every site under this domain.
  bool isMustHit(const State &, NodeId) const { return false; }

  const FlatCfg &cfg() const { return *G; }

private:
  Interval evalOperand(const State &S, const Operand &Op) const;

  const FlatCfg *G;
};

} // namespace specai

#endif // SPECAI_TESTS_REFERENCE_INTERVALDOMAIN_H
