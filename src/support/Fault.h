//===- Fault.h - Test-only fault injection for the stack --------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deliberate faults the differential fuzzer's self-test injects
/// (`specai-fuzz --selftest`, docs/FUZZING.md "Fault-injection matrix"):
/// each one breaks one layer of the stack, and the oracle validating that
/// layer must catch it with a minimized, replayable counterexample — an
/// oracle that cannot see a broken layer proves nothing. One enum and one name
/// table serve every layer; each options struct carries at most one
/// `Fault` field and each layer reacts only to its own values. Never set
/// outside tests.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SUPPORT_FAULT_H
#define SPECAI_SUPPORT_FAULT_H

#include <cstdint>
#include <string>

namespace specai {

/// The layer a fault breaks, which is also where it is injected.
enum class FaultLayer : uint8_t {
  None,
  /// The fixpoint engine (src/ai), caught by the cache oracle.
  Engine,
  /// The verdict modules (estimateWcet, detectLeaks), caught by the WCET
  /// and leak oracles.
  Verdict,
  /// The Summarize lowering's widened loops and call summaries, injected
  /// into the summarize side of the lowering diff only.
  Lowering,
  /// The mitigation synthesizer's emitted artifacts, injected into the
  /// synthesis the repair oracle validates only.
  Repair,
};

enum class InjectedFault : uint8_t {
  None,
  // --- Engine.
  /// Skip the SS seed at wrongEntry(c): speculative flows never start, so
  /// post-rollback cache pollution goes unmodeled (the n -> vn_start
  /// edges).
  SkipSpecSeed,
  /// Drop the vn_stop -> n rollback edges: speculation is modeled but its
  /// architectural aftermath is not.
  SkipRollback,
  // --- Verdict.
  /// estimateWcet charges the hit latency for possibly-missing accesses —
  /// the classic undercharged-miss WCET shortcut.
  WcetHitForMiss,
  /// estimateWcet ignores LoopIterationBound: loop bodies are charged as
  /// if they executed once.
  WcetDropLoopScale,
  /// detectLeaks skips the Mixed check and reports every secret-indexed
  /// access leak-free.
  LeakSkipMixed,
  /// detectLeaks assumes speculative misses are invisible to the attacker
  /// and proves a Mixed access leak-free whenever the speculative analysis
  /// flagged it SpecPossibleMiss — the exact wrong argument the paper
  /// refutes (§2.2): squashed loads still displace attacker-visible lines.
  LeakDiscountSpeculation,
  /// annotateSpeculationOnly never sets the SpeculationOnly flag.
  LeakDropSpecOnly,
  // --- Lowering (read by the engine and the cache domain).
  /// After widening fires at a loop header, the header is not re-queued:
  /// the widened state never reaches the loop body.
  DropWiden,
  /// Call transfers skip the callee's aging pressure, leaving stale MUST
  /// bounds in place.
  StaleSummary,
  /// Joins along loop back edges (into a loop header from inside that
  /// loop's body) are dropped: loop-carried cache effects never reach the
  /// header.
  SkipBackedge,
  // --- Repair.
  /// The emitted program silently omits every inserted instruction
  /// (fences and preloads); the search still believed they were there.
  FenceDropped,
  /// The reported WCET ignores the repair: WcetAfter echoes WcetBefore
  /// and every mitigation claims cost 0.
  CostUnderreported,
  /// The emitted per-site clamps are cleared; the search still analyzed
  /// with them in place.
  ClampIgnored,
  /// The hoist precondition (scalars only) is skipped: arrays collapse
  /// into a single register, changing architectural semantics.
  UnsoundHoist,
};

/// CLI name of \p F ("none", "skip-spec-seed", ...).
const char *faultName(InjectedFault F);
/// Parses a fault name (including "none"); returns false on unknown names.
bool parseFault(const std::string &Name, InjectedFault &Out);
/// The layer \p F breaks.
FaultLayer faultLayer(InjectedFault F);

/// \p F if it breaks layer \p L, None otherwise: how an oracle hands its
/// one fault to the layer that fault targets and to no other.
inline InjectedFault faultIn(FaultLayer L, InjectedFault F) {
  return faultLayer(F) == L ? F : InjectedFault::None;
}

} // namespace specai

#endif // SPECAI_SUPPORT_FAULT_H
