//===- Fault.cpp ----------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Fault.h"

#include <iterator>

using namespace specai;

namespace {

struct FaultInfo {
  InjectedFault Fault;
  const char *Name;
  FaultLayer Layer;
};

/// The one name table, in enum order.
constexpr FaultInfo Faults[] = {
    {InjectedFault::None, "none", FaultLayer::None},
    {InjectedFault::SkipSpecSeed, "skip-spec-seed", FaultLayer::Engine},
    {InjectedFault::SkipRollback, "skip-rollback", FaultLayer::Engine},
    {InjectedFault::WcetHitForMiss, "wcet-hit-for-miss", FaultLayer::Verdict},
    {InjectedFault::WcetDropLoopScale, "wcet-drop-loop-scale",
     FaultLayer::Verdict},
    {InjectedFault::LeakSkipMixed, "leak-skip-mixed", FaultLayer::Verdict},
    {InjectedFault::LeakDiscountSpeculation, "leak-discount-spec",
     FaultLayer::Verdict},
    {InjectedFault::LeakDropSpecOnly, "leak-drop-spec-only",
     FaultLayer::Verdict},
    {InjectedFault::DropWiden, "drop-widen", FaultLayer::Lowering},
    {InjectedFault::StaleSummary, "stale-summary", FaultLayer::Lowering},
    {InjectedFault::SkipBackedge, "skip-backedge", FaultLayer::Lowering},
    {InjectedFault::FenceDropped, "fence-dropped", FaultLayer::Repair},
    {InjectedFault::CostUnderreported, "cost-underreported",
     FaultLayer::Repair},
    {InjectedFault::ClampIgnored, "clamp-ignored", FaultLayer::Repair},
    {InjectedFault::UnsoundHoist, "unsound-hoist", FaultLayer::Repair},
};

constexpr bool inEnumOrder() {
  for (size_t I = 0; I != std::size(Faults); ++I)
    if (static_cast<size_t>(Faults[I].Fault) != I)
      return false;
  return std::size(Faults) ==
         static_cast<size_t>(InjectedFault::UnsoundHoist) + 1;
}
static_assert(inEnumOrder(), "one Faults row per InjectedFault, in order");

const FaultInfo &info(InjectedFault F) {
  return Faults[static_cast<uint8_t>(F)];
}

} // namespace

const char *specai::faultName(InjectedFault F) { return info(F).Name; }

FaultLayer specai::faultLayer(InjectedFault F) { return info(F).Layer; }

bool specai::parseFault(const std::string &Name, InjectedFault &Out) {
  for (const FaultInfo &I : Faults) {
    if (Name == I.Name) {
      Out = I.Fault;
      return true;
    }
  }
  return false;
}
