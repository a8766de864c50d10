//===- CacheDomain.cpp ----------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "domain/CacheDomain.h"

using namespace specai;

void CacheDomain::applyCall(State &S, const Instruction &I, bool Speculative) {
  if (!Options.Summaries || I.Callee >= Options.Summaries->size())
    return; // No summary table: Call is identity (never the case in
            // Summarize-mode analyses; see isTransferIdentity).
  const CallSummary &Sum = (*Options.Summaries)[I.Callee];
  S.applyCallEffect(Sum.SetPressure, Sum.ExitMust, Sum.MayBlocks, *MM,
                    Options.UseShadow,
                    /*InsertExitMust=*/!Speculative,
                    /*ApplyPressure=*/Options.Fault !=
                        InjectedFault::StaleSummary);
}

void CacheDomain::transfer(State &S, NodeId N) {
  if (S.isBottom())
    return;
  const Instruction &I = G->inst(N);
  if (I.Op == Opcode::Call) {
    applyCall(S, I, /*Speculative=*/false);
    return;
  }
  if (!I.accessesMemory())
    return;

  const MemVar &Var = MM->program().Vars[I.Var];
  if (Var.NumElements == 1 || I.Index.isImm()) {
    uint64_t Elem = I.Index.isImm() ? Var.wrapIndex(I.Index.Imm) : 0;
    S.accessBlock(MM->blockOf(I.Var, Elem), *MM, Options.UseShadow);
    return;
  }

  // Statically unknown index: conservative transfer with the next symbolic
  // instance (saturates at the array's line count inside the model).
  uint64_t K = InstanceCounters[I.Var]++;
  S.accessUnknown(I.Var, K, *MM, Options.UseShadow);
}

bool CacheDomain::isMustHit(const State &S, NodeId N) const {
  if (S.isBottom())
    return true; // Unreachable accesses hit vacuously.
  const Instruction &I = G->inst(N);
  if (!I.accessesMemory())
    return false;
  const MemVar &Var = MM->program().Vars[I.Var];
  if (Var.NumElements == 1 || I.Index.isImm()) {
    uint64_t Elem = I.Index.isImm() ? Var.wrapIndex(I.Index.Imm) : 0;
    return S.isMustCached(MM->blockOf(I.Var, Elem));
  }
  // Unknown index: a hit is guaranteed only if every line of the array is
  // resident (paper §2.2: ph[k] is leak-free because all of ph is cached).
  for (BlockAddr Block : MM->blocksOf(I.Var))
    if (!S.isMustCached(Block))
      return false;
  return true;
}

CacheDomain::AccessClass CacheDomain::classifyAccess(const State &S,
                                                     NodeId N) const {
  if (isMustHit(S, N))
    return AccessClass::MustHit;
  if (!Options.UseShadow || S.isBottom())
    return AccessClass::Mixed; // Cannot certify a guaranteed miss.

  uint32_t Assoc = MM->config().Associativity;
  const Instruction &I = G->inst(N);
  const MemVar &Var = MM->program().Vars[I.Var];

  auto DefinitelyOut = [&](BlockAddr Block) {
    // Absent from MAY: not cached on any path; the access misses for sure.
    return S.mayAge(Block, Assoc) > Assoc;
  };

  if (Var.NumElements == 1 || I.Index.isImm()) {
    uint64_t Elem = I.Index.isImm() ? Var.wrapIndex(I.Index.Imm) : 0;
    return DefinitelyOut(MM->blockOf(I.Var, Elem)) ? AccessClass::MustMiss
                                                   : AccessClass::Mixed;
  }
  for (BlockAddr Block : MM->blocksOf(I.Var))
    if (!DefinitelyOut(Block))
      return AccessClass::Mixed;
  return AccessClass::MustMiss;
}
