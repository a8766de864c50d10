//===- CacheDomain.h - Engine adapter for the cache domain ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binds the abstract cache state to a concrete Program: interprets Load
/// and Store nodes (known-index accesses touch their exact block, unknown
/// indices take the conservative transfer with a fresh symbolic instance),
/// and answers must-hit classification queries. This is the Domain the
/// worklist engines (Algorithms 1-3) are instantiated with for every
/// experiment in the paper. The aging rule the transfers apply follows
/// the replacement policy of the MemoryModel's cache config (LRU / FIFO /
/// tree-PLRU; docs/DOMAINS.md), so one domain serves all policy variants.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_DOMAIN_CACHEDOMAIN_H
#define SPECAI_DOMAIN_CACHEDOMAIN_H

#include "cfg/FlatCfg.h"
#include "domain/CacheState.h"
#include "memory/MemoryModel.h"
#include "support/Fault.h"

#include <vector>

namespace specai {

/// Summarize mode: the speculative cache summary of one callee, computed
/// bottom-up over the acyclic call graph (analysis/AnalysisPipeline.cpp)
/// and applied by the Call-node transfer (CacheAbsState::applyCallEffect;
/// DESIGN.md §4). All bounds are valid for *every* call context
/// because the callee is analyzed from the unknown entry state.
struct CallSummary {
  /// Distinct concrete lines the callee (including its transitive callees)
  /// may touch, sorted and deduplicated. Unknown-index array accesses
  /// contribute every line of the array.
  std::vector<BlockAddr> MayBlocks;
  /// Per cache set: how many MayBlocks map to it (the distinct-line aging
  /// pressure). Indexed by set id, sized to the cache's set count.
  std::vector<uint32_t> SetPressure;
  /// Blocks provably resident at every callee exit with their exit age
  /// bounds, from the join of the observable states at all reachable Ret
  /// nodes. Symbolic instance blocks are excluded (they name no concrete
  /// line).
  std::vector<AgedBlock> ExitMust;
};

/// Options of the cache domain.
struct CacheDomainOptions {
  /// Appendix B shadow-variable refinement (on by default; Figure 11/13).
  bool UseShadow = true;
  /// Summarize mode: per-callee summaries indexed by Instruction::Callee.
  /// Null outside Summarize mode; Call nodes are then identity (the
  /// InlineUnroll lowering never emits them).
  const std::vector<CallSummary> *Summaries = nullptr;
  /// Test-only fault injection (support/Fault.h). The domain reacts only
  /// to StaleSummary: the Call transfer skips the callee's aging pressure,
  /// leaving stale MUST bounds in place.
  InjectedFault Fault = InjectedFault::None;
};

/// Engine-facing cache domain. Holds per-array instance counters, so it is
/// stateful across transfer applications (the paper's decis_lev[1*],
/// decis_lev[2*] successive nondeterministic picks).
class CacheDomain {
public:
  using State = CacheAbsState;

  CacheDomain(const FlatCfg &G, const MemoryModel &MM,
              CacheDomainOptions Options = {})
      : G(&G), MM(&MM), Options(Options),
        InstanceCounters(MM.program().Vars.size(), 0) {}

  State bottom() const { return State::bottom(); }
  /// Entry state: empty cache (top of the MUST lattice).
  State entry() const { return State::empty(); }
  bool isBottom(const State &S) const { return S.isBottom(); }

  /// Applies node \p N's effect to \p S. Load/Store nodes touch the state;
  /// Call nodes apply the callee's summary (Summarize mode).
  void transfer(State &S, NodeId N);

  /// Transfer for nodes executed inside a speculative window (the SS
  /// flows of Algorithm 3). Speculative *stores* sit in the store buffer
  /// and are squashed on rollback — they never fill or refresh a cache
  /// line (Figure 3's right-hand trace; pipeline/SpeculativeCpu.h) — so a
  /// Store node is a cache no-op here. Applying the committed-store
  /// transfer instead is unsound: it would refresh the stored block's MUST
  /// age while the concrete line ages or evicts (found by specai-fuzz;
  /// docs/FUZZING.md shows the two-line counterexample). Loads behave as
  /// in transfer(): a speculative load does fill the cache.
  /// A speculative Call may roll back mid-callee: any *subset* of the
  /// callee's accesses may have executed, so only the aging pressure and
  /// MAY enlargement apply — never the exit-must insertion, which assumes
  /// the callee ran to completion.
  void transferSpeculative(State &S, NodeId N) {
    const Instruction &I = G->inst(N);
    if (I.Op == Opcode::Store)
      return;
    if (I.Op == Opcode::Call) {
      applyCall(S, I, /*Speculative=*/true);
      return;
    }
    transfer(S, N);
  }

  /// this ⊔= From; true iff changed.
  bool joinInto(State &Into, const State &From) const {
    return Into.joinInto(From, Options.UseShadow);
  }

  /// True iff node \p N's transfer leaves every state unchanged: nodes
  /// that do not touch memory, and Store nodes inside speculative windows
  /// (the store buffer squashes them). The engines alias the input state
  /// instead of copying it for such nodes.
  bool isTransferIdentity(NodeId N, bool Speculative) const {
    const Instruction &I = G->inst(N);
    if (I.Op == Opcode::Call)
      return !Options.Summaries;
    if (!I.accessesMemory())
      return true;
    return Speculative && I.Op == Opcode::Store;
  }

  /// True iff node \p N's transfer is a pure function of the input state
  /// (identity nodes and known-block accesses) — and therefore memoizable.
  /// Unknown-index accesses are *stateful*: each application consumes a
  /// fresh symbolic instance from InstanceCounters, so replaying a cached
  /// result would change the instance sequence and with it the analysis.
  bool isTransferPure(NodeId N, bool Speculative) const {
    const Instruction &I = G->inst(N);
    if (I.Op == Opcode::Call)
      return true; // Summary application is a pure function of the state.
    if (!I.accessesMemory())
      return true;
    if (Speculative && I.Op == Opcode::Store)
      return true;
    const MemVar &Var = MM->program().Vars[I.Var];
    return Var.NumElements == 1 || I.Index.isImm();
  }

  /// Structural state hash for the engines' transfer memo.
  uint64_t stateHash(const State &S) const { return S.structuralHash(); }

  void widen(State &Cur, const State &Prev) const { Cur.widenFrom(Prev); }

  /// True iff node \p N is a memory access that is a guaranteed cache hit
  /// in state \p S (evaluated on the state *before* the access). Unknown
  /// indices must-hit only when every line of the array is resident.
  bool isMustHit(const State &S, NodeId N) const;

  /// Three-way classification used by the side-channel detector: an access
  /// is timing-uniform when it is a guaranteed hit or a guaranteed miss
  /// for every line it could touch; only Mixed accesses can leak. MustMiss
  /// is certified through the MAY (shadow) set — a block absent from MAY
  /// is not cached on any path — and therefore only available when the
  /// shadow refinement is enabled.
  enum class AccessClass { MustHit, MustMiss, Mixed };
  AccessClass classifyAccess(const State &S, NodeId N) const;

private:
  /// Call-node transfer: applies the callee's summary to \p S.
  void applyCall(State &S, const Instruction &I, bool Speculative);

  const FlatCfg *G;
  const MemoryModel *MM;
  CacheDomainOptions Options;
  /// Per array: next symbolic instance ordinal.
  std::vector<uint64_t> InstanceCounters;
};

} // namespace specai

#endif // SPECAI_DOMAIN_CACHEDOMAIN_H
