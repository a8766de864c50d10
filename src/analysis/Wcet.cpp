//===- Wcet.cpp -----------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/Wcet.h"

#include <algorithm>

using namespace specai;

namespace {

/// Saturating multiply: the loop-trip products of deeply nested summarize
/// programs must not wrap a cycle bound around to something small.
uint64_t satMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > UINT64_MAX / B)
    return UINT64_MAX;
  return A * B;
}

/// The estimate over one Program. \p CalleeCycles holds the (bottom-up
/// precomputed) worst-case cycle bounds per Instruction::Callee; empty
/// under InlineUnroll, where no Call nodes exist.
WcetReport estimateOne(const CompiledProgram &CP, const MustHitReport &R,
                       const WcetOptions &Options,
                       const std::vector<uint64_t> &CalleeCycles) {
  WcetReport Out;
  const FlatCfg &G = CP.G;
  size_t N = G.size();

  // Per-node worst-case latency.
  std::vector<uint64_t> Latency(N, 0);
  for (NodeId Node = 0; Node != N; ++Node) {
    if (!R.Reachable[Node])
      continue;
    const Instruction &I = G.inst(Node);
    if (I.Op == Opcode::Call) {
      // Summarize mode: one call costs at most the callee's own bound
      // (computed bottom-up, so it is already final) plus one ALU cycle
      // for the return-value binding — inlining materializes that binding
      // as a `mov` into the caller's Dst register, which the callee's own
      // bound does not cover (found by the differential lowering oracle:
      // without it the summarize bound undercuts the unrolled bound by
      // exactly one cycle per executed call).
      Latency[Node] = Options.Timing.AluLatency +
                      (I.Callee < CalleeCycles.size() ? CalleeCycles[I.Callee]
                                                      : 0);
    } else if (I.accessesMemory()) {
      if (R.MustHit[Node]) {
        ++Out.MustHitNodes;
        Latency[Node] = Options.Timing.HitLatency;
      } else {
        ++Out.PossibleMissNodes;
        Latency[Node] = Options.Fault == InjectedFault::WcetHitForMiss
                            ? Options.Timing.HitLatency
                            : Options.Timing.MissLatency;
      }
    } else if (I.Op == Opcode::Br) {
      Latency[Node] = Options.Timing.BranchResolveLatency;
    } else {
      Latency[Node] = Options.Timing.AluLatency;
    }
    if (R.SpecPossibleMiss[Node])
      ++Out.SpeculativeMissNodes;
  }

  // Longest path over the loop-augmented DAG: back edges (loop-body ->
  // header, identified via LoopInfo) are dropped, and in their place each
  // back-edge source forwards its accumulated distance to the loop's exit
  // nodes. The redirection is what makes the bound survive code *after* a
  // loop: skipping back edges outright (the original formulation) left
  // the body's scaled weight dead-ended at the back-edge source, so a
  // program of the form `while (...) {...}; tail` was bounded as if the
  // tail followed the loop *header* — the fuzzer's differential WCET
  // oracle exhibits concrete runs beating that bound once the loop
  // iterates close to LoopIterationBound.
  const std::vector<Loop> &Loops = CP.LI.loops();
  std::vector<int> LoopOfHeader(N, -1);
  for (size_t L = 0; L != Loops.size(); ++L)
    LoopOfHeader[Loops[L].Header] = static_cast<int>(L);
  std::vector<std::vector<bool>> InBody(Loops.size(),
                                        std::vector<bool>(N, false));
  std::vector<std::vector<NodeId>> Exits(Loops.size());
  for (size_t L = 0; L != Loops.size(); ++L) {
    for (NodeId B : Loops[L].Body)
      InBody[L][B] = true;
    for (NodeId B : Loops[L].Body)
      for (NodeId S : G.successors(B))
        if (!InBody[L][S])
          Exits[L].push_back(S);
  }

  // Per-loop header-execution bounds. Summarize mode keeps counted loops
  // rolled and records their exact trip counts (Program::LoopTrips); a
  // loop without a record is uncounted and falls back to the user-supplied
  // iteration bound. Under InlineUnroll no records exist, reproducing the
  // pre-summarize flat bound exactly.
  std::vector<uint64_t> TripOf(Loops.size(), 0); // 0 = uncounted.
  for (const LoopTripRecord &Rec : CP.P->LoopTrips) {
    NodeId Header = G.blockStart(Rec.Header);
    for (size_t L = 0; L != Loops.size(); ++L)
      if (Loops[L].Header == Header)
        TripOf[L] = Rec.HeaderExecutions;
  }

  // Scale each node by the product of its enclosing counted loops' header
  // executions, times one flat LoopIterationBound when any enclosing loop
  // is uncounted (the existing bound covers the *total* header executions
  // of such a nest). This is a crude but monotone bound: misses dominate,
  // which is what the experiments compare.
  std::vector<uint64_t> Weight(N, 0);
  for (NodeId Node = 0; Node != N; ++Node) {
    uint64_t Scale = 1;
    if (Options.Fault != InjectedFault::WcetDropLoopScale) {
      bool InUncounted = false;
      for (size_t L = 0; L != Loops.size(); ++L) {
        if (!InBody[L][Node])
          continue;
        if (TripOf[L])
          Scale = satMul(Scale, TripOf[L]);
        else
          InUncounted = true;
      }
      if (InUncounted)
        Scale = satMul(Scale, Options.LoopIterationBound);
    }
    Weight[Node] = satMul(Latency[Node], Scale);
  }

  auto ForEachDagSucc = [&](NodeId Node, auto &&Fn) {
    for (NodeId Succ : G.successors(Node)) {
      int L = LoopOfHeader[Succ];
      if (L >= 0 && InBody[static_cast<size_t>(L)][Node]) {
        // Back edge: the path leaves the (bounded) loop instead.
        for (NodeId E : Exits[static_cast<size_t>(L)])
          Fn(E);
      } else {
        Fn(Succ);
      }
    }
  };

  // Kahn topological order over the augmented edges; structured-reducible
  // CFGs (all this frontend emits) stay acyclic under the redirection.
  std::vector<uint32_t> InDegree(N, 0);
  for (NodeId Node = 0; Node != N; ++Node)
    ForEachDagSucc(Node, [&](NodeId Succ) { ++InDegree[Succ]; });
  std::vector<NodeId> Queue;
  Queue.reserve(N);
  for (NodeId Node = 0; Node != N; ++Node)
    if (InDegree[Node] == 0)
      Queue.push_back(Node);
  std::vector<uint64_t> Dist(N, 0);
  std::vector<bool> Done(N, false);
  uint64_t Best = 0;
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    NodeId Node = Queue[Head];
    Done[Node] = true;
    uint64_t Here = Dist[Node] + Weight[Node];
    Best = std::max(Best, Here);
    ForEachDagSucc(Node, [&](NodeId Succ) {
      Dist[Succ] = std::max(Dist[Succ], Here);
      if (--InDegree[Succ] == 0)
        Queue.push_back(Succ);
    });
  }
  if (Queue.size() != N) {
    // Defensive fallback for an unexpectedly cyclic augmentation (an
    // irreducible CFG would need one): one reverse-post-order relaxation
    // pass over the leftover nodes keeps the bound finite and at least as
    // strong as the pre-redirection formulation.
    for (NodeId Node : G.reversePostOrder()) {
      if (Done[Node])
        continue;
      uint64_t Here = Dist[Node] + Weight[Node];
      Best = std::max(Best, Here);
      ForEachDagSucc(Node, [&](NodeId Succ) {
        if (!Done[Succ])
          Dist[Succ] = std::max(Dist[Succ], Here);
      });
    }
  }
  Out.WorstCaseCycles = Best;
  return Out;
}

} // namespace

WcetReport specai::estimateWcet(const CompiledProgram &CP,
                                const MustHitReport &R,
                                const WcetOptions &Options) {
  // Summarize mode: bound every callee bottom-up first, so a Call node's
  // latency is its callee's (final) worst-case bound; nested calls resolve
  // because CompiledProgram::Callees is in bottom-up order.
  std::vector<uint64_t> CalleeCycles;
  size_t NumCallees = std::min(CP.Callees.size(), R.CalleeReports.size());
  CalleeCycles.reserve(NumCallees);
  for (size_t I = 0; I != NumCallees; ++I) {
    WcetReport CalleeOut =
        estimateOne(*CP.Callees[I], *R.CalleeReports[I], Options, CalleeCycles);
    CalleeCycles.push_back(CalleeOut.WorstCaseCycles);
  }
  return estimateOne(CP, R, Options, CalleeCycles);
}
