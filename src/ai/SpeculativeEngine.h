//===- SpeculativeEngine.h - AI under speculative execution -----*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's fixed-point engine, generic over the abstract domain:
/// Algorithm 1 (the standard worklist fixpoint over the flat CFG) lifted
/// by Algorithms 2 and 3 to be sound under speculative execution. The
/// lifting only adds virtual control flow — the n -> vn_start and
/// vn_stop -> n edges of the speculation plan — so over an empty SpecPlan
/// the engine *is* Algorithm 1: the non-speculative baseline the
/// evaluation compares against (the "state-of-the-art, non-speculative
/// static cache analysis").
///
/// Per node n the engine maintains three families of states:
///
///  - S[n]     the normal (architectural) state, as in Algorithm 1;
///  - SS[n][c] the in-flight speculative state of color c (Algorithm 3's
///             per-color vector), carrying the maximum remaining
///             speculation depth. Seeded at the branch (the n->vn_start
///             edge): SS[wrongEntry(c)] := S[branch]. It flows over the
///             ordinary CFG edges — through joins and nested branches
///             (both ways; the prediction of a nested branch is unknown)
///             — until the depth is exhausted, a fence drains it, or it
///             reaches the branch's post-dominator: the flow stays on the
///             mispredicted side, and only its rollback edges leave it. SS
///             flows use the domain's transferSpeculative: in-flight
///             stores live in the store buffer and never touch the cache,
///             so Store nodes are no-ops there (squashed on rollback);
///  - PR[n][k] post-rollback states: after executing any prefix of the
///             speculated side, the processor may roll back and resume at
///             the correct side's entry (the vn_stop -> n edge). These are
///             architecturally real states whose only difference from S is
///             a polluted cache; keeping them separate until the branch's
///             post-dominator is the paper's just-in-time merging (§5.2).
///
/// Merge strategies (Figure 6) control the PR bookkeeping:
///  - MergeAtRollback (6d): rolled-back states join S[correctEntry]
///    immediately (coarsest, cheapest);
///  - JustInTime (6c, default): all rollback states of one color join in a
///    collector at the correct side's entry and flow as one PR state;
///  - NoMerge (6a): one PR slot per (color, rollback point), everything
///    kept apart until the post-dominator (finest, most expensive);
///  - MergeAtExit (6b): like NoMerge in this engine — because the abstract
///    join is associative and every separate flow is joined at the
///    post-dominator anyway, merging "right before the exit of the other
///    branch" computes the same states as 6a while the original paper's
///    distinction is about intermediate state counts.
///
/// Depth bounding (§6.2): each site gets a window of b_miss instructions,
/// shrunk to b_hit when every load feeding its condition is a must-hit.
/// `BoundingMode::Dynamic` re-evaluates the bound each time the branch is
/// reprocessed (remaining sound because joined depths take the maximum);
/// the analysis driver additionally offers an iterative outer refinement
/// that re-runs with bounds derived from the previous sound fixpoint.
///
/// Domain concept:
///   using State;
///   State  bottom() const;            // join identity / unreachable
///   State  entry() const;             // state at the program entry
///   bool   isBottom(const State&) const;
///   void   transfer(State&, NodeId);  // may be stateful (instance picks)
///   void   transferSpeculative(State&, NodeId); // in-flight (SS) flows
///   bool   joinInto(State &Into, const State &From) const; // true if grew
///   void   widen(State &Cur, const State &Prev) const;
///   bool   isMustHit(const State&, NodeId) const; // §6.2 bounding
///
/// Optional hot-path hooks (detected via requires-expressions; the cache
/// domain provides them, the interval domain runs without):
///   bool     isTransferIdentity(NodeId, bool Speculative) const;
///   bool     isTransferPure(NodeId, bool Speculative) const;
///   uint64_t stateHash(const State&) const;
///
/// Hot-path machinery (docs/PERFORMANCE.md): the worklist pops in the
/// order EngineOptions::Order names (the analysis pipeline picks reverse
/// post-order for the baseline and FIFO for speculative runs) with an
/// on-worklist bitmap; SS/PR slots live in sorted flat vectors (no
/// per-slot node allocations), and a pop copies out only the slot flows
/// it runs; and with a non-empty plan, window transfers are memoized per
/// (node, in-state-hash) for pure nodes, so re-drains across colors and
/// re-seeding rounds reuse results. All of it is gated on the optional
/// domain hooks and changes no result: identity and pure transfers are
/// replayed bit-identically, and stateful (symbolic-instance) transfers
/// are never memoized. A pop skips the flows at a pure node whose input
/// did not change since they last ran; at a seed branch only while the
/// site's window is no deeper than the one the flow last seeded, so every
/// skip is a no-op. Independent of the hooks, PR slots are folded into
/// PostRollback while iterating only at the condition loads the §6.2
/// bound reads, and each site's bound is cached until a state it reads
/// changes.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_AI_SPECULATIVEENGINE_H
#define SPECAI_AI_SPECULATIVEENGINE_H

#include "ai/Vcfg.h"
#include "cfg/FlatCfg.h"
#include "cfg/LoopInfo.h"
#include "support/ExecBudget.h"
#include "support/Fault.h"

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace specai {

/// Pop discipline of the fixed-point worklist.
enum class WorklistOrder {
  /// FIFO queue (the pre-RPO engines' order).
  Fifo,
  /// Reverse post-order priority: among pending nodes, the earliest in RPO
  /// pops first, so loop bodies settle before their exits re-enter.
  Rpo,
};

/// Figure 6's four strategies for merging speculative flows.
enum class MergeStrategy {
  NoMerge,         // 6a
  MergeAtExit,     // 6b
  JustInTime,      // 6c (default; best cost/precision in the paper)
  MergeAtRollback, // 6d
};

/// Printable name, e.g. "just-in-time".
const char *mergeStrategyName(MergeStrategy S);
/// Parses a mergeStrategyName; returns false on unknown names.
bool parseMergeStrategy(const std::string &Name, MergeStrategy &Out);

/// How speculation windows are bounded (§6.2).
enum class BoundingMode {
  /// Always use DepthMiss.
  Fixed,
  /// Use DepthHit whenever the condition's loads are must-hits in the
  /// current states; sound because re-seeding takes the max depth.
  Dynamic,
};

/// Printable name: "fixed" or "dynamic".
const char *boundingModeName(BoundingMode B);
/// Parses a boundingModeName; returns false on unknown names.
bool parseBoundingMode(const std::string &Name, BoundingMode &Out);

/// Options of the fixed-point engine.
struct EngineOptions {
  /// Apply the widening operator at loop headers once a node has been
  /// re-joined more than WideningDelay times (paper §6.3). The cache
  /// domain's lattice is finite so this is an accelerator; for unbounded
  /// domains (intervals) it is required for termination.
  bool UseWidening = false;
  uint32_t WideningDelay = 8;
  /// Safety valve: abort (with Converged=false) after this many worklist
  /// pops.
  uint64_t MaxIterations = 200000000;
  /// Worklist pop discipline; Rpo minimizes re-processing. The analysis
  /// pipeline runs speculative analyses in Fifo order unless asked
  /// otherwise (see MustHitOptions::Order).
  WorklistOrder Order = WorklistOrder::Rpo;
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  /// Speculation window (instructions) when the branch condition misses in
  /// the cache. The paper derives 200 from GEM5 traces of the Alpha-like
  /// O3 CPU; our pipeline substrate reproduces the calibration.
  uint32_t DepthMiss = 200;
  /// Window when the condition is a cache hit (paper: 20).
  uint32_t DepthHit = 20;
  BoundingMode Bounding = BoundingMode::Dynamic;
  /// Per-site depth overrides (from the driver's iterative refinement);
  /// empty means none. Indexed by site.
  std::vector<uint32_t> SiteDepthOverride;
  /// Per-site depth *clamps* (docs/MITIGATION.md repair mitigations),
  /// applied as an upper bound after overrides and dynamic bounding —
  /// unlike SiteDepthOverride they can only shrink a window, never grow
  /// it. Empty means none; UINT32_MAX entries leave their site unclamped.
  std::vector<uint32_t> SiteDepthClamp;
  /// Cooperative cancellation: when set, every worklist pop charges one
  /// step and an exhausted budget aborts the fixpoint with Converged=false
  /// and BudgetExceeded=true. Unlike MaxIterations (a per-fixpoint safety
  /// valve whose trip still yields an Ok verdict), a tripped budget means
  /// the *request* is over — the service answers `status: timeout` and
  /// never caches the partial result. Not part of any cache key.
  ExecBudget *Budget = nullptr;
  /// Test-only fault injection (support/Fault.h): the engine reacts to
  /// SkipSpecSeed, SkipRollback, DropWiden (after widening fires at a loop
  /// header, the header is not re-queued) and SkipBackedge (joins along
  /// loop back edges are skipped) and ignores every other value.
  InjectedFault Fault = InjectedFault::None;
};

/// Work counters of one engine run; the analysis pipeline reports them
/// into MustHitOptions::Stats.
struct EngineCounters {
  uint64_t Pops = 0;
  uint64_t Pushes = 0;
  /// Pushes of a node already on the worklist (no second pop follows).
  uint64_t Deduped = 0;
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  /// Joins per flow kind: into S, SS and PR slots, the eager PR fold at
  /// condition loads, and the observable states the §6.2 bound reads.
  uint64_t NormalJoins = 0;
  uint64_t SpecJoins = 0;
  uint64_t PrJoins = 0;
  uint64_t FoldJoins = 0;
  uint64_t BoundJoins = 0;
};

/// Work queue over CFG nodes with an on-worklist bitmap: a node is never
/// queued twice, so every push past the first is deduped rather than
/// producing a duplicate pop later.
class NodeWorklist {
public:
  NodeWorklist(const FlatCfg &G, WorklistOrder Order) : Order(Order) {
    size_t N = G.size();
    InList.assign(N, false);
    if (Order == WorklistOrder::Rpo) {
      Rank.resize(N);
      NodeOf.resize(N);
      std::vector<bool> Ranked(N, false);
      uint32_t R = 0;
      for (NodeId Node : G.reversePostOrder()) {
        Rank[Node] = R;
        NodeOf[R] = Node;
        Ranked[Node] = true;
        ++R;
      }
      // Unreachable nodes rank after every reachable one, in id order.
      for (NodeId Node = 0; Node != N; ++Node)
        if (!Ranked[Node]) {
          Rank[Node] = R;
          NodeOf[R] = Node;
          ++R;
        }
    }
  }

  void push(NodeId Node) {
    ++PushCount;
    if (InList[Node]) {
      ++DedupCount;
      return;
    }
    InList[Node] = true;
    if (Order == WorklistOrder::Rpo)
      Heap.push(Rank[Node]);
    else
      Fifo.push_back(Node);
  }

  bool empty() const {
    return Order == WorklistOrder::Rpo ? Heap.empty() : Fifo.empty();
  }

  NodeId pop() {
    ++PopCount;
    NodeId Node;
    if (Order == WorklistOrder::Rpo) {
      Node = NodeOf[Heap.top()];
      Heap.pop();
    } else {
      Node = Fifo.front();
      Fifo.pop_front();
    }
    InList[Node] = false;
    return Node;
  }

  uint64_t pushes() const { return PushCount; }
  uint64_t deduped() const { return DedupCount; }
  uint64_t pops() const { return PopCount; }

private:
  WorklistOrder Order;
  std::vector<bool> InList;
  /// RPO rank per node and its inverse (identity-sized; unreachable nodes
  /// rank last).
  std::vector<uint32_t> Rank;
  std::vector<NodeId> NodeOf;
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<uint32_t>>
      Heap;
  std::deque<NodeId> Fifo;
  uint64_t PushCount = 0;
  uint64_t DedupCount = 0;
  uint64_t PopCount = 0;
};

/// Result of an engine run.
template <typename DomainT> struct SpecResult {
  using State = typename DomainT::State;
  /// Normal input states (architectural, prediction-correct executions).
  std::vector<State> Normal;
  /// Join of all post-rollback input states per node (architectural,
  /// mispredicted executions after rollback). Bottom where no rollback
  /// flow passes.
  std::vector<State> PostRollback;
  /// Join of all in-flight speculative input states per node. Bottom where
  /// never speculatively executed.
  std::vector<State> Speculative;
  uint64_t Iterations = 0;
  bool Converged = true;
  /// True iff an ExecBudget cut the run short (see EngineOptions::Budget);
  /// distinct from a MaxIterations trip, which only clears Converged.
  bool BudgetExceeded = false;
  EngineCounters Counters;

  /// The observable (architectural) input state at \p N: Normal joined
  /// with PostRollback. Classification of real cache behavior must use
  /// this.
  State observable(const DomainT &D, NodeId N) const {
    State S = Normal[N];
    D.joinInto(S, PostRollback[N]);
    return S;
  }
};

namespace detail {
/// Key of a post-rollback slot: the color, plus the rollback point for the
/// NoMerge/MergeAtExit strategies (InvalidNode under JustInTime).
struct PrKey {
  ColorId Color;
  NodeId Source;
  bool operator<(const PrKey &RHS) const {
    return Color != RHS.Color ? Color < RHS.Color : Source < RHS.Source;
  }
  bool operator==(const PrKey &RHS) const = default;
};

/// A sorted flat map from K to V: the per-node SS/PR slot containers.
/// Iteration is in ascending key order, which fixes the drain order — and
/// therefore every stateful-transfer sequence; lookups are a binary search
/// with no per-entry node allocation.
template <typename K, typename V> class FlatSlotMap {
public:
  using Entry = std::pair<K, V>;

  /// std::map::try_emplace equivalent: returns (entry, inserted).
  std::pair<Entry *, bool> tryEmplace(const K &Key, V Default) {
    auto It = std::lower_bound(
        Data.begin(), Data.end(), Key,
        [](const Entry &E, const K &Want) { return E.first < Want; });
    if (It != Data.end() && It->first == Key)
      return {&*It, false};
    It = Data.insert(It, Entry{Key, std::move(Default)});
    return {&*It, true};
  }

  /// The entry for \p Key, which must be present.
  Entry *find(const K &Key) {
    auto It = std::lower_bound(
        Data.begin(), Data.end(), Key,
        [](const Entry &E, const K &Want) { return E.first < Want; });
    return &*It;
  }

  auto begin() { return Data.begin(); }
  auto end() { return Data.end(); }
  auto begin() const { return Data.begin(); }
  auto end() const { return Data.end(); }
  bool empty() const { return Data.empty(); }

private:
  std::vector<Entry> Data;
};

/// Detects the optional domain hot-path hooks (transfer purity + state
/// hashing); see the domain concept in the file comment.
template <typename DomainT>
concept HasTransferMemoHooks = requires(const DomainT &D, NodeId N,
                                        const typename DomainT::State &S) {
  { D.isTransferIdentity(N, true) } -> std::convertible_to<bool>;
  { D.isTransferPure(N, true) } -> std::convertible_to<bool>;
  { D.stateHash(S) } -> std::convertible_to<uint64_t>;
};
} // namespace detail

/// Runs Algorithms 2/3 over \p G with speculation plan \p Plan; over an
/// empty plan this is Algorithm 1. Initializes the entry to
/// Domain::entry() and every other node to bottom, then iterates
/// transfer/join to a fixed point. \p LI may be null when widening and
/// the SkipBackedge fault are off.
template <typename DomainT>
SpecResult<DomainT> runSpeculativeFixpoint(DomainT &D, const FlatCfg &G,
                                           const SpecPlan &Plan,
                                           const EngineOptions &Options,
                                           const LoopInfo *LI = nullptr) {
  using State = typename DomainT::State;
  using detail::PrKey;
  constexpr bool HasMemoHooks = detail::HasTransferMemoHooks<DomainT>;

  struct SpecSlot {
    State St;
    uint32_t Depth = 0;
    /// Set when the slot changed since it was last drained; see the
    /// clean-flow skip below.
    bool Dirty = true;
  };
  struct PrSlot {
    State St;
    bool Dirty = true;
    /// Window depth this flow last seeded speculation with (see
    /// SeedSpeculation); only read at seed branches.
    uint32_t SeededDepth = 0;
  };
  /// The SS and PR flows one pop runs, copied out of the node's slots
  /// (see DrainWorklist). Reused across pops.
  struct SpecRun {
    ColorId Color;
    State St;
    uint32_t Depth;
  };
  struct PrRun {
    PrKey Key;
    State St;
    uint32_t SeededDepth;
    /// A clean flow at a pure seed branch: it runs only if SeedIsCurrent
    /// says its window opened wider since it last seeded.
    bool Clean;
  };
  std::vector<SpecRun> SpecRuns;
  std::vector<PrRun> PrRuns;

  SpecResult<DomainT> R;
  size_t N = G.size();
  R.Normal.assign(N, D.bottom());
  R.PostRollback.assign(N, D.bottom());
  R.Speculative.assign(N, D.bottom());
  if (N == 0)
    return R;

  // Per-node slot maps. SS/PR are sparse: most nodes never see a given
  // color.
  std::vector<detail::FlatSlotMap<ColorId, SpecSlot>> SS(N);
  std::vector<detail::FlatSlotMap<PrKey, PrSlot>> PR(N);

  // Branch node -> the one site it seeds (UINT32_MAX elsewhere) and that
  // site's colors.
  std::vector<uint32_t> SiteAt(N, UINT32_MAX);
  for (uint32_t Site = 0; Site != Plan.siteCount(); ++Site)
    SiteAt[Plan.sites()[Site].Branch] = Site;
  std::vector<std::vector<ColorId>> SeedColors(N);
  for (ColorId C = 0; C != Plan.colorCount(); ++C)
    SeedColors[Plan.siteOf(C).Branch].push_back(C);

  // Clean-flow skip: a pop reprocesses every flow family at the node, but
  // a flow whose input state did not change since its last drain re-joins
  // the exact same Out into targets that already absorbed it (slots only
  // move up the lattice), so skipping it is result-identical — *provided*
  // the node's transfer is pure. Stateful (symbolic-instance) transfers
  // are always reprocessed, keeping the pinned digest trajectories intact.
  // At a seed branch the re-run would also re-seed, which adds nothing
  // only while the site's §6.2 window is no deeper than the one this flow
  // last seeded with (SeedIsCurrent): a flow processed while the window
  // was 0 seeded nothing and must run again once it opens.
  std::vector<char> NormalDirty(N, 1);
  std::vector<uint32_t> NormalSeededDepth(N, 0);
  std::vector<char> SkippableCommitted(N, 0), SkippableSpec(N, 0);
  if constexpr (HasMemoHooks) {
    for (NodeId Node = 0; Node != N; ++Node) {
      SkippableCommitted[Node] = D.isTransferPure(Node, false);
      SkippableSpec[Node] = D.isTransferPure(Node, true);
    }
  }

  // Ipdom per color for PR termination.
  auto IpdomOf = [&](ColorId C) { return Plan.siteOf(C).Ipdom; };

  // Per-(node, in-state-hash) transfer memo for pure nodes: one table for
  // the committed transfer (S/PR flows) and one for the speculative window
  // transfer (SS flows, where stores are squashed). Entries verify the
  // stored input structurally, so a hash collision recomputes instead of
  // corrupting the run. Only colored plans memoize: without colors there
  // is no SS or PR flow, and a node's Normal input only grows between its
  // pops, so no entry could ever hit.
  struct MemoEntry {
    State In;
    State Out;
    uint64_t Hash;
  };
  [[maybe_unused]] constexpr size_t MemoPerNode = 8;
  [[maybe_unused]] const bool Memoize = Plan.colorCount() != 0;
  std::vector<std::vector<MemoEntry>> CommitMemo, SpecMemo;
  if constexpr (HasMemoHooks) {
    if (Memoize) {
      CommitMemo.resize(N);
      SpecMemo.resize(N);
    }
  }
  EngineCounters &Count = R.Counters;

  /// Out-state of \p Node given input \p In. Identity transfers alias the
  /// input (copy-on-write), pure transfers go through the memo, and
  /// stateful transfers always recompute (they consume a fresh symbolic
  /// instance; replaying one would change the analysis).
  auto ApplyTransfer = [&](NodeId Node, const State &In,
                           bool Speculative) -> State {
    if constexpr (HasMemoHooks) {
      if (D.isTransferIdentity(Node, Speculative))
        return In;
      if (Memoize && D.isTransferPure(Node, Speculative)) {
        std::vector<MemoEntry> &Table =
            Speculative ? SpecMemo[Node] : CommitMemo[Node];
        uint64_t H = D.stateHash(In);
        for (const MemoEntry &E : Table)
          if (E.Hash == H && E.In == In) {
            ++Count.MemoHits;
            return E.Out;
          }
        State Out = In;
        if (Speculative)
          D.transferSpeculative(Out, Node);
        else
          D.transfer(Out, Node);
        ++Count.MemoMisses;
        if (Table.size() >= MemoPerNode)
          Table.erase(Table.begin());
        Table.push_back(MemoEntry{In, Out, H});
        return Out;
      }
    }
    State Out = In;
    if (Speculative)
      D.transferSpeculative(Out, Node);
    else
      D.transfer(Out, Node);
    return Out;
  };

  std::vector<uint32_t> JoinCounts(N, 0);
  NodeWorklist Worklist(G, Options.Order);

  // §6.2 dynamic bounding reads only the observable states at condition
  // loads. Map each such load to the sites whose bound reads it (none
  // under fixed bounding or for overridden sites), and cache every site's
  // all-hit bit until a state it was computed from changes.
  enum : char { BoundStale, BoundMiss, BoundHit };
  std::vector<std::vector<uint32_t>> BoundSitesOf(N);
  std::vector<char> SiteBound(Plan.siteCount(), BoundStale);
  if (Options.Bounding == BoundingMode::Dynamic)
    for (uint32_t Site = Options.SiteDepthOverride.size();
         Site < Plan.siteCount(); ++Site)
      for (NodeId Load : Plan.sites()[Site].CondLoads)
        BoundSitesOf[Load].push_back(Site);
  auto InvalidateBounds = [&](NodeId Node) {
    for (uint32_t Site : BoundSitesOf[Node])
      SiteBound[Site] = BoundStale;
  };

  // Fault injection only (support/Fault.h). DropWiden keeps a widened
  // header off the worklist. SkipBackedge drops every join along a back
  // edge From->To, i.e. To heads a loop whose body contains From; loops
  // sharing a header are merged by LoopInfo, so at most one loop matches.
  const bool DropWidenFault = Options.Fault == InjectedFault::DropWiden;
  const bool BackedgeFault = Options.Fault == InjectedFault::SkipBackedge;
  auto DropsEdge = [&](NodeId From, NodeId To) {
    if (!BackedgeFault || !LI || !LI->isHeader(To))
      return false;
    for (const Loop &L : LI->loops())
      if (L.Header == To)
        for (NodeId B : L.Body)
          if (B == From)
            return true;
    return false;
  };

  auto JoinNormal = [&](NodeId Node, const State &From) {
    bool UseWiden = Options.UseWidening && LI && LI->isHeader(Node) &&
                    JoinCounts[Node] >= Options.WideningDelay;
    ++Count.NormalJoins;
    if (UseWiden) {
      State Prev = R.Normal[Node];
      if (D.joinInto(R.Normal[Node], From)) {
        D.widen(R.Normal[Node], Prev);
        ++JoinCounts[Node];
        NormalDirty[Node] = 1;
        InvalidateBounds(Node);
        if (!DropWidenFault)
          Worklist.push(Node);
      }
      return;
    }
    if (D.joinInto(R.Normal[Node], From)) {
      ++JoinCounts[Node];
      NormalDirty[Node] = 1;
      InvalidateBounds(Node);
      Worklist.push(Node);
    }
  };

  auto JoinPr = [&](NodeId Node, PrKey Key, const State &From) {
    auto [Slot, Inserted] = PR[Node].tryEmplace(Key, PrSlot{D.bottom(), true});
    bool UseWiden = Options.UseWidening && LI && LI->isHeader(Node) &&
                    JoinCounts[Node] >= Options.WideningDelay;
    State Prev = UseWiden ? Slot->second.St : D.bottom();
    ++Count.PrJoins;
    bool Changed = D.joinInto(Slot->second.St, From);
    if (Changed) {
      if (UseWiden)
        D.widen(Slot->second.St, Prev);
      ++JoinCounts[Node];
      if (!(UseWiden && DropWidenFault))
        Worklist.push(Node);
    } else if (Inserted) {
      Worklist.push(Node);
    }
    if (Changed || Inserted) {
      Slot->second.Dirty = true;
      // The §6.2 dynamic bound is the only reader of R.PostRollback while
      // iterating, and it reads it only at condition loads: a bound
      // computed without the rollback pollution there would under-size
      // windows (found by specai-fuzz). So fold eagerly at those loads
      // alone; everywhere else the end-of-run fold computes the same join,
      // because slots only grow.
      if (!BoundSitesOf[Node].empty()) {
        ++Count.FoldJoins;
        if (D.joinInto(R.PostRollback[Node], Slot->second.St))
          InvalidateBounds(Node);
      }
    }
  };

  auto JoinSpec = [&](NodeId Node, ColorId Color, const State &From,
                      uint32_t Depth) {
    auto [Slot, Inserted] =
        SS[Node].tryEmplace(Color, SpecSlot{D.bottom(), 0, true});
    ++Count.SpecJoins;
    bool Changed = D.joinInto(Slot->second.St, From);
    if (Depth > Slot->second.Depth) {
      Slot->second.Depth = Depth;
      Changed = true;
    }
    if (Changed || Inserted) {
      Slot->second.Dirty = true;
      Worklist.push(Node);
    }
  };

  // Depth of a site's window given current classification knowledge.
  auto SiteDepth = [&](uint32_t Site) -> uint32_t {
    uint32_t Depth = Options.DepthMiss;
    if (Site < Options.SiteDepthOverride.size()) {
      Depth = Options.SiteDepthOverride[Site];
    } else if (Options.Bounding == BoundingMode::Dynamic) {
      if (SiteBound[Site] == BoundStale) {
        const SpecSite &SS_ = Plan.sites()[Site];
        bool AllHit = !SS_.CondLoads.empty();
        for (NodeId Load : SS_.CondLoads) {
          ++Count.BoundJoins;
          State Obs = R.observable(D, Load);
          if (D.isBottom(Obs) || !D.isMustHit(Obs, Load)) {
            AllHit = false;
            break;
          }
        }
        SiteBound[Site] = AllHit ? BoundHit : BoundMiss;
      }
      if (SiteBound[Site] == BoundHit)
        Depth = Options.DepthHit;
    }
    // A repair clamp caps whatever the engine derived, refinement
    // overrides included: the mitigated hardware stops fetching at the
    // clamped depth no matter how slowly the condition resolves.
    if (Site < Options.SiteDepthClamp.size())
      Depth = std::min(Depth, Options.SiteDepthClamp[Site]);
    return Depth;
  };

  // Deepest window each site was ever seeded with; the envelope keeps the
  // max, so a site is covered up to this depth.
  std::vector<uint32_t> MaxSeeded(Plan.siteCount(), 0);

  // Seeds speculation colors of branch node `Node` from architectural
  // state `Out` (the state after the branch resolves its inputs). Returns
  // the window depth it seeded with: 0 when it seeded nothing, UINT32_MAX
  // under the SkipSpecSeed fault, which never seeds at any depth.
  auto SeedSpeculation = [&](NodeId Node, const State &Out) -> uint32_t {
    if (Options.Fault == InjectedFault::SkipSpecSeed)
      return UINT32_MAX; // Injected fault: pretend speculation never starts.
    if (SiteAt[Node] == UINT32_MAX)
      return 0;
    // Window boundary: opening a new speculation window on an exhausted
    // budget only generates work the drain loop will abandon anyway.
    if (Options.Budget && Options.Budget->exhausted())
      return 0;
    uint32_t Site = SiteAt[Node];
    uint32_t Depth = SiteDepth(Site);
    if (Depth == 0)
      return 0; // b_hit == 0 disables speculation entirely (§6.2).
    MaxSeeded[Site] = std::max(MaxSeeded[Site], Depth);
    for (ColorId C : SeedColors[Node])
      JoinSpec(Plan.wrongEntry(C), C, Out, Depth);
    return Depth;
  };

  // True when re-running a clean flow at `Node` that last seeded with
  // window `Seeded` would seed nothing new: its state is already in the
  // SS slots, at a depth no smaller than the site's current window.
  auto SeedIsCurrent = [&](NodeId Node, uint32_t Seeded) {
    return SiteAt[Node] == UINT32_MAX || SiteDepth(SiteAt[Node]) <= Seeded;
  };

  // Routes a rolled-back state (after executing `Source` speculatively
  // under color C) to the correct side per the merge strategy.
  auto Rollback = [&](ColorId C, NodeId Source, const State &Out) {
    if (Options.Fault == InjectedFault::SkipRollback)
      return; // Injected fault: drop the vn_stop -> n edges.
    NodeId Target = Plan.correctEntry(C);
    switch (Options.Strategy) {
    case MergeStrategy::MergeAtRollback:
      JoinNormal(Target, Out);
      return;
    case MergeStrategy::JustInTime:
      JoinPr(Target, PrKey{C, InvalidNode}, Out);
      return;
    case MergeStrategy::NoMerge:
    case MergeStrategy::MergeAtExit:
      JoinPr(Target, PrKey{C, Source}, Out);
      return;
    }
  };

  auto DrainWorklist = [&]() {
    while (!Worklist.empty()) {
      if (++R.Iterations > Options.MaxIterations) {
        R.Converged = false;
        return;
      }
      if (Options.Budget && Options.Budget->chargeStep()) {
        R.Converged = false;
        R.BudgetExceeded = true;
        return;
      }
      NodeId Node = Worklist.pop();

      // --- Normal flow (Algorithm 2 lines 8, 14-19). ---
      if (!D.isBottom(R.Normal[Node]) &&
          (NormalDirty[Node] || !SkippableCommitted[Node] ||
           !SeedIsCurrent(Node, NormalSeededDepth[Node]))) {
        NormalDirty[Node] = 0;
        State Out = ApplyTransfer(Node, R.Normal[Node], /*Speculative=*/false);
        for (NodeId Succ : G.successors(Node))
          if (!DropsEdge(Node, Succ))
            JoinNormal(Succ, Out);
        // n -> vn_start edges (line 11).
        NormalSeededDepth[Node] = SeedSpeculation(Node, Out);
      }

      // The SS and PR flows below join into slot maps, and at a node
      // that is its own successor into the very map they iterate. So
      // each family first copies the flows it will run (state copies are
      // refcount increments) into a reusable buffer, clearing every
      // slot's Dirty bit in the same pass, then runs the buffer in key
      // order, which no join can disturb. A clean flow at a pure node is
      // not copied: every join it makes would be a no-op.

      // --- Speculative flows, one per live color (Algorithm 3 line 9).
      // These use the speculative transfer: stores are squashed (store
      // buffer), so only loads touch the abstract cache here.
      for (auto &[Color, Slot] : SS[Node]) {
        if (!D.isBottom(Slot.St) && Slot.Depth != 0 &&
            (Slot.Dirty || !SkippableSpec[Node]))
          SpecRuns.push_back(SpecRun{Color, Slot.St, Slot.Depth});
        Slot.Dirty = false;
      }
      for (const SpecRun &Flow : SpecRuns) {
        State Out = ApplyTransfer(Node, Flow.St, /*Speculative=*/true);
        // The rollback may happen right after this instruction: vn_stop.
        Rollback(Flow.Color, Node, Out);
        // A fence drains the speculative flow: the front end cannot
        // fetch past it while a branch is unresolved, so the window ends
        // here (the transfer above was identity — identity-plus-drain)
        // and only the rollback edge leaves the node. Mirrors
        // SpeculativeCpu::speculate() stopping at a fence.
        if (G.inst(Node).Op == Opcode::Fence)
          continue;
        // Continue speculating while the window allows. The flow is
        // confined to the mispredicted side: it stops at the branch's
        // post-dominator (the paper's Figure 6 draws rollback edges from
        // the branch body only, and Figure 7's states require it).
        if (Flow.Depth > 1) {
          NodeId Ipdom = IpdomOf(Flow.Color);
          for (NodeId Succ : G.successors(Node))
            if (Succ != Ipdom && !DropsEdge(Node, Succ))
              JoinSpec(Succ, Flow.Color, Out, Flow.Depth - 1);
        }
      }
      SpecRuns.clear();

      // --- Post-rollback flows (architectural; JIT keeps them apart
      // --- until the branch's post-dominator). At a seed branch a clean
      // --- pure flow is copied too: whether it runs depends on the
      // --- site's window (SeedIsCurrent), read lazily in key order.
      const bool SeedBranch = SiteAt[Node] != UINT32_MAX;
      for (auto &[Key, Slot] : PR[Node]) {
        bool Clean = !Slot.Dirty && SkippableCommitted[Node];
        if (!D.isBottom(Slot.St) && (!Clean || SeedBranch))
          PrRuns.push_back(PrRun{Key, Slot.St, Slot.SeededDepth, Clean});
        Slot.Dirty = false;
      }
      for (const PrRun &Flow : PrRuns) {
        if (Flow.Clean && SeedIsCurrent(Node, Flow.SeededDepth))
          continue; // Clean pure flow with nothing new to seed.
        State Out = ApplyTransfer(Node, Flow.St, /*Speculative=*/false);
        NodeId Ipdom = IpdomOf(Flow.Key.Color);
        for (NodeId Succ : G.successors(Node)) {
          if (DropsEdge(Node, Succ))
            continue;
          if (Succ == Ipdom)
            JoinNormal(Succ, Out);
          else
            JoinPr(Succ, Flow.Key, Out);
        }
        // Real execution in a post-rollback context can speculate again.
        uint32_t Seeded = SeedSpeculation(Node, Out);
        if (SeedBranch)
          PR[Node].find(Flow.Key)->second.SeededDepth = Seeded;
      }
      PrRuns.clear();
    }
  };

  // Re-validates the §6.2 dynamic depth bounds against the drained
  // states. A site seeded with b_hit while its condition loads still
  // looked like must-hits can be stale — later joins may have degraded
  // those loads to may-miss without reprocessing the branch, yet a real
  // miss means the hardware speculates b_miss deep. Stale sites are
  // re-seeded at the larger bound from the current architectural states;
  // returns true when another drain is needed. Bounds only escalate (and
  // MaxSeeded latches), so the loop below terminates. Found by the
  // differential fuzzer (specai-fuzz).
  auto ReseedStaleSites = [&]() {
    bool Reseeded = false;
    if (Options.Budget && Options.Budget->exhausted())
      return false; // Window boundary: no new rounds on a dead budget.
    for (uint32_t Site = 0; Site != Plan.siteCount(); ++Site) {
      uint32_t Want = SiteDepth(Site);
      if (Want <= MaxSeeded[Site])
        continue;
      NodeId Branch = Plan.sites()[Site].Branch;
      if (!D.isBottom(R.Normal[Branch])) {
        State Out = ApplyTransfer(Branch, R.Normal[Branch], false);
        NormalSeededDepth[Branch] = SeedSpeculation(Branch, Out);
      }
      // Seeding touches only SS slots, so PR[Branch] can be walked live.
      for (auto &[Key, Slot] : PR[Branch]) {
        if (D.isBottom(Slot.St))
          continue;
        State Out = ApplyTransfer(Branch, Slot.St, false);
        Slot.SeededDepth = SeedSpeculation(Branch, Out);
      }
      // Latch even when nothing seeded (unreachable branch, injected
      // fault) so the revalidation loop cannot spin.
      MaxSeeded[Site] = std::max(MaxSeeded[Site], Want);
      Reseeded = true;
    }
    return Reseeded;
  };

  R.Normal[G.entry()] = D.entry();
  Worklist.push(G.entry());
  do {
    DrainWorklist();
  } while (R.Converged && ReseedStaleSites());

  // Fold the sparse slot maps into per-node joins for classification.
  for (NodeId Node = 0; Node != N; ++Node) {
    for (const auto &[Color, Slot] : SS[Node])
      D.joinInto(R.Speculative[Node], Slot.St);
    for (const auto &[Key, Slot] : PR[Node])
      D.joinInto(R.PostRollback[Node], Slot.St);
  }

  Count.Pops = Worklist.pops();
  Count.Pushes = Worklist.pushes();
  Count.Deduped = Worklist.deduped();
  return R;
}

} // namespace specai

#endif // SPECAI_AI_SPECULATIVEENGINE_H
