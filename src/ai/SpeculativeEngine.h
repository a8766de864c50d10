//===- SpeculativeEngine.h - AI under speculative execution -----*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution, Algorithms 2 and 3: abstract
/// interpretation made sound under speculative execution.
///
/// Per node n the engine maintains three families of states:
///
///  - S[n]     the normal (architectural) state, as in Algorithm 1;
///  - SS[n][c] the in-flight speculative state of color c (Algorithm 3's
///             per-color vector), carrying the maximum remaining
///             speculation depth. Seeded at the branch (the n->vn_start
///             edge): SS[wrongEntry(c)] := S[branch]. It flows over the
///             ordinary CFG edges — through joins, nested branches (both
///             ways; the prediction of a nested branch is unknown), and
///             past the sides' join — until the depth is exhausted. SS
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
/// Hot-path machinery (docs/PERFORMANCE.md): the worklist pops in reverse
/// post-order with an on-worklist bitmap; SS/PR slots live in sorted flat
/// vectors (same iteration order as the former std::maps, no per-slot node
/// allocations); window transfers are memoized per (node, in-state-hash)
/// for pure nodes, so re-drains across colors and re-seeding rounds reuse
/// results; and seeded/rolled-back states are interned through a
/// StateInterner, which makes the repeated slot joins hit the domain's
/// shared-storage fast path. All of it is gated on the optional domain
/// hooks (isTransferIdentity/isTransferPure/stateHash) and changes no
/// result: identity and pure transfers are replayed bit-identically, and
/// stateful (symbolic-instance) transfers are never memoized. Independent
/// of the hooks, PR slots are folded into PostRollback while iterating
/// only at the condition loads the §6.2 bound reads, and each site's bound
/// is cached until a state it reads changes.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_AI_SPECULATIVEENGINE_H
#define SPECAI_AI_SPECULATIVEENGINE_H

#include "ai/Vcfg.h"
#include "ai/WorklistEngine.h"
#include "cfg/LoopInfo.h"
#include "support/StateInterner.h"

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

namespace specai {

#ifdef SPECAI_DEBUG_PR
/// Debug-build-only trace hook: called on every PR-slot join with
/// (node, color, source, joined-from state). Never compiled into the
/// library; a diagnostics TU defines the pointer and instantiates the
/// engine template itself.
inline void (*SpecaiPrTraceHook)(NodeId, uint32_t, NodeId,
                                 const void *) = nullptr;
#endif

/// Figure 6's four strategies for merging speculative flows.
enum class MergeStrategy {
  NoMerge,         // 6a
  MergeAtExit,     // 6b
  JustInTime,      // 6c (default; best cost/precision in the paper)
  MergeAtRollback, // 6d
};

/// Printable name, e.g. "just-in-time".
const char *mergeStrategyName(MergeStrategy S);

/// How speculation windows are bounded (§6.2).
enum class BoundingMode {
  /// Always use DepthMiss.
  Fixed,
  /// Use DepthHit whenever the condition's loads are must-hits in the
  /// current states; sound because re-seeding takes the max depth.
  Dynamic,
};

/// Deliberate, test-only engine faults. The differential fuzzer's
/// self-test (`specai-fuzz --selftest`) injects one of these and demands
/// that the soundness oracle catches the resulting under-approximation
/// with a concrete counterexample; a fuzzer that cannot see a broken
/// engine proves nothing. Never set outside tests.
enum class EngineFault : uint8_t {
  None,
  /// Skip the SS seed at wrongEntry(c): speculative flows never start, so
  /// post-rollback cache pollution goes unmodeled.
  SkipSpecSeed,
  /// Drop the vn_stop -> n rollback edges: speculation is modeled but its
  /// architectural aftermath is not.
  SkipRollback,
};

/// Options of the speculative engine.
struct SpecEngineOptions : EngineOptions {
  /// The speculative engine defaults to the legacy FIFO drain order, not
  /// Rpo: with statically unknown indices the domain's transfer is
  /// stateful (each application draws the next symbolic instance), so the
  /// pop order is observable in the fixpoint, and the pinned golden
  /// digests of the fuzz corpus encode the FIFO sequence. Rpo remains
  /// available and computes an equally sound envelope in fewer pops;
  /// programs without unknown-index accesses get bit-identical results
  /// either way (see state_repr_test).
  SpecEngineOptions() { Order = WorklistOrder::Fifo; }

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
  /// Test-only fault injection; see EngineFault.
  EngineFault Fault = EngineFault::None;
};

/// Result of a speculative run.
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
/// Iteration order matches std::map (ascending keys) so drain order — and
/// therefore every stateful-transfer sequence — is unchanged; lookups are
/// a binary search with no per-entry node allocation.
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

  auto begin() { return Data.begin(); }
  auto end() { return Data.end(); }
  auto begin() const { return Data.begin(); }
  auto end() const { return Data.end(); }
  bool empty() const { return Data.empty(); }

  /// Value-snapshot of the entries, for iteration that stays valid while
  /// the map is mutated (state copies are copy-on-write refcount bumps).
  std::vector<Entry> snapshot() const { return Data; }

private:
  std::vector<Entry> Data;
};

/// Detects the optional domain hot-path hooks (transfer purity + state
/// hashing); see WorklistEngine.h's domain concept.
template <typename DomainT>
concept HasTransferMemoHooks = requires(const DomainT &D, NodeId N,
                                        const typename DomainT::State &S) {
  { D.isTransferIdentity(N, true) } -> std::convertible_to<bool>;
  { D.isTransferPure(N, true) } -> std::convertible_to<bool>;
  { D.stateHash(S) } -> std::convertible_to<uint64_t>;
};
} // namespace detail

/// Runs Algorithms 2/3 over \p G with speculation plan \p Plan.
template <typename DomainT>
SpecResult<DomainT> runSpeculativeFixpoint(DomainT &D, const FlatCfg &G,
                                           const SpecPlan &Plan,
                                           const SpecEngineOptions &Options,
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
  };

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

  // Branch node -> colors seeded there.
  std::vector<std::vector<ColorId>> SeedColors(N);
  for (ColorId C = 0; C != Plan.colorCount(); ++C)
    SeedColors[Plan.siteOf(C).Branch].push_back(C);

  // Clean-flow skip: a pop reprocesses every flow family at the node, but
  // a flow whose input state did not change since its last drain re-joins
  // the exact same Out into targets that already absorbed it (slots only
  // move up the lattice), so skipping it is result-identical — *provided*
  // the node's transfer is pure. Stateful (symbolic-instance) transfers
  // and seed branches (whose §6.2 dynamic depth is re-read per pop) are
  // always reprocessed, keeping the pinned digest trajectories intact.
  std::vector<char> NormalDirty(N, 1);
  std::vector<char> SkippableCommitted(N, 0), SkippableSpec(N, 0);
  if constexpr (HasMemoHooks) {
    for (NodeId Node = 0; Node != N; ++Node) {
      SkippableCommitted[Node] =
          D.isTransferPure(Node, false) && SeedColors[Node].empty();
      SkippableSpec[Node] = D.isTransferPure(Node, true);
    }
  }

  // Ipdom per color for PR termination.
  auto IpdomOf = [&](ColorId C) { return Plan.siteOf(C).Ipdom; };

  // Per-(node, in-state-hash) transfer memo for pure nodes: one table for
  // the committed transfer (S/PR flows) and one for the speculative window
  // transfer (SS flows, where stores are squashed). Entries verify the
  // stored input structurally, so a hash collision recomputes instead of
  // corrupting the run.
  struct MemoEntry {
    State In;
    State Out;
    uint64_t Hash;
  };
  [[maybe_unused]] constexpr size_t MemoPerNode = 8;
  std::vector<std::vector<MemoEntry>> CommitMemo, SpecMemo;
  if constexpr (HasMemoHooks) {
    CommitMemo.resize(N);
    SpecMemo.resize(N);
  }
  uint64_t MemoHits = 0, MemoMisses = 0;

  // Hash-consing pool behind the SS/PR slot seeds: both colors of a site
  // and every re-drain seed from the same branch output share one payload,
  // so the slot joins below short-circuit on shared storage.
  StateInterner<State> Interner;
  auto Canon = [&](const State &S) -> State {
    if constexpr (HasMemoHooks)
      return Interner.intern(S);
    else
      return S;
  };

  /// Out-state of \p Node given input \p In. Identity transfers alias the
  /// input (copy-on-write), pure transfers go through the memo, and
  /// stateful transfers always recompute (they consume a fresh symbolic
  /// instance; replaying one would change the analysis).
  auto ApplyTransfer = [&](NodeId Node, const State &In,
                           bool Speculative) -> State {
    if constexpr (HasMemoHooks) {
      if (D.isTransferIdentity(Node, Speculative))
        return In;
      if (D.isTransferPure(Node, Speculative)) {
        std::vector<MemoEntry> &Table =
            Speculative ? SpecMemo[Node] : CommitMemo[Node];
        uint64_t H = D.stateHash(In);
        for (const MemoEntry &E : Table)
          if (E.Hash == H && E.In == In) {
            ++MemoHits;
            return E.Out;
          }
        State Out = In;
        if (Speculative)
          D.transferSpeculative(Out, Node);
        else
          D.transfer(Out, Node);
        ++MemoMisses;
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

  // Joins made while iterating, per flow kind; reported once at the end.
  uint64_t NormalJoins = 0, SpecJoins = 0, PrJoins = 0, FoldJoins = 0,
           BoundJoins = 0;

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

  // Fault injection only (SkipBackedges): true iff From->To is a back edge
  // (To heads a loop whose body contains From); mirrors the baseline
  // engine's check in WorklistEngine.h.
  auto IsBackEdge = [&](NodeId From, NodeId To) {
    if (!LI || !LI->isHeader(To))
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
    ++NormalJoins;
    if (UseWiden) {
      State Prev = R.Normal[Node];
      if (D.joinInto(R.Normal[Node], From)) {
        D.widen(R.Normal[Node], Prev);
        ++JoinCounts[Node];
        NormalDirty[Node] = 1;
        InvalidateBounds(Node);
        if (!Options.DropWidenPush)
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
#ifdef SPECAI_DEBUG_PR
    if (SpecaiPrTraceHook)
      SpecaiPrTraceHook(Node, Key.Color, Key.Source, &From);
#endif
    auto [Slot, Inserted] = PR[Node].tryEmplace(Key, PrSlot{D.bottom(), true});
    bool UseWiden = Options.UseWidening && LI && LI->isHeader(Node) &&
                    JoinCounts[Node] >= Options.WideningDelay;
    State Prev = UseWiden ? Slot->second.St : D.bottom();
    ++PrJoins;
    bool Changed = D.joinInto(Slot->second.St, From);
    if (Changed) {
      if (UseWiden)
        D.widen(Slot->second.St, Prev);
      ++JoinCounts[Node];
      if (!(UseWiden && Options.DropWidenPush))
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
        ++FoldJoins;
        if (D.joinInto(R.PostRollback[Node], Slot->second.St))
          InvalidateBounds(Node);
      }
    }
  };

  auto JoinSpec = [&](NodeId Node, ColorId Color, const State &From,
                      uint32_t Depth) {
    auto [Slot, Inserted] =
        SS[Node].tryEmplace(Color, SpecSlot{D.bottom(), 0, true});
    ++SpecJoins;
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
          ++BoundJoins;
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
  // state `Out` (the state after the branch resolves its inputs).
  auto SeedSpeculation = [&](NodeId Node, const State &Out) {
    if (Options.Fault == EngineFault::SkipSpecSeed)
      return; // Injected fault: pretend speculation never starts.
    if (SeedColors[Node].empty())
      return;
    // Window boundary: opening a new speculation window on an exhausted
    // budget only generates work the drain loop will abandon anyway.
    if (Options.Budget && Options.Budget->exhausted())
      return;
    State CanonOut = Canon(Out);
    for (ColorId C : SeedColors[Node]) {
      uint32_t Site = Plan.colors()[C].Site;
      uint32_t Depth = SiteDepth(Site);
      if (Depth == 0)
        continue; // b_hit == 0 disables speculation entirely (§6.2).
      MaxSeeded[Site] = std::max(MaxSeeded[Site], Depth);
      JoinSpec(Plan.wrongEntry(C), C, CanonOut, Depth);
    }
  };

  // Routes a rolled-back state (after executing `Source` speculatively
  // under color C) to the correct side per the merge strategy.
  auto Rollback = [&](ColorId C, NodeId Source, const State &Out) {
    if (Options.Fault == EngineFault::SkipRollback)
      return; // Injected fault: drop the vn_stop -> n edges.
    NodeId Target = Plan.correctEntry(C);
    switch (Options.Strategy) {
    case MergeStrategy::MergeAtRollback:
      JoinNormal(Target, Out);
      return;
    case MergeStrategy::JustInTime:
      JoinPr(Target, PrKey{C, InvalidNode}, Canon(Out));
      return;
    case MergeStrategy::NoMerge:
    case MergeStrategy::MergeAtExit:
      JoinPr(Target, PrKey{C, Source}, Canon(Out));
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
          (NormalDirty[Node] || !SkippableCommitted[Node])) {
        NormalDirty[Node] = 0;
        State Out = ApplyTransfer(Node, R.Normal[Node], /*Speculative=*/false);
        for (NodeId Succ : G.successors(Node))
          if (!(Options.SkipBackedges && IsBackEdge(Node, Succ)))
            JoinNormal(Succ, Out);
        // n -> vn_start edges (line 11).
        SeedSpeculation(Node, Out);
      }

      // --- Speculative flows, one per live color (Algorithm 3 line 9).
      // These use the speculative transfer: stores are squashed (store
      // buffer), so only loads touch the abstract cache here. The slot
      // list is snapshotted (cheap copy-on-write copies) so joins into
      // this node's own slots — self-edges — cannot invalidate iteration.
      if (!SS[Node].empty()) {
        auto Slots = SS[Node].snapshot();
        for (auto &Entry : SS[Node])
          Entry.second.Dirty = false;
        for (const auto &[Color, Slot] : Slots) {
          if (D.isBottom(Slot.St) || Slot.Depth == 0)
            continue;
          if (!Slot.Dirty && SkippableSpec[Node])
            continue; // Clean pure flow: every join below would no-op.
          State Out = ApplyTransfer(Node, Slot.St, /*Speculative=*/true);
          // The rollback may happen right after this instruction: vn_stop.
          Rollback(Color, Node, Out);
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
          if (Slot.Depth > 1) {
            NodeId Ipdom = IpdomOf(Color);
            for (NodeId Succ : G.successors(Node))
              if (Succ != Ipdom &&
                  !(Options.SkipBackedges && IsBackEdge(Node, Succ)))
                JoinSpec(Succ, Color, Out, Slot.Depth - 1);
          }
        }
      }

      // --- Post-rollback flows (architectural; JIT keeps them apart
      // --- until the branch's post-dominator).
      if (!PR[Node].empty()) {
        auto Slots = PR[Node].snapshot();
        for (auto &Entry : PR[Node])
          Entry.second.Dirty = false;
        for (const auto &[Key, Slot] : Slots) {
          if (D.isBottom(Slot.St))
            continue;
          if (!Slot.Dirty && SkippableCommitted[Node])
            continue; // Clean pure flow at a non-seed node.
          State Out = ApplyTransfer(Node, Slot.St, /*Speculative=*/false);
          NodeId Ipdom = IpdomOf(Key.Color);
          for (NodeId Succ : G.successors(Node)) {
            if (Options.SkipBackedges && IsBackEdge(Node, Succ))
              continue;
            if (Succ == Ipdom)
              JoinNormal(Succ, Out);
            else
              JoinPr(Succ, Key, Out);
          }
          // Real execution in a post-rollback context can speculate again.
          SeedSpeculation(Node, Out);
        }
      }
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
        SeedSpeculation(Branch, Out);
      }
      for (const auto &[Key, Slot] : PR[Branch].snapshot()) {
        if (D.isBottom(Slot.St))
          continue;
        State Out = ApplyTransfer(Branch, Slot.St, false);
        SeedSpeculation(Branch, Out);
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

  Worklist.report(Options.Stats, "spec.worklist");
  if (Options.Stats) {
    Options.Stats->increment("spec.memo.hits", MemoHits);
    Options.Stats->increment("spec.memo.misses", MemoMisses);
    Options.Stats->increment("spec.joins.normal", NormalJoins);
    Options.Stats->increment("spec.joins.spec", SpecJoins);
    Options.Stats->increment("spec.joins.pr", PrJoins);
    Options.Stats->increment("spec.joins.fold", FoldJoins);
    Options.Stats->increment("spec.joins.bound", BoundJoins);
    if constexpr (HasMemoHooks) {
      Options.Stats->increment("spec.interner.hits", Interner.hits());
      Options.Stats->increment("spec.interner.states", Interner.size());
    }
  }
  return R;
}

} // namespace specai

#endif // SPECAI_AI_SPECULATIVEENGINE_H
