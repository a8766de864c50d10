//===- CacheState.h - Abstract LRU cache states -----------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract cache state of the paper's static MUST-HIT analysis (§4,
/// Appendix A) with the optional shadow-variable refinement (Appendix B):
///
///  - MUST entries: per block, an upper bound on its LRU age within its
///    cache set; a block is tracked only while that bound is <= the set
///    associativity (i.e. provably resident). Join is element-wise max over
///    the key intersection; the entry state (empty cache, everything out)
///    is the analysis top.
///  - MAY (shadow) entries: per block, a lower bound on the youngest age it
///    can have along *some* path (the paper's ∃v). Join is element-wise min
///    over the key union. The MAY ages refine the MUST aging rule: u only
///    ages if NYoung(u) >= Age(u), where NYoung counts shadow entries at
///    least as young as u (Appendix B.1.1) — this is what keeps `a` cached
///    in the paper's Figure 11/13 loop.
///
/// Set-associative caches are handled per set: an access only ages blocks
/// mapped to the same set, and ages range over [1, associativity].
///
/// The aging rule is parameterized by the cache's replacement policy
/// (CacheConfig::Policy; lattice derivations in docs/DOMAINS.md):
///
///  - LRU (the paper's domain, everything above): an access rejuvenates
///    the touched block to age 1 and ages younger blocks, optionally
///    refined through the shadow NYoung rule.
///  - FIFO: insertion-age bounds. A provably resident block's access is a
///    definite hit and changes nothing (hits never rejuvenate a FIFO
///    line); a possible miss ages every tracked block of the set, and the
///    touched block is resident afterwards at bound `associativity` — or
///    bound 1 when the shadow state proves the access a definite miss.
///  - Tree-PLRU: the sound pessimistic tree bound. Ages range over
///    [1, log2(associativity) + 1]; every access ages every other tracked
///    block of the set by one (one tree bit can flip toward a block per
///    access) and rejuvenates the touched block to 1. The shadow NYoung
///    refinement is recency-based and does not apply.
///
/// Accesses with statically unknown element indices are conservative: every
/// tracked block in any set the array can touch ages by one (the unknown
/// line may evict any of them), a fresh symbolic instance block (the
/// paper's `decis_lev[k*]`) is inserted, and on the MAY side every line of
/// the array may now be youngest.
///
/// Representation (the fixed-point hot path; see docs/PERFORMANCE.md,
/// "Packed age lanes"):
///
///  - Entries are *partitioned by cache set*: each CacheSetPartition holds
///    the MUST/MAY entries of one set, sorted by block. Partitions are
///    kept sorted by set id and never empty (canonical form), so
///    structural equality is memberwise.
///  - Within a partition, ages are *bit-packed*: PackedAges stores the
///    sorted block list alongside a u64 word array holding one fixed-width
///    age lane per entry (nibble / byte / 16-bit, chosen from the policy's
///    `mustAgeCap()`). Aging a set is a masked SWAR add over whole words,
///    joins are per-lane max/min, and containment is a subtract-and-test —
///    16/8/4 entries per instruction instead of one. The Appendix B NYoung
///    rule runs off a MAY-age histogram (O(n + cap) per transfer, not
///    O(n^2)). Zero lanes mark absent tail slots (real ages are >= 1).
///  - Copy-on-write at two levels. A state is a handle to a *payload*
///    holding set-sorted pointers to *partition nodes*, one per cache set;
///    both carry an intrusive atomic refcount. Copying a state is a
///    refcount bump. The first mutation of a shared payload (`mut()`)
///    copies only the node pointers, and each mutator unshares only the
///    partition of the set it writes (`mutPart()`), so the engines'
///    ubiquitous `Out = In; transfer(Out)` copies one cache set, and
///    states derived from one another share every partition neither
///    wrote (`sharesStorageWith`, `sharesPartitionWith`).
///  - Joins, `leq`, `widenFrom` and `operator==` walk the partitions of
///    two states paired by set and skip pairs held in the same node. A
///    join whose result for a set equals the source's partition adopts
///    the source's node instead of building an equal copy, so sharing
///    survives joins; a join that changes nothing copies nothing.
///  - Payloads and nodes are recycled through a per-analysis arena
///    (CacheAbsState::ArenaScope over support/RecyclingArena.h): retiring
///    a node hands its entry buffers to the next clone instead of the
///    allocator, so a converging fixpoint stops allocating. States may
///    outlive the arena — every payload and node is individually
///    heap-deletable.
///  - Hashes are incremental: each node caches a 64-bit hash of its
///    partition and each payload the combination of its nodes' hashes
///    (`structuralHash`); a mutation resets only the payload's hash and
///    those of the partitions it wrote. The hash gives equality a fast
///    negative path and backs the engines' transfer memoization and the
///    StateInterner pool.
///
/// Handles are cheap to copy across threads; refcounts and the lazy
/// hashes are atomic, so concurrent *reads* (including lazy hashing) of
/// shared payloads and nodes are safe. Mutation still requires exclusive
/// ownership of the handle, which copy-on-write guarantees.
///
/// `mustEntries()/mayEntries()` materialize the canonical block-sorted
/// entry order of the pre-packing representations, so every golden digest
/// pinned by the fuzz corpus is bit-identical across representations; the
/// retained reference implementation (tests/reference/RefCacheState.h,
/// built only into the tests) and the
/// representation-differential harness (tests/packed_state_test.cpp) keep
/// the two in lock-step.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_DOMAIN_CACHESTATE_H
#define SPECAI_DOMAIN_CACHESTATE_H

#include "memory/MemoryModel.h"
#include "support/RecyclingArena.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace specai {

/// One tracked (block, age) pair — the element type PackedAges decodes to;
/// canonical entry lists (mustEntries) and call summaries store these.
struct AgedBlock {
  BlockAddr Block;
  uint16_t Age;

  bool operator==(const AgedBlock &RHS) const = default;
};

/// A sorted block list with bit-packed age lanes: entry i's age lives in a
/// fixed-width lane (4/8/16 bits) of the u64 word array. Lane width is
/// chosen once per analysis from the policy's age cap
/// (CacheAbsState::packedLaneBits) and is 0 canonically when empty. Tail
/// lanes past size() are zero — real ages are >= 1 — so bulk SWAR ops can
/// run over whole words unmasked.
///
/// Reads decode on the fly (operator[], iteration yields AgedBlock by
/// value); bulk mutators (aging, pressure, merges) work a word at a time.
class PackedAges {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  PackedAges() = default;

  size_t size() const { return Blks.size(); }
  bool empty() const { return Blks.empty(); }
  /// Lane width in bits (4, 8 or 16); 0 canonically when empty.
  unsigned laneBits() const { return LaneLog ? 1u << LaneLog : 0; }

  BlockAddr blockAt(size_t I) const { return Blks[I]; }
  uint16_t ageAt(size_t I) const {
    return static_cast<uint16_t>((Words[wordOf(I)] >> shiftOf(I)) &
                                 laneMask());
  }
  AgedBlock operator[](size_t I) const { return {Blks[I], ageAt(I)}; }

  /// The sorted block list (parallel to the age lanes).
  const std::vector<BlockAddr> &blocks() const { return Blks; }
  /// The raw lane words (tail lanes zero); for the word-at-a-time merge
  /// fast paths and the differential harness's layout checks.
  const std::vector<uint64_t> &words() const { return Words; }

  /// Index of \p Block, or npos.
  size_t find(BlockAddr Block) const;
  /// Age of \p Block, or \p Fallback when absent.
  uint32_t ageOf(BlockAddr Block, uint32_t Fallback) const {
    size_t I = find(Block);
    return I == npos ? Fallback : ageAt(I);
  }

  /// Proxy iteration yielding AgedBlock by value, so range-for over a
  /// partition reads exactly like the pre-packing representation.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AgedBlock;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AgedBlock;

    const_iterator() = default;
    const_iterator(const PackedAges *PA, size_t I) : PA(PA), I(I) {}
    AgedBlock operator*() const { return (*PA)[I]; }
    const_iterator &operator++() {
      ++I;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator T = *this;
      ++I;
      return T;
    }
    bool operator==(const const_iterator &RHS) const { return I == RHS.I; }

  private:
    const PackedAges *PA = nullptr;
    size_t I = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Blks.size()}; }

  // -- Mutators (all maintain sorted-by-block, zero-tail, canonical-empty
  // -- invariants). LaneBits parameters install the width on the first
  // -- entry and must match afterwards.

  /// Inserts or overwrites (Block -> Age).
  void set(BlockAddr Block, uint16_t Age, unsigned LaneBits);
  /// Overwrites the age lane of entry \p I.
  void setAgeAt(size_t I, uint16_t Age) {
    uint64_t &W = Words[wordOf(I)];
    unsigned Sh = shiftOf(I);
    W = (W & ~(laneMask() << Sh)) | (static_cast<uint64_t>(Age) << Sh);
  }
  /// Appends (Block, Age); Block must sort after every present block.
  void append(BlockAddr Block, uint16_t Age, unsigned LaneBits);
  void eraseAt(size_t I);
  /// Removes every entry; buffer capacity is retained.
  void clear();

  // -- Bulk SWAR transfer kernels (CacheState.cpp).

  /// Ages by one every entry with Age <= \p MaxOldAge, except index \p
  /// Skip (npos for none); entries aged past \p Cap are removed. The
  /// masked-saturating-add at the heart of every access transfer.
  void agePredLE(uint32_t MaxOldAge, size_t Skip, uint32_t Cap);
  /// True iff any entry has Age < \p V.
  bool anyAgeLT(uint32_t V) const;
  /// The LRU call-pressure transfer: Age += K, entries past \p Cap
  /// removed.
  void addPressure(uint32_t K, uint32_t Cap);
  /// Removes every entry with Age > \p Cap (eviction compaction).
  void compactAgesAbove(uint32_t Cap);
  /// Removes every entry whose flag in \p Remove is nonzero.
  void removeFlagged(const std::vector<char> &Remove);

  // -- Merge/compare kernels; `sameBlocks` peers run a word at a time.

  bool sameBlocks(const PackedAges &RHS) const { return Blks == RHS.Blks; }
  /// this = MUST join of A and B: key intersection, lane max.
  void assignMustMerge(const PackedAges &A, const PackedAges &B);
  /// this = MAY join of A and B: key union, lane min.
  void assignMayMerge(const PackedAges &A, const PackedAges &B);
  /// this ⊔must= From, mutating in place (uniquely-owned join
  /// destinations). Peers with identical block lists merge word-at-a-time
  /// with no allocation; otherwise \p Scratch (caller-reused storage)
  /// takes the rebuilt result and is swapped in.
  void mustMergeInPlace(const PackedAges &From, PackedAges &Scratch);
  /// this ⊔may= From, mutating in place; see mustMergeInPlace.
  void mayMergeInPlace(const PackedAges &From, PackedAges &Scratch);
  /// Result bits of mustJoinOrder/mayJoinOrder.
  static constexpr unsigned JoinKeepsThis = 1;  ///< this ⊔ From == this.
  static constexpr unsigned JoinYieldsFrom = 2; ///< this ⊔ From == From.
  /// Where a MUST join (intersection, lane max) of this and From lands,
  /// in one walk: JoinKeepsThis iff From ⊑ this, JoinYieldsFrom iff
  /// this ⊑ From.
  unsigned mustJoinOrder(const PackedAges &From) const;
  /// The same for a MAY join (union, lane min).
  unsigned mayJoinOrder(const PackedAges &From) const;
  /// Precondition sameBlocks(RHS): true iff every lane here >= RHS's.
  bool allLanesGE(const PackedAges &RHS) const;

  bool operator==(const PackedAges &RHS) const = default;

private:
  unsigned lanesPerWordLog() const { return 6u - LaneLog; }
  size_t wordOf(size_t I) const { return I >> lanesPerWordLog(); }
  unsigned shiftOf(size_t I) const {
    return static_cast<unsigned>((I & ((size_t(1) << lanesPerWordLog()) - 1))
                                 << LaneLog);
  }
  uint64_t laneMask() const { return (uint64_t(1) << (1u << LaneLog)) - 1; }
  size_t wordsFor(size_t N) const {
    unsigned Lpw = lanesPerWordLog();
    return (N + (size_t(1) << Lpw) - 1) >> Lpw;
  }
  void installLaneBits(unsigned LaneBits);
  /// Resizes Words to match Blks.size() and zeroes tail lanes; resets the
  /// lane width when empty (canonical form).
  void retruncate();

  /// Sorted blocks; ages at matching lane indices.
  std::vector<BlockAddr> Blks;
  std::vector<uint64_t> Words;
  /// log2(lane bits): 2/3/4 for nibble/byte/u16 lanes; 0 when empty.
  uint8_t LaneLog = 0;
};

/// The MUST/MAY entries of one cache set, each sorted by block.
struct CacheSetPartition {
  uint32_t Set = 0;
  PackedAges Must;
  PackedAges May;

  bool operator==(const CacheSetPartition &RHS) const = default;
};

/// Abstract cache state: MUST ages plus optional MAY (shadow) ages.
class CacheAbsState {
  /// Copy-on-write node of one cache-set partition. RefCount and the
  /// lazy hash are atomic so shared nodes tolerate concurrent readers
  /// (docs/PERFORMANCE.md, "Thread safety").
  struct PartNode {
    std::atomic<uint32_t> RefCount{1};
    CacheSetPartition Part;
    /// Lazily computed partition hash; 0 means "not computed yet" (a
    /// computed 0 is stored as 1). Reset by every mutation.
    mutable std::atomic<uint64_t> Hash{0};
  };

  /// Copy-on-write payload: set-sorted pointers to partition nodes, each
  /// holding one reference.
  struct Payload {
    std::atomic<uint32_t> RefCount{1};
    std::vector<PartNode *> Parts;
    /// Lazily computed by structuralHash() from the partition hashes; 0
    /// means "not computed yet". Reset by every mutation.
    mutable std::atomic<uint64_t> Hash{0};

    ~Payload() { dropParts(); }
    /// Releases every partition reference and empties Parts, keeping
    /// the vector's capacity for the next user of a recycled payload.
    void dropParts() {
      for (PartNode *N : Parts)
        releaseNode(N);
      Parts.clear();
    }
  };

public:
  /// RAII per-analysis arena for payloads and partition nodes: while a
  /// scope is active on a thread, objects released there are recycled
  /// into the next allocation with their buffers intact (zero-malloc
  /// steady state). States may outlive the scope — objects fall back to
  /// plain heap delete.
  class ArenaScope {
  private:
    RecyclingArena<PartNode>::Scope Nodes;
    RecyclingArena<Payload>::Scope Payloads;
  };

  /// Read-only view of the partitions, iterated as
  /// `const CacheSetPartition &` in canonical (set-sorted) order.
  class PartitionView {
  public:
    class const_iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = CacheSetPartition;
      using difference_type = std::ptrdiff_t;
      using pointer = const CacheSetPartition *;
      using reference = const CacheSetPartition &;

      const_iterator() = default;
      explicit const_iterator(PartNode *const *It) : It(It) {}
      const CacheSetPartition &operator*() const { return (*It)->Part; }
      const CacheSetPartition *operator->() const { return &(*It)->Part; }
      const_iterator &operator++() {
        ++It;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator T = *this;
        ++It;
        return T;
      }
      bool operator==(const const_iterator &RHS) const = default;

    private:
      PartNode *const *It = nullptr;
    };

    PartitionView() = default;
    explicit PartitionView(const std::vector<PartNode *> &Parts)
        : First(Parts.data()), N(Parts.size()) {}
    const_iterator begin() const { return const_iterator(First); }
    const_iterator end() const { return const_iterator(First + N); }
    size_t size() const { return N; }
    bool empty() const { return N == 0; }

  private:
    PartNode *const *First = nullptr;
    size_t N = 0;
  };

  CacheAbsState() = default;
  CacheAbsState(const CacheAbsState &RHS) : Bottom(RHS.Bottom), P(RHS.P) {
    if (P)
      P->RefCount.fetch_add(1, std::memory_order_relaxed);
  }
  CacheAbsState(CacheAbsState &&RHS) noexcept
      : Bottom(RHS.Bottom), P(RHS.P) {
    RHS.P = nullptr;
    RHS.Bottom = false;
  }
  CacheAbsState &operator=(const CacheAbsState &RHS) {
    if (RHS.P)
      RHS.P->RefCount.fetch_add(1, std::memory_order_relaxed);
    Payload *Old = P;
    P = RHS.P;
    Bottom = RHS.Bottom;
    if (Old)
      release(Old);
    return *this;
  }
  CacheAbsState &operator=(CacheAbsState &&RHS) noexcept {
    std::swap(P, RHS.P);
    std::swap(Bottom, RHS.Bottom);
    return *this;
  }
  ~CacheAbsState() {
    if (P)
      release(P);
  }

  /// The unreachable state (join identity).
  static CacheAbsState bottom() {
    CacheAbsState S;
    S.Bottom = true;
    return S;
  }
  /// The empty-cache state: every block out of cache. This is the entry
  /// state and the analysis top.
  static CacheAbsState empty() { return CacheAbsState(); }

  bool isBottom() const { return Bottom; }

  /// Age-lane width (bits) the packed representation uses for ages bounded
  /// by \p AgeCap: nibbles up to cap 14, bytes up to 254, u16 above (cap
  /// <= 65534). MUST lanes size from `mustAgeCap()`, MAY lanes from the
  /// associativity; assoc = 16 under LRU/FIFO is the first nibble-to-byte
  /// cutover (cap 16 > 14).
  static unsigned packedLaneBits(uint32_t AgeCap) {
    assert(AgeCap <= 65534 && "age cap exceeds packed lane range");
    return AgeCap <= 14 ? 4u : AgeCap <= 254 ? 8u : 16u;
  }

  /// MUST age upper bound of \p Block; \p Assoc + 1 when not provably
  /// resident.
  uint32_t mustAge(BlockAddr Block, uint32_t Assoc) const;
  /// MAY age lower bound of \p Block; \p Assoc + 1 when the block is not in
  /// cache on any path.
  uint32_t mayAge(BlockAddr Block, uint32_t Assoc) const;

  /// True iff \p Block is provably resident (MUST age <= associativity).
  bool isMustCached(BlockAddr Block) const;

  /// Applies the transfer function for an access to a statically known
  /// block (paper §4.2 / Appendix B.1.1 when \p UseShadow), under the
  /// replacement policy of \p MM's cache config.
  void accessBlock(BlockAddr Block, const MemoryModel &MM, bool UseShadow);

  /// Applies the conservative transfer for an access to array \p Var with
  /// an unknown element index; \p InstanceK selects the symbolic instance
  /// block (the caller's running counter, saturated internally). Policy
  /// comes from \p MM's cache config.
  void accessUnknown(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                     bool UseShadow);

  /// Summarize mode: applies one callee invocation's cache effect (the
  /// Call-node transfer; DESIGN.md §4).
  ///
  ///  - Pressure (when \p ApplyPressure): \p SetPressure[s] counts the
  ///    distinct lines the callee may touch in set s. Under LRU every MUST
  ///    entry of a pressured set ages by that count (K distinct lines age
  ///    an untouched line by at most K — the LRU stack property); under
  ///    FIFO/PLRU every MUST entry of a pressured set is dropped, because
  ///    insertion/tree ages advance once per *access* and callee loops make
  ///    the access count unbounded.
  ///  - \p ExitMust (when \p InsertExitMust): blocks provably resident at
  ///    every callee exit, analyzed from the unknown entry state (the MUST
  ///    top, whose concretization covers every call context), so their exit
  ///    ages are valid upper bounds here; an existing entry keeps the
  ///    smaller of the two bounds. Skipped inside speculative windows where
  ///    the callee may have executed only partially.
  ///  - \p MayBlocks (when \p UseShadow): every line the callee may touch
  ///    becomes possibly-youngest (MAY bound 1), keeping the shadow NYoung
  ///    refinement sound across the call.
  void applyCallEffect(const std::vector<uint32_t> &SetPressure,
                       const std::vector<AgedBlock> &ExitMust,
                       const std::vector<BlockAddr> &MayBlocks,
                       const MemoryModel &MM, bool UseShadow,
                       bool InsertExitMust, bool ApplyPressure);

  /// this = this ⊔ \p From. Returns true iff this changed. Shared-storage
  /// and hash-equal states short-circuit to "no change" without touching
  /// any entry.
  bool joinInto(const CacheAbsState &From, bool UseShadow);

  /// Partial-order check: true iff this ⊑ RHS (RHS is at least as
  /// conservative). Bottom ⊑ everything.
  bool leq(const CacheAbsState &RHS, uint32_t Assoc) const;

  /// Widening: this = \p Prev ∇ this. Any MUST entry whose age grew since
  /// \p Prev is evicted, jumping chains to the top of the per-block ladder
  /// (paper §6.3).
  void widenFrom(const CacheAbsState &Prev, uint32_t Assoc);

  /// Structural equality (bottom flag + partition contents). Shared
  /// payloads and mismatched cached hashes short-circuit.
  bool operator==(const CacheAbsState &RHS) const;

  /// Per-set partitions in canonical form (sorted by set id, no empty
  /// partitions). The zero-copy view for hot iteration.
  PartitionView partitions() const {
    return P ? PartitionView(P->Parts) : PartitionView();
  }

  /// All MUST entries merged across partitions, sorted by block — the
  /// canonical order the pre-partitioning representation stored, which the
  /// golden digests in tests/fuzz_regression_test.cpp pin. Materializes a
  /// fresh vector; hot paths should iterate partitions() instead.
  std::vector<AgedBlock> mustEntries() const;
  /// All MAY entries merged across partitions, sorted by block.
  std::vector<AgedBlock> mayEntries() const;

  /// 64-bit hash of the canonical structure: a combination of per-
  /// partition hashes, each cached in its node, with the combination
  /// cached in the payload until the next mutation. Equal states always
  /// hash equal, whatever their lane widths or sharing.
  uint64_t structuralHash() const;

  /// True iff both handles alias the same payload (copy-on-write aliasing;
  /// implies structural equality). Bottom and entry states own no payload
  /// and never report sharing.
  bool sharesStorageWith(const CacheAbsState &RHS) const {
    return P && P == RHS.P;
  }

  /// True iff both states hold set \p Set's partition in the same
  /// copy-on-write node (per-set aliasing; implies that partition is
  /// equal). False when either state has no partition for the set.
  bool sharesPartitionWith(const CacheAbsState &RHS, uint32_t Set) const;

  /// Renders like the paper's tables: blocks grouped youngest-first, e.g.
  /// "{mil, wd, el}". MAY entries render with the ∃ prefix when present.
  std::string str(const MemoryModel &MM) const;

private:
  static void release(Payload *PL) {
    if (PL->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      PL->dropParts();
      RecyclingArena<Payload>::releaseToActive(PL);
    }
  }
  static void releaseNode(PartNode *N) {
    if (N->RefCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      RecyclingArena<PartNode>::releaseToActive(N);
  }
  static PartNode *retain(PartNode *N) {
    N->RefCount.fetch_add(1, std::memory_order_relaxed);
    return N;
  }
  /// A fresh unique payload with no partitions (possibly recycled).
  static Payload *allocPayload();
  /// A fresh unique node (possibly recycled; Part contents unspecified
  /// until the caller overwrites them).
  static PartNode *allocNode();
  /// The cached hash of \p N's partition, computed on first use.
  static uint64_t nodeHash(const PartNode &N);

  /// A fresh unique node holding a copy of \p From's partition.
  static PartNode *copyNode(const PartNode &From);

  /// Unshares the payload (a copy of the partition *pointers* if aliased,
  /// allocate-empty if absent) and invalidates the cached state hash.
  /// Mutators that insert partitions go through here; the others unshare
  /// partition by partition through mutPart/setPart.
  Payload &mut();
  /// Replaces the shared payload by a unique copy that holds a reference
  /// to each node, except that slot \p Idx (npos: none) takes \p Slot,
  /// or a copy of its old node when \p Slot is null.
  void unshareWith(size_t Idx, PartNode *Slot);
  /// Unshares partition \p Idx, and the payload when shared, and
  /// invalidates the partition's cached hash and the state's.
  CacheSetPartition &mutPart(size_t Idx);
  /// Puts \p N (whose reference the payload takes) in slot \p Idx,
  /// unsharing the payload when shared.
  void setPart(size_t Idx, PartNode *N);
  /// Find-or-insert the partition of \p Set, unshared. The reference
  /// stays valid across later inserts: partitions live in their nodes,
  /// not in the pointer vector.
  CacheSetPartition &ensurePart(uint32_t Set);
  /// Ages by one every MUST entry in the partitions of \p Sets (sorted),
  /// evicting past \p Cap — an access that may miss in any of those sets.
  void ageSets(const std::vector<uint32_t> &Sets, uint32_t Cap);
  /// Joins \p From into partition \p Idx, both of one set, when the
  /// join changes ours; adopts \p From's node when the result is
  /// \p From's partition (\p YieldsFrom).
  void joinPartInto(size_t Idx, PartNode *From, bool YieldsFrom,
                    bool UseShadow);
  /// Drops empty partitions; releases the payload when nothing is left so
  /// the empty state has a unique representation.
  void normalize();

  /// The partition nodes (empty for the empty and bottom states).
  const std::vector<PartNode *> &nodes() const {
    return P ? P->Parts : noNodes();
  }
  static const std::vector<PartNode *> &noNodes();
  /// Partition of \p Set, or nullptr.
  const CacheSetPartition *findPart(uint32_t Set) const;
  /// Node of \p Set's partition, or nullptr.
  const PartNode *findNode(uint32_t Set) const;

  // Per-policy transfer bodies behind the accessBlock/accessUnknown
  // dispatchers (docs/DOMAINS.md). The Lru bodies are the paper's rules,
  // bit-identical to the pre-policy implementation.
  void accessBlockLru(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessBlockFifo(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessBlockPlru(BlockAddr Block, const MemoryModel &MM, bool UseShadow);
  void accessUnknownLru(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                        bool UseShadow);
  void accessUnknownFifo(VarId Var, const MemoryModel &MM, bool UseShadow);
  void accessUnknownPlru(VarId Var, uint64_t InstanceK, const MemoryModel &MM,
                         bool UseShadow);

  bool Bottom = false;
  /// Null means "no tracked entries" (the empty/entry state).
  Payload *P = nullptr;
};

/// Namespace-scope alias for the per-analysis payload arena
/// (AnalysisPipeline.cpp activates one on the analysing thread).
using CacheStateArenaScope = CacheAbsState::ArenaScope;

} // namespace specai

#endif // SPECAI_DOMAIN_CACHESTATE_H
