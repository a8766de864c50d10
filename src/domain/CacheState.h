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
///    the MUST/MAY entries of one set. Partitions are kept sorted by set
///    id and never empty (canonical form), so structural equality is
///    memberwise.
///  - Each set has a static *block universe* (MemoryModel::universe()):
///    the blocks a transfer of the program can insert, numbered by dense
///    *slots* in increasing block order. Within a partition, ages are
///    *bit-packed by slot*: PackedAges holds one fixed-width lane per slot
///    (nibble / byte / 16-bit, chosen from the policy's `mustAgeCap()`),
///    zero meaning absent (real ages are >= 1), over a word-aligned
///    *window* from the lowest present slot to the highest, trimmed in
///    canonical form. Two lists of one set line up word for word, so
///    aging a set is a masked SWAR add, joins are per-lane max/min under
///    zero-lane masks, containment is a subtract-and-test — 16/8/4
///    entries per instruction — and point reads and writes are O(1) lane
///    accesses. The Appendix B NYoung rule runs off a MAY-age histogram
///    read only below the touched block's old age (O(n + ages read) per
///    transfer, not O(n^2)).
///  - Copy-on-write at two levels. A state is a handle to a *payload*
///    holding set-sorted pointers to *partition nodes*, one per cache set;
///    both carry an intrusive plain refcount. Copying a state is a
///    refcount increment. The first mutation of a shared payload
///    (`mut()`) copies only the node pointers, and each mutator unshares
///    only the partition of the set it writes (`mutPart()`), so the
///    engines' ubiquitous `Out = In; transfer(Out)` copies one cache set,
///    and states derived from one another share every partition neither
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
/// States are confined to one thread at a time. Refcounts and the lazy
/// hashes are plain integers, so every handle to one payload, and to the
/// nodes it shares, must live on a single thread; handing states to
/// another thread needs a synchronizing hand-off (a thread join or a
/// future) after which the sender touches none of them. Copying,
/// destroying or hashing handles to shared storage on two threads at once
/// is a data race.
///
/// `mustEntries()/mayEntries()` decode the lanes through the universe into
/// the canonical block-sorted entry order of the pre-packing
/// representations, so every golden digest
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

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace specai {

/// One tracked (block, age) pair — the element type partitions decode to;
/// canonical entry lists (mustEntries) and call summaries store these.
struct AgedBlock {
  BlockAddr Block;
  uint16_t Age;

  bool operator==(const AgedBlock &RHS) const = default;
};

/// One present lane of a PackedAges: a universe slot and its age.
struct SlotAge {
  uint32_t Slot;
  uint16_t Age;
};

/// Bit-packed age lanes indexed by universe slot: slot s's age lives in
/// the fixed-width lane s (4/8/16 bits) of a u64 word array, and a zero
/// lane means "absent" (real ages are >= 1). The words cover only a
/// *window*: from the word holding the lowest present slot to the word
/// holding the highest. Canonical form trims the window, so its first and
/// last words are nonzero, and an empty list holds no words, window 0 and
/// lane width 0; structural equality is then memberwise. Lane width is
/// chosen once per analysis from the policy's age cap
/// (CacheAbsState::packedLaneBits).
///
/// Lists of one set always share slot numbering, so two lists line up word
/// for word: joins, order tests and widening run word-wise SWAR with
/// zero-lane masks, and point reads and writes are O(1) lane accesses.
class PackedAges {
public:
  static constexpr uint32_t NoSlot = ~uint32_t(0);

  PackedAges() = default;

  bool empty() const { return Words.empty(); }
  /// Lane width in bits (4, 8 or 16); 0 canonically when empty.
  unsigned laneBits() const { return LaneLog ? 1u << LaneLog : 0; }
  /// Age in \p Slot, 0 when absent.
  uint16_t ageAt(uint32_t Slot) const {
    size_t W = (size_t(Slot) >> lanesPerWordLog()) - BaseWord;
    if (W >= Words.size())
      return 0;
    return static_cast<uint16_t>((Words[W] >> shiftOf(Slot)) & laneMask());
  }

  /// The window's first word, as an index into the slot space's words.
  uint32_t baseWord() const { return BaseWord; }
  /// The window's lane words; for hashing and the harness's layout checks.
  const std::vector<uint64_t> &words() const { return Words; }

  /// Iteration over the present lanes, yielding SlotAge by value in
  /// increasing slot order.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SlotAge;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SlotAge;

    const_iterator() = default;
    const_iterator(const PackedAges *PA, size_t W) : PA(PA), W(W) {
      seek();
    }
    SlotAge operator*() const;
    const_iterator &operator++() {
      Pending &= Pending - 1;
      if (!Pending) {
        ++W;
        seek();
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator T = *this;
      ++*this;
      return T;
    }
    bool operator==(const const_iterator &RHS) const {
      return W == RHS.W && Pending == RHS.Pending;
    }

  private:
    /// Advances W to the next word with a present lane (or the end).
    void seek();

    const PackedAges *PA = nullptr;
    size_t W = 0;
    /// Lane MSBs of the present lanes of word W not yet visited.
    uint64_t Pending = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Words.size()}; }

  // -- Mutators (all keep the canonical trimmed window). LaneBits
  // -- parameters install the width on the first entry and must match
  // -- afterwards.

  /// Inserts or overwrites (Slot -> Age), Age >= 1, growing the window.
  void set(uint32_t Slot, uint16_t Age, unsigned LaneBits);
  /// Removes every entry; buffer capacity is retained.
  void clear();

  // -- Bulk SWAR transfer kernels (CacheState.cpp).

  /// Ages by one every entry with Age <= \p MaxOldAge, except slot \p
  /// Skip (NoSlot for none); entries aged past \p Cap are removed. The
  /// masked-saturating-add at the heart of every access transfer.
  void agePredLE(uint32_t MaxOldAge, uint32_t Skip, uint32_t Cap);
  /// True iff any entry has Age < \p V.
  bool anyAgeLT(uint32_t V) const;
  /// The LRU call-pressure transfer: Age += K, entries past \p Cap
  /// removed.
  void addPressure(uint32_t K, uint32_t Cap);
  /// Removes every entry with Age > \p Cap (eviction compaction).
  void compactAgesAbove(uint32_t Cap);
  /// The refined MUST aging of Appendix B under LRU, on the MUST lanes
  /// of an access to \p Touched whose previous MUST age was \p VMustOld:
  /// u ages only when at least Age(u) shadow entries of \p May (already
  /// updated) other than u's own are at least as young as u. NYoung(u)
  /// comes from a histogram of the MAY ages, read only at ages below
  /// VMustOld, minus u's own shadow lane at the same slot: O(n + ages
  /// read) per access instead of the reference's O(n^2).
  void ageByShadow(const PackedAges &May, uint32_t Touched, uint32_t VMustOld,
                   uint32_t Assoc);
  /// True iff some entry is older here than in \p Prev, which has it too.
  bool grewFrom(const PackedAges &Prev) const;
  /// Removes every entry grewFrom() finds (the widening's eviction).
  void removeGrownFrom(const PackedAges &Prev);

  // -- Join and order kernels over two lists of one set.

  /// this = MUST join of A and B: key intersection, lane max. \p A may be
  /// this list itself (an in-place join).
  void assignMustJoin(const PackedAges &A, const PackedAges &B);
  /// this = MAY join of A and B: key union, lane min. \p A may be this.
  void assignMayJoin(const PackedAges &A, const PackedAges &B);
  /// Result bits of mustJoinOrder/mayJoinOrder.
  static constexpr unsigned JoinKeepsThis = 1;  ///< this ⊔ From == this.
  static constexpr unsigned JoinYieldsFrom = 2; ///< this ⊔ From == From.
  /// Where a MUST join (intersection, lane max) of this and From lands,
  /// in one pass: JoinKeepsThis iff From ⊑ this, JoinYieldsFrom iff
  /// this ⊑ From.
  unsigned mustJoinOrder(const PackedAges &From) const;
  /// The same for a MAY join (union, lane min).
  unsigned mayJoinOrder(const PackedAges &From) const;

  bool operator==(const PackedAges &RHS) const = default;

private:
  unsigned lanesPerWordLog() const { return 6u - LaneLog; }
  unsigned shiftOf(uint32_t Slot) const {
    return static_cast<unsigned>(
        (Slot & ((uint32_t(1) << lanesPerWordLog()) - 1)) << LaneLog);
  }
  uint64_t laneMask() const { return (uint64_t(1) << (1u << LaneLog)) - 1; }
  void installLaneBits(unsigned LaneBits);
  /// Drops zero words at both ends of the window; clears when none is
  /// left (canonical form).
  void trim();
  /// Two bits: 1 when some lane present in this list is absent from
  /// \p RHS or older there, 2 when some lane present in RHS is absent here
  /// or older here.
  unsigned notBelow(const PackedAges &RHS) const;

  /// Lane words of the window; word i holds slots of word BaseWord + i.
  std::vector<uint64_t> Words;
  uint32_t BaseWord = 0;
  /// log2(lane bits): 2/3/4 for nibble/byte/u16 lanes; 0 when empty.
  uint8_t LaneLog = 0;
};

/// The MUST/MAY lanes of one cache set, indexed by the slots of the set's
/// block universe (MemoryModel::universe()).
struct CacheSetPartition {
  uint32_t Set = 0;
  /// The universe the slots index, and this set's slot -> block table.
  const BlockUniverse *U = nullptr;
  const BlockAddr *Blocks = nullptr;
  PackedAges Must;
  PackedAges May;

  /// Iteration over one lane list decoded to AgedBlock, in increasing
  /// block order.
  class EntryRange {
  public:
    class const_iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = AgedBlock;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = AgedBlock;

      const_iterator() = default;
      const_iterator(PackedAges::const_iterator It, const BlockAddr *Blocks)
          : It(It), Blocks(Blocks) {}
      AgedBlock operator*() const {
        SlotAge E = *It;
        return {Blocks[E.Slot], E.Age};
      }
      const_iterator &operator++() {
        ++It;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator T = *this;
        ++It;
        return T;
      }
      bool operator==(const const_iterator &RHS) const {
        return It == RHS.It;
      }

    private:
      PackedAges::const_iterator It;
      const BlockAddr *Blocks = nullptr;
    };

    EntryRange(const PackedAges &Ages, const BlockAddr *Blocks)
        : Ages(&Ages), Blocks(Blocks) {}
    const_iterator begin() const { return {Ages->begin(), Blocks}; }
    const_iterator end() const { return {Ages->end(), Blocks}; }

  private:
    const PackedAges *Ages;
    const BlockAddr *Blocks;
  };

  EntryRange must() const { return {Must, Blocks}; }
  EntryRange may() const { return {May, Blocks}; }

  /// The universe is implied by the set within one analysis.
  bool operator==(const CacheSetPartition &RHS) const {
    return Set == RHS.Set && Must == RHS.Must && May == RHS.May;
  }
};

/// Abstract cache state: MUST ages plus optional MAY (shadow) ages.
class CacheAbsState {
  /// Copy-on-write node of one cache-set partition. RefCount and the
  /// lazy hash are plain: a node lives on one thread at a time
  /// (docs/PERFORMANCE.md, "Thread safety").
  struct PartNode {
    uint32_t RefCount = 1;
    CacheSetPartition Part;
    /// Lazily computed partition hash; 0 means "not computed yet" (a
    /// computed 0 is stored as 1). Reset by every mutation.
    mutable uint64_t Hash = 0;
  };

  /// Copy-on-write payload: set-sorted pointers to partition nodes, each
  /// holding one reference.
  struct Payload {
    uint32_t RefCount = 1;
    std::vector<PartNode *> Parts;
    /// Lazily computed by structuralHash() from the partition hashes; 0
    /// means "not computed yet". Reset by every mutation.
    mutable uint64_t Hash = 0;

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
      ++P->RefCount;
  }
  CacheAbsState(CacheAbsState &&RHS) noexcept
      : Bottom(RHS.Bottom), P(RHS.P) {
    RHS.P = nullptr;
    RHS.Bottom = false;
  }
  CacheAbsState &operator=(const CacheAbsState &RHS) {
    if (RHS.P)
      ++RHS.P->RefCount;
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
  bool leq(const CacheAbsState &RHS) const;

  /// Widening: this = \p Prev ∇ this. Any MUST entry whose age grew since
  /// \p Prev is evicted, jumping chains to the top of the per-block ladder
  /// (paper §6.3).
  void widenFrom(const CacheAbsState &Prev);

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
    if (--PL->RefCount == 0) {
      PL->dropParts();
      RecyclingArena<Payload>::releaseToActive(PL);
    }
  }
  static void releaseNode(PartNode *N) {
    if (--N->RefCount == 0)
      RecyclingArena<PartNode>::releaseToActive(N);
  }
  static PartNode *retain(PartNode *N) {
    ++N->RefCount;
    return N;
  }
  static constexpr size_t NoPart = static_cast<size_t>(-1);
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
  /// to each node, except that slot \p Idx (NoPart: none) takes \p Slot,
  /// or a copy of its old node when \p Slot is null.
  void unshareWith(size_t Idx, PartNode *Slot);
  /// Unshares partition \p Idx, and the payload when shared, and
  /// invalidates the partition's cached hash and the state's.
  CacheSetPartition &mutPart(size_t Idx);
  /// Puts \p N (whose reference the payload takes) in slot \p Idx,
  /// unsharing the payload when shared.
  void setPart(size_t Idx, PartNode *N);
  /// Find-or-insert the partition of \p L's set, unshared. The reference
  /// stays valid across later inserts: partitions live in their nodes,
  /// not in the pointer vector.
  CacheSetPartition &ensurePart(const BlockUniverse::Loc &L,
                                const BlockUniverse &U);
  /// Inserts every one of \p Blocks on the MAY side at age 1 (possibly
  /// youngest in its set).
  void insertMay(const std::vector<BlockAddr> &Blocks, const MemoryModel &MM);
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
  /// The universe the partitions index; null for the empty and bottom
  /// states, which track nothing.
  const BlockUniverse *universe() const {
    return P ? P->Parts.front()->Part.U : nullptr;
  }
  /// The MUST (or, with \p May, MAY) lane of \p Block, located through
  /// \p U: its age, or 0 when absent.
  uint16_t laneOf(const BlockUniverse &U, BlockAddr Block, bool May) const;

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
