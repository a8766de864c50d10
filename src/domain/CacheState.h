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
///    canonical form. Windows of up to two words live inline in the list,
///    and so in the partition node's own cache lines; wider ones go to
///    the heap. Two lists of one set line up word for word, so aging a
///    set is a masked SWAR add, joins are per-lane max/min under
///    zero-lane masks, containment is a subtract-and-test — 16/8/4
///    entries per instruction — and point reads and writes are O(1) lane
///    accesses. The Appendix B NYoung rule runs off a MAY-age histogram
///    read only below the touched block's old age (O(n + ages read) per
///    transfer, not O(n^2)).
///  - Copy-on-write at two levels. A state is a handle to a *payload*
///    holding set-sorted pointers to *partition nodes*, one per cache set,
///    and their set ids (stored only when the sets are not consecutive);
///    both carry an intrusive plain refcount. Copying a state is a
///    refcount increment. The first mutation of a shared payload
///    (`mut()`) copies only the node pointers, and each mutator unshares
///    only the partition of the set it writes (`mutPart()`), so the
///    engines' ubiquitous `Out = In; transfer(Out)` copies one cache set,
///    and states derived from one another share every partition neither
///    wrote (`sharesStorageWith`, `sharesPartitionWith`).
///  - Joins, `leq`, `widenFrom` and `operator==` walk the partitions of
///    two states paired by the set ids in the payloads, skip pairs held in
///    the same node, and load nodes only for pairs held in different ones.
///    A join first order-tests those pairs read-only: when nothing
///    changes it writes nothing; when the result is the source state
///    itself it shares the source's whole payload (one refcount bump,
///    cached hash included); otherwise it unshares once and writes only
///    the changed partitions, adopting the source's node wherever the
///    result for a set is the source's partition. So sharing survives
///    joins.
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
///    negative path and backs the engines' transfer memoization.
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

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
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
///
/// A window of up to two words lives inline, in the list itself (and so
/// in its partition node's own cache lines); wider windows go to the heap.
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
  std::span<const uint64_t> words() const {
    return {Words.data(), Words.size()};
  }

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
  /// The order test behind joins and `leq`, in one pass. Two bits: 1 when
  /// some lane present in this list is absent from \p RHS or older there,
  /// 2 when some lane present in RHS is absent here or older here. So a
  /// MUST join (intersection, lane max) keeps this list iff bit 1 is
  /// clear and yields RHS iff bit 2 is clear; a MAY join (union, lane
  /// min) the other way round.
  unsigned notBelow(const PackedAges &RHS) const;

  bool operator==(const PackedAges &RHS) const = default;

private:
  /// The window's words: a small-buffer array with two words inline and
  /// the heap beyond. `data()` is a plain pointer load — it points at the
  /// inline buffer or the heap block, so no access branches on where the
  /// words live. A heap block, once allocated, is kept for later windows
  /// (recycled partition nodes reuse it), and only grows.
  class LaneWords {
  public:
    static constexpr uint32_t InlineWords = 2;

    LaneWords() = default;
    LaneWords(const LaneWords &RHS) { assign(RHS); }
    LaneWords(LaneWords &&RHS) noexcept { steal(RHS); }
    LaneWords &operator=(const LaneWords &RHS) {
      if (this != &RHS)
        assign(RHS);
      return *this;
    }
    LaneWords &operator=(LaneWords &&RHS) noexcept {
      if (this == &RHS)
        return *this;
      if (RHS.Data == RHS.Inline) {
        assign(RHS); // Fits: every buffer holds the inline words' count.
      } else {
        freeHeap();
        steal(RHS);
      }
      return *this;
    }
    ~LaneWords() { freeHeap(); }

    const uint64_t *data() const { return Data; }
    size_t size() const { return Size; }
    bool empty() const { return Size == 0; }
    uint64_t &operator[](size_t I) { return Data[I]; }
    uint64_t operator[](size_t I) const { return Data[I]; }
    uint64_t *begin() { return Data; }
    uint64_t *end() { return Data + Size; }
    const uint64_t *begin() const { return Data; }
    const uint64_t *end() const { return Data + Size; }

    /// Empties the array; the buffer stays.
    void clear() { Size = 0; }
    /// Resizes to \p N words, zero-filling the new ones.
    void resize(size_t N) {
      if (N > Cap)
        grow(N);
      for (size_t I = Size; I < N; ++I)
        Data[I] = 0;
      Size = static_cast<uint32_t>(N);
    }
    /// Drops the first \p N words.
    void eraseFront(size_t N);
    /// Inserts \p N zero words at the front.
    void insertFrontZeros(size_t N);

    bool operator==(const LaneWords &RHS) const {
      return Size == RHS.Size && std::equal(begin(), end(), RHS.begin());
    }

  private:
    /// Moves the words to a heap block of at least \p N words.
    void grow(size_t N);
    void assign(const LaneWords &RHS) {
      Size = 0; // Nothing to carry over when growing.
      if (RHS.Size > Cap)
        grow(RHS.Size);
      std::copy(RHS.begin(), RHS.end(), Data);
      Size = RHS.Size;
    }
    /// Takes \p RHS's words, its heap block when it has one; RHS is left
    /// empty on its inline buffer. Only for a receiver holding no heap
    /// block.
    void steal(LaneWords &RHS) {
      Size = RHS.Size;
      if (RHS.Data == RHS.Inline) {
        Data = Inline;
        Cap = InlineWords;
        std::copy(RHS.Inline, RHS.Inline + InlineWords, Inline);
      } else {
        Data = RHS.Data;
        Cap = RHS.Cap;
        RHS.Data = RHS.Inline;
        RHS.Cap = InlineWords;
      }
      RHS.Size = 0;
    }
    void freeHeap() {
      if (Data != Inline)
        delete[] Data;
    }

    uint64_t *Data = Inline;
    uint32_t Size = 0;
    uint32_t Cap = InlineWords;
    uint64_t Inline[InlineWords] = {};
  };

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

  /// Lane words of the window; word i holds slots of word BaseWord + i.
  LaneWords Words;
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
  /// holding one reference, and the partitions' set ids, so that walks
  /// pair two states' partitions by set without loading the nodes.
  struct Payload {
    uint32_t RefCount = 1;
    /// Set of Parts[0] while the sets are consecutive.
    uint32_t FirstSet = 0;
    std::vector<PartNode *> Parts;
    /// Set ids of Parts, stored exactly when they are not consecutive;
    /// when empty, Parts[I] holds set FirstSet + I. States usually hold
    /// every set of the cache, so most payloads store no ids.
    std::vector<uint32_t> Sets;
    /// Lazily computed by structuralHash() from the partition hashes; 0
    /// means "not computed yet". Reset by every mutation.
    mutable uint64_t Hash = 0;

    ~Payload() { dropParts(); }

    uint32_t setAt(size_t I) const {
      return Sets.empty() ? FirstSet + static_cast<uint32_t>(I) : Sets[I];
    }
    /// Index of the first partition whose set is not below \p Set: O(1)
    /// while the sets are consecutive.
    size_t lowerBound(uint32_t Set) const;
    /// Inserts \p N, holding set \p Set, at index \p Pos of the set order;
    /// the payload takes the node's reference.
    void insertPart(size_t Pos, uint32_t Set, PartNode *N);
    /// Releases and removes every partition with no entries.
    void dropEmptyParts();
    /// Empties Sets when the ids are consecutive, so that Sets is empty
    /// exactly when they are.
    void dropConsecutiveSets();
    /// Releases every partition reference and empties Parts, keeping
    /// the vectors' capacity for the next user of a recycled payload.
    void dropParts() {
      for (PartNode *N : Parts)
        releaseNode(N);
      Parts.clear();
      Sets.clear();
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

  /// this = this ⊔ \p From. Returns true iff this changed. Shared
  /// storage is "no change" without a walk. Otherwise one read-only pass
  /// pairs the partitions by set and order-tests only the pairs held in
  /// different nodes. When nothing changes, nothing is written. When the
  /// result is \p From itself (the same sets, and every differing pair
  /// yields From's partition), this releases its payload and shares
  /// From's, cached hash included. Otherwise it unshares once and writes
  /// only the changed partitions, adopting From's node where the pair
  /// yields it. (Equal hashes cannot prove ⊑, so no hash test is made.)
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
  /// One partition-level write of a join, found by joinInto's read-only
  /// pass: our partition \p I and their partition \p J.
  struct JoinStep {
    enum Kind : uint8_t {
      ClearMust, ///< Our set only: the MUST intersection is empty.
      Insert,    ///< Their set only: insert their MAY side before ours I.
      Adopt,     ///< A pair whose join is their partition: share it.
      Join,      ///< A pair whose join is neither side: build it.
    };
    uint32_t I, J;
    Kind K;
  };
  /// joinInto for two non-bottom states in distinct payloads: the walk,
  /// kept apart so that the shortcuts before it stay cheap.
  bool joinDistinct(const CacheAbsState &From, bool UseShadow);
  /// A node holding step \p K's result for our node \p Ours and their
  /// node \p Theirs (null for ClearMust): theirs, retained, for Adopt,
  /// else a fresh node.
  static PartNode *joinedNode(JoinStep::Kind K, const PartNode &Ours,
                              PartNode *Theirs, bool UseShadow);
  /// Applies \p Steps (in walk order) to this non-bottom state, against
  /// the partitions of \p From's payload \p Src: unshares the payload
  /// once, folding in the first write, then writes only the stepped
  /// partitions.
  void applyJoinSteps(const JoinStep *Steps, size_t NSteps,
                      const Payload &Src, bool UseShadow);
  /// Drops empty partitions; releases the payload when nothing is left so
  /// the empty state has a unique representation.
  void normalize();

  /// The payload the walks read: an empty one for the empty and bottom
  /// states.
  const Payload &payload() const { return P ? *P : noPayload(); }
  static const Payload &noPayload();
  /// The partition nodes (empty for the empty and bottom states).
  const std::vector<PartNode *> &nodes() const { return payload().Parts; }
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
