//===- CacheSim.h - Concrete multi-policy cache simulator -------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete set-associative cache simulator keyed by global line (block)
/// addresses, with pluggable replacement policies:
///
///  - LRU: the paper's policy (Alpha 21264-style data cache). Each set
///    keeps its lines in recency order; a hit promotes to MRU.
///  - FIFO: each set keeps its lines in *insertion* order; a hit changes
///    nothing, a miss inserts at the front and evicts the oldest line.
///  - Tree-PLRU: each set keeps one line per way plus a binary tree of
///    direction bits; every access (hit or fill) points the bits on the
///    accessed way's root path away from it, and a miss in a full set
///    evicts the way the bits lead to. Requires power-of-two
///    associativity.
///
/// The paper's configuration — 512 lines of 64 bytes, fully associative,
/// LRU — is the default. The simulator is the ground truth against which
/// the abstract analysis is validated: every access the MUST analysis
/// calls a hit must hit here, in every execution, speculative windows
/// included. Per-policy abstract lattices are documented in
/// docs/DOMAINS.md; the policy-aware `ageOf` below is the concrete measure
/// the differential oracle compares abstract age bounds against.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_CACHE_CACHESIM_H
#define SPECAI_CACHE_CACHESIM_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace specai {

/// A global cache line (block) address: byte address / line size.
using BlockAddr = uint64_t;

/// Replacement policy of the modeled data cache.
enum class ReplacementPolicy : uint8_t {
  Lru,  ///< True least-recently-used (the paper's policy).
  Fifo, ///< First-in first-out: hits do not refresh a line's position.
  Plru, ///< Tree-based pseudo-LRU (power-of-two associativity only).
};

/// Short lowercase policy name: "lru", "fifo", "plru".
const char *replacementPolicyName(ReplacementPolicy Policy);

/// Parses "lru" / "fifo" / "plru"; false on anything else.
bool parseReplacementPolicy(const std::string &Name,
                            ReplacementPolicy &PolicyOut);

/// Geometry of the modeled data cache.
struct CacheConfig {
  /// Bytes per line.
  uint32_t LineSize = 64;
  /// Total number of lines.
  uint32_t NumLines = 512;
  /// Ways per set; NumLines means fully associative.
  uint32_t Associativity = 512;
  /// Replacement policy; LRU is the paper's (and the project's) default.
  ReplacementPolicy Policy = ReplacementPolicy::Lru;

  uint32_t numSets() const {
    return Associativity == 0 ? 1 : NumLines / Associativity;
  }
  uint32_t setOf(BlockAddr Block) const { return Block % numSets(); }
  uint64_t totalBytes() const {
    return static_cast<uint64_t>(LineSize) * NumLines;
  }

  /// Upper bound on the abstract MUST age a block can hold while still
  /// provably resident (docs/DOMAINS.md): the associativity for LRU and
  /// FIFO, and the pessimistic tree bound log2(ways) + 1 for PLRU.
  uint32_t mustAgeCap() const;

  /// The paper's evaluation cache: 512 lines x 64 B, fully associative, LRU
  /// (32 KB).
  static CacheConfig paperDefault() { return CacheConfig{64, 512, 512}; }
  static CacheConfig fullyAssociative(uint32_t Lines, uint32_t LineSize = 64) {
    return CacheConfig{LineSize, Lines, Lines};
  }
  static CacheConfig setAssociative(uint32_t Lines, uint32_t Ways,
                                    uint32_t LineSize = 64) {
    return CacheConfig{LineSize, Lines, Ways};
  }
  /// This geometry under another replacement policy.
  CacheConfig withPolicy(ReplacementPolicy P) const {
    CacheConfig C = *this;
    C.Policy = P;
    return C;
  }

  /// True when the geometry is consistent (associativity divides lines;
  /// tree-PLRU additionally needs power-of-two associativity).
  bool isValid() const {
    if (LineSize == 0 || NumLines == 0 || Associativity == 0 ||
        Associativity > NumLines || NumLines % Associativity != 0)
      return false;
    if (Policy == ReplacementPolicy::Plru &&
        (Associativity & (Associativity - 1)) != 0)
      return false;
    return true;
  }
};

/// Concrete cache simulator, dispatching on CacheConfig::Policy.
class CacheSim {
public:
  explicit CacheSim(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  /// Touches \p Block: returns true on hit. On miss the block is inserted
  /// and the policy's victim way of its set is evicted if the set is full.
  bool access(BlockAddr Block);

  /// True if \p Block is currently resident.
  bool contains(BlockAddr Block) const;

  /// Policy age of \p Block within its set, the concrete measure the
  /// abstract MUST bounds over-approximate (docs/DOMAINS.md); 0 if absent.
  ///  - LRU: recency position, 1 = most recently used.
  ///  - FIFO: insertion position, 1 = most recently inserted (hits do not
  ///    move a line).
  ///  - PLRU: 1 + the number of tree bits on the block's root path that
  ///    point toward it; 1 = fully protected (just accessed),
  ///    log2(ways) + 1 = the next miss's victim.
  uint32_t ageOf(BlockAddr Block) const;

  /// Removes every line.
  void flush();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  void resetStats() {
    Hits = 0;
    Misses = 0;
  }

  /// Number of resident lines across all sets.
  size_t residentCount() const;

  /// Resident blocks of one set in age order (youngest first; PLRU ties
  /// broken by block address for determinism).
  std::vector<BlockAddr> setContents(uint32_t Set) const;

private:
  bool accessOrdered(BlockAddr Block, bool PromoteOnHit);
  bool accessPlru(BlockAddr Block);
  uint32_t plruAgeOf(uint32_t Set, uint32_t Way) const;
  /// Points every tree bit on \p Way's root path away from it.
  void plruTouch(uint32_t Set, uint32_t Way);
  /// Way the tree bits currently lead to.
  uint32_t plruVictim(uint32_t Set) const;

  CacheConfig Config;
  /// LRU/FIFO: per set, blocks in recency (LRU) or insertion (FIFO)
  /// order, youngest at front.
  std::vector<std::vector<BlockAddr>> Sets;
  /// PLRU: per set, one slot per way (InvalidWay marks an empty slot) ...
  std::vector<std::vector<BlockAddr>> PlruWays;
  /// ... and Associativity - 1 heap-ordered tree bits (bit 0 = root;
  /// children of node i are 2i+1 / 2i+2; value 0 = victim walk goes left).
  std::vector<std::vector<uint8_t>> PlruBits;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace specai

#endif // SPECAI_CACHE_CACHESIM_H
