//===- packed_state_test.cpp - Packed vs reference state differential -----===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The representation-differential property harness for the packed SWAR
/// cache states (docs/PERFORMANCE.md, "Packed age lanes"). It drives the
/// packed CacheAbsState and the retained AgedBlock-vector reference
/// implementation (domain/RefCacheState.h) through identical randomized
/// operation scripts — transfers (known, unknown-index, call effects),
/// joins, widenings, containment queries — and asserts op-by-op that both
/// compute the same abstract state, for every replacement policy and a
/// geometry matrix that crosses the nibble/byte lane-width cutover.
/// Failing scripts are shrunk to a minimal failing op sequence before
/// reporting.
///
/// A second battery checks the lattice laws machine-checkable at this
/// level (docs/DOMAINS.md): join commutativity/associativity/idempotence,
/// x ⊑ x ⊔ y, the containment partial order (reflexive, antisymmetric on
/// the MUST projection, transitive), monotonicity of the known-block
/// transfer, and stabilization of widening chains.
///
//===----------------------------------------------------------------------===//

#include "domain/CacheState.h"
#include "reference/RefCacheState.h"
#include "memory/MemoryModel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

using namespace specai;

namespace {

/// Deterministic splitmix64 RNG: the harness must replay byte-identically
/// from a seed, so failures shrink and reproduce.
struct Rng {
  uint64_t X;
  explicit Rng(uint64_t Seed) : X(Seed) {}
  uint64_t next() {
    X += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

/// One differential operation over a two-register (packed, reference)
/// machine. Join/widen act across the registers, everything else on one.
struct Op {
  enum Kind : uint8_t {
    AccessKnown,   // R[Reg].accessBlock(block A)
    AccessUnknown, // R[Reg].accessUnknown(var A, instance B)
    CallEffect,    // R[Reg].applyCallEffect(derived from seed A)
    Join,          // R[Reg] ⊔= R[1-Reg]
    Widen,         // R[Reg].widenFrom(R[1-Reg])
    Reset,         // R[Reg] = empty or bottom (A & 1)
  };
  Kind K;
  uint8_t Reg;
  uint64_t A = 0, B = 0;
};

const char *opName(Op::Kind K) {
  switch (K) {
  case Op::AccessKnown:
    return "access";
  case Op::AccessUnknown:
    return "unknown";
  case Op::CallEffect:
    return "call";
  case Op::Join:
    return "join";
  case Op::Widen:
    return "widen";
  case Op::Reset:
    return "reset";
  }
  return "?";
}

std::string renderScript(const std::vector<Op> &Script) {
  std::ostringstream OS;
  for (const Op &O : Script)
    OS << "  " << opName(O.K) << " reg=" << unsigned(O.Reg) << " A=" << O.A
       << " B=" << O.B << "\n";
  return OS.str();
}

/// Test fixture: a program with a few scalars and arrays over one cache
/// geometry, plus the op interpreter and comparators.
struct DiffHarness {
  Program P;
  CacheConfig Config;
  std::unique_ptr<MemoryModel> MM;
  bool UseShadow;
  uint64_t Checks = 0;

  /// \p LinesPerUnit scales the array sizes: geometries with many sets
  /// need more lines for accesses to share sets.
  DiffHarness(CacheConfig Config, bool UseShadow, unsigned LinesPerUnit = 1)
      : Config(Config), UseShadow(UseShadow) {
    // A handful of multi-line arrays and scalars so known accesses,
    // unknown-index accesses, and call effects all have blocks to touch.
    for (unsigned I = 0; I != 6; ++I) {
      MemVar Var;
      Var.Name = "a" + std::to_string(I);
      Var.ElemSize = 8;
      // 1..3 units of elements (1 line each at 8B).
      Var.NumElements = ((I % 3) + 1) * LinesPerUnit;
      P.Vars.push_back(Var);
    }
    BasicBlock BB;
    Instruction Ret;
    Ret.Op = Opcode::Ret;
    BB.Insts.push_back(Ret);
    P.Blocks.push_back(BB);
    MM = std::make_unique<MemoryModel>(P, Config);
  }

  BlockAddr randomBlock(uint64_t Seed) const {
    Rng R(Seed);
    VarId V = static_cast<VarId>(R.below(P.Vars.size()));
    uint64_t Elem = R.below(P.Vars[V].NumElements);
    return MM->blockOf(V, Elem);
  }

  /// Compares the packed and reference states structurally; counts one
  /// differential check per comparison site.
  bool agree(const CacheAbsState &S, const RefCacheState &R,
             std::string *Why = nullptr) {
    ++Checks;
    if (S.isBottom() != R.isBottom()) {
      if (Why)
        *Why = "bottom flag";
      return false;
    }
    if (S.mustEntries() != R.mustEntries()) {
      if (Why)
        *Why = "mustEntries";
      return false;
    }
    if (S.mayEntries() != R.mayEntries()) {
      if (Why)
        *Why = "mayEntries";
      return false;
    }
    // Spot-check the point queries over every tracked and one untracked
    // block — they decode straight from the packed words.
    uint32_t Assoc = Config.Associativity;
    for (const AgedBlock &E : R.mustEntries()) {
      ++Checks;
      if (S.mustAge(E.Block, Assoc) != R.mustAge(E.Block, Assoc) ||
          S.isMustCached(E.Block) != R.isMustCached(E.Block)) {
        if (Why)
          *Why = "mustAge";
        return false;
      }
    }
    for (const AgedBlock &E : R.mayEntries()) {
      ++Checks;
      if (S.mayAge(E.Block, Assoc) != R.mayAge(E.Block, Assoc)) {
        if (Why)
          *Why = "mayAge";
        return false;
      }
    }
    ++Checks;
    BlockAddr Absent = MM->blockOf(0, 0) + 100000;
    if (S.mustAge(Absent, Assoc) != R.mustAge(Absent, Assoc)) {
      if (Why)
        *Why = "absent block age";
      return false;
    }
    return true;
  }

  /// Derives a deterministic call effect from a seed.
  void callEffectOf(uint64_t Seed, std::vector<uint32_t> &SetPressure,
                    std::vector<AgedBlock> &ExitMust,
                    std::vector<BlockAddr> &MayBlocks, bool &InsertExitMust,
                    bool &ApplyPressure) const {
    Rng R(Seed * 0x9E3779B97F4A7C15ULL + 1);
    SetPressure.assign(Config.numSets(), 0);
    for (uint32_t &K : SetPressure)
      K = static_cast<uint32_t>(R.below(3));
    unsigned NExit = static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I != NExit; ++I)
      ExitMust.push_back(
          AgedBlock{randomBlock(R.next()),
                    static_cast<uint16_t>(1 + R.below(Config.mustAgeCap()))});
    std::sort(ExitMust.begin(), ExitMust.end(),
              [](const AgedBlock &A, const AgedBlock &B) {
                return A.Block < B.Block;
              });
    unsigned NMay = static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I != NMay; ++I)
      MayBlocks.push_back(randomBlock(R.next()));
    // The pipeline's callee summaries list every line the callee may
    // touch, which covers its exit-MUST blocks; keeping that invariant
    // (must ⊆ may) here matters because the FIFO transfer's definite-miss
    // refinement is only monotone on may-consistent states.
    for (const AgedBlock &E : ExitMust)
      MayBlocks.push_back(E.Block);
    std::sort(MayBlocks.begin(), MayBlocks.end());
    MayBlocks.erase(std::unique(MayBlocks.begin(), MayBlocks.end()),
                    MayBlocks.end());
    InsertExitMust = R.below(2) != 0;
    ApplyPressure = R.below(2) != 0;
  }

  /// Applies one op to both representations of both registers. Transfers
  /// and widenings of a bottom register are skipped: the domain requires
  /// a reachable state there, and the engines never transfer bottom.
  void apply(const Op &O, CacheAbsState S[2], RefCacheState R[2]) const {
    unsigned Reg = O.Reg & 1, Other = Reg ^ 1;
    if (S[Reg].isBottom() && O.K != Op::Join && O.K != Op::Reset)
      return;
    switch (O.K) {
    case Op::AccessKnown: {
      BlockAddr B = randomBlock(O.A);
      S[Reg].accessBlock(B, *MM, UseShadow);
      R[Reg].accessBlock(B, *MM, UseShadow);
      return;
    }
    case Op::AccessUnknown: {
      VarId V = static_cast<VarId>(O.A % P.Vars.size());
      S[Reg].accessUnknown(V, O.B, *MM, UseShadow);
      R[Reg].accessUnknown(V, O.B, *MM, UseShadow);
      return;
    }
    case Op::CallEffect: {
      std::vector<uint32_t> SetPressure;
      std::vector<AgedBlock> ExitMust;
      std::vector<BlockAddr> MayBlocks;
      bool InsertExitMust, ApplyPressure;
      callEffectOf(O.A, SetPressure, ExitMust, MayBlocks, InsertExitMust,
                   ApplyPressure);
      S[Reg].applyCallEffect(SetPressure, ExitMust, MayBlocks, *MM,
                             UseShadow, InsertExitMust, ApplyPressure);
      R[Reg].applyCallEffect(SetPressure, ExitMust, MayBlocks, *MM,
                             UseShadow, InsertExitMust, ApplyPressure);
      return;
    }
    case Op::Join:
      S[Reg].joinInto(S[Other], UseShadow);
      R[Reg].joinInto(R[Other], UseShadow);
      return;
    case Op::Widen:
      S[Reg].widenFrom(S[Other], Config.Associativity);
      R[Reg].widenFrom(R[Other], Config.Associativity);
      return;
    case Op::Reset:
      S[Reg] = (O.A & 1) ? CacheAbsState::bottom() : CacheAbsState::empty();
      R[Reg] = (O.A & 1) ? RefCacheState::bottom() : RefCacheState::empty();
      return;
    }
  }

  /// Runs a script from scratch; returns false (and the failing op index
  /// plus reason) on the first disagreement — including a containment
  /// differential between the two registers after every op.
  bool runScript(const std::vector<Op> &Script, size_t *FailAt = nullptr,
                 std::string *Why = nullptr) {
    CacheAbsState S[2] = {CacheAbsState::empty(), CacheAbsState::empty()};
    RefCacheState R[2] = {RefCacheState::empty(), RefCacheState::empty()};
    for (size_t I = 0; I != Script.size(); ++I) {
      apply(Script[I], S, R);
      for (unsigned Reg = 0; Reg != 2; ++Reg)
        if (!agree(S[Reg], R[Reg], Why)) {
          if (FailAt)
            *FailAt = I;
          return false;
        }
      // Containment must agree between representations in all four
      // directions (it is the fixpoint-termination predicate).
      ++Checks;
      uint32_t Assoc = Config.Associativity;
      if (S[0].leq(S[1], Assoc) != R[0].leq(R[1], Assoc) ||
          S[1].leq(S[0], Assoc) != R[1].leq(R[0], Assoc)) {
        if (FailAt)
          *FailAt = I;
        if (Why)
          *Why = "leq differential";
        return false;
      }
    }
    return true;
  }

  /// Greedy delta-debugging: drop ops one at a time while the script
  /// still fails, yielding a minimal (1-minimal) failing sequence.
  std::vector<Op> shrink(std::vector<Op> Script) {
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t I = 0; I < Script.size(); ++I) {
        std::vector<Op> Candidate = Script;
        Candidate.erase(Candidate.begin() + static_cast<ptrdiff_t>(I));
        if (!runScript(Candidate)) {
          Script = std::move(Candidate);
          Progress = true;
          break;
        }
      }
    }
    return Script;
  }

  Op randomOp(Rng &R) const {
    // Weighted: transfers dominate real workloads.
    static constexpr Op::Kind Kinds[] = {
        Op::AccessKnown, Op::AccessKnown, Op::AccessKnown,
        Op::AccessUnknown, Op::CallEffect, Op::Join,
        Op::Join,        Op::Widen,       Op::Reset};
    Op O;
    O.K = Kinds[R.below(sizeof(Kinds) / sizeof(Kinds[0]))];
    O.Reg = static_cast<uint8_t>(R.below(2));
    O.A = R.next();
    O.B = R.below(4); // Instance ordinals stay small and collide often.
    return O;
  }

  /// Builds a random state in register 0 by running a fresh random script
  /// (both representations), for the lattice-law batteries.
  void randomState(Rng &R, unsigned Len, CacheAbsState &SOut,
                   RefCacheState &ROut) {
    CacheAbsState S[2] = {CacheAbsState::empty(), CacheAbsState::empty()};
    RefCacheState Ref[2] = {RefCacheState::empty(), RefCacheState::empty()};
    for (unsigned I = 0; I != Len; ++I) {
      Op O = randomOp(R);
      if (O.K == Op::Reset)
        O.K = Op::AccessKnown; // Keep law states non-trivial.
      apply(O, S, Ref);
    }
    SOut = S[0];
    ROut = Ref[0];
  }
};

struct GeomCase {
  CacheConfig Config;
  const char *Name;
  unsigned LinesPerUnit = 1;
};

std::vector<GeomCase> geometriesFor(ReplacementPolicy Policy) {
  std::vector<GeomCase> Out;
  auto Add = [&](CacheConfig C, const char *Name, unsigned LinesPerUnit) {
    C.Policy = Policy;
    if (C.isValid())
      Out.push_back({C, Name, LinesPerUnit});
  };
  // Nibble lanes (cap <= 14), the assoc=16 byte cutover, and set-
  // associative shapes with several partitions. 8-byte lines make every
  // element its own block. The 64-set, 8-way shape is the stress
  // benchmark's: states there hold many partitions, so joins between the
  // registers meet shared partition nodes (skipped) and partitions the
  // source already covers (adopted).
  Add(CacheConfig::fullyAssociative(8, 8), "fa8", 1);
  Add(CacheConfig::setAssociative(16, 4, 8), "sa16w4", 1);
  Add(CacheConfig::fullyAssociative(16, 8), "fa16", 1);
  Add(CacheConfig::setAssociative(32, 16, 8), "sa32w16", 1);
  Add(CacheConfig::setAssociative(512, 8, 8), "sa512w8", 16);
  return Out;
}

class PackedStateDiff
    : public ::testing::TestWithParam<std::tuple<ReplacementPolicy, bool>> {};

TEST_P(PackedStateDiff, RandomScriptsAgreeOpByOp) {
  auto [Policy, Shadow] = GetParam();
  uint64_t TotalChecks = 0;
  for (const GeomCase &G : geometriesFor(Policy)) {
    DiffHarness H(G.Config, Shadow, G.LinesPerUnit);
    Rng Seeds(0xC0FFEE0 + static_cast<uint64_t>(Policy) * 7919 + Shadow);
    // Scripts per geometry x ops per script x checks per op lands the
    // differential well past the 10k-per-policy floor.
    for (unsigned Script = 0; Script != 160; ++Script) {
      Rng R(Seeds.next());
      std::vector<Op> Ops;
      unsigned Len = 6 + static_cast<unsigned>(R.below(18));
      for (unsigned I = 0; I != Len; ++I)
        Ops.push_back(H.randomOp(R));
      size_t FailAt = 0;
      std::string Why;
      if (!H.runScript(Ops, &FailAt, &Why)) {
        std::vector<Op> Minimal = H.shrink(Ops);
        FAIL() << "packed/reference disagreement (" << Why << ") under "
               << G.Name << " policy=" << replacementPolicyName(Policy)
               << " shadow=" << Shadow << " at op " << FailAt
               << "\nminimal failing script (" << Minimal.size()
               << " ops):\n"
               << renderScript(Minimal);
      }
    }
    TotalChecks += H.Checks;
  }
  // The ISSUE's floor: >= 10k differential checks per policy, zero
  // disagreements (a failure above would have aborted already).
  EXPECT_GE(TotalChecks, 10000u);
}

TEST_P(PackedStateDiff, LatticeLaws) {
  auto [Policy, Shadow] = GetParam();
  for (const GeomCase &G : geometriesFor(Policy)) {
    DiffHarness H(G.Config, Shadow, G.LinesPerUnit);
    uint32_t Assoc = G.Config.Associativity;
    Rng R(0xAB5EED + static_cast<uint64_t>(Policy) * 131 + Shadow);
    for (unsigned Round = 0; Round != 60; ++Round) {
      CacheAbsState A, B, C;
      RefCacheState Ra, Rb, Rc;
      H.randomState(R, 8, A, Ra);
      H.randomState(R, 8, B, Rb);
      H.randomState(R, 8, C, Rc);

      // Join idempotence: A ⊔ A == A.
      CacheAbsState AA = A;
      AA.joinInto(A, Shadow);
      EXPECT_EQ(AA.mustEntries(), A.mustEntries());
      EXPECT_EQ(AA.mayEntries(), A.mayEntries());

      // Commutativity: A ⊔ B == B ⊔ A.
      CacheAbsState AB = A, BA = B;
      AB.joinInto(B, Shadow);
      BA.joinInto(A, Shadow);
      EXPECT_EQ(AB.mustEntries(), BA.mustEntries());
      EXPECT_EQ(AB.mayEntries(), BA.mayEntries());

      // Associativity: (A ⊔ B) ⊔ C == A ⊔ (B ⊔ C).
      CacheAbsState L = AB, BC = B, Rj = A;
      L.joinInto(C, Shadow);
      BC.joinInto(C, Shadow);
      Rj.joinInto(BC, Shadow);
      EXPECT_EQ(L.mustEntries(), Rj.mustEntries());
      EXPECT_EQ(L.mayEntries(), Rj.mayEntries());

      // x ⊑ x ⊔ y, and ⊑ is reflexive.
      EXPECT_TRUE(A.leq(AB, Assoc));
      EXPECT_TRUE(B.leq(AB, Assoc));
      EXPECT_TRUE(A.leq(A, Assoc));

      // Antisymmetry on the MUST projection ⊑ orders.
      if (A.leq(B, Assoc) && B.leq(A, Assoc)) {
        EXPECT_EQ(A.mustEntries(), B.mustEntries());
      }

      // Transitivity.
      if (A.leq(B, Assoc) && B.leq(C, Assoc)) {
        EXPECT_TRUE(A.leq(C, Assoc));
      }

      // Monotone known-block transfer: A ⊑ A ⊔ B is preserved by
      // accessing the same block on both sides.
      CacheAbsState TA = A, TAB = AB;
      BlockAddr Blk = H.randomBlock(R.next());
      TA.accessBlock(Blk, *H.MM, Shadow);
      TAB.accessBlock(Blk, *H.MM, Shadow);
      EXPECT_TRUE(TA.leq(TAB, Assoc))
          << "transfer not monotone under " << G.Name << " policy="
          << replacementPolicyName(Policy) << " shadow=" << Shadow;

      // Widening stabilizes: the widened ascending chain A, A⊔B, ...
      // reaches a fixpoint in bounded steps.
      CacheAbsState W = A;
      unsigned Steps = 0;
      for (; Steps != 64; ++Steps) {
        CacheAbsState Prev = W;
        bool Changed = W.joinInto(B, Shadow);
        if (Changed)
          W.widenFrom(Prev, Assoc);
        CacheAbsState Again = W;
        if (!Again.joinInto(B, Shadow))
          break;
      }
      EXPECT_LT(Steps, 64u) << "widening chain failed to stabilize";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PackedStateDiff,
    ::testing::Combine(::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Plru),
                       ::testing::Bool()),
    [](const auto &Info) {
      std::string Name =
          replacementPolicyName(std::get<0>(Info.param));
      Name += std::get<1>(Info.param) ? "_shadow" : "_noshadow";
      return Name;
    });

/// The arena must be transparent: running under a CacheStateArenaScope
/// recycles payloads but cannot change any value the harness observes.
TEST(PackedStateArena, ScriptsAgreeUnderArenaScope) {
  CacheConfig Config = CacheConfig::setAssociative(16, 4, 8);
  DiffHarness H(Config, /*UseShadow=*/true);
  CacheStateArenaScope Arena;
  Rng Seeds(0xA5E11A);
  for (unsigned Script = 0; Script != 40; ++Script) {
    Rng R(Seeds.next());
    std::vector<Op> Ops;
    for (unsigned I = 0; I != 12; ++I)
      Ops.push_back(H.randomOp(R));
    size_t FailAt = 0;
    std::string Why;
    ASSERT_TRUE(H.runScript(Ops, &FailAt, &Why))
        << Why << " at op " << FailAt << "\n"
        << renderScript(Ops);
  }
}

/// packedLaneBits picks the narrowest lane that fits cap+1 (the eviction
/// sentinel): nibble through cap 14, byte through 254, u16 beyond.
TEST(PackedStateLanes, WidthCutovers) {
  EXPECT_EQ(CacheAbsState::packedLaneBits(1), 4u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(14), 4u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(15), 8u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(16), 8u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(254), 8u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(255), 16u);
  EXPECT_EQ(CacheAbsState::packedLaneBits(65534), 16u);
}

} // namespace
