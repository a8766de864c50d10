//===- fuzz_regression_test.cpp - Pinned-seed fuzz corpus -----------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// A pinned corpus of 20 generated programs with golden digests over both
/// the generated source and the full per-node analysis results (states,
/// classification, counters) for two far-apart configurations:
/// just-in-time/dynamic (the paper's default) and no-merge/fixed (the
/// finest/most expensive corner). Any drift — generator, frontend,
/// lowering, engine, domain — fails deterministically here with the seed
/// that moved. Three more corpora ride on the same seeds: per-policy
/// cache-state digests (FIFO/PLRU), per-policy verdict-level digests
/// (WCET + leak reports), and a Summarize-lowering module corpus over
/// deep-mode programs (helper functions + rolled widened loops), digested
/// across the entry report, every callee report, and every call summary.
///
/// Each (corpus, policy, seed) is its own CTest case: one analysis per
/// case keeps every case a few milliseconds, so the suite parallelizes
/// and the `unit` label's wall clock stays flat as corpora accumulate.
///
/// When a change is *intended* to move these values (e.g. an engine
/// precision or soundness fix), regenerate the table: build the tree, then
/// compile the snippet in the comment at the bottom of this file against
/// libspecai and paste its output. Always rerun `specai-fuzz --seed 1
/// --programs 200` first: drift may be a soundness regression, and the
/// differential oracle is the authority on that.
///
//===----------------------------------------------------------------------===//

#include "analysis/SideChannel.h"
#include "analysis/Wcet.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/StateDigest.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

const char *policyTag(ReplacementPolicy P) {
  switch (P) {
  case ReplacementPolicy::Lru:
    return "lru";
  case ReplacementPolicy::Fifo:
    return "fifo";
  case ReplacementPolicy::Plru:
    return "plru";
  }
  return "?";
}

struct GoldenEntry {
  uint64_t Seed;
  uint64_t SourceDigest;
  uint64_t JitDynamicDigest; // just-in-time / dynamic bounding
  uint64_t NoMergeFixedDigest;
};

// Regenerate with the snippet at the bottom of this file.
const GoldenEntry Corpus[] = {
    {1, 0x5f8d2dd8132abe74ULL, 0xe15db37ae82bae0fULL, 0xfe96c7b8ff727d1fULL},
    {2, 0x2d6af89846d90999ULL, 0x2ba970b2d8ed8fb0ULL, 0x2ba970b2d8ed8fb0ULL},
    {3, 0xba3da4bad5cd2c84ULL, 0xcd8f54a432eeb65dULL, 0xb544658f5d666683ULL},
    {4, 0x95e19d83083d5fd6ULL, 0xac855f3ffffb286aULL, 0x4cceaeda736cb0cbULL},
    {5, 0xb5c8f5a8274c94daULL, 0xaebb8f393a79124cULL, 0xaebb8f393a79124cULL},
    {6, 0xf14ffd4121cecba4ULL, 0x5eb2a816f8c10fb7ULL, 0x5eb2a816f8c10fb7ULL},
    {7, 0x5e4db2883f479b8aULL, 0x8577868a56da74f7ULL, 0x6ac1d32ab0e9b42aULL},
    {8, 0x09bba24e52137dc7ULL, 0x9ba8a31aa33c3892ULL, 0x97e3fd0827e3eb73ULL},
    {9, 0xf63132e6f673920eULL, 0xbb322f1e7ad79164ULL, 0x992d2d2cba09147bULL},
    {10, 0x070f67c20285537bULL, 0x99c18a39f15f02f1ULL, 0x7e89e4da41b4290aULL},
    {11, 0x9950fce3a3febabbULL, 0x3f229b1e8e7eaa1eULL, 0x5c0ffcd6a260008dULL},
    {12, 0xa8a1528a09a62264ULL, 0xf92048f99702b119ULL, 0xa7469c3ea7b17eb7ULL},
    {13, 0x32cf317175565ccfULL, 0x8657376811d20147ULL, 0x60ceea82a93696c5ULL},
    {14, 0x04d4a5dd622eba20ULL, 0x64844046232f8b63ULL, 0x424f0f6b97d47cc1ULL},
    {15, 0xc6cd40368a8d860cULL, 0x52876b510013dbb9ULL, 0xe20be0b489e38e87ULL},
    {16, 0x2126a954c0f4a31cULL, 0xaa00bec29da90d3aULL, 0x5e262544d5c74565ULL},
    {17, 0x3e6f40a57c94a894ULL, 0x8f6e816b2e69a3c6ULL, 0x6f15cef399a3b92eULL},
    {18, 0x4ebdd13dcd224fc3ULL, 0x3cc9fc306d55caadULL, 0x337797c3d81f15acULL},
    {19, 0x483e95c438620380ULL, 0x376cc4aaa0bcdba8ULL, 0x34f6d1c7fd3662e9ULL},
    {20, 0xf54a7f3b297e3c73ULL, 0x155cb35042d4a1d9ULL, 0x3543b7ad115f481fULL},
};

class FuzzRegressionTest : public ::testing::TestWithParam<GoldenEntry> {};

} // namespace

TEST_P(FuzzRegressionTest, PinnedDigestsAreStable) {
  const GoldenEntry &E = GetParam();
  ProgramGen Gen(E.Seed);
  GeneratedProgram G = Gen.generate();

  EXPECT_EQ(fnv1a(G.source()), E.SourceDigest)
      << "generator drift at seed " << E.Seed
      << "; actual source:\n" << G.source();

  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  ASSERT_TRUE(CP) << Diags.str();

  MustHitOptions Jit;
  Jit.Cache = CacheConfig::fullyAssociative(8);
  Jit.DepthMiss = 24;
  Jit.DepthHit = 6;
  Jit.Strategy = MergeStrategy::JustInTime;
  Jit.Bounding = BoundingMode::Dynamic;
  MustHitReport RJ = runMustHitAnalysis(*CP, Jit);
  ASSERT_TRUE(RJ.Converged);
  EXPECT_EQ(digestMustHitReport(*CP, RJ), E.JitDynamicDigest)
      << "analysis drift (just-in-time/dynamic) at seed " << E.Seed;

  MustHitOptions Nm = Jit;
  Nm.Strategy = MergeStrategy::NoMerge;
  Nm.Bounding = BoundingMode::Fixed;
  MustHitReport RN = runMustHitAnalysis(*CP, Nm);
  ASSERT_TRUE(RN.Converged);
  EXPECT_EQ(digestMustHitReport(*CP, RN), E.NoMergeFixedDigest)
      << "analysis drift (no-merge/fixed) at seed " << E.Seed;
}

INSTANTIATE_TEST_SUITE_P(PinnedCorpus, FuzzRegressionTest,
                         ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<GoldenEntry> &I) {
                           return "seed" + std::to_string(I.param.Seed);
                         });

//===----------------------------------------------------------------------===//
// Per-policy corpus: the same 20 programs analyzed under the FIFO and
// tree-PLRU lattices (docs/DOMAINS.md), just-in-time/dynamic. Pins that
// the policy generalization holds still — and, because the LRU table
// above is untouched, that adding the policy dimension never moved an LRU
// result. One (policy, seed) per CTest case — one analysis each — so the
// corpus stays parallelizable and no case dominates the unit label.
// Regenerate with the snippet at the bottom of this file, with Jit.Cache
// switched per policy via withPolicy().
//===----------------------------------------------------------------------===//

namespace {

struct PolicyGoldenEntry {
  uint64_t Seed;
  ReplacementPolicy Policy;
  uint64_t Digest; // just-in-time / dynamic
};

const PolicyGoldenEntry PolicyCorpus[] = {
    {1, ReplacementPolicy::Fifo, 0xd55a467b31de7ab7ULL},
    {2, ReplacementPolicy::Fifo, 0xee707c3e33805f14ULL},
    {3, ReplacementPolicy::Fifo, 0xd2561a3a4aa2cd28ULL},
    {4, ReplacementPolicy::Fifo, 0xe0817b7fd37b71dfULL},
    {5, ReplacementPolicy::Fifo, 0x2044ce7c3897a30bULL},
    {6, ReplacementPolicy::Fifo, 0xd16400a33e782057ULL},
    {7, ReplacementPolicy::Fifo, 0xdf1271ca67f0e841ULL},
    {8, ReplacementPolicy::Fifo, 0x3020aa66b79f5e66ULL},
    {9, ReplacementPolicy::Fifo, 0x1cb22d7470d825a9ULL},
    {10, ReplacementPolicy::Fifo, 0x905b744f62cb4596ULL},
    {11, ReplacementPolicy::Fifo, 0xff9e52b076b1d130ULL},
    {12, ReplacementPolicy::Fifo, 0x29160cfb0ec6c301ULL},
    {13, ReplacementPolicy::Fifo, 0x82b914b4306d0368ULL},
    {14, ReplacementPolicy::Fifo, 0x2d3e72d297a6d1feULL},
    {15, ReplacementPolicy::Fifo, 0x2066bcaa2121f5caULL},
    {16, ReplacementPolicy::Fifo, 0x1f16851a6c607c9dULL},
    {17, ReplacementPolicy::Fifo, 0xf6b52dbf57ae7a0bULL},
    {18, ReplacementPolicy::Fifo, 0xd54074dbc0120e0fULL},
    {19, ReplacementPolicy::Fifo, 0xe48a90f428e2456cULL},
    {20, ReplacementPolicy::Fifo, 0x07535d25b22f660eULL},
    {1, ReplacementPolicy::Plru, 0x93a4fc0de65d0a47ULL},
    {2, ReplacementPolicy::Plru, 0xe157e68f2fff0c89ULL},
    {3, ReplacementPolicy::Plru, 0x3be45bd618260aecULL},
    {4, ReplacementPolicy::Plru, 0x73d29d8ce1512936ULL},
    {5, ReplacementPolicy::Plru, 0x66ad5df620f347dbULL},
    {6, ReplacementPolicy::Plru, 0x305709f5965f4743ULL},
    {7, ReplacementPolicy::Plru, 0x533bf57fa024d3d7ULL},
    {8, ReplacementPolicy::Plru, 0x3014620f2c3edc66ULL},
    {9, ReplacementPolicy::Plru, 0x2769a4ec4b3aeb75ULL},
    {10, ReplacementPolicy::Plru, 0x95207b29cacb61d7ULL},
    {11, ReplacementPolicy::Plru, 0xe2eda4afe2c3e91aULL},
    {12, ReplacementPolicy::Plru, 0xd68d88ba6ec462caULL},
    {13, ReplacementPolicy::Plru, 0x07c78ee0b5fa11c0ULL},
    {14, ReplacementPolicy::Plru, 0xa65b4753b466c163ULL},
    {15, ReplacementPolicy::Plru, 0xbab55b739d0bc617ULL},
    {16, ReplacementPolicy::Plru, 0x81a735e979f0eb7eULL},
    {17, ReplacementPolicy::Plru, 0xbdda2b8ffc28abb2ULL},
    {18, ReplacementPolicy::Plru, 0x9e3d5575db7459a5ULL},
    {19, ReplacementPolicy::Plru, 0x2b1095516c6fb96bULL},
    {20, ReplacementPolicy::Plru, 0x6d5c3e494b1e8548ULL},
};

class PolicyRegressionTest
    : public ::testing::TestWithParam<PolicyGoldenEntry> {};

} // namespace

TEST_P(PolicyRegressionTest, PinnedPolicyDigestsAreStable) {
  const PolicyGoldenEntry &E = GetParam();
  ProgramGen Gen(E.Seed);
  GeneratedProgram G = Gen.generate();

  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  ASSERT_TRUE(CP) << Diags.str();

  MustHitOptions Opts;
  Opts.Cache = CacheConfig::fullyAssociative(8).withPolicy(E.Policy);
  Opts.DepthMiss = 24;
  Opts.DepthHit = 6;
  Opts.Strategy = MergeStrategy::JustInTime;
  Opts.Bounding = BoundingMode::Dynamic;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(digestMustHitReport(*CP, R), E.Digest)
      << "analysis drift (" << policyTag(E.Policy)
      << ", just-in-time/dynamic) at seed " << E.Seed;
}

INSTANTIATE_TEST_SUITE_P(PinnedPolicyCorpus, PolicyRegressionTest,
                         ::testing::ValuesIn(PolicyCorpus),
                         [](const ::testing::TestParamInfo<PolicyGoldenEntry>
                                &I) {
                           return std::string(policyTag(I.param.Policy)) +
                                  "_seed" + std::to_string(I.param.Seed);
                         });

//===----------------------------------------------------------------------===//
// Verdict corpus: the same 20 programs, digested at the *verdict* level —
// the user-facing deliverables the fuzzer's wcet/leak oracles validate —
// per replacement policy, under just-in-time/dynamic at the fuzz geometry.
// The cache-state digests above would already move on any engine drift;
// these pin the layer on top (estimateWcet, detectLeaks,
// annotateSpeculationOnly), so a verdict regression that preserves cache
// states — a longest-path change, a classification consumer bug — is
// bit-level pinned too. One (policy, seed) per CTest case; each runs the
// speculative + non-speculative analyses for exactly one policy.
// Regenerate with the snippet at the bottom.
//===----------------------------------------------------------------------===//

namespace {

/// Canonical serialization of everything the verdict layer reports for
/// one policy: WCET counters and cycle bounds (speculative and baseline,
/// default WcetOptions) and the annotated leak report (site node ids,
/// SpeculationOnly flags, proven-leak-free counts for both analyses).
uint64_t verdictDigest(const CompiledProgram &CP, ReplacementPolicy Policy) {
  MustHitOptions Jit;
  Jit.Cache = CacheConfig::fullyAssociative(8).withPolicy(Policy);
  Jit.DepthMiss = 24;
  Jit.DepthHit = 6;
  Jit.Strategy = MergeStrategy::JustInTime;
  Jit.Bounding = BoundingMode::Dynamic;
  MustHitReport Spec = runMustHitAnalysis(CP, Jit);
  MustHitOptions NonSpecOpts = Jit;
  NonSpecOpts.Speculative = false;
  MustHitReport NonSpec = runMustHitAnalysis(CP, NonSpecOpts);

  WcetReport W = estimateWcet(CP, Spec);
  WcetReport WNs = estimateWcet(CP, NonSpec);
  SideChannelReport SC = detectLeaks(CP, Spec);
  SideChannelReport NS = detectLeaks(CP, NonSpec);
  annotateSpeculationOnly(SC, NS);

  std::string S;
  S += "wcet=" + std::to_string(W.WorstCaseCycles) +
       ",miss=" + std::to_string(W.PossibleMissNodes) +
       ",hit=" + std::to_string(W.MustHitNodes) +
       ",spmiss=" + std::to_string(W.SpeculativeMissNodes);
  S += ";nswcet=" + std::to_string(WNs.WorstCaseCycles) +
       ",nsmiss=" + std::to_string(WNs.PossibleMissNodes);
  S += ";free=" + std::to_string(SC.ProvenLeakFree) +
       ",nsfree=" + std::to_string(NS.ProvenLeakFree);
  for (const LeakSite &L : SC.Leaks)
    S += ";leak=" + std::to_string(L.Node) +
         (L.SpeculationOnly ? ":sponly" : ":arch");
  for (NodeId N : SC.LeakFreeSites)
    S += ";lf=" + std::to_string(N);
  return fnv1a(S);
}

struct VerdictGoldenEntry {
  uint64_t Seed;
  ReplacementPolicy Policy;
  uint64_t Digest;
};

// Regenerate with the snippet at the bottom of this file.
const VerdictGoldenEntry VerdictCorpus[] = {
    {1, ReplacementPolicy::Lru, 0x14821f7107f66a19ULL},
    {2, ReplacementPolicy::Lru, 0x057be1499266e129ULL},
    {3, ReplacementPolicy::Lru, 0xfca8217d23cbe4bfULL},
    {4, ReplacementPolicy::Lru, 0xa8fb315666b9e534ULL},
    {5, ReplacementPolicy::Lru, 0x50ebab4fd3fcededULL},
    {6, ReplacementPolicy::Lru, 0xb6e98bf24cd15f9aULL},
    {7, ReplacementPolicy::Lru, 0xb1ec2c242c54f441ULL},
    {8, ReplacementPolicy::Lru, 0x98749d8f0a7f5f7bULL},
    {9, ReplacementPolicy::Lru, 0x405cb04901cf7575ULL},
    {10, ReplacementPolicy::Lru, 0xab03465bb641ef25ULL},
    {11, ReplacementPolicy::Lru, 0xd4487dd8f23aa4d6ULL},
    {12, ReplacementPolicy::Lru, 0xc177444714a880cdULL},
    {13, ReplacementPolicy::Lru, 0x843777d1cd56862dULL},
    {14, ReplacementPolicy::Lru, 0x6f3a9b85a0b71852ULL},
    {15, ReplacementPolicy::Lru, 0x290c6e9f4066f34dULL},
    {16, ReplacementPolicy::Lru, 0xe22074383fefc3eaULL},
    {17, ReplacementPolicy::Lru, 0x4b9c21298c118a29ULL},
    {18, ReplacementPolicy::Lru, 0x6f24453b3a2af3d8ULL},
    {19, ReplacementPolicy::Lru, 0xe3dc883271786375ULL},
    {20, ReplacementPolicy::Lru, 0x27d89b6847358febULL},
    {1, ReplacementPolicy::Fifo, 0x66b707c83e2db037ULL},
    {2, ReplacementPolicy::Fifo, 0x057be1499266e129ULL},
    {3, ReplacementPolicy::Fifo, 0xcda516bc8168a5a7ULL},
    {4, ReplacementPolicy::Fifo, 0xf8a2a55f4d2dd4feULL},
    {5, ReplacementPolicy::Fifo, 0x514c72181af0e32bULL},
    {6, ReplacementPolicy::Fifo, 0xb6e98bf24cd15f9aULL},
    {7, ReplacementPolicy::Fifo, 0x2b5e040dbc95e21aULL},
    {8, ReplacementPolicy::Fifo, 0xabbd6d81e737245aULL},
    {9, ReplacementPolicy::Fifo, 0x34c6e6bccb75ba88ULL},
    {10, ReplacementPolicy::Fifo, 0xae280df0efc71073ULL},
    {11, ReplacementPolicy::Fifo, 0x6340981ee3b9bb01ULL},
    {12, ReplacementPolicy::Fifo, 0xc29fe94a961a395fULL},
    {13, ReplacementPolicy::Fifo, 0x843777d1cd56862dULL},
    {14, ReplacementPolicy::Fifo, 0x001d8d1298a5fc84ULL},
    {15, ReplacementPolicy::Fifo, 0x3fd43d517fa62ce1ULL},
    {16, ReplacementPolicy::Fifo, 0x82929abd212689ccULL},
    {17, ReplacementPolicy::Fifo, 0x77bf00eb7707fbe8ULL},
    {18, ReplacementPolicy::Fifo, 0xe263368f0befd62dULL},
    {19, ReplacementPolicy::Fifo, 0xd62cdb8401d7f7a9ULL},
    {20, ReplacementPolicy::Fifo, 0x4e580a04f0e022fdULL},
    {1, ReplacementPolicy::Plru, 0x63cde261de2e9390ULL},
    {2, ReplacementPolicy::Plru, 0x686233a42f2f63d0ULL},
    {3, ReplacementPolicy::Plru, 0x3ec1121bd919184aULL},
    {4, ReplacementPolicy::Plru, 0xc7a7a4d273745746ULL},
    {5, ReplacementPolicy::Plru, 0xce5b19b7338816f9ULL},
    {6, ReplacementPolicy::Plru, 0xb6e98bf24cd15f9aULL},
    {7, ReplacementPolicy::Plru, 0x2b74b6727756baeaULL},
    {8, ReplacementPolicy::Plru, 0x5e66dd7f51dd4dd8ULL},
    {9, ReplacementPolicy::Plru, 0x323b3e5de4ca1ac9ULL},
    {10, ReplacementPolicy::Plru, 0x1069cea9271cb89eULL},
    {11, ReplacementPolicy::Plru, 0x1d38ef6cf4d984dcULL},
    {12, ReplacementPolicy::Plru, 0x3c7c3b76e1a4f8b3ULL},
    {13, ReplacementPolicy::Plru, 0x843777d1cd56862dULL},
    {14, ReplacementPolicy::Plru, 0xc4e396ddf2793a59ULL},
    {15, ReplacementPolicy::Plru, 0xbc57b1346e43de81ULL},
    {16, ReplacementPolicy::Plru, 0x516b2f5926b3de43ULL},
    {17, ReplacementPolicy::Plru, 0xaa403d65f4bc5019ULL},
    {18, ReplacementPolicy::Plru, 0x297221a91ed78248ULL},
    {19, ReplacementPolicy::Plru, 0xfa1e903253fd59e1ULL},
    {20, ReplacementPolicy::Plru, 0x8baf6170ad9e1f9aULL},
};

class VerdictRegressionTest
    : public ::testing::TestWithParam<VerdictGoldenEntry> {};

} // namespace

TEST_P(VerdictRegressionTest, PinnedVerdictDigestsAreStable) {
  const VerdictGoldenEntry &E = GetParam();
  ProgramGen Gen(E.Seed);
  GeneratedProgram G = Gen.generate();

  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  ASSERT_TRUE(CP) << Diags.str();

  EXPECT_EQ(verdictDigest(*CP, E.Policy), E.Digest)
      << "verdict drift (" << policyTag(E.Policy) << ") at seed " << E.Seed;
}

INSTANTIATE_TEST_SUITE_P(PinnedVerdictCorpus, VerdictRegressionTest,
                         ::testing::ValuesIn(VerdictCorpus),
                         [](const ::testing::TestParamInfo<
                             VerdictGoldenEntry> &I) {
                           return std::string(policyTag(I.param.Policy)) +
                                  "_seed" + std::to_string(I.param.Seed);
                         });

//===----------------------------------------------------------------------===//
// Set-associative corpus: the same 20 programs at a 64-line, 4-way cache
// (16 sets), under just-in-time/dynamic and no-merge/fixed. Every corpus
// above runs a fully associative geometry, whose states hold exactly one
// cache-set partition; this one pins the multi-partition paths of
// CacheAbsState (per-set copy-on-write, partition-skipping joins and
// comparisons, per-partition hashing). Regenerate with the snippet at the
// bottom, with Jit.Cache = CacheConfig::setAssociative(64, 4).
//===----------------------------------------------------------------------===//

namespace {

struct SetAssocGoldenEntry {
  uint64_t Seed;
  uint64_t JitDynamicDigest;
  uint64_t NoMergeFixedDigest;
};

const SetAssocGoldenEntry SetAssocCorpus[] = {
    {1, 0x69be0d0ca7e68fa3ULL, 0x863faa02a4daff0dULL},
    {2, 0x974c88c9747f9279ULL, 0x974c88c9747f9279ULL},
    {3, 0x1478129b9de0ac0eULL, 0xb85888d92c437ae2ULL},
    {4, 0x44f876d2004faf0bULL, 0x44f876d2004faf0bULL},
    {5, 0x0064587df456adbbULL, 0x0064587df456adbbULL},
    {6, 0x530f166aa2fc2d73ULL, 0x530f166aa2fc2d73ULL},
    {7, 0x8eb7ac973283005cULL, 0x826f83792a7937c4ULL},
    {8, 0x4e1a7bfb99d309f7ULL, 0x4e1a7bfb99d309f7ULL},
    {9, 0xeaea3065f9e9eafcULL, 0xba9b421310885ce9ULL},
    {10, 0xcc198215a29ae13eULL, 0x2206241caee609acULL},
    {11, 0x0ee033ac8e739d50ULL, 0x871243abdc90624dULL},
    {12, 0x39ce5769427a9300ULL, 0xbc49c7cdc258305aULL},
    {13, 0x927d9ee1dc068002ULL, 0xae1f038b32257764ULL},
    {14, 0x21db8846d5bc50cdULL, 0xe94caaca9029aedfULL},
    {15, 0x5d70e93b28197bb3ULL, 0x7490cf67e6804d51ULL},
    {16, 0x118f469a7b5f0235ULL, 0x67af7a885524a44dULL},
    {17, 0x4de57484b41ff33aULL, 0xc668c9855500c63dULL},
    {18, 0x6820b854c826852fULL, 0xb7748291a80b5295ULL},
    {19, 0x4225868bc0063077ULL, 0xd74e8ff452a3b968ULL},
    {20, 0x853bcc5af45376ffULL, 0x2b7cbca7d3ea11beULL},
};

class SetAssocRegressionTest
    : public ::testing::TestWithParam<SetAssocGoldenEntry> {};

} // namespace

TEST_P(SetAssocRegressionTest, PinnedSetAssociativeDigestsAreStable) {
  const SetAssocGoldenEntry &E = GetParam();
  ProgramGen Gen(E.Seed);
  GeneratedProgram G = Gen.generate();

  DiagnosticEngine Diags;
  auto CP = compileSource(G.source(), Diags);
  ASSERT_TRUE(CP) << Diags.str();

  MustHitOptions Jit;
  Jit.Cache = CacheConfig::setAssociative(64, 4);
  ASSERT_EQ(Jit.Cache.numSets(), 16u);
  Jit.DepthMiss = 24;
  Jit.DepthHit = 6;
  Jit.Strategy = MergeStrategy::JustInTime;
  Jit.Bounding = BoundingMode::Dynamic;
  MustHitReport RJ = runMustHitAnalysis(*CP, Jit);
  ASSERT_TRUE(RJ.Converged);
  EXPECT_EQ(digestMustHitReport(*CP, RJ), E.JitDynamicDigest)
      << "set-associative drift (just-in-time/dynamic) at seed " << E.Seed;

  MustHitOptions Nm = Jit;
  Nm.Strategy = MergeStrategy::NoMerge;
  Nm.Bounding = BoundingMode::Fixed;
  MustHitReport RN = runMustHitAnalysis(*CP, Nm);
  ASSERT_TRUE(RN.Converged);
  EXPECT_EQ(digestMustHitReport(*CP, RN), E.NoMergeFixedDigest)
      << "set-associative drift (no-merge/fixed) at seed " << E.Seed;
}

INSTANTIATE_TEST_SUITE_P(PinnedSetAssocCorpus, SetAssocRegressionTest,
                         ::testing::ValuesIn(SetAssocCorpus),
                         [](const ::testing::TestParamInfo<
                             SetAssocGoldenEntry> &I) {
                           return "seed" + std::to_string(I.param.Seed);
                         });

//===----------------------------------------------------------------------===//
// Summarize corpus: 20 deep-mode programs (ProgramGenOptions::Functions —
// helper functions, call statements, rolled widened loops) compiled under
// LoweringMode::Summarize and digested at module granularity: the entry
// report, every callee report, and every call summary (MayBlocks,
// SetPressure, ExitMust) via digestModuleReport. Pins the whole summarize
// pipeline — deep generator, rolled-loop widening fixpoints, bottom-up
// summary construction, call transfers — alongside the InlineUnroll
// corpora above, which this suite must never move (the deep-mode RNG
// draws are gated behind the Functions flag).
//===----------------------------------------------------------------------===//

namespace {

struct SummarizeGoldenEntry {
  uint64_t Seed;
  uint64_t SourceDigest;
  uint64_t JitDynamicDigest;
  uint64_t NoMergeFixedDigest;
};

// Regenerate with the snippet at the bottom of this file.
const SummarizeGoldenEntry SummarizeCorpus[] = {
    {1, 0x0dcf80a8dc8ad15eULL, 0xe977f5cd5927c7d9ULL, 0x9483a7ebd45b2c7aULL},
    {2, 0x61270ea9a311a9ecULL, 0xf81c8e0e010eb2ecULL, 0x6d41efcc8fc882f3ULL},
    {3, 0xf5bc1deacdeb8d6dULL, 0xad87737b23c28892ULL, 0x38303964cff2c438ULL},
    {4, 0x0d21b07f57baa7d0ULL, 0x723e079cd074bbe9ULL, 0xf3369a3d2a33a3f4ULL},
    {5, 0x917324874ba3356fULL, 0x629f1e7cfe39d54eULL, 0x629f1e7cfe39d54eULL},
    {6, 0x12750965066e9f91ULL, 0x263de63ba35fb728ULL, 0x01a20dc50337ce4aULL},
    {7, 0x6107c4f232cfe251ULL, 0xc8e56a1407c13c37ULL, 0x8be72467f9c77bcaULL},
    {8, 0xe01ffa4974ec6747ULL, 0x8026b383e3f4060cULL, 0x96294c3ac0bde945ULL},
    {9, 0x3cfdd57ef980f1edULL, 0x033da256e5e04e8dULL, 0x59fe90637e6659e8ULL},
    {10, 0x9031d9751e7b864aULL, 0xa81051842ce7204dULL, 0x3bc9687f0a0359a8ULL},
    {11, 0x02ebc4c342dc0598ULL, 0xa25ebfd0f08298ebULL, 0xdf395d2239a2f418ULL},
    {12, 0x237b33e200f4f95aULL, 0xc8f3022299b66503ULL, 0xc8f3022299b66503ULL},
    {13, 0xad9252786e232b01ULL, 0xf6a55dd4da6c34cfULL, 0xf6a55dd4da6c34cfULL},
    {14, 0xe0504d9039a12242ULL, 0x9b382e3bb503ee67ULL, 0xfdd2c9bdc51a75bfULL},
    {15, 0x2da71a274fea2af0ULL, 0x4ef1affc33d41e02ULL, 0x642751d6873ac059ULL},
    {16, 0x341bb7611006a363ULL, 0x2e6f7faadd883efaULL, 0x56101f9bf3981271ULL},
    {17, 0xbbb77658b9fd1488ULL, 0x34e30daae187c2f3ULL, 0x8f1d9263d366e496ULL},
    {18, 0xacfbcbd9bf5473c6ULL, 0x5eec1159d11031a4ULL, 0xab3096c8bd27b31cULL},
    {19, 0x1f936395b9dba4a9ULL, 0x9f2f446fa6bed451ULL, 0x562e577b30033a29ULL},
    {20, 0x756201446309677dULL, 0x3f236da4836d223fULL, 0x4240f3ff26117ff2ULL},
};

class SummarizeRegressionTest
    : public ::testing::TestWithParam<SummarizeGoldenEntry> {};

} // namespace

TEST_P(SummarizeRegressionTest, PinnedSummarizeDigestsAreStable) {
  const SummarizeGoldenEntry &E = GetParam();
  ProgramGenOptions GO;
  GO.Functions = true;
  ProgramGen Gen(E.Seed, GO);
  GeneratedProgram G = Gen.generate();

  EXPECT_EQ(fnv1a(G.source()), E.SourceDigest)
      << "deep-mode generator drift at seed " << E.Seed
      << "; actual source:\n" << G.source();

  DiagnosticEngine Diags;
  LoweringOptions LO;
  LO.Mode = LoweringMode::Summarize;
  auto CP = compileSource(G.source(), Diags, LO);
  ASSERT_TRUE(CP) << Diags.str();

  MustHitOptions Jit;
  Jit.Cache = CacheConfig::fullyAssociative(8);
  Jit.DepthMiss = 24;
  Jit.DepthHit = 6;
  Jit.Strategy = MergeStrategy::JustInTime;
  Jit.Bounding = BoundingMode::Dynamic;
  MustHitReport RJ = runMustHitAnalysis(*CP, Jit);
  ASSERT_TRUE(RJ.Converged);
  EXPECT_EQ(digestModuleReport(*CP, RJ), E.JitDynamicDigest)
      << "summarize drift (just-in-time/dynamic) at seed " << E.Seed;

  MustHitOptions Nm = Jit;
  Nm.Strategy = MergeStrategy::NoMerge;
  Nm.Bounding = BoundingMode::Fixed;
  MustHitReport RN = runMustHitAnalysis(*CP, Nm);
  ASSERT_TRUE(RN.Converged);
  EXPECT_EQ(digestModuleReport(*CP, RN), E.NoMergeFixedDigest)
      << "summarize drift (no-merge/fixed) at seed " << E.Seed;
}

INSTANTIATE_TEST_SUITE_P(PinnedSummarizeCorpus, SummarizeRegressionTest,
                         ::testing::ValuesIn(SummarizeCorpus),
                         [](const ::testing::TestParamInfo<
                             SummarizeGoldenEntry> &I) {
                           return "seed" + std::to_string(I.param.Seed);
                         });

//===----------------------------------------------------------------------===//
// Golden regeneration snippet (compile against libspecai and paste):
//
//   #include "specai/SpecAI.h"
//   #include <cstdio>
//   using namespace specai;
//   int main() {
//     for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
//       ProgramGen Gen(Seed);
//       GeneratedProgram G = Gen.generate();
//       DiagnosticEngine Diags;
//       auto CP = compileSource(G.source(), Diags);
//       MustHitOptions Jit;
//       Jit.Cache = CacheConfig::fullyAssociative(8);
//       Jit.DepthMiss = 24; Jit.DepthHit = 6;
//       Jit.Strategy = MergeStrategy::JustInTime;
//       Jit.Bounding = BoundingMode::Dynamic;
//       MustHitReport RJ = runMustHitAnalysis(*CP, Jit);
//       MustHitOptions Nm = Jit;
//       Nm.Strategy = MergeStrategy::NoMerge;
//       Nm.Bounding = BoundingMode::Fixed;
//       MustHitReport RN = runMustHitAnalysis(*CP, Nm);
//       std::printf("    {%llu, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL},\n",
//                   (unsigned long long)Seed,
//                   (unsigned long long)fnv1a(G.source()),
//                   (unsigned long long)digestMustHitReport(*CP, RJ),
//                   (unsigned long long)digestMustHitReport(*CP, RN));
//     }
//   }
//
// The policy corpus regenerates the same way with Jit.Cache switched via
// withPolicy(); the verdict corpus by printing verdictDigest per policy;
// the summarize corpus with ProgramGenOptions::Functions = true,
// LoweringOptions::Mode = Summarize, and digestModuleReport instead of
// digestMustHitReport.
//===----------------------------------------------------------------------===//
