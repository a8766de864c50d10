//===- stress_pin_test.cpp - Work and state pins of the stress program ----===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Pins the speculative analysis of perfbench/stress.mc under three
/// geometries: the full per-node state digest (digestModuleReport) and
/// every EngineCounters field. A change to the cache-state representation
/// or the engine's plumbing must leave every value here unchanged: the
/// same states at every node, reached by the same pops, pushes, joins
/// and memo lookups.
///
/// The verdict digests of tools/stress_smoke.sh hash only classification
/// counts, and the no-merge and fully associative smokes share one digest
/// (497 accesses, 405 possible misses, 148 speculative-only misses), so a
/// change that moved individual classifications or states would pass
/// them. This test would not.
///
/// Optimized builds only (label `stress`, kept out of `unit`): the 8-way
/// pass takes about a second in RelWithDebInfo.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisPipeline.h"
#include "fuzz/StateDigest.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace specai;

namespace {

struct StressPin {
  const char *Name;
  CacheConfig Cache;
  MergeStrategy Strategy;
  uint64_t Digest;
  EngineCounters Counters;
};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

/// The counters as one line, in field order, so a failure shows every
/// value at once.
std::string render(const EngineCounters &C) {
  std::ostringstream OS;
  OS << "pops " << C.Pops << ", pushes " << C.Pushes << ", deduped "
     << C.Deduped << ", memo " << C.MemoHits << "/" << C.MemoMisses
     << ", joins normal " << C.NormalJoins << " spec " << C.SpecJoins
     << " pr " << C.PrJoins << " fold " << C.FoldJoins << " bound "
     << C.BoundJoins;
  return OS.str();
}

bool sameCounters(const EngineCounters &A, const EngineCounters &B) {
  return A.Pops == B.Pops && A.Pushes == B.Pushes &&
         A.Deduped == B.Deduped && A.MemoHits == B.MemoHits &&
         A.MemoMisses == B.MemoMisses && A.NormalJoins == B.NormalJoins &&
         A.SpecJoins == B.SpecJoins && A.PrJoins == B.PrJoins &&
         A.FoldJoins == B.FoldJoins && A.BoundJoins == B.BoundJoins;
}

EngineCounters counters(uint64_t Pops, uint64_t Pushes, uint64_t Deduped,
                        uint64_t MemoHits, uint64_t MemoMisses,
                        uint64_t NormalJoins, uint64_t SpecJoins,
                        uint64_t PrJoins, uint64_t FoldJoins,
                        uint64_t BoundJoins) {
  EngineCounters C;
  C.Pops = Pops;
  C.Pushes = Pushes;
  C.Deduped = Deduped;
  C.MemoHits = MemoHits;
  C.MemoMisses = MemoMisses;
  C.NormalJoins = NormalJoins;
  C.SpecJoins = SpecJoins;
  C.PrJoins = PrJoins;
  C.FoldJoins = FoldJoins;
  C.BoundJoins = BoundJoins;
  return C;
}

/// The stress-smoke configurations whose states hold many partitions
/// (8-way), one post-rollback slot per rollback point (no-merge) and one
/// partition dozens of words wide (fully associative).
const StressPin Pins[] = {
    {"8-way", CacheConfig::setAssociative(512, 8), MergeStrategy::JustInTime,
     0x8ce7e53c41156667,
     counters(68464, 715035, 646571, 431, 192579, 48502, 227141, 730092,
              62342, 3828)},
    {"no-merge", CacheConfig::setAssociative(64, 4), MergeStrategy::NoMerge,
     0x6196298737f46fd4,
     counters(79728, 1428842, 1349114, 62199, 323772, 67971, 310554,
              1497364, 137654, 1856)},
    {"fully-assoc", CacheConfig::fullyAssociative(64),
     MergeStrategy::JustInTime, 0x82d0b0214658b2cd,
     counters(126653, 903683, 777030, 48, 245047, 49077, 263918, 933348,
              85289, 5819)},
};

} // namespace

TEST(StressPinTest, StatesAndEngineWorkArePinned) {
  std::ifstream In(SPECAI_STRESS_PROGRAM);
  ASSERT_TRUE(In) << "cannot read " << SPECAI_STRESS_PROGRAM;
  std::stringstream Source;
  Source << In.rdbuf();
  DiagnosticEngine Diags;
  auto CP = compileSource(Source.str(), Diags);
  ASSERT_TRUE(CP) << Diags.str();

  for (const StressPin &Pin : Pins) {
    MustHitOptions O;
    O.Cache = Pin.Cache;
    O.Strategy = Pin.Strategy;
    MustHitReport R = runMustHitAnalysis(*CP, O);
    ASSERT_TRUE(R.Converged) << Pin.Name;
    const EngineCounters &C = R.States.Counters;
    EXPECT_EQ(hex(digestModuleReport(*CP, R)), hex(Pin.Digest)) << Pin.Name;
    EXPECT_TRUE(sameCounters(C, Pin.Counters))
        << Pin.Name << "\n  got    " << render(C) << "\n  pinned "
        << render(Pin.Counters);
  }
}
