//===- bench_repair.cpp - Mitigation-synthesis throughput and cost --------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Throughput and cost profile of the repair synthesizer
/// (repair/MitigationSynth.h, docs/MITIGATION.md) over the fuzz corpus:
/// the same generator and analysis configuration the repair oracle runs
/// under (fully-associative 8-line cache, depths 24/6, no-merge, fixed
/// bounding), so programs here leak for the same reasons campaign programs
/// do. This is the trajectory behind BENCH_repair.json.
///
/// Reported per corpus: programs synthesized per second, the leaky /
/// repaired split, the mitigation-kind mix, the median and maximum repair
/// cost (WCET-after minus WCET-before), and re-analyses per program. All
/// counters are deterministic in (seed, programs); only timings move. Any
/// leaky-but-unrepaired program whose leaks are all speculative fails the
/// run — that is the synthesizer's own completeness claim.
///
/// `--json FILE` writes the counters as one JSON record — a history entry
/// of BENCH_repair.json.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace specai;

namespace {

struct CorpusCounters {
  uint64_t Programs = 0;
  uint64_t CompileFailures = 0;
  uint64_t Leaky = 0;
  uint64_t Repaired = 0;
  uint64_t SpecOnlyUnrepaired = 0;
  uint64_t Mitigations = 0;
  uint64_t Clamps = 0;
  uint64_t Fences = 0;
  uint64_t Hoists = 0;
  uint64_t Preloads = 0;
  uint64_t Reanalyses = 0;
  uint64_t ExactSearches = 0;
  std::vector<uint64_t> RepairCosts;
  double Seconds = 0;

  uint64_t medianCost() const {
    if (RepairCosts.empty())
      return 0;
    std::vector<uint64_t> Sorted = RepairCosts;
    std::sort(Sorted.begin(), Sorted.end());
    return Sorted[Sorted.size() / 2];
  }
  uint64_t maxCost() const {
    uint64_t Max = 0;
    for (uint64_t C : RepairCosts)
      Max = std::max(Max, C);
    return Max;
  }
};

/// The corpus counters as one JSON record (one history entry of
/// BENCH_repair.json).
std::string benchJson(uint64_t Seed, const CorpusCounters &C) {
  JsonWriter W;
  W.field("seed", Seed);
  W.field("programs", C.Programs);
  W.field("compile_failures", C.CompileFailures);
  W.field("leaky_programs", C.Leaky);
  W.field("repaired_programs", C.Repaired);
  W.field("mitigations", C.Mitigations);
  W.field("clamps", C.Clamps);
  W.field("fences", C.Fences);
  W.field("hoists", C.Hoists);
  W.field("preloads", C.Preloads);
  W.field("reanalyses", C.Reanalyses);
  W.field("exact_searches", C.ExactSearches);
  W.field("median_repair_cost", C.medianCost());
  W.field("max_repair_cost", C.maxCost());
  W.field("seconds", C.Seconds);
  W.field("programs_per_sec", C.Seconds > 0 ? C.Programs / C.Seconds : 0.0);
  return W.finish();
}

} // namespace

int main(int Argc, char **Argv) {
  // Peel off --json FILE and --programs N before the shared --jobs parser
  // (which rejects flags it does not own).
  const char *JsonPath = nullptr;
  uint64_t Programs = 50;
  std::vector<char *> Rest{Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
      continue;
    }
    if (std::string(Argv[I]) == "--programs" && I + 1 < Argc) {
      std::optional<unsigned> N = parseUnsigned(Argv[++I]);
      if (!N || *N == 0) {
        std::fprintf(stderr, "error: --programs needs a positive number\n");
        return 1;
      }
      Programs = *N;
      continue;
    }
    Rest.push_back(Argv[I]);
  }
  std::string JobsError;
  std::optional<unsigned> JobsOpt =
      parseJobsFlag(static_cast<int>(Rest.size()), Rest.data(), JobsError);
  if (!JobsOpt) { // Benches keep the historical fail-fast exit contract.
    std::fprintf(stderr, "%s\n", JobsError.c_str());
    return 1;
  }
  // Synthesis is serial per program; --jobs is accepted for CI-harness
  // uniformity but the corpus loop itself runs single-threaded so the
  // throughput number means "one synthesizer" everywhere it is quoted.

  const uint64_t Seed = 1;
  std::printf("== Mitigation synthesis over the fuzz corpus (%llu programs, "
              "seed %llu) ==\n",
              static_cast<unsigned long long>(Programs),
              static_cast<unsigned long long>(Seed));

  // The repair oracle's analysis configuration (RepairOracle.cpp):
  // campaign-default geometry, first campaign strategy, fixed bounding.
  RepairOptions RO;
  RO.Analysis.Cache = CacheConfig::fullyAssociative(8);
  RO.Analysis.Strategy = MergeStrategy::NoMerge;
  RO.Analysis.Bounding = BoundingMode::Fixed;
  RO.Analysis.DepthMiss = 24;
  RO.Analysis.DepthHit = 6;

  CorpusCounters C;
  bool IncompletenessSeen = false;
  Timer T;
  for (uint64_t I = 0; I != Programs; ++I) {
    ProgramGen Gen(Seed + I);
    GeneratedProgram G = Gen.generate();
    DiagnosticEngine Diags;
    auto CP = compileSource(G.source(), Diags);
    if (!CP) {
      ++C.CompileFailures;
      continue;
    }
    ++C.Programs;
    RepairResult Res = synthesizeRepairs(*CP, RO);
    C.Reanalyses += Res.Reanalyses;
    if (Res.UsedExactSearch)
      ++C.ExactSearches;
    if (Res.LeaksBefore == 0)
      continue;
    ++C.Leaky;
    if (!Res.Repaired) {
      if (Res.SpecOnlyLeaksBefore == Res.LeaksBefore) {
        // Fencing every wrong-path entry provably removes speculation-only
        // leaks, so an unrepaired program here is a synthesizer bug.
        IncompletenessSeen = true;
        std::printf("INCOMPLETE: seed %llu leaks only speculatively yet "
                    "was not repaired\n",
                    static_cast<unsigned long long>(Seed + I));
      }
      continue;
    }
    ++C.Repaired;
    C.Mitigations += Res.Applied.size();
    C.RepairCosts.push_back(Res.WcetAfter > Res.WcetBefore
                                ? Res.WcetAfter - Res.WcetBefore
                                : 0);
    for (const Mitigation &M : Res.Applied) {
      switch (M.Kind) {
      case MitigationKind::Clamp:
        ++C.Clamps;
        break;
      case MitigationKind::Fence:
        ++C.Fences;
        break;
      case MitigationKind::Hoist:
        ++C.Hoists;
        break;
      case MitigationKind::Preload:
        ++C.Preloads;
        break;
      }
    }
  }
  C.Seconds = T.seconds();

  double PerSec = C.Seconds > 0 ? C.Programs / C.Seconds : 0;
  TableWriter Table({"Programs", "Leaky", "Repaired", "Mitigations",
                     "MedianCost", "MaxCost", "Reanalyses", "Time(s)",
                     "Prog/s"});
  Table.addRow({std::to_string(C.Programs), std::to_string(C.Leaky),
                std::to_string(C.Repaired), std::to_string(C.Mitigations),
                std::to_string(C.medianCost()), std::to_string(C.maxCost()),
                std::to_string(C.Reanalyses), formatDouble(C.Seconds, 2),
                formatDouble(PerSec, 2)});
  std::printf("%s", Table.str().c_str());
  std::printf("mitigation mix: %llu clamps, %llu fences, %llu hoists, "
              "%llu preloads\n",
              static_cast<unsigned long long>(C.Clamps),
              static_cast<unsigned long long>(C.Fences),
              static_cast<unsigned long long>(C.Hoists),
              static_cast<unsigned long long>(C.Preloads));

  if (JsonPath && !writeJsonFile(JsonPath, benchJson(Seed, C))) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
    return 1;
  }
  if (IncompletenessSeen)
    return 1;
  std::printf("complete: every speculation-only leaky program was "
              "repaired\n");
  return 0;
}
