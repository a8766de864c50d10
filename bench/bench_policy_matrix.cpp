//===- bench_policy_matrix.cpp - Replacement-policy precision matrix ------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The replacement-policy generalization matrix (docs/DOMAINS.md): every
/// WCET kernel analyzed speculatively under each policy lattice — LRU (the
/// paper's domain), FIFO (insertion-age bounds, hits never rejuvenate),
/// and tree-PLRU (the pessimistic log2(ways)+1 tree bound) — via the
/// BatchRunner policy sweep. Reported per policy:
///
///  - precision: summed must-hit counts, #Miss and #SpMiss across the
///    suite (LRU is the tightest lattice, so its must-hit count is the
///    ceiling; FIFO/PLRU trade precision for modeling real x86/embedded
///    replacement);
///  - throughput: summed analysis wall time and worklist iterations.
///
/// Shape checks enforced here (not timings — those are informational):
/// per kernel, every policy's reachable access-node count is identical
/// (reachability is policy-independent), and no policy reports more
/// must-hits than LRU plus the slack the coarser lattices can recover
/// (they cannot: FIFO/PLRU bounds are weaker everywhere, so suite-level
/// must-hits must be <= LRU's).
///
/// `--json FILE` writes the per-policy rows as one JSON record — a history
/// entry of the checked-in BENCH_policy.json trajectory.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

using namespace specai;

namespace {

struct PolicyTotals {
  ReplacementPolicy Policy = ReplacementPolicy::Lru;
  uint64_t AccessNodes = 0;
  uint64_t MustHits = 0;
  uint64_t MissCount = 0;
  uint64_t SpMissCount = 0;
  uint64_t Iterations = 0;
  double Seconds = 0;
};

/// All policy rows as one JSON record (one history entry of
/// BENCH_policy.json).
std::string benchJson(const std::vector<PolicyTotals> &Rows, size_t Kernels) {
  std::vector<std::string> Policies;
  for (const PolicyTotals &R : Rows) {
    JsonWriter P;
    P.field("policy", replacementPolicyName(R.Policy));
    P.field("access_nodes", R.AccessNodes);
    P.field("must_hits", R.MustHits);
    P.field("misses", R.MissCount);
    P.field("sp_misses", R.SpMissCount);
    P.field("iterations", R.Iterations);
    P.field("seconds", R.Seconds);
    Policies.push_back(P.finish());
  }
  JsonWriter W;
  W.field("suite", "wcet-kernels");
  W.field("kernels", static_cast<uint64_t>(Kernels));
  W.field("cache", "64Lx64B fully associative");
  W.rawField("policies", jsonArray(Policies));
  return W.finish();
}

} // namespace

int runBench(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  std::vector<char *> Rest{Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
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
  unsigned Jobs = *JobsOpt;

  std::printf("== Replacement-policy matrix: WCET kernels x {lru, fifo, "
              "plru} (64-line fully associative cache) ==\n");

  const std::vector<ReplacementPolicy> Policies = {
      ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
      ReplacementPolicy::Plru};
  std::vector<PolicyTotals> Totals;
  for (ReplacementPolicy P : Policies)
    Totals.push_back(PolicyTotals{P, 0, 0, 0, 0, 0, 0});

  MustHitOptions Base;
  Base.Cache = CacheConfig::fullyAssociative(64);

  BatchRunner Runner(Jobs);
  size_t Kernels = 0;
  for (const Workload &W : wcetWorkloads()) {
    DiagnosticEngine Diags;
    auto CP = compileSource(W.Source, Diags);
    if (!CP) {
      std::printf("%s: compile error\n%s", W.Name.c_str(),
                  Diags.str().c_str());
      return 1;
    }
    ++Kernels;

    std::vector<BatchVariant> Variants =
        BatchRunner::policySweep(Base, Policies);
    for (BatchVariant &V : Variants)
      V.DetectLeaks = false;
    BatchReport Report = Runner.run(*CP, Variants);

    const BatchRow &Lru = Report.requireRow("lru");
    for (size_t I = 0; I != Policies.size(); ++I) {
      const BatchRow &Row =
          Report.requireRow(replacementPolicyName(Policies[I]));
      if (Row.AccessNodes != Lru.AccessNodes) {
        std::printf("ERROR: %s reachability differs from lru on %s "
                    "(%llu vs %llu access nodes)\n",
                    Row.Label.c_str(), W.Name.c_str(),
                    static_cast<unsigned long long>(Row.AccessNodes),
                    static_cast<unsigned long long>(Lru.AccessNodes));
        return 1;
      }
      if (Row.MissCount < Lru.MissCount) {
        // A coarser lattice proving strictly more hits than LRU would be
        // a transfer-function bug, not a precision win.
        std::printf("ERROR: %s claims more must-hits than lru on %s\n",
                    Row.Label.c_str(), W.Name.c_str());
        return 1;
      }
      Totals[I].AccessNodes += Row.AccessNodes;
      Totals[I].MustHits += Row.AccessNodes - Row.MissCount;
      Totals[I].MissCount += Row.MissCount;
      Totals[I].SpMissCount += Row.SpMissCount;
      Totals[I].Iterations += Row.Iterations;
      Totals[I].Seconds += Row.Seconds;
    }
  }

  TableWriter T({"Policy", "#Access", "#MustHit", "#Miss", "#SpMiss",
                 "#Ite", "Time(s)"});
  for (const PolicyTotals &R : Totals)
    T.addRow({replacementPolicyName(R.Policy),
              std::to_string(R.AccessNodes), std::to_string(R.MustHits),
              std::to_string(R.MissCount), std::to_string(R.SpMissCount),
              std::to_string(R.Iterations), formatDouble(R.Seconds, 3)});
  std::printf("%s", T.str().c_str());
  std::printf("shape check: reachability policy-independent and "
              "must-hits(policy) <= must-hits(lru) on every kernel: OK\n");

  if (JsonPath && !writeJsonFile(JsonPath, benchJson(Totals, Kernels))) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
    return 1;
  }
  return 0;
}

int main(int Argc, char **Argv) {
  // requireRow throws (library code must not exit a host process; see
  // driver/BatchRunner.h); benches keep the historical fail-fast exit.
  try {
    return runBench(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
