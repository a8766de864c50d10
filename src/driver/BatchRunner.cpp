//===- BatchRunner.cpp - Parallel multi-configuration sweeps --------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchRunner.h"

#include "fuzz/StateDigest.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace specai;

namespace {

/// Runs one variant and condenses the reports into a row. Everything here
/// is confined to the calling worker thread; only the returned row crosses
/// threads.
BatchRow runVariant(const CompiledProgram &CP, const BatchVariant &V) {
  BatchRow Row;
  Row.Label = V.Label.empty() ? BatchVariant::describe(V.Options) : V.Label;
  Row.Strategy = V.Options.Strategy;
  Row.Bounding = V.Options.Bounding;
  Row.Cache = V.Options.Cache;
  Row.Speculative = V.Options.Speculative;

  Timer T;
  MustHitReport R = runMustHitAnalysis(CP, V.Options);
  Row.Seconds = T.seconds(); // Analysis only, excluding the leak scan.
  Row.AccessNodes = R.AccessNodes;
  Row.MissCount = R.MissCount;
  Row.SpMissCount = R.SpMissCount;
  Row.BranchCount = R.BranchCount;
  Row.Iterations = R.Iterations;
  Row.RefinementRounds = R.RefinementRounds;
  Row.Converged = R.Converged;
  Row.BudgetExceeded = R.BudgetExceeded;
  if (Row.BudgetExceeded)
    return Row; // Void report: classification vectors may be empty.
  if (V.DetectLeaks) {
    SideChannelReport SC = detectLeaks(CP, R);
    Row.LeaksChecked = true;
    Row.ProvenLeakFree = SC.ProvenLeakFree;
    for (const LeakSite &L : SC.Leaks)
      Row.LeakSites.push_back(L.str(*CP.P));
  }
  return Row;
}

} // namespace

void specai::parallelFor(unsigned Jobs, size_t Count,
                         const std::function<void(size_t)> &Fn) {
  if (Count == 0)
    return;
  if (Jobs == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Jobs = HW == 0 ? 1 : HW;
  }
  unsigned Workers = static_cast<unsigned>(std::min<size_t>(Jobs, Count));

  // An exception escaping a std::thread calls std::terminate, which would
  // take down not just this sweep but the whole process hosting it — fatal
  // for the specaid daemon, where one bad request must not kill the
  // server. Capture the first exception, let every worker quiesce, and
  // rethrow on the caller once all threads are joined.
  std::atomic<size_t> NextIndex{0};
  std::atomic<bool> Abort{false};
  std::exception_ptr FirstError;
  std::mutex ErrorLock;
  auto Work = [&]() {
    while (!Abort.load(std::memory_order_relaxed)) {
      size_t I = NextIndex.fetch_add(1, std::memory_order_relaxed);
      if (I >= Count)
        return;
      try {
        Fn(I);
      } catch (...) {
        {
          std::lock_guard<std::mutex> Guard(ErrorLock);
          if (!FirstError)
            FirstError = std::current_exception();
        }
        Abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (Workers <= 1) {
    Work();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W)
      Pool.emplace_back(Work);
    for (std::thread &T : Pool)
      T.join();
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}

std::optional<unsigned> specai::parseJobsFlag(int Argc, char **Argv,
                                              std::string &Error) {
  unsigned Jobs = 0;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") != 0) {
      Error = std::string("error: unknown argument '") + Argv[I] +
              "' (only --jobs N)";
      return std::nullopt;
    }
    if (I + 1 >= Argc) {
      Error = "error: --jobs needs a value";
      return std::nullopt;
    }
    std::optional<unsigned> Value = parseUnsigned(Argv[++I]);
    if (!Value) {
      Error = std::string("error: --jobs needs a non-negative number, "
                          "got '") +
              Argv[I] + "'";
      return std::nullopt;
    }
    Jobs = *Value;
  }
  return Jobs;
}

RunOutcome specai::runRequest(const RunRequest &Req) {
  RunOutcome Out;
  DiagnosticEngine Diags;
  auto CP = compileSource(Req.Source, Diags, Req.Lowering);
  if (!CP) {
    Out.Error = Diags.str();
    return Out;
  }
  // Content digest of the lowered module: entry IR first, then every
  // callee in CompiledProgram::Callees order (deterministic — bottom-up
  // call-graph order fixed by the lowering).
  Out.ProgramDigest = fnv1a(CP->P->str());
  for (const std::unique_ptr<CompiledProgram> &Callee : CP->Callees)
    Out.ProgramDigest = fnv1a(Callee->P->str(), Out.ProgramDigest);

  BatchVariant V;
  V.Options = Req.Options;
  V.DetectLeaks = Req.DetectLeaks;
  Out.Row = runVariant(*CP, V);
  Out.Ok = true;
  return Out;
}

RepairRunOutcome specai::runRepairRequest(const RunRequest &Req) {
  RepairRunOutcome Out;
  DiagnosticEngine Diags;
  auto CP = compileSource(Req.Source, Diags, Req.Lowering);
  if (!CP) {
    Out.Error = Diags.str();
    return Out;
  }
  Out.ProgramDigest = fnv1a(CP->P->str());
  for (const std::unique_ptr<CompiledProgram> &Callee : CP->Callees)
    Out.ProgramDigest = fnv1a(Callee->P->str(), Out.ProgramDigest);

  RepairOptions RO;
  RO.Analysis = Req.Options;
  Out.Result = synthesizeRepairs(*CP, RO);
  Out.Ok = true;
  return Out;
}

std::string BatchVariant::describe(const MustHitOptions &Options) {
  std::string S = Options.Speculative ? mergeStrategyName(Options.Strategy)
                                      : "non-speculative";
  S += "/";
  S += std::to_string(Options.Cache.NumLines);
  S += "Lx";
  S += std::to_string(Options.Cache.Associativity);
  S += "W/";
  if (Options.IterativeDepthRefinement)
    S += "refine";
  else
    S += boundingModeName(Options.Bounding);
  // The policy segment appears only for non-LRU rows, so every label (and
  // with it the benches' requireRow lookups) predating the policy
  // dimension is unchanged.
  if (Options.Cache.Policy != ReplacementPolicy::Lru) {
    S += "/";
    S += replacementPolicyName(Options.Cache.Policy);
  }
  return S;
}

const BatchRow *BatchReport::findRow(const std::string &Label) const {
  for (const BatchRow &Row : Rows)
    if (Row.Label == Label)
      return &Row;
  return nullptr;
}

const BatchRow &BatchReport::requireRow(const std::string &Label) const {
  if (const BatchRow *Row = findRow(Label))
    return *Row;
  // Throwing (instead of the historical printf + exit(1)) keeps a daemon
  // hosting this library alive on a malformed sweep; fail-fast consumers
  // like the benches catch at the call site and exit themselves.
  throw std::out_of_range("no '" + Label + "' row in sweep");
}

TableWriter BatchReport::toTable() const {
  TableWriter T({"Config", "Cache", "#Access", "#Miss", "#SpMiss", "#Branch",
                 "#Ite", "Leaks", "Time(s)"});
  for (const BatchRow &R : Rows) {
    std::string Cache = std::to_string(R.Cache.NumLines) + "x" +
                        std::to_string(R.Cache.LineSize) + "B/" +
                        std::to_string(R.Cache.Associativity) + "w";
    if (R.Cache.Policy != ReplacementPolicy::Lru) {
      Cache += "/";
      Cache += replacementPolicyName(R.Cache.Policy);
    }
    std::string Leaks = "-";
    if (R.LeaksChecked) {
      Leaks = std::to_string(R.LeakSites.size());
      Leaks += "/";
      Leaks += std::to_string(R.LeakSites.size() + R.ProvenLeakFree);
    }
    T.addRow({R.Label, Cache, std::to_string(R.AccessNodes),
              std::to_string(R.MissCount), std::to_string(R.SpMissCount),
              std::to_string(R.BranchCount), std::to_string(R.Iterations),
              Leaks, formatDouble(R.Seconds, 3)});
  }
  return T;
}

BatchRunner::BatchRunner(unsigned Jobs) : Jobs(Jobs) {
  if (this->Jobs == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->Jobs = HW == 0 ? 1 : HW;
  }
}

BatchReport BatchRunner::run(const CompiledProgram &CP,
                             const std::vector<BatchVariant> &Variants) const {
  BatchReport Report;
  Report.Rows.resize(Variants.size());
  unsigned Workers =
      static_cast<unsigned>(std::min<size_t>(Jobs, Variants.size()));
  Report.JobsUsed = Workers == 0 ? 1 : Workers;
  if (Variants.empty())
    return Report;

  Timer Total;
  // Work stealing off a shared counter: each worker claims the next
  // unclaimed variant and writes the row into that variant's slot, so row
  // order is the variant order no matter which worker finished first.
  parallelFor(Workers, Variants.size(), [&](size_t I) {
    Report.Rows[I] = runVariant(CP, Variants[I]);
  });
  Report.TotalSeconds = Total.seconds();
  return Report;
}

BatchReport BatchRunner::runSource(const std::string &Source,
                                   const std::vector<BatchVariant> &Variants,
                                   DiagnosticEngine &Diags,
                                   const LoweringOptions &Lowering) const {
  auto CP = compileSource(Source, Diags, Lowering);
  if (!CP)
    return BatchReport{};
  return run(*CP, Variants);
}

std::vector<BatchVariant>
BatchRunner::mergeStrategySweep(const MustHitOptions &Base) {
  std::vector<BatchVariant> Variants;
  for (MergeStrategy S :
       {MergeStrategy::NoMerge, MergeStrategy::MergeAtExit,
        MergeStrategy::JustInTime, MergeStrategy::MergeAtRollback}) {
    BatchVariant V;
    V.Options = Base;
    V.Options.Speculative = true;
    V.Options.Strategy = S;
    V.Label = mergeStrategyName(S);
    Variants.push_back(std::move(V));
  }
  return Variants;
}

std::vector<BatchVariant>
BatchRunner::boundingModeSweep(const MustHitOptions &Base) {
  std::vector<BatchVariant> Variants;
  auto Add = [&](const char *Label, BoundingMode Mode, bool Refine) {
    BatchVariant V;
    V.Options = Base;
    V.Options.Speculative = true;
    V.Options.Bounding = Mode;
    V.Options.IterativeDepthRefinement = Refine;
    V.Label = Label;
    Variants.push_back(std::move(V));
  };
  Add("fixed", BoundingMode::Fixed, false);
  Add("dynamic", BoundingMode::Dynamic, false);
  Add("refine", BoundingMode::Fixed, true);
  return Variants;
}

std::vector<BatchVariant>
BatchRunner::crossProductSweep(const MustHitOptions &Base,
                               const std::vector<MergeStrategy> &Strategies,
                               const std::vector<CacheConfig> &Configs,
                               const std::vector<BoundingMode> &Boundings,
                               const std::vector<ReplacementPolicy> &Policies) {
  std::vector<BatchVariant> Variants;
  for (MergeStrategy S : Strategies)
    for (const CacheConfig &C : Configs)
      for (BoundingMode B : Boundings)
        for (ReplacementPolicy P : Policies) {
          BatchVariant V;
          V.Options = Base;
          V.Options.Speculative = true;
          V.Options.Strategy = S;
          V.Options.Cache = C.withPolicy(P);
          if (!V.Options.Cache.isValid())
            continue; // E.g. PLRU over a non-power-of-two associativity.
          V.Options.Bounding = B;
          V.Label = BatchVariant::describe(V.Options);
          Variants.push_back(std::move(V));
        }
  return Variants;
}

std::vector<BatchVariant>
BatchRunner::policySweep(const MustHitOptions &Base,
                         const std::vector<ReplacementPolicy> &Policies) {
  std::vector<BatchVariant> Variants;
  for (ReplacementPolicy P : Policies) {
    BatchVariant V;
    V.Options = Base;
    V.Options.Cache = Base.Cache.withPolicy(P);
    if (!V.Options.Cache.isValid())
      continue;
    V.Label = replacementPolicyName(P);
    Variants.push_back(std::move(V));
  }
  return Variants;
}
