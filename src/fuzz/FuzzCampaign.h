//===- FuzzCampaign.h - Parallel differential fuzzing campaigns -*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives whole soundness-fuzzing campaigns: generate N programs from a
/// base seed, run the differential oracle on each, minimize any
/// counterexample to a replayable `.mc` file, and aggregate coverage
/// statistics. Programs fan out across the driver layer's work-stealing
/// pool (`parallelFor`, shared with BatchRunner); program i is generated
/// from seed Base+i and validated independently of every other program, so
/// campaign summaries are bit-identical for any `--jobs` value.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_FUZZ_FUZZCAMPAIGN_H
#define SPECAI_FUZZ_FUZZCAMPAIGN_H

#include "fuzz/ProgramGen.h"
#include "fuzz/SoundnessOracle.h"

#include <span>
#include <string>
#include <vector>

namespace specai {

/// One rung of the fault-injection ladder (docs/FUZZING.md,
/// "Fault-injection matrix"): an injected fault, the oracle that must
/// catch it, and the size of the self-test campaign that shows it does.
/// The table drives `specai-fuzz --selftest`, and `--inject-fault` forces
/// the rung's oracle on.
struct FaultRung {
  InjectedFault Fault = InjectedFault::None;
  /// The single oracle expected to catch it (an OracleKind bit).
  unsigned Oracle = 0;
  /// Programs in the self-test campaign.
  unsigned Programs = 0;
  /// Demand a strictly shrinking minimization (only meaningful for faults
  /// that fire on nearly every program, where <= is vacuous).
  bool StrictShrink = false;
};

/// Every rung, one per non-None fault, in ladder order: engine, verdict,
/// lowering, repair.
std::span<const FaultRung> faultRungs();
/// The rung of \p F; null for None.
const FaultRung *faultRung(InjectedFault F);

/// Campaign configuration.
struct FuzzCampaignOptions {
  /// Base seed; program i uses Seed + i.
  uint64_t Seed = 1;
  unsigned Programs = 100;
  /// Worker threads (0 = hardware concurrency).
  unsigned Jobs = 0;
  ProgramGenOptions Gen;
  SoundnessOracleOptions Oracle;
  /// Replacement policies to validate each program under; the oracle runs
  /// once per (program, policy) with `Oracle.Cache` switched to the
  /// policy. The default keeps campaigns (and their golden summaries)
  /// bit-identical to the pre-policy fuzzer; `specai-fuzz --policy all`
  /// samples all three lattices of docs/DOMAINS.md. Policies invalid for
  /// the oracle geometry (PLRU over a non-power-of-two associativity) are
  /// skipped.
  std::vector<ReplacementPolicy> Policies = {ReplacementPolicy::Lru};
  /// Delta-debug counterexamples down to a minimal statement set.
  bool Minimize = true;
};

/// A minimized, replayable counterexample.
struct Counterexample {
  uint64_t ProgramSeed = 0;
  /// Replacement policy of the oracle run that found the violation (the
  /// campaign may sweep several per program).
  ReplacementPolicy Policy = ReplacementPolicy::Lru;
  /// Minimized source (equals OriginalSource when minimization is off or
  /// made no progress).
  std::string Source;
  std::string OriginalSource;
  Violation V;
  /// Rendered violation against the minimized program.
  std::string Pretty;
  /// Statements before/after minimization.
  size_t StmtsBefore = 0;
  size_t StmtsAfter = 0;
  /// Input bindings (names parallel to V.Run.ScalarValues/ArrayValues), so
  /// --replay can rebind the recorded values.
  std::vector<std::string> InputScalars;
  std::vector<std::pair<std::string, unsigned>> InputArrays;

  /// Renders a self-contained `.mc` file: `// replay-*` header comments
  /// (scenario, inputs, windows, oracle config) followed by the minimized
  /// source. `specai-fuzz --replay FILE` re-checks it.
  std::string replayFile(const SoundnessOracleOptions &O) const;
};

/// Aggregated campaign counters. Everything except Seconds is
/// deterministic in (Seed, Programs, options) and independent of Jobs.
struct FuzzCampaignStats {
  uint64_t Programs = 0;
  uint64_t CompileFailures = 0;
  uint64_t ViolationPrograms = 0;
  /// ViolationPrograms split by the oracle that fired (the kind of the
  /// first violation per program; see oracleOfViolation).
  uint64_t CacheViolations = 0;
  uint64_t WcetViolations = 0;
  uint64_t LeakViolations = 0;
  uint64_t LoweringViolations = 0;
  uint64_t RepairViolations = 0;
  OracleStats Oracle;
  double Seconds = 0;

  /// Deterministic multi-line summary (no timings).
  std::string summary() const;
};

/// Outcome of one campaign.
struct FuzzCampaignResult {
  FuzzCampaignStats Stats;
  /// In program order (slot-addressed), independent of scheduling.
  std::vector<Counterexample> Counterexamples;

  bool ok() const { return Counterexamples.empty(); }
};

/// Runs a campaign.
FuzzCampaignResult runFuzzCampaign(const FuzzCampaignOptions &Options);

/// Checks one generated program (exposed for tests and --replay):
/// compiles \p G and runs the oracle; on a violation optionally minimizes.
/// Returns nullopt when the program is clean. \p Stats accumulates
/// coverage either way.
std::optional<Counterexample>
checkGeneratedProgram(const GeneratedProgram &G,
                      const SoundnessOracleOptions &Oracle, bool Minimize,
                      OracleStats &Stats, uint64_t &CompileFailures);

/// Re-checks one recorded counterexample under \p Opts, whose Oracles,
/// Strategies and Boundings name the recorded oracle and scenario (the
/// one replay path of `specai-fuzz --replay` and its self-test). Repair
/// and lowering counterexamples re-run checkRepair / checkLoweringDiff
/// with concrete inputs re-derived from \p Seed; every other oracle
/// re-checks the recorded run \p Run. Returns the violation if it
/// reproduces.
std::optional<Violation> replayCounterexample(
    const std::string &Source, const std::vector<std::string> &InputScalars,
    const std::vector<std::pair<std::string, unsigned>> &InputArrays,
    uint64_t Seed, const RunSpec &Run, const SoundnessOracleOptions &Opts);

} // namespace specai

#endif // SPECAI_FUZZ_FUZZCAMPAIGN_H
