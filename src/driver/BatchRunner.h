//===- BatchRunner.h - Parallel multi-configuration sweeps ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-pool driver fanning one compiled program out across analysis
/// configurations — merge strategies (Figure 6), cache geometries, depth
/// bounding modes (§6.2), and replacement policies (docs/DOMAINS.md) —
/// and aggregating the per-run MustHitReport/SideChannelReport counters
/// into table rows.
///
/// `runMustHitAnalysis` is pure with respect to its `const
/// CompiledProgram &` input, so the variants of a sweep are embarrassingly
/// parallel: the runner compiles once, hands each worker thread its own
/// MustHitOptions, and writes each result into the slot reserved for its
/// variant. Rows therefore come back in variant order and are bit-for-bit
/// identical whatever the thread count — only the wall-clock timings vary.
///
/// This is the substrate behind `specai-cli --batch` and the Table 6 /
/// ablation benches.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_DRIVER_BATCHRUNNER_H
#define SPECAI_DRIVER_BATCHRUNNER_H

#include "analysis/AnalysisPipeline.h"
#include "analysis/SideChannel.h"
#include "repair/MitigationSynth.h"
#include "support/Table.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace specai {

/// Runs Fn(0..Count-1) across up to \p Jobs worker threads (0 = hardware
/// concurrency), work-stealing indices off a shared counter. Never spawns
/// more threads than work items; Jobs <= 1 runs inline. Callers get
/// jobs-invariant results by writing into index-addressed slots, the same
/// discipline BatchRunner::run uses for its rows — the fuzz campaign fans
/// whole programs out through this as well.
///
/// Exception safety: an exception thrown by \p Fn does not escape a worker
/// thread (which would std::terminate the whole process — fatal for the
/// long-lived specaid daemon, docs/SERVICE.md). The first exception is
/// captured, the remaining workers stop claiming new indices and are
/// joined, and the exception is rethrown on the calling thread. Indices
/// already claimed by other workers may still run to completion.
void parallelFor(unsigned Jobs, size_t Count,
                 const std::function<void(size_t)> &Fn);

/// One analysis configuration of a sweep.
struct BatchVariant {
  /// Row label, e.g. "just-in-time/512Lx512W/dynamic".
  std::string Label;
  MustHitOptions Options;
  /// Also run the side-channel detector over the finished report.
  bool DetectLeaks = true;

  /// Canonical "strategy/geometry/bounding" label derived from \p Options.
  static std::string describe(const MustHitOptions &Options);
};

/// What one analysis asserts about a program under one configuration:
/// the must-hit/miss counters and the leak verdict. Batch rows and daemon
/// responses both carry one. The work an analysis took (worklist pops,
/// seconds) is not part of it, because it depends on the pop schedule and
/// the machine rather than on (program, options).
struct Verdict {
  // MustHitReport counters (Table 5/6 columns).
  uint64_t AccessNodes = 0;
  uint64_t MissCount = 0;
  uint64_t SpMissCount = 0;
  uint64_t BranchCount = 0;
  unsigned RefinementRounds = 1;
  bool Converged = true;

  // SideChannelReport counters (Table 7 columns); only meaningful when
  // LeaksChecked (the variant ran with DetectLeaks = true). LeakSites
  // holds one rendered diagnostic per leak, so consumers can report what
  // leaked without re-running the analysis; the leak count is its size.
  bool LeaksChecked = false;
  uint64_t ProvenLeakFree = 0;
  std::vector<std::string> LeakSites;

  bool operator==(const Verdict &) const = default;

  /// FNV-1a over the canonical rendering of every field above, defined
  /// with the wire format in service/Protocol.cpp. Equal verdicts have
  /// equal digests; `specai-cli --digest` and the daemon's
  /// `verdict_digest` print it.
  uint64_t digest() const;
};

/// Outcome of one variant. Only scalar counters are kept (the per-node
/// state vectors of MustHitReport stay on the worker's stack), so a row is
/// cheap to collect and compare.
struct BatchRow : Verdict {
  std::string Label;

  // Configuration echo, so tables are self-describing.
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  BoundingMode Bounding = BoundingMode::Dynamic;
  CacheConfig Cache;
  bool Speculative = true;

  /// Worklist pops of the fixpoint. A work counter like Seconds: it
  /// depends on the pop order, so it is not part of the verdict.
  uint64_t Iterations = 0;
  /// The run's ExecBudget tripped; the verdict of this row is void (the
  /// leak scan is skipped too) — a timed-out row asserts nothing about
  /// the program.
  bool BudgetExceeded = false;

  /// Wall time of this variant's analysis. Informational only: timings
  /// depend on scheduling.
  double Seconds = 0;
};

/// Result of one sweep.
struct BatchReport {
  /// One row per variant, in variant order regardless of which worker
  /// finished first.
  std::vector<BatchRow> Rows;
  /// Wall time of the whole sweep.
  double TotalSeconds = 0;
  /// Worker threads the sweep actually used.
  unsigned JobsUsed = 1;

  /// Renders the rows as one aligned ASCII table.
  TableWriter toTable() const;

  /// The row labeled \p Label, or nullptr. Consumers that unpack specific
  /// variants should use this rather than positional indexing, so a
  /// reordered sweep fails loudly instead of mislabeling columns.
  const BatchRow *findRow(const std::string &Label) const;

  /// Like findRow, but throws std::out_of_range when the row is missing —
  /// for consumers whose table columns hard-code variant labels. Benches
  /// keep their fail-fast behavior by catching at the call site (or not at
  /// all); library code hosting a daemon must never exit() on a malformed
  /// sweep, so this reports instead of killing the process.
  const BatchRow &requireRow(const std::string &Label) const;
};

/// Fans analysis variants out over a pool of worker threads.
class BatchRunner {
public:
  /// \p Jobs worker threads; 0 picks the hardware concurrency.
  explicit BatchRunner(unsigned Jobs = 0);

  /// Threads the next run() will use (never 0).
  unsigned jobCount() const { return Jobs; }

  /// Runs every variant over \p CP and collects the rows. The pool never
  /// spawns more threads than variants.
  BatchReport run(const CompiledProgram &CP,
                  const std::vector<BatchVariant> &Variants) const;

  /// Compiles \p Source once, then sweeps. On compile error returns an
  /// empty report and leaves the details in \p Diags.
  BatchReport runSource(const std::string &Source,
                        const std::vector<BatchVariant> &Variants,
                        DiagnosticEngine &Diags,
                        const LoweringOptions &Lowering = {}) const;

  /// The Figure 6 / Table 6 sweep: \p Base under all four merge
  /// strategies.
  static std::vector<BatchVariant>
  mergeStrategySweep(const MustHitOptions &Base);

  /// The §6.2 ablation: fixed vs dynamic bounding vs the iterative outer
  /// refinement.
  static std::vector<BatchVariant>
  boundingModeSweep(const MustHitOptions &Base);

  /// Full cross product: strategies x cache geometries x bounding modes x
  /// replacement policies. Variant order is the nesting order of the
  /// arguments (strategy outermost), so rows group by strategy.
  /// Policy/geometry combinations that are invalid (PLRU over a
  /// non-power-of-two associativity) are skipped rather than run.
  static std::vector<BatchVariant>
  crossProductSweep(const MustHitOptions &Base,
                    const std::vector<MergeStrategy> &Strategies,
                    const std::vector<CacheConfig> &Configs,
                    const std::vector<BoundingMode> &Boundings,
                    const std::vector<ReplacementPolicy> &Policies = {
                        ReplacementPolicy::Lru});

  /// \p Base under each replacement policy (invalid combinations skipped),
  /// labeled by policy name — the sweep behind `specai-cli --batch` when a
  /// policy comparison is wanted and `bench_policy_matrix`.
  static std::vector<BatchVariant>
  policySweep(const MustHitOptions &Base,
              const std::vector<ReplacementPolicy> &Policies = {
                  ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                  ReplacementPolicy::Plru});

private:
  unsigned Jobs;
};

/// One self-contained analysis request: source text plus every knob that
/// can change the verdict. This is the unit the specaid service caches by
/// content digest (docs/SERVICE.md); single-shot consumers can use it too.
struct RunRequest {
  std::string Source;
  LoweringOptions Lowering;
  MustHitOptions Options;
  /// Also run the side-channel detector (like BatchVariant::DetectLeaks).
  bool DetectLeaks = true;
};

/// Outcome of runRequest. Unlike the CLI front ends this never exits and
/// never prints: compile failures come back as Ok = false with the
/// rendered diagnostics, so a daemon can turn them into error responses.
struct RunOutcome {
  bool Ok = false;
  /// Rendered DiagnosticEngine output when !Ok.
  std::string Error;
  /// FNV-1a over the lowered IR of the entry and (Summarize mode) every
  /// callee — the content-addressed "program" half of a verdict-cache key.
  /// Two sources that lower to identical IR share a digest; any change to
  /// lowering mode, entry, or unroll limits that alters the IR splits it.
  uint64_t ProgramDigest = 0;
  /// The condensed verdict, identical to what a BatchRunner sweep of this
  /// one variant would produce (bit-identical counters, leak sites).
  BatchRow Row;
};

/// Compiles and analyzes one request. Pure library code: reports errors
/// through the outcome instead of printf/exit, safe to call from daemon
/// worker threads. The verdict is bit-identical to `specai-cli` on the
/// same source and options.
RunOutcome runRequest(const RunRequest &Req);

/// Outcome of runRepairRequest: the repair-verb analogue of RunOutcome.
/// Ok means the source compiled; whether a repair was found is
/// Result.Repaired (LeaksBefore == 0 means there was nothing to fix).
struct RepairRunOutcome {
  bool Ok = false;
  /// Rendered DiagnosticEngine output when !Ok.
  std::string Error;
  /// Same content-addressed program digest runRequest computes, so repair
  /// verdicts share the service's source memo and cache-key discipline.
  uint64_t ProgramDigest = 0;
  RepairResult Result;
};

/// Compiles \p Req.Source and synthesizes a minimum-cost repair under
/// \p Req.Options (repair/MitigationSynth.h). Pure library code like
/// runRequest — the substrate of the specaid `repair` verb and
/// `specai-cli --repair`. \p Req.DetectLeaks is ignored: repair always
/// runs the leak detector (there is nothing to repair without it).
RepairRunOutcome runRepairRequest(const RunRequest &Req);

/// Parses a bench-style command line that accepts only `--jobs N`.
/// Returns 0 (all cores) when the flag is absent; returns nullopt and
/// fills \p Error on a valueless --jobs, a non-numeric N, or any unknown
/// argument — a silently dropped flag would report contended timings the
/// user believes are serial. Benches fail fast at the call site (print to
/// stderr, exit nonzero); library code must not, so this never exits.
std::optional<unsigned> parseJobsFlag(int Argc, char **Argv,
                                      std::string &Error);

} // namespace specai

#endif // SPECAI_DRIVER_BATCHRUNNER_H
