//===- SoundnessOracle.h - Differential soundness oracle --------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind `specai-fuzz`: checks that every cache
/// state reachable by the *concrete* speculative CPU — under every sampled
/// combination of branch-prediction decisions, program inputs, and
/// rollback points — is over-approximated by the abstract engine's
/// S/SS/PR states, for every merge strategy (Figure 6) and bounding mode
/// (§6.2).
///
/// Per generated program the oracle:
///
///  1. runs the abstract analysis once per (strategy x bounding) pair and
///     derives, per speculation site, the depth bound the analysis assumed
///     (b_miss, or b_hit when the §6.2 dynamic bounding applies);
///  2. drives `SpeculativeCpu` across an exhaustive DFS over
///     branch-prediction decision prefixes (a `ScriptedPredictor` is the
///     strongest adversarial "strategy" of the paper's §3.2), plus random
///     longer scripts and the trained predictor zoo, over several input
///     vectors and several speculation-window assignments (full-depth and
///     shrunken, so rollback can land mid-window, mid-loop, or exactly at
///     a load);
///  3. at every concrete access, compares the pre-access concrete cache
///     against the abstract input states of the corresponding node:
///       - committed accesses against Normal ⊔ PostRollback (the paper's
///         observable states): every non-symbolic MUST entry must be
///         resident within its age bound, every concretely resident block
///         must be admitted by the MAY (shadow) side, a MustHit
///         classification must hit, and a MustMiss must miss;
///       - in-window accesses against the joined speculative states: the
///         node must have been speculatively reached by the analysis, its
///         MUST entries must hold, and a concrete speculative load miss
///         must be flagged SpecPossibleMiss;
///  4. checks speculation is architecturally transparent: the committed
///     access trace and return value must equal a non-speculative
///     reference run's.
///
/// Windows are pinned per branch: each site's concrete window is exactly
/// (or a sampled prefix of) the depth bound the analysis used for it, and
/// branches the plan does not model (register-only conditions, which
/// resolve before a speculative access can issue) get window 0 — the
/// oracle validates the engine against the paper's machine model, not the
/// b_hit/b_miss resolution-latency proxy.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_FUZZ_SOUNDNESSORACLE_H
#define SPECAI_FUZZ_SOUNDNESSORACLE_H

#include "analysis/AnalysisPipeline.h"
#include "analysis/SideChannel.h"
#include "analysis/Wcet.h"
#include "repair/MitigationSynth.h"

#include <optional>
#include <string>
#include <vector>

namespace specai {

/// Which differential oracles a run validates (a bitmask; the CLI's
/// `--oracle cache|wcet|leak|all`). Cache is the PR 2 abstract-state
/// containment oracle; Wcet and Leak are *verdict-level* oracles that
/// cross-check the user-facing deliverables — worst-case cycle bounds
/// (§2.1/§7.2) and leak-freedom proofs (§2.2/§7.3) — against the concrete
/// cycle-charging executor and a concrete cache-timing attacker.
enum OracleKind : unsigned {
  OracleCache = 1u << 0,
  OracleWcet = 1u << 1,
  OracleLeak = 1u << 2,
  /// The differential *lowering* oracle (fuzz/LoweringOracle.h): compiles
  /// every program under both LoweringMode::InlineUnroll and ::Summarize
  /// and asserts the widened/summarized results never claim more than the
  /// unrolled ones (and that concrete runs agree). Deliberately NOT part
  /// of OracleAll: `--oracle all` campaign counters are pinned golden
  /// artifacts; select it explicitly (`--oracle lowering`, repeatable
  /// alongside the others).
  OracleLowering = 1u << 3,
  /// The differential *repair* oracle (fuzz/RepairOracle.h): synthesizes a
  /// minimum-cost mitigation set for every leaky program
  /// (repair/MitigationSynth.h), independently re-analyzes the emitted
  /// patched artifacts, and revalidates them on the concrete pipeline —
  /// secret-variant attacker replay, architectural equivalence, and
  /// cycle-for-cycle WCET-claim cross-checks. Like OracleLowering it is
  /// deliberately NOT part of OracleAll: `--oracle all` campaign counters
  /// are pinned golden artifacts; select it explicitly (`--oracle
  /// repair`).
  OracleRepair = 1u << 4,
  OracleAll = OracleCache | OracleWcet | OracleLeak,
};

/// Printable name of a single oracle bit ("cache" / "wcet" / "leak" /
/// "lowering" / "repair").
const char *oracleKindName(unsigned Kind);
/// Parses one oracle selector (including "all"); false on unknown names.
bool parseOracleKind(const std::string &Name, unsigned &MaskOut);

/// Oracle configuration. The defaults trade per-program coverage against
/// campaign throughput: a small cache (so evictions actually happen) and
/// short windows (so depth exhaustion lands inside interesting code).
struct SoundnessOracleOptions {
  CacheConfig Cache = CacheConfig::fullyAssociative(8);
  uint32_t DepthMiss = 24;
  uint32_t DepthHit = 6;
  std::vector<MergeStrategy> Strategies = {
      MergeStrategy::NoMerge, MergeStrategy::MergeAtExit,
      MergeStrategy::JustInTime, MergeStrategy::MergeAtRollback};
  std::vector<BoundingMode> Boundings = {BoundingMode::Fixed,
                                         BoundingMode::Dynamic};
  bool UseShadow = true;
  /// Exhaustive DFS over prediction-decision prefixes up to this length;
  /// beyond it the script falls back to not-taken.
  unsigned ExhaustiveBits = 5;
  /// Additional random scripts per (input, window) round.
  unsigned SampledScripts = 8;
  unsigned SampledScriptLength = 48;
  /// Random input vectors per program.
  unsigned InputRounds = 2;
  /// Extra rounds with per-site windows sampled in [0, bound] — rollback
  /// points land mid-window instead of only at exhaustion.
  unsigned ShrunkenWindowRounds = 1;
  /// Also run the trained predictor zoo (bimodal/gshare/perceptron/...).
  bool UseStandardPredictors = true;
  uint64_t MaxSteps = 500000;
  /// Which oracles to run. The default (cache only) keeps campaign
  /// summaries bit-identical to the pre-verdict fuzzer.
  unsigned Oracles = OracleCache;
  /// WCET verdict options. `Wcet.Timing` is also the concrete CPU's
  /// timing model, so the bound and the cycle accumulator always agree on
  /// latencies. `Wcet.LoopIterationBound` is ignored: each run is checked
  /// against the estimate for its *observed* maximum loop-header
  /// execution count, the tightest bound whose assumptions the run
  /// satisfies (the estimate is monotone in the bound, so any larger one
  /// follows).
  WcetOptions Wcet;
  /// Secret variants per leak-attacker family: each family replays the
  /// program on this many secrets with identical public inputs, identical
  /// prediction script, and identical windows.
  unsigned LeakSecrets = 3;
  /// Leak-attacker families (public-input rounds) per program.
  unsigned LeakRounds = 2;
  /// Deliberate fault to inject (fuzzer self-test only; support/Fault.h).
  /// Each oracle hands it only to the layer it breaks: engine faults to
  /// this oracle's analyses, verdict faults to estimateWcet and
  /// detectLeaks/annotateSpeculationOnly, lowering faults to the summarize
  /// side of the lowering diff (never the unrolled reference side), and
  /// repair faults to the synthesis the repair oracle validates (never its
  /// independent re-analysis or concrete replays).
  InjectedFault Fault = InjectedFault::None;
};

/// What went wrong, from most fundamental to most derived.
enum class ViolationKind : uint8_t {
  CompileError,         ///< The generator emitted a program the frontend
                        ///< rejects (a generator bug; campaign-level).
  AnalysisDiverged,     ///< A fixpoint failed to converge.
  RunStuck,             ///< A concrete run exceeded MaxSteps.
  UnreachableReached,   ///< Architecturally reached a node the analysis
                        ///< deemed unreachable.
  MustStateNotContained,///< A MUST entry (resident, age<=k) failed
                        ///< concretely at a committed access.
  MayStateUnderApprox,  ///< A concretely resident block is not admitted by
                        ///< the MAY (shadow) state.
  MustHitMissed,        ///< A MustHit-classified access missed.
  MustMissHit,          ///< A MustMiss-classified access hit.
  SpecStateMissing,     ///< Speculatively reached a node with bottom
                        ///< speculative state.
  SpecStateNotContained,///< A speculative-state MUST entry failed inside a
                        ///< window.
  SpecMissUnflagged,    ///< A concrete speculative load miss at a node not
                        ///< flagged SpecPossibleMiss.
  ArchResultDiverged,   ///< Speculation changed the architectural result.
  ArchTraceDiverged,    ///< Speculation changed the committed access trace.
  WcetBoundExceeded,    ///< A concrete run committed more cycles than
                        ///< estimateWcet's bound for the matching
                        ///< loop-bound/timing options.
  LeakFreeSiteVaried,   ///< The attacker-visible hit/miss behavior varied
                        ///< at a site the speculative report proved
                        ///< leak-free.
  NonSpecLeakFreeSiteVaried, ///< Same, for the non-speculative report
                             ///< under non-speculative runs.
  SpecOnlyLabelInconsistent, ///< SpeculationOnly diff labeling contradicts
                             ///< the speculative/non-speculative reports.
  LoweringMustHitConflict,      ///< One lowering proves a source location
                                ///< must-hit while the other proves the
                                ///< same location must-miss: at most one
                                ///< can be sound.
  LoweringWcetUndercut,         ///< A cycle-charged concrete run committed
                                ///< more cycles than one lowering's
                                ///< estimateWcet bound for the observed
                                ///< loop iteration count.
  LoweringConcreteMustHitMissed,///< A concrete (unrolled) run missed at a
                                ///< location the summarize analysis
                                ///< claims must-hit.
  RepairIncomplete,     ///< The synthesizer reported success but left a
                        ///< reported leak site unmitigated, or failed on
                        ///< a program the menu demonstrably covers.
  RepairLeakRemains,    ///< An independent re-analysis of the *emitted*
                        ///< patched program (under the emitted clamps)
                        ///< still reports a leak.
  RepairSemanticsChanged,///< The patched program diverges architecturally
                        ///< from the original (return value or final
                        ///< memory/hoisted-register state).
  RepairReplayLeak,     ///< A secret-variant attacker family observed
                        ///< non-uniform hit/miss outcomes on the patched
                        ///< program under the emitted clamps.
  RepairCostClaim,      ///< The reported WcetAfter undercuts an
                        ///< independent estimateWcet of the emitted
                        ///< artifacts.
  RepairCostExceeded,   ///< A concrete run of the patched program
                        ///< committed more cycles than the reported
                        ///< WcetAfter bound for its observed loop count.
};

/// Which oracle a violation kind belongs to (OracleCache/Wcet/Leak), or 0
/// for infrastructure failures (compile errors, divergence, stuck runs)
/// that are no oracle's soundness claim.
unsigned oracleOfViolation(ViolationKind K);

const char *violationKindName(ViolationKind K);

/// One fully concrete scenario: enough to replay a run bit-for-bit.
struct RunSpec {
  /// Branch-prediction decisions (taken = true); not-taken beyond the end.
  std::vector<bool> Script;
  bool Fallback = false;
  /// When set, use this standard predictor instead of the script.
  std::string PredictorName;
  /// Values of the input scalars (parallel to the oracle's InputScalars).
  std::vector<int64_t> ScalarValues;
  /// Initial contents of the input arrays (parallel to InputArrays).
  std::vector<std::vector<int64_t>> ArrayValues;
  /// Concrete speculation window per plan site.
  std::vector<uint32_t> SiteWindows;
  /// Leak-attacker families only: SecretVariants[v][s] holds the contents
  /// of the s-th *secret* input array (in the oracle's secret-array
  /// order) for variant v; publics, script, and windows stay fixed across
  /// variants. Non-empty marks this spec as a family rather than a single
  /// containment/WCET run.
  std::vector<std::vector<std::vector<int64_t>>> SecretVariants;
};

/// One soundness violation, pinned to the (strategy, bounding) report it
/// contradicts and the scenario that exhibits it.
struct Violation {
  ViolationKind Kind = ViolationKind::AnalysisDiverged;
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  BoundingMode Bounding = BoundingMode::Fixed;
  NodeId Node = InvalidNode;
  std::string Detail;
  RunSpec Run;

  /// Human-readable one-paragraph rendering ("<kind> at node N (bbX[i],
  /// <inst>) under <strategy>/<bounding>: <detail>").
  std::string str(const CompiledProgram &CP) const;
};

/// Coverage counters of one oracle invocation.
struct OracleStats {
  uint64_t Analyses = 0;
  uint64_t ConcreteRuns = 0;
  uint64_t SpeculativeWindows = 0;
  uint64_t CommittedChecks = 0;
  uint64_t SpeculativeChecks = 0;
  /// Per-run, per-report WCET verdict comparisons.
  uint64_t WcetChecks = 0;
  /// Leak-attacker families (fixed publics/script, varied secrets).
  uint64_t LeakFamilies = 0;
  /// Concrete attacker runs across all families (spec + non-spec).
  uint64_t LeakRuns = 0;
  /// Per-family, per-report proven-leak-free site validations.
  uint64_t LeakSiteChecks = 0;
  /// Lowering oracle: (strategy, bounding) report pairs diffed between
  /// the two lowerings (0 unless OracleLowering is selected).
  uint64_t LoweringDiffs = 0;
  /// Lowering oracle: per-location containment checks (must-hit and
  /// leak-free locations validated against the unrolled report).
  uint64_t LoweringLocChecks = 0;
  /// Lowering oracle: summarize-vs-unrolled WCET bound comparisons.
  uint64_t LoweringWcetChecks = 0;
  /// Lowering oracle: concrete accesses checked against summarize
  /// must-hit locations.
  uint64_t LoweringConcreteChecks = 0;
  // Precision deltas between the two lowerings. These are *not*
  // violations: summaries can out-prove inline flows (an inlined rolled
  // loop re-ages the caller's MUST entries once per lap inside a
  // speculative window, while the summary's pressure transfer is
  // idempotent), and vice versa for fully constant-folded unrolled
  // indices. The bench harness aggregates them into BENCH_lowering.json.
  /// Locations must-hit under summarize only.
  uint64_t LoweringSumOnlyMustHits = 0;
  /// Locations must-hit under inline-unroll only.
  uint64_t LoweringUnrolledOnlyMustHits = 0;
  /// Report pairs where the summarize WCET bound is strictly tighter.
  uint64_t LoweringWcetTighter = 0;
  /// Report pairs where the summarize bound is strictly looser.
  uint64_t LoweringWcetLooser = 0;
  /// Secret-indexed locations whose leak-free status differs.
  uint64_t LoweringLeakDeltas = 0;
  /// Repair oracle: programs pushed through synthesize-and-revalidate
  /// (0 unless OracleRepair is selected).
  uint64_t RepairChecks = 0;
  /// Repair oracle: programs whose initial report had >= 1 leak site.
  uint64_t RepairLeakyPrograms = 0;
  /// Repair oracle: leaky programs the synthesizer proved repaired.
  uint64_t RepairRepaired = 0;
  /// Repair oracle: mitigations applied across all repairs.
  uint64_t RepairMitigations = 0;
  /// Repair oracle: sum of reported repair costs (WcetAfter - WcetBefore,
  /// floored at 0) across repaired programs.
  uint64_t RepairCostTotal = 0;
  /// Repair oracle: full re-analyses the searches performed.
  uint64_t RepairReanalyses = 0;
  /// Repair oracle: concrete runs of patched programs (attacker variants
  /// and equivalence/WCET replays).
  uint64_t RepairReplayRuns = 0;
  /// Repair oracle: per-run WcetAfter cycle cross-checks.
  uint64_t RepairCostChecks = 0;

  OracleStats &operator+=(const OracleStats &RHS) {
    Analyses += RHS.Analyses;
    ConcreteRuns += RHS.ConcreteRuns;
    SpeculativeWindows += RHS.SpeculativeWindows;
    CommittedChecks += RHS.CommittedChecks;
    SpeculativeChecks += RHS.SpeculativeChecks;
    WcetChecks += RHS.WcetChecks;
    LeakFamilies += RHS.LeakFamilies;
    LeakRuns += RHS.LeakRuns;
    LeakSiteChecks += RHS.LeakSiteChecks;
    LoweringDiffs += RHS.LoweringDiffs;
    LoweringLocChecks += RHS.LoweringLocChecks;
    LoweringWcetChecks += RHS.LoweringWcetChecks;
    LoweringConcreteChecks += RHS.LoweringConcreteChecks;
    LoweringSumOnlyMustHits += RHS.LoweringSumOnlyMustHits;
    LoweringUnrolledOnlyMustHits += RHS.LoweringUnrolledOnlyMustHits;
    LoweringWcetTighter += RHS.LoweringWcetTighter;
    LoweringWcetLooser += RHS.LoweringWcetLooser;
    LoweringLeakDeltas += RHS.LoweringLeakDeltas;
    RepairChecks += RHS.RepairChecks;
    RepairLeakyPrograms += RHS.RepairLeakyPrograms;
    RepairRepaired += RHS.RepairRepaired;
    RepairMitigations += RHS.RepairMitigations;
    RepairCostTotal += RHS.RepairCostTotal;
    RepairReanalyses += RHS.RepairReanalyses;
    RepairReplayRuns += RHS.RepairReplayRuns;
    RepairCostChecks += RHS.RepairCostChecks;
    return *this;
  }
};

/// Outcome of checking one program.
struct OracleResult {
  /// First violation found per concrete run (empty means sound). The
  /// campaign keeps only the first per program and minimizes it.
  std::vector<Violation> Violations;
  OracleStats Stats;

  bool ok() const { return Violations.empty(); }
};

/// The oracle for one compiled program. The CompiledProgram must outlive
/// the oracle.
class SoundnessOracle {
public:
  SoundnessOracle(const CompiledProgram &CP,
                  std::vector<std::string> InputScalars,
                  std::vector<std::pair<std::string, unsigned>> InputArrays,
                  SoundnessOracleOptions Options = {});
  ~SoundnessOracle();

  SoundnessOracle(const SoundnessOracle &) = delete;
  SoundnessOracle &operator=(const SoundnessOracle &) = delete;

  /// Runs the full scenario sweep, deterministically from \p Seed.
  OracleResult run(uint64_t Seed);

  /// Checks one concrete scenario against every compatible report; returns
  /// the first violation. Used for counterexample replay and minimization.
  std::optional<Violation> checkRun(const RunSpec &Spec);

  const SoundnessOracleOptions &options() const { return Options; }

private:
  struct ReportCtx;

  /// Per-site window bound the analysis assumed in report \p RC.
  static std::vector<uint32_t> siteDepths(const CompiledProgram &CP,
                                          const MustHitReport &R,
                                          const MustHitOptions &O);

  /// \p DecisionsUsed, when non-null, receives the number of predictor
  /// decisions the run consumed (drives the exhaustive script DFS).
  std::optional<Violation> runScenario(const RunSpec &Spec,
                                       OracleStats &Stats,
                                       size_t *DecisionsUsed = nullptr);
  /// Runs one leak-attacker family (\p Spec with SecretVariants): replays
  /// the program per secret with and without speculation, pools the
  /// attacker-visible hit/miss outcomes per secret-indexed site, and
  /// checks every report's leak verdicts against them.
  std::optional<Violation> runLeakFamily(const RunSpec &Spec,
                                         OracleStats &Stats);
  /// WCET bound of report \p RC for \p LoopBound total header executions,
  /// memoized (the adaptive bound revisits few distinct values).
  uint64_t wcetBoundFor(ReportCtx &RC, uint32_t LoopBound);
  /// Reports whose speculation envelope covers \p Spec's windows: a
  /// concrete window never longer than the depth the analysis assumed
  /// for the site. (Shorter is fine — the engine models a rollback after
  /// every prefix of the window.)
  std::vector<ReportCtx *> compatibleReports(const RunSpec &Spec);
  /// Pins every branch's window and loads \p Spec's inputs into \p Cpu —
  /// the one machine configuration every oracle validates against (plan
  /// sites get the scenario's window and stop at their reconvergence
  /// point; branches outside the plan get window 0).
  void pinWindowsAndInputs(SpeculativeCpu &Cpu, const RunSpec &Spec);
  /// Reference (non-speculative) run for the transparency check; memoized
  /// per input vector.
  struct Reference;
  const Reference &referenceFor(const RunSpec &Spec);

  const CompiledProgram &CP;
  std::vector<std::string> InputScalars;
  std::vector<std::pair<std::string, unsigned>> InputArrays;
  SoundnessOracleOptions Options;
  std::vector<ReportCtx> Reports;
  std::vector<Reference> References;
  /// Minimal per-site windows compatible with every report.
  std::vector<uint32_t> MinSiteDepths;
  /// Per-report full-depth window vectors, deduplicated.
  std::vector<std::vector<uint32_t>> FullWindowMaps;
  /// Indices into InputArrays of the `secret`-qualified arrays (the leak
  /// attacker varies exactly these).
  std::vector<size_t> SecretArrays;
  /// Non-speculative analysis + its leak report (leak oracle only): the
  /// baseline side of the SpeculationOnly diff and the verdict checked
  /// against non-speculative attacker runs.
  std::unique_ptr<MustHitReport> NonSpecReport;
  SideChannelReport NonSpecLeak;
  /// Scratch per-node committed execution counts (WCET loop coverage).
  std::vector<uint64_t> ExecCounts;
};

} // namespace specai

#endif // SPECAI_FUZZ_SOUNDNESSORACLE_H
