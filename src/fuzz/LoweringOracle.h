//===- LoweringOracle.h - Differential lowering oracle ----------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential *lowering* oracle behind `specai-fuzz --oracle
/// lowering`: compiles one source program under both lowerings —
/// `LoweringMode::InlineUnroll` (the reference: every call inlined, every
/// counted loop unrolled) and `LoweringMode::Summarize` (loops kept rolled
/// under widening, calls replaced by per-function speculative summaries;
/// DESIGN.md §4) — analyzes both, and cross-checks them.
///
/// Neither lowering's abstract results are pointwise contained in the
/// other's, so the oracle does *not* assert "summarize must-hit implies
/// unrolled must-hit" or "summarize WCET >= unrolled WCET" — both fail on
/// healthy programs. Inlining a callee whose rolled `while` loop sits
/// inside a speculative window re-ages the caller's MUST entries once per
/// abstract lap (the header's MUST-intersection join drops the loop-body
/// block each round, so its access keeps charging age), evicting caller
/// blocks the idempotent summary pressure transfer (one aging of
/// #distinct-callee-lines per set) retains; conversely, unrolling
/// constant-folds counted-loop indices into immediate accesses the rolled
/// widened loop can only see as wild. Both directions are legitimate
/// precision differences; they are *counted* (OracleStats::
/// LoweringSumOnlyMustHits / LoweringUnrolledOnlyMustHits /
/// LoweringWcetTighter / LoweringWcetLooser / LoweringLeakDeltas, fed to
/// `bench_lowering_diff`), not flagged.
///
/// What *is* checked — genuine contradictions at most one side can be
/// right about, plus ground truth:
///
///  1. **Classification conflict.** A source location every reachable
///     summarize instance proves must-hit while every reachable unrolled
///     instance proves must-miss (or vice versa) is a contradiction: the
///     instances denote the same committed accesses, which either can hit
///     or cannot.
///  2. **Concrete must-hit containment.** Committed runs of the *unrolled*
///     program (the executable semantics both lowerings share) must hit at
///     every access whose location the summarize analysis claims must-hit.
///  3. **Concrete WCET undercut.** Each run's committed cycle count must
///     respect `estimateWcet` of *both* lowerings, with the loop iteration
///     bound set to the run's observed worst header-execution count
///     (mirroring the single-lowering WCET oracle). This is what retires
///     the "summarize bound must dominate" claim soundly: both bounds must
///     dominate *reality*, not each other.
///
/// A lowering fault in `Opts.Fault` (drop-widen / stale-summary /
/// skip-backedge) is injected into the summarize side only; `specai-fuzz
/// --selftest lowering` proves each one is caught.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_FUZZ_LOWERINGORACLE_H
#define SPECAI_FUZZ_LOWERINGORACLE_H

#include "fuzz/SoundnessOracle.h"

#include <optional>
#include <string>
#include <vector>

namespace specai {

/// Runs the differential lowering diff on \p Source: one comparison per
/// (strategy, bounding) pair in \p Opts, then \p Opts.InputRounds concrete
/// runs seeded from \p Seed (inputs are derived deterministically from the
/// seed, so `--replay` needs only the recorded `// replay-seed`). Returns
/// the first violation; \p Stats accumulates coverage either way. Node ids
/// in the returned violation refer to the *unrolled* program (what
/// `compileSource` with default options produces), so campaign rendering
/// and replay work unchanged.
std::optional<Violation>
checkLoweringDiff(const std::string &Source,
                  const std::vector<std::string> &InputScalars,
                  const std::vector<std::pair<std::string, unsigned>> &InputArrays,
                  uint64_t Seed, const SoundnessOracleOptions &Opts,
                  OracleStats &Stats);

} // namespace specai

#endif // SPECAI_FUZZ_LOWERINGORACLE_H
