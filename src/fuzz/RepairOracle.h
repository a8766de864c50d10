//===- RepairOracle.h - Differential repair-synthesis oracle ----*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind `specai-fuzz --oracle repair`: pushes a
/// generated program through the mitigation synthesizer
/// (repair/MitigationSynth.h) and validates the *emitted* artifacts — the
/// patched program and its per-site clamps — against judges the
/// synthesizer does not control:
///
///  1. an independent re-analysis of the emitted program under the
///     emitted clamps must report zero leaks whenever the synthesizer
///     claims the repair proven (RepairLeakRemains otherwise);
///  2. concrete architectural equivalence: the patched program must
///     compute the original's return value and final memory (hoisted
///     scalars compared register-against-memory) on seed-derived inputs
///     (RepairSemanticsChanged);
///  3. secret-variant attacker families replayed on the patched program
///     under the concrete SpeculativeCpu — windows pinned to the clamped
///     depths the re-analysis assumed — must observe uniform hit/miss
///     outcomes at every proven-leak-free site (RepairReplayLeak);
///  4. the reported WcetAfter must dominate both an independent
///     estimateWcet of the emitted artifacts (RepairCostClaim) and the
///     committed cycles of every concrete replay whose observed loop
///     count the bound covers (RepairCostExceeded).
///
/// Programs whose every leak is speculation-only must be repairable —
/// fencing each wrong-path entry provably removes speculative pollution —
/// so a failed synthesis there is itself a violation (RepairIncomplete).
///
/// Like the lowering oracle, all concrete inputs derive from the program
/// seed alone, so `--replay` rebuilds the exact runs from the recorded
/// `// replay-seed` header.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_FUZZ_REPAIRORACLE_H
#define SPECAI_FUZZ_REPAIRORACLE_H

#include "fuzz/SoundnessOracle.h"
#include "repair/MitigationSynth.h"

#include <optional>
#include <string>
#include <vector>

namespace specai {

/// Synthesizes a repair for \p Source and revalidates the emitted
/// artifacts; returns the first violation. The analysis runs under
/// \p Opts' first merge strategy with Fixed bounding (so every unclamped
/// site's assumed depth is exactly DepthMiss, the depth the concrete
/// replays pin), and the synthesizer inherits a repair fault in
/// Opts.Fault for the self-test ladder. Deterministic in (Source, inputs,
/// Seed, Opts).
std::optional<Violation> checkRepair(
    const std::string &Source, const std::vector<std::string> &InputScalars,
    const std::vector<std::pair<std::string, unsigned>> &InputArrays,
    uint64_t Seed, const SoundnessOracleOptions &Opts, OracleStats &Stats);

} // namespace specai

#endif // SPECAI_FUZZ_REPAIRORACLE_H
