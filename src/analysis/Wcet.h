//===- Wcet.h - Execution time estimation ------------------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-time estimation on top of the must-hit classification (paper
/// §2.1, §7.2). The deliverable the paper reports is the number of
/// statically detected potential cache misses (#Miss / #SpMiss, Table 5);
/// this module adds a simple worst-case cycle bound: every possibly-missing
/// access is charged the miss latency, every must-hit the hit latency, and
/// a longest-path bound is computed on the acyclic condensation of the CFG
/// (back edges contribute via the per-node worst-case latencies of their
/// loop bodies times a user-supplied iteration bound).
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_ANALYSIS_WCET_H
#define SPECAI_ANALYSIS_WCET_H

#include "analysis/AnalysisPipeline.h"
#include "pipeline/SpeculativeCpu.h"

#include <cstdint>

namespace specai {

/// Worst-case execution estimate derived from a MustHitReport.
struct WcetReport {
  /// Access nodes that may miss (the paper's #Miss).
  uint64_t PossibleMissNodes = 0;
  /// Access nodes guaranteed to hit.
  uint64_t MustHitNodes = 0;
  /// Speculative-only possible misses (#SpMiss).
  uint64_t SpeculativeMissNodes = 0;
  /// Longest-path cycle bound over the acyclic structure, with loop bodies
  /// weighted by LoopIterationBound.
  uint64_t WorstCaseCycles = 0;
};

/// Options for the cycle bound.
struct WcetOptions {
  TimingModel Timing;
  /// Residual (non-unrolled) loops are assumed to iterate at most this
  /// many times for the cycle bound. The bound covers the *total* number
  /// of header executions of each loop, so nested loops need no
  /// per-level product; `estimateWcet` is monotone in it.
  uint32_t LoopIterationBound = 64;
  /// Test-only fault injection (support/Fault.h); only WcetHitForMiss
  /// and WcetDropLoopScale have an effect here. Never set outside tests.
  InjectedFault Fault = InjectedFault::None;
};

/// Computes the estimate from a finished analysis over \p CP.
WcetReport estimateWcet(const CompiledProgram &CP, const MustHitReport &R,
                        const WcetOptions &Options = {});

} // namespace specai

#endif // SPECAI_ANALYSIS_WCET_H
