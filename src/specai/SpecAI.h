//===- SpecAI.h - Public umbrella header ------------------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single include exposing the whole public API:
///
/// \code
///   DiagnosticEngine Diags;
///   auto CP = compileSource(Source, Diags);
///   MustHitOptions Opts;            // speculative, JIT merging, 32 KB LRU
///   MustHitReport R = runMustHitAnalysis(*CP, Opts);
///   SideChannelReport Leaks = detectLeaks(*CP, R);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SPECAI_H
#define SPECAI_SPECAI_H

#include "ai/SpeculativeEngine.h"
#include "ai/Vcfg.h"
#include "analysis/AnalysisPipeline.h"
#include "analysis/SideChannel.h"
#include "analysis/Taint.h"
#include "analysis/Wcet.h"
#include "cache/CacheSim.h"
#include "cfg/Dominators.h"
#include "cfg/FlatCfg.h"
#include "cfg/LoopInfo.h"
#include "domain/CacheDomain.h"
#include "domain/CacheState.h"
#include "driver/BatchRunner.h"
#include "fuzz/FuzzCampaign.h"
#include "fuzz/LoweringOracle.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/RepairOracle.h"
#include "fuzz/SoundnessOracle.h"
#include "fuzz/StateDigest.h"
#include "ir/Interp.h"
#include "ir/Ir.h"
#include "ir/Lowering.h"
#include "ir/Verifier.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "memory/MemoryModel.h"
#include "pipeline/BranchPredictor.h"
#include "pipeline/SpeculativeCpu.h"
#include "repair/MitigationSynth.h"
#include "service/AnalysisPool.h"
#include "service/Client.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "service/ServiceEngine.h"
#include "service/VerdictCache.h"
#include "support/Diagnostics.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#endif // SPECAI_SPECAI_H
