//===- specai-cli.cpp - Command line driver --------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Command line front end for the analysis pipeline:
///
///   specai-cli FILE.mc [options]
///
///   --entry NAME        entry function (default: main)
///   --lowering M        inline (default: inline every call, unroll counted
///                       loops) | summarize (keep loops rolled + widen,
///                       apply per-function speculative summaries at call
///                       sites; DESIGN.md §4)
///   --no-spec           non-speculative baseline (Algorithm 1)
///   --lines N           cache lines (default 512, at most 2^24)
///   --assoc N           associativity (default: fully associative, at
///                       most 2^24)
///   --depth-miss N      b_miss window (default 200, at most 2^20)
///   --depth-hit N       b_hit window (default 20, at most 2^20)
///   --strategy S        no-merge | merge-at-exit | just-in-time |
///                       merge-at-rollback
///   --policy P          replacement policy: lru (default) | fifo | plru
///                       (per-policy abstract lattices: docs/DOMAINS.md)
///   --no-shadow         disable the Appendix-B shadow refinement
///   --refine            iterative depth refinement (§6.2 outer loop)
///   --dump-ir           print the lowered IR
///   --dump-states       print the fixed-point state at every block entry
///   --leaks             run the side-channel detector
///   --wcet              print the WCET report
///   --batch             run the Figure 6 sweep (all four merge strategies)
///                       in parallel and print one aggregated table
///   --jobs N            worker threads for --batch (default: all cores)
///   --digest            print the program and verdict digests instead of
///                       the full report — the same content-addressed
///                       digests the specaid service computes
///                       (docs/SERVICE.md), so scripts can check a daemon
///                       verdict is bit-identical to a single-shot run
///   --repair            synthesize a minimum-cost mitigation set for every
///                       reported leak (docs/MITIGATION.md) and print the
///                       chosen mitigations, the WCET cost, and the patched
///                       program
///
/// Exit code: 0 on success, 1 on compile/analysis error, 2 when --leaks
/// found a leak (so scripts can gate on it) — in batch mode, when any
/// variant found one (each leaking variant's sites are printed first).
/// --repair exits 0 when every leak was repaired (or there was nothing to
/// repair) and 2 when leaks remain beyond the mitigation menu.
/// --batch results are identical whatever --jobs is; only the timing
/// columns vary. The sweep is inherently speculative and covers every
/// strategy, so --no-spec, --strategy, --wcet, and --dump-states are
/// rejected in combination with --batch rather than silently ignored.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace specai;

namespace {

void usage(std::FILE *To) {
  std::fprintf(To,
      "usage: specai-cli FILE.mc [--entry NAME] [--lowering inline|summarize]\n"
      "       [--no-spec] [--lines N]\n"
      "       [--assoc N] [--depth-miss N] [--depth-hit N] [--strategy S]\n"
      "       [--policy lru|fifo|plru] [--no-shadow] [--refine]\n"
      "       [--dump-ir] [--dump-states] [--leaks] [--wcet] [--batch]\n"
      "       [--jobs N] [--digest] [--repair]\n");
}

/// Parses a numeric flag value in [0, Max]; exits 1 on anything else
/// (signs, trailing junk, values past Max), so a typo can neither read as
/// 0 nor ask for a huge cache geometry or speculation window.
uint32_t parseBounded(const char *Flag, const char *Value, uint32_t Max) {
  std::optional<unsigned> N = parseUnsigned(Value);
  if (!N || *N > Max) {
    std::fprintf(stderr, "error: %s needs a number in [0, %u], got '%s'\n",
                 Flag, Max, Value);
    std::exit(1);
  }
  return *N;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage(stderr);
    return 1;
  }

  std::string File;
  LoweringOptions Lowering;
  MustHitOptions Opts;
  uint32_t Lines = 512;
  uint32_t Assoc = 0; // 0 = fully associative.
  bool DumpIr = false, DumpStates = false, Leaks = false, Wcet = false;
  bool Batch = false, StrategySet = false, JobsSet = false, Digest = false;
  bool Repair = false;
  ReplacementPolicy Policy = ReplacementPolicy::Lru;
  unsigned Jobs = 0; // 0 = all hardware threads.

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(1);
      }
      return Argv[++I];
    };
    if (Arg == "--entry") {
      Lowering.EntryFunction = Next();
    } else if (Arg == "--lowering") {
      std::string M = Next();
      if (!parseLoweringMode(M, Lowering.Mode)) {
        std::fprintf(stderr, "error: unknown lowering mode '%s' (inline | summarize)\n",
                    M.c_str());
        return 1;
      }
    } else if (Arg == "--no-spec") {
      Opts.Speculative = false;
    } else if (Arg == "--lines") {
      Lines = parseBounded("--lines", Next(), MaxCacheLines);
    } else if (Arg == "--assoc") {
      Assoc = parseBounded("--assoc", Next(), MaxCacheLines);
    } else if (Arg == "--depth-miss") {
      Opts.DepthMiss = parseBounded("--depth-miss", Next(), MaxSpecDepth);
    } else if (Arg == "--depth-hit") {
      Opts.DepthHit = parseBounded("--depth-hit", Next(), MaxSpecDepth);
    } else if (Arg == "--strategy") {
      StrategySet = true;
      std::string S = Next();
      if (!parseMergeStrategy(S, Opts.Strategy)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", S.c_str());
        return 1;
      }
    } else if (Arg == "--policy") {
      std::string P = Next();
      if (!parseReplacementPolicy(P, Policy)) {
        std::fprintf(stderr, "error: unknown policy '%s' (lru | fifo | plru)\n",
                    P.c_str());
        return 1;
      }
    } else if (Arg == "--no-shadow") {
      Opts.UseShadow = false;
    } else if (Arg == "--refine") {
      Opts.IterativeDepthRefinement = true;
    } else if (Arg == "--dump-ir") {
      DumpIr = true;
    } else if (Arg == "--dump-states") {
      DumpStates = true;
    } else if (Arg == "--leaks") {
      Leaks = true;
    } else if (Arg == "--wcet") {
      Wcet = true;
    } else if (Arg == "--batch") {
      Batch = true;
    } else if (Arg == "--digest") {
      Digest = true;
    } else if (Arg == "--repair") {
      Repair = true;
    } else if (Arg == "--jobs") {
      const char *Value = Next();
      std::optional<unsigned> Parsed = parseUnsigned(Value);
      if (!Parsed) {
        std::fprintf(stderr, "error: --jobs needs a non-negative number, got '%s'\n",
                    Value);
        return 1;
      }
      Jobs = *Parsed;
      JobsSet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return 1;
    } else {
      File = Arg;
    }
  }

  if (File.empty()) {
    usage(stderr);
    return 1;
  }
  if (JobsSet && !Batch) {
    std::fprintf(stderr, "error: --jobs only applies to --batch\n");
    return 1;
  }
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  DiagnosticEngine Diags;
  auto CP = compileSource(Buffer.str(), Diags, Lowering);
  if (!CP) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (DumpIr) {
    std::printf("%s\n", CP->P->str().c_str());
    for (const std::unique_ptr<CompiledProgram> &Callee : CP->Callees)
      std::printf("%s\n", Callee->P->str().c_str());
  }

  Opts.Cache = Assoc == 0 ? CacheConfig::fullyAssociative(Lines)
                          : CacheConfig::setAssociative(Lines, Assoc);
  Opts.Cache.Policy = Policy;
  if (!Opts.Cache.isValid()) {
    // PLRU needs a power-of-two way count (the direction bits form a
    // complete binary tree); every other failure is plain geometry.
    if (Policy == ReplacementPolicy::Plru &&
        Opts.Cache.withPolicy(ReplacementPolicy::Lru).isValid())
      std::fprintf(stderr, "error: --policy plru needs power-of-two associativity "
                  "(got %u ways)\n",
                  Opts.Cache.Associativity);
    else
      std::fprintf(stderr, "error: invalid cache geometry (%u lines, %u ways)\n",
                  Lines, Assoc);
    return 1;
  }

  if (Repair) {
    // Repair mode (docs/MITIGATION.md): synthesize the minimum-cost
    // mitigation set whose re-analysis proves every reported leak site
    // leak-free, then print what was chosen and the patched program. The
    // detector runs implicitly; sweep/digest modes answer a different
    // question, so combining them is rejected rather than guessed at.
    if (Batch || Digest || Wcet || DumpStates) {
      std::fprintf(stderr, "error: --repair applies to plain single runs; "
                   "drop --batch/--digest/--wcet/--dump-states\n");
      return 1;
    }
    RepairOptions RO;
    RO.Analysis = Opts;
    RepairResult Res = synthesizeRepairs(*CP, RO);
    if (!Res.Error.empty()) {
      std::fprintf(stderr, "error: %s\n", Res.Error.c_str());
      return 1;
    }
    if (Res.LeaksBefore == 0) {
      std::printf("repair: no leaks reported; program unchanged\n");
      return 0;
    }
    std::printf("repair: %llu leaks, %zu mitigations, wcet %llu -> %llu "
                "(%u candidates, %u reanalyses, %s search)\n",
                static_cast<unsigned long long>(Res.LeaksBefore),
                Res.Applied.size(),
                static_cast<unsigned long long>(Res.WcetBefore),
                static_cast<unsigned long long>(Res.WcetAfter),
                Res.Candidates, Res.Reanalyses,
                Res.UsedExactSearch ? "exact" : "greedy");
    for (const Mitigation &M : Res.Applied)
      std::printf("  %s\n", M.str(Res.Patched).c_str());
    if (!Res.Repaired) {
      std::printf("repair: %llu of %llu leaks remain beyond the mitigation "
                  "menu\n",
                  static_cast<unsigned long long>(Res.LeaksAfter),
                  static_cast<unsigned long long>(Res.LeaksBefore));
      return 2;
    }
    std::printf("patched program:\n%s\n", Res.Patched.str().c_str());
    return 0;
  }

  if (Digest) {
    // Digest mode answers "what would the specaid daemon say" — it runs
    // through the same runRequest entry point the service uses, so the
    // verdict digest it prints must match a service response for the same
    // source and options bit for bit.
    if (Batch || Wcet || DumpStates) {
      std::fprintf(stderr, "error: --digest applies to plain single runs; drop "
                   "--batch/--wcet/--dump-states\n");
      return 1;
    }
    RunRequest Req;
    Req.Source = Buffer.str();
    Req.Lowering = Lowering;
    Req.Options = Opts;
    Req.DetectLeaks = Leaks;
    RunOutcome Out = runRequest(Req);
    if (!Out.Ok) {
      std::fprintf(stderr, "%s", Out.Error.c_str());
      return 1;
    }
    std::printf("program-digest: 0x%016llx\n",
                static_cast<unsigned long long>(Out.ProgramDigest));
    std::printf("verdict-digest: 0x%016llx\n",
                static_cast<unsigned long long>(Out.Row.digest()));
    if (Leaks && !Out.Row.LeakSites.empty()) {
      for (const std::string &Site : Out.Row.LeakSites)
        std::printf("%s\n", Site.c_str());
      return 2;
    }
    return 0;
  }

  if (Batch) {
    // Figure 6 / Table 6 sweep: the configured cache/depth/bounding under
    // all four merge strategies, fanned out over the worker pool. The
    // sweep only makes sense speculatively and covers every strategy;
    // refuse contradictions and single-run-only flags rather than
    // silently overriding them.
    if (!Opts.Speculative) {
      std::fprintf(stderr, "error: --batch sweeps merge strategies, which only "
                  "exist speculatively; drop --no-spec\n");
      return 1;
    }
    if (StrategySet) {
      std::fprintf(stderr, "error: --batch sweeps all merge strategies; drop "
                  "--strategy\n");
      return 1;
    }
    if (Wcet || DumpStates) {
      std::fprintf(stderr, "error: %s applies to single runs only; drop it or "
                  "--batch\n",
                  Wcet ? "--wcet" : "--dump-states");
      return 1;
    }
    BatchRunner Runner(Jobs);
    std::vector<BatchVariant> Variants = BatchRunner::mergeStrategySweep(Opts);
    // The detector stays opt-in like in single-run mode; without --leaks
    // the table's Leaks column shows "-".
    for (BatchVariant &V : Variants)
      V.DetectLeaks = Leaks;
    BatchReport Report = Runner.run(*CP, Variants);
    std::printf("batch: %zu variants, %u jobs, %.3fs total\n",
                Report.Rows.size(), Report.JobsUsed, Report.TotalSeconds);
    std::printf("%s", Report.toTable().str().c_str());
    if (Leaks) {
      bool AnyLeak = false;
      for (const BatchRow &Row : Report.Rows) {
        if (Row.LeakSites.empty())
          continue;
        AnyLeak = true;
        for (const std::string &Site : Row.LeakSites)
          std::printf("%s: %s\n", Row.Label.c_str(), Site.c_str());
      }
      if (AnyLeak)
        return 2;
    }
    return 0;
  }

  Timer T;
  MustHitReport R = runMustHitAnalysis(*CP, Opts);
  std::printf("analysis: %s, %s merging, cache %u x %u B (%u-way %s), "
              "depths (%u, %u)\n",
              Opts.Speculative ? "speculative" : "non-speculative",
              mergeStrategyName(Opts.Strategy), Opts.Cache.NumLines,
              Opts.Cache.LineSize, Opts.Cache.Associativity,
              replacementPolicyName(Opts.Cache.Policy), Opts.DepthHit,
              Opts.DepthMiss);
  std::printf("time: %.3fs  iterations: %llu  converged: %s\n", T.seconds(),
              static_cast<unsigned long long>(R.Iterations),
              R.Converged ? "yes" : "NO");
  std::printf("accesses: %llu  possible misses: %llu  speculative-only "
              "misses: %llu  speculatable branches: %llu\n",
              static_cast<unsigned long long>(R.AccessNodes),
              static_cast<unsigned long long>(R.MissCount),
              static_cast<unsigned long long>(R.SpMissCount),
              static_cast<unsigned long long>(R.BranchCount));

  if (DumpStates) {
    for (BlockId B = 0; B != CP->P->Blocks.size(); ++B) {
      NodeId N = CP->G.blockStart(B);
      if (R.States.Normal[N].isBottom())
        continue;
      std::printf("bb%-3u %-14s %s\n", B, CP->P->Blocks[B].Name.c_str(),
                  R.States.Normal[N].str(*R.MM).c_str());
    }
  }

  if (Wcet) {
    WcetReport W = estimateWcet(*CP, R);
    std::printf("wcet: %llu must-hit sites, %llu possible-miss sites, "
                "cycle bound %llu\n",
                static_cast<unsigned long long>(W.MustHitNodes),
                static_cast<unsigned long long>(W.PossibleMissNodes),
                static_cast<unsigned long long>(W.WorstCaseCycles));
  }

  if (Leaks) {
    SideChannelReport SC = detectLeaks(*CP, R);
    if (SC.leakDetected()) {
      for (const LeakSite &L : SC.Leaks)
        std::printf("%s\n", L.str(*CP->P).c_str());
      return 2;
    }
    std::printf("no leaks: %llu secret-indexed accesses proven "
                "timing-uniform\n",
                static_cast<unsigned long long>(SC.ProvenLeakFree));
  }
  return 0;
}
