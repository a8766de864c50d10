//===- specai-fuzz.cpp - Differential soundness fuzzing driver ------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Command line driver for differential soundness fuzzing:
///
///   specai-fuzz [options]            run a campaign
///   specai-fuzz --selftest [SUITE]   prove the oracles catch a broken
///                                    engine/verdict/lowering/repair layer
///                                    (also CTest cases; SUITE:
///                                    cache|wcet|leak|lowering|repair, or
///                                    all, the default: every rung)
///   specai-fuzz --replay FILE.mc     re-check a recorded counterexample
///
///   --seed N            base seed (default 1); program i uses seed N+i
///   --programs N        programs per campaign (default 100)
///   --jobs N            worker threads (default: all cores). Campaign
///                       summaries are identical for any --jobs value.
///   --oracle K          which differential oracles to run: cache
///                       (default; abstract-state containment) | wcet
///                       (concrete cycles vs estimateWcet bound) | leak
///                       (concrete timing attacker vs leak-freedom
///                       proofs) | lowering (summarize-vs-inline-unroll
///                       diff; src/fuzz/LoweringOracle.h) | repair
///                       (synthesize-and-revalidate mitigation sets;
///                       src/fuzz/RepairOracle.h) | all (= cache, wcet,
///                       leak; lowering and repair stay opt-in so classic
///                       campaign counters stay pinned). Repeatable;
///                       repeats OR together.
///   --gen-deep          generate helper functions (deeper call chains)
///                       plus call statements — the workload the lowering
///                       oracle is for
///   --lines N           cache lines of the oracle geometry (default 8)
///   --assoc N           associativity (default: fully associative)
///   --policy P          replacement policy to validate: lru (default) |
///                       fifo | plru | all (one oracle sweep per policy
///                       and program; lattices in docs/DOMAINS.md)
///   --depth-miss N      b_miss window (default 24)
///   --depth-hit N       b_hit window (default 6)
///   --exhaustive-bits N exhaustive prediction-script DFS depth (default 5)
///   --input-rounds N    input vectors per program (default 2)
///   --leak-secrets N    secret variants per leak-attacker family
///                       (default 3)
///   --leak-rounds N     leak-attacker families per program (default 2)
///   --no-shadow         disable the MAY (shadow) refinement + its checks
///   --no-minimize       keep counterexamples unminimized
///   --ce-dir DIR        where to write counterexample .mc files (default .)
///   --json              print the campaign summary as JSON
///   --inject-fault F    deliberately break one layer of the stack and
///                       force on the oracle that must catch it
///                       (self-test aid; the faults are listed by --help
///                       and in docs/FUZZING.md, "Fault-injection
///                       matrix")
///
/// Exit code: 0 sound, 1 usage/compile error, 2 violations found (so CI
/// can gate on it).
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

using namespace specai;

namespace {

void usage(std::FILE *To) {
  std::fprintf(To,
      "usage: specai-fuzz [--seed N] [--programs N] [--jobs N] [--lines N]\n"
      "       [--oracle cache|wcet|leak|lowering|repair|all] [--assoc N]\n"
      "       [--policy lru|fifo|plru|all] [--depth-miss N]\n"
      "       [--depth-hit N] [--gen-deep]\n"
      "       [--exhaustive-bits N] [--input-rounds N] [--leak-secrets N]\n"
      "       [--leak-rounds N] [--no-shadow]\n"
      "       [--no-minimize] [--ce-dir DIR] [--json] [--inject-fault F]\n"
      "       [--selftest [cache|wcet|leak|lowering|repair|all]]\n"
      "       [--replay FILE.mc]\n");
  std::string Line = "F:";
  for (const FaultRung &Rung : faultRungs()) {
    std::string Name = faultName(Rung.Fault);
    if (Line.size() + Name.size() > 72) {
      std::fprintf(To, "%s\n", Line.c_str());
      Line = "  ";
    }
    Line += " " + Name;
  }
  std::fprintf(To, "%s\n", Line.c_str());
}

unsigned parseNum(const char *Arg, const char *Value) {
  std::optional<unsigned> N = parseUnsigned(Value);
  if (!N) {
    std::fprintf(stderr, "error: %s needs a non-negative number, got '%s'\n", Arg,
                Value);
    std::exit(1);
  }
  return *N;
}

/// The campaign summary as one JSON line, with the base seed and the
/// worker threads used, so a run is reproducible from its own record.
std::string campaignJson(const FuzzCampaignStats &S, uint64_t Seed,
                         unsigned Jobs) {
  const OracleStats &O = S.Oracle;
  JsonWriter W;
  W.field("seed", Seed);
  W.field("programs", S.Programs);
  W.field("jobs", static_cast<uint64_t>(Jobs));
  W.field("compile_failures", S.CompileFailures);
  W.field("analyses", O.Analyses);
  W.field("concrete_runs", O.ConcreteRuns);
  W.field("speculative_windows", O.SpeculativeWindows);
  W.field("committed_checks", O.CommittedChecks);
  W.field("speculative_checks", O.SpeculativeChecks);
  W.field("wcet_checks", O.WcetChecks);
  W.field("leak_families", O.LeakFamilies);
  W.field("leak_runs", O.LeakRuns);
  W.field("leak_site_checks", O.LeakSiteChecks);
  W.field("lowering_diffs", O.LoweringDiffs);
  W.field("lowering_loc_checks", O.LoweringLocChecks);
  W.field("lowering_wcet_checks", O.LoweringWcetChecks);
  W.field("lowering_concrete_checks", O.LoweringConcreteChecks);
  W.field("lowering_sum_only_must_hits", O.LoweringSumOnlyMustHits);
  W.field("lowering_unrolled_only_must_hits", O.LoweringUnrolledOnlyMustHits);
  W.field("lowering_wcet_tighter", O.LoweringWcetTighter);
  W.field("lowering_wcet_looser", O.LoweringWcetLooser);
  W.field("lowering_leak_deltas", O.LoweringLeakDeltas);
  // Repair counters only when that oracle ran, so default (non-repair)
  // campaign JSON keeps the pre-repair fuzzer's keys.
  if (O.RepairChecks > 0) {
    W.field("repair_checks", O.RepairChecks);
    W.field("repair_leaky_programs", O.RepairLeakyPrograms);
    W.field("repair_repaired", O.RepairRepaired);
    W.field("repair_mitigations", O.RepairMitigations);
    W.field("repair_cost_total", O.RepairCostTotal);
    W.field("repair_reanalyses", O.RepairReanalyses);
    W.field("repair_replay_runs", O.RepairReplayRuns);
    W.field("repair_cost_checks", O.RepairCostChecks);
    W.field("repair_violations", S.RepairViolations);
  }
  W.field("violation_programs", S.ViolationPrograms);
  W.field("cache_violations", S.CacheViolations);
  W.field("wcet_violations", S.WcetViolations);
  W.field("leak_violations", S.LeakViolations);
  W.field("lowering_violations", S.LoweringViolations);
  W.field("seconds", S.Seconds);
  W.field("programs_per_sec", S.Seconds > 0 ? S.Programs / S.Seconds : 0.0);
  return W.finish();
}

/// Writes every counterexample to CeDir and prints a triage summary.
void reportCounterexamples(const FuzzCampaignResult &R,
                           const SoundnessOracleOptions &Oracle,
                           const std::string &CeDir) {
  for (const Counterexample &CE : R.Counterexamples) {
    std::string Path = CeDir + "/fuzz-ce-seed" +
                       std::to_string(CE.ProgramSeed) + ".mc";
    std::printf("counterexample (seed %llu, %zu -> %zu stmts): %s\n",
                static_cast<unsigned long long>(CE.ProgramSeed),
                CE.StmtsBefore, CE.StmtsAfter, CE.Pretty.c_str());
    std::ofstream Out(Path);
    Out << CE.replayFile(Oracle);
    Out.flush();
    if (Out.good()) {
      std::printf("  written to %s\n", Path.c_str());
    } else {
      // Losing the replayable artifact silently would defeat the whole
      // minimization pipeline; dump it to stderr with the error instead.
      std::fprintf(stderr,
                   "  error: cannot write %s; counterexample follows:\n%s\n",
                   Path.c_str(), CE.replayFile(Oracle).c_str());
    }
  }
}

/// One self-test campaign into \p ResultOut. Lowering suites generate deep
/// programs (helper functions + calls): the stale-summary fault can only
/// fire at a call site, and the other lowering faults want rolled loops in
/// callees too.
void selftestCampaign(InjectedFault Fault, unsigned Oracles,
                      unsigned Programs, FuzzCampaignResult &ResultOut) {
  FuzzCampaignOptions O;
  O.Seed = 1;
  O.Programs = Programs;
  O.Jobs = 0;
  O.Oracle.Fault = Fault;
  O.Oracle.Oracles = Oracles;
  O.Gen.Functions = (Oracles & OracleLowering) != 0;
  // Trim per-program effort: the self-test proves detection, not coverage.
  O.Oracle.ExhaustiveBits = 4;
  O.Oracle.SampledScripts = 4;
  O.Oracle.InputRounds = 1;
  ResultOut = runFuzzCampaign(O);
}

/// Runs one rung of the fault-injection matrix: the oracle must catch the
/// deliberate break with a minimized, replayable counterexample. Returns
/// true when it does.
bool selftestRung(const FaultRung &Rung) {
  const char *Name = faultName(Rung.Fault);
  FuzzCampaignResult Broken;
  selftestCampaign(Rung.Fault, Rung.Oracle, Rung.Programs, Broken);
  if (Broken.ok()) {
    std::printf("selftest: %s fault NOT caught in %u programs ... FAILED\n",
                Name, Rung.Programs);
    return false;
  }
  const Counterexample &CE = Broken.Counterexamples.front();
  bool Minimized = !Rung.StrictShrink || CE.StmtsAfter < CE.StmtsBefore ||
                   CE.StmtsBefore <= 1;

  // The counterexample must replay: same broken stack, recorded scenario,
  // still violating — and its .mc rendering must carry the oracle tag
  // --replay keys on.
  SoundnessOracleOptions RO;
  RO.Oracles = Rung.Oracle;
  RO.Fault = Rung.Fault;
  RO.Strategies = {CE.V.Strategy};
  RO.Boundings = {CE.V.Bounding};
  bool Tagged =
      CE.replayFile(RO).find("// replay-oracle: ") != std::string::npos;
  bool Reproduced = replayCounterexample(CE.Source, CE.InputScalars,
                                         CE.InputArrays, CE.ProgramSeed,
                                         CE.V.Run, RO)
                        .has_value();
  bool Ok = Minimized && Tagged && Reproduced;
  std::printf("selftest: %s fault caught (%llu/%u programs, %zu -> %zu "
              "stmts, first: %s) ... %s\n",
              Name,
              static_cast<unsigned long long>(Broken.Stats.ViolationPrograms),
              Rung.Programs, CE.StmtsBefore, CE.StmtsAfter, CE.Pretty.c_str(),
              Ok ? "ok" : "FAILED");
  if (!Minimized)
    std::printf("  minimizer made no progress\n");
  if (!Tagged)
    std::printf("  replay file lacks the // replay-oracle: header\n");
  if (!Reproduced)
    std::printf("  recorded scenario did not reproduce on replay\n");
  return Ok;
}

/// The fault-injection matrix: every oracle must catch >= 2 deliberate
/// breaks of the layer it validates (faultRungs()). `Suites` is an
/// OracleKind mask selecting which oracles run; each runs a healthy
/// campaign first, then its rungs.
int selftest(unsigned Suites) {
  int Failures = 0;
  for (unsigned Suite : {OracleCache, OracleWcet, OracleLeak, OracleLowering,
                         OracleRepair}) {
    if (!(Suites & Suite))
      continue;
    FuzzCampaignResult Healthy;
    selftestCampaign(InjectedFault::None, Suite, 8, Healthy);
    if (Healthy.ok()) {
      std::printf("selftest: healthy engine+verdicts (--oracle %s), 8 "
                  "programs ... ok\n",
                  oracleKindName(Suite));
    } else {
      std::printf("selftest: healthy engine+verdicts FAILED: %llu violating "
                  "programs\n",
                  static_cast<unsigned long long>(
                      Healthy.Stats.ViolationPrograms));
      SoundnessOracleOptions HO;
      HO.Oracles = Suite;
      reportCounterexamples(Healthy, HO, ".");
      ++Failures;
    }
    for (const FaultRung &Rung : faultRungs())
      if (Rung.Oracle == Suite && !selftestRung(Rung))
        ++Failures;
  }
  std::printf("selftest: %s\n", Failures == 0 ? "PASS" : "FAIL");
  return Failures == 0 ? 0 : 1;
}

/// Parses one "// replay-key: value" header line; returns true and fills
/// Key/Value (trimmed) on match.
bool parseReplayLine(const std::string &Line, std::string &Key,
                     std::string &Value) {
  const std::string Prefix = "// replay-";
  if (Line.rfind(Prefix, 0) != 0)
    return false;
  size_t Colon = Line.find(':', Prefix.size());
  if (Colon == std::string::npos)
    return false;
  Key = Line.substr(Prefix.size(), Colon - Prefix.size());
  Value = trimString(std::string_view(Line).substr(Colon + 1));
  return true;
}

/// Parses all of \p Text as a base-10 integer: false on empty text, any
/// other character (a sign, for unsigned T) or overflow.
template <typename T> bool parseWhole(std::string_view Text, T &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

/// Parses "K0=N0,K1=N1,..." holding exactly the keys of \p Fields, in
/// order, each with a whole unsigned number.
bool parseFields(
    std::string_view Text,
    std::initializer_list<std::pair<std::string, unsigned *>> Fields) {
  std::vector<std::string> Parts = splitString(Text, ',');
  if (Parts.size() != Fields.size())
    return false;
  const std::string *Part = Parts.data();
  for (const auto &[Name, Out] : Fields) {
    if (!startsWith(*Part, Name + "=") ||
        !parseWhole(std::string_view(*Part).substr(Name.size() + 1), *Out))
      return false;
    ++Part;
  }
  return true;
}

/// Appends every remaining whitespace-separated token of \p In to \p Out;
/// false as soon as one is not a whole integer.
template <typename T> bool parseInts(std::istream &In, std::vector<T> &Out) {
  std::string Token;
  while (In >> Token) {
    T Value{};
    if (!parseWhole(Token, Value))
      return false;
    Out.push_back(Value);
  }
  return true;
}

int replay(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  SoundnessOracleOptions Opts;
  RunSpec Spec;
  std::vector<std::string> Scalars;
  std::vector<std::pair<std::string, unsigned>> Arrays;
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  BoundingMode Bounding = BoundingMode::Fixed;
  unsigned OracleMask = OracleCache; // Pre-verdict files carry no header.
  uint64_t Seed = 0; // Lowering diffs re-derive inputs from this.

  std::istringstream Lines(Text);
  std::string Line, Key, Value;
  while (std::getline(Lines, Line)) {
    if (!parseReplayLine(Line, Key, Value))
      continue;
    std::istringstream V(Value);
    // A value that does not parse would replay a different scenario and
    // read as "did not reproduce"; every header below fails loudly
    // instead.
    bool Ok = true;
    if (Key == "oracle") {
      Ok = parseOracleKind(Value, OracleMask);
    } else if (Key == "wcet") {
      unsigned Hit = 2, Miss = 100, Alu = 1, Branch = 10;
      Ok = parseFields(Value, {{"hit", &Hit},
                               {"miss", &Miss},
                               {"alu", &Alu},
                               {"branch", &Branch}});
      Opts.Wcet.Timing.HitLatency = Hit;
      Opts.Wcet.Timing.MissLatency = Miss;
      Opts.Wcet.Timing.AluLatency = Alu;
      Opts.Wcet.Timing.BranchResolveLatency = Branch;
    } else if (Key == "seed") {
      Ok = parseWhole(Value, Seed);
    } else if (Key == "lowering") {
      // The only recorded mode is the summarize diff (the inline-unroll
      // side is the implicit reference).
      Ok = Value == "summarize";
    } else if (Key == "repair") {
      // The only recorded mode is full synthesis (the revalidation judges
      // are implicit).
      Ok = Value == "synthesize";
    } else if (Key == "secret") {
      // "v<variant> e0 e1 ...": lines arrive grouped by variant, one per
      // secret array, in the oracle's secret-array order, so a variant is
      // either one already seen or the next.
      std::string Tag;
      V >> Tag;
      size_t Variant = 0;
      std::vector<int64_t> Values;
      Ok = Tag.size() > 1 && Tag[0] == 'v' &&
           parseWhole(std::string_view(Tag).substr(1), Variant) &&
           Variant <= Spec.SecretVariants.size() && parseInts(V, Values);
      if (Ok) {
        if (Variant == Spec.SecretVariants.size())
          Spec.SecretVariants.emplace_back();
        Spec.SecretVariants[Variant].push_back(std::move(Values));
      }
    } else if (Key == "strategy") {
      Ok = parseMergeStrategy(Value, Strategy);
    } else if (Key == "bounding") {
      Ok = parseBoundingMode(Value, Bounding);
    } else if (Key == "cache") {
      unsigned L = 8, A = 0, B = 64;
      Ok = parseFields(Value,
                       {{"lines", &L}, {"assoc", &A}, {"linesize", &B}}) &&
           L <= MaxCacheLines && A <= MaxCacheLines;
      Opts.Cache = CacheConfig{B, L, A == 0 ? L : A};
    } else if (Key == "depths") {
      unsigned Miss = 24, Hit = 6;
      Ok = parseFields(Value, {{"miss", &Miss}, {"hit", &Hit}}) &&
           Miss <= MaxSpecDepth && Hit <= MaxSpecDepth;
      Opts.DepthMiss = Miss;
      Opts.DepthHit = Hit;
    } else if (Key == "policy") {
      Ok = parseReplacementPolicy(Value, Opts.Cache.Policy);
    } else if (Key == "shadow") {
      Ok = Value == "on" || Value == "off";
      Opts.UseShadow = Value == "on";
    } else if (Key == "fault") {
      // The counterexample came from a fault-injected (self-test) run;
      // replay against the same deliberately broken layer.
      Ok = parseFault(Value, Opts.Fault);
    } else if (Key == "predictor") {
      Spec.PredictorName = Value;
    } else if (Key == "script") {
      // "<T|N bits, or - when empty> fallback=<T|N>".
      std::string Bits, Fallback, Extra;
      V >> Bits >> Fallback;
      Ok = (Fallback == "fallback=T" || Fallback == "fallback=N") &&
           !(V >> Extra);
      if (Bits != "-")
        for (char C : Bits) {
          Ok &= C == 'T' || C == 'N';
          Spec.Script.push_back(C == 'T');
        }
      Spec.Fallback = Fallback == "fallback=T";
    } else if (Key == "scalars") {
      std::string Pair;
      while (Ok && V >> Pair) {
        size_t Eq = Pair.find('=');
        int64_t Scalar = 0;
        Ok = Eq != std::string::npos && Eq != 0 &&
             parseWhole(std::string_view(Pair).substr(Eq + 1), Scalar);
        Scalars.push_back(Pair.substr(0, Eq));
        Spec.ScalarValues.push_back(Scalar);
      }
    } else if (Key == "array") {
      std::string Name;
      V >> Name;
      std::vector<int64_t> Values;
      Ok = !Name.empty() && parseInts(V, Values);
      Arrays.push_back({Name, static_cast<unsigned>(Values.size())});
      Spec.ArrayValues.push_back(std::move(Values));
    } else if (Key == "windows") {
      Ok = parseInts(V, Spec.SiteWindows);
    } else if (Key != "kind" && Key != "detail") {
      // Informational headers aside, an unread key (a typo, or a header
      // this parser no longer knows) would silently drop part of the
      // recorded scenario.
      std::fprintf(stderr, "error: unknown replay header 'replay-%s'\n",
                   Key.c_str());
      return 1;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: bad replay-%s value '%s'\n", Key.c_str(),
                   Value.c_str());
      return 1;
    }
  }
  Opts.Strategies = {Strategy};
  Opts.Boundings = {Bounding};
  Opts.Oracles = OracleMask;

  // An unknown predictor name would make the oracle silently skip the run
  // and a real counterexample would read as "did not reproduce" — fail
  // loudly instead.
  if (!Spec.PredictorName.empty()) {
    bool Known = false;
    for (auto &P : makeStandardPredictors())
      Known |= P->name() == Spec.PredictorName;
    if (!Known) {
      std::fprintf(stderr, "error: unknown replay-predictor '%s'\n",
                  Spec.PredictorName.c_str());
      return 1;
    }
  }

  DiagnosticEngine Diags;
  auto CP = compileSource(Text, Diags);
  if (!CP) {
    std::fprintf(stderr, "error: counterexample does not compile:\n%s\n",
                Diags.str().c_str());
    return 1;
  }

  if (std::optional<Violation> V =
          replayCounterexample(Text, Scalars, Arrays, Seed, Spec, Opts)) {
    std::printf("reproduced: %s\n", V->str(*CP).c_str());
    return 2;
  }
  const char *What = (OracleMask & OracleRepair)     ? "repair pipeline"
                     : (OracleMask & OracleLowering) ? "lowering diff"
                                                     : "scenario";
  std::printf("did not reproduce: the recorded %s is clean under %s\n", What,
              mergeStrategyName(Strategy));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzCampaignOptions O;
  std::string CeDir = ".";
  std::string ReplayPath;
  bool Json = false, SelfTest = false;
  unsigned SelfTestSuites = ~0u; // Every rung of faultRungs().
  bool OracleExplicit = false;
  uint32_t Lines = 8, Assoc = 0;
  ReplacementPolicy Policy = ReplacementPolicy::Lru;
  bool AllPolicies = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(1);
      }
      return Argv[++I];
    };
    if (Arg == "--seed") {
      O.Seed = parseNum("--seed", Next());
    } else if (Arg == "--programs") {
      O.Programs = parseNum("--programs", Next());
    } else if (Arg == "--jobs") {
      O.Jobs = parseNum("--jobs", Next());
    } else if (Arg == "--lines") {
      Lines = parseNum("--lines", Next());
    } else if (Arg == "--assoc") {
      Assoc = parseNum("--assoc", Next());
    } else if (Arg == "--policy") {
      std::string P = Next();
      if (P == "all")
        AllPolicies = true;
      else if (!parseReplacementPolicy(P, Policy)) {
        std::fprintf(stderr, "error: unknown policy '%s' (lru | fifo | plru | all)\n",
                    P.c_str());
        return 1;
      }
    } else if (Arg == "--oracle") {
      std::string Kind = Next();
      unsigned Mask = 0;
      if (!parseOracleKind(Kind, Mask)) {
        std::fprintf(stderr, "error: unknown oracle '%s' (cache | wcet | leak | "
                    "lowering | repair | all)\n",
                    Kind.c_str());
        return 1;
      }
      // First --oracle replaces the cache default; repeats OR together.
      O.Oracle.Oracles = OracleExplicit ? O.Oracle.Oracles | Mask : Mask;
      OracleExplicit = true;
    } else if (Arg == "--leak-secrets") {
      O.Oracle.LeakSecrets = parseNum("--leak-secrets", Next());
    } else if (Arg == "--leak-rounds") {
      O.Oracle.LeakRounds = parseNum("--leak-rounds", Next());
    } else if (Arg == "--depth-miss") {
      O.Oracle.DepthMiss = parseNum("--depth-miss", Next());
    } else if (Arg == "--depth-hit") {
      O.Oracle.DepthHit = parseNum("--depth-hit", Next());
    } else if (Arg == "--exhaustive-bits") {
      O.Oracle.ExhaustiveBits = parseNum("--exhaustive-bits", Next());
    } else if (Arg == "--input-rounds") {
      O.Oracle.InputRounds = parseNum("--input-rounds", Next());
    } else if (Arg == "--no-shadow") {
      O.Oracle.UseShadow = false;
    } else if (Arg == "--gen-deep") {
      O.Gen.Functions = true;
    } else if (Arg == "--no-minimize") {
      O.Minimize = false;
    } else if (Arg == "--ce-dir") {
      CeDir = Next();
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--inject-fault") {
      std::string Kind = Next();
      if (!parseFault(Kind, O.Oracle.Fault) ||
          O.Oracle.Fault == InjectedFault::None) {
        std::fprintf(stderr, "error: unknown fault '%s'\n", Kind.c_str());
        return 1;
      }
    } else if (Arg == "--selftest") {
      SelfTest = true;
      // Optional suite selector (cache | wcet | leak | lowering | repair |
      // all). Unlike `--oracle all`, a selftest of all runs every rung.
      if (I + 1 < Argc && Argv[I + 1][0] != '-') {
        std::string Suite = Argv[++I];
        if (Suite != "all" && !parseOracleKind(Suite, SelfTestSuites)) {
          std::fprintf(stderr, "error: unknown selftest suite '%s' (cache | wcet | "
                      "leak | lowering | repair | all)\n",
                      Suite.c_str());
          return 1;
        }
      }
    } else if (Arg == "--replay") {
      ReplayPath = Next();
    } else if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      usage(stderr);
      return 1;
    }
  }

  // A fault breaks one layer, which only its rung's oracle inspects; force
  // that oracle on, or the injection could no-op under the cache default
  // and a deliberately broken layer would be reported "sound".
  if (const FaultRung *Rung = faultRung(O.Oracle.Fault))
    O.Oracle.Oracles |= Rung->Oracle;

  if (SelfTest)
    return selftest(SelfTestSuites);
  if (!ReplayPath.empty())
    return replay(ReplayPath);

  O.Oracle.Cache = CacheConfig{64, Lines, Assoc == 0 ? Lines : Assoc};
  // Geometry first (policy-independent), then the policy-specific
  // constraint, so a PLRU request over a valid-but-odd geometry gets the
  // tailored message instead of a generic one.
  if (!O.Oracle.Cache.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry (%u lines, %u-way)\n", Lines,
                Assoc);
    return 1;
  }
  if (!AllPolicies && !O.Oracle.Cache.withPolicy(Policy).isValid()) {
    std::fprintf(stderr, "error: --policy %s needs power-of-two associativity "
                "(got %u-way)\n",
                replacementPolicyName(Policy),
                O.Oracle.Cache.Associativity);
    return 1;
  }
  if (AllPolicies)
    O.Policies = {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                  ReplacementPolicy::Plru};
  else
    O.Policies = {Policy};
  O.Oracle.Cache.Policy = O.Policies.front();

  FuzzCampaignResult R = runFuzzCampaign(O);
  // parallelFor resolves 0 to the hardware concurrency and starts at most
  // one worker per program; report what the campaign actually used so
  // throughput figures stay attributable.
  unsigned JobsUsed = std::min(
      O.Jobs ? O.Jobs : std::max(1u, std::thread::hardware_concurrency()),
      std::max(O.Programs, 1u));
  if (Json) {
    std::printf("%s\n", campaignJson(R.Stats, O.Seed, JobsUsed).c_str());
  } else {
    std::printf("%s", R.Stats.summary().c_str());
    std::printf("wall time:           %ss (%s programs/s, %u jobs)\n",
                formatDouble(R.Stats.Seconds, 2).c_str(),
                formatDouble(R.Stats.Seconds > 0
                                 ? R.Stats.Programs / R.Stats.Seconds
                                 : 0,
                             1)
                    .c_str(),
                JobsUsed);
  }
  reportCounterexamples(R, O.Oracle, CeDir);
  if (R.Stats.CompileFailures > 0)
    return 1;
  return R.ok() ? 0 : 2;
}
