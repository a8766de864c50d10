//===- bench_service_replay.cpp - Verdict-cache replay throughput ----------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The headline measurement behind specaid (docs/SERVICE.md): an analysis
/// trace with realistic duplication replayed through the service engine
/// against the cost of answering every request with a fresh single-shot
/// analysis.
///
/// The trace models a CI fleet re-analyzing mostly unchanged code: a small
/// *head* of expensive deep-call programs (paper-default 512-line
/// geometry) receives nearly all requests — every push re-checks the same
/// hot kernels — while a long *tail* of small one-off programs appears
/// once each. 10000 requests over 1000 unique programs (90% duplicates):
/// 32 head programs soak up all 9000 repeats, 968 tail programs run once.
///
/// Phase 1 measures the cold single-shot cost of every unique program
/// (this is also the oracle: each replayed verdict must be bit-identical
/// to its single-shot digest). The no-daemon trace cost is then the exact
/// sum over the trace of its request's cold cost — what `specai-cli` once
/// per request would pay. Phase 2 replays the full trace through a
/// ServiceEngine and checks verdicts, the hit count, and the throughput
/// ratio. Phase 3 replays again with a different worker count and demands
/// bit-identical digests and identical cache counters — the daemon's
/// answers must not depend on its parallelism.
///
/// Phase 4 is the faulted replay: the same engine with the worker-stall
/// fault armed and per-request deadlines. The availability claim from
/// docs/SERVICE.md is measured directly — every request gets a definitive
/// answer (a verdict or `status: timeout`) within twice its deadline,
/// stalls included — along with the p99 answer latency under fault.
///
/// Exit code: 0 when every assertion holds (including replay throughput
/// >= 100x single-shot), 1 otherwise. `--json FILE` writes one JSON record
/// — a history entry of the checked-in BENCH_service.json.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace specai;

namespace {

// Trace shape. 90% duplicates: Trace - Head - Tail = 9000 repeat requests,
// all landing on the Head programs.
constexpr uint64_t TraceLen = 10000;
constexpr uint64_t HeadCount = 32;
constexpr uint64_t TailCount = 968;
constexpr uint64_t UniqueCount = HeadCount + TailCount;
constexpr uint64_t SeedBase = 4200;

/// One unique program of the trace plus its single-shot reference.
struct UniqueProgram {
  ServiceRequest Request;
  uint64_t ColdVerdict = 0;
  double ColdSeconds = 0;
};

/// Head programs: deep-call generated programs (helper functions, loops)
/// under the paper's 512-line geometry — the expensive kind a fleet
/// re-analyzes on every push.
ServiceRequest headRequest(uint64_t Index) {
  ProgramGenOptions Gen;
  Gen.Functions = true;
  Gen.MinFunctions = 3;
  Gen.MaxFunctions = 4;
  Gen.MinStmts = 8;
  Gen.MaxStmts = 12;
  ServiceRequest Req;
  Req.Source = ProgramGen(SeedBase + Index, Gen).generate().source();
  Req.Cache = CacheConfig::paperDefault();
  return Req;
}

/// Tail programs: small one-off sources on a tiny geometry — cheap
/// individually, numerous collectively.
ServiceRequest tailRequest(uint64_t Index) {
  ServiceRequest Req;
  Req.Source =
      ProgramGen(SeedBase + HeadCount + Index).generate().source();
  Req.Cache = CacheConfig::fullyAssociative(8);
  return Req;
}

struct ReplayResult {
  bool Ok = false;
  uint64_t Hits = 0;
  uint64_t AnalysesRun = 0;
  double Seconds = 0;
  std::vector<uint64_t> Digests;
};

ReplayResult replay(const std::vector<UniqueProgram> &Uniques,
                    const std::vector<uint64_t> &Trace, unsigned Jobs) {
  ServiceEngineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.CacheEntries = 4096;
  Opts.QueueCapacity = 64;
  ServiceEngine Engine(Opts);

  ReplayResult Out;
  Out.Digests.reserve(Trace.size());
  Timer T;
  for (size_t I = 0; I != Trace.size(); ++I) {
    ServiceRequest Req = Uniques[Trace[I]].Request;
    Req.Id = I;
    ServiceResponse Resp = Engine.handle(Req);
    if (Resp.Status != ServiceStatus::Ok) {
      std::fprintf(stderr, "error: request %zu (%s): %s\n", I,
                   serviceStatusName(Resp.Status), Resp.Error.c_str());
      return Out;
    }
    if (Resp.Cached)
      ++Out.Hits;
    Out.Digests.push_back(Resp.VerdictDigest);
  }
  Out.Seconds = T.seconds();
  Out.AnalysesRun = Engine.stats().AnalysesRun;
  Out.Ok = true;
  return Out;
}

// Faulted-replay shape: a handful of healthy programs whose generous
// deadline rides out the injected stall, a handful of doomed ones whose
// strict deadline cannot, and a run of duplicate traffic over the healthy
// set once its verdicts are cached.
constexpr uint64_t FaultHealthy = 8;
constexpr uint64_t FaultDoomed = 8;
constexpr uint64_t FaultDuplicates = 48;
constexpr uint64_t FaultTraceLen = FaultHealthy + FaultDoomed + FaultDuplicates;
constexpr uint64_t GenerousDeadlineMs = 400; // Outlives the ~100ms stall.
constexpr uint64_t StrictDeadlineMs = 50;    // Cannot survive the stall.

struct FaultedResult {
  bool Ok = false;
  uint64_t OkCount = 0;
  uint64_t TimeoutCount = 0;
  /// Requests answered (verdict or explicit timeout) within twice their
  /// deadline — the availability the service promises under fault.
  uint64_t OnTime = 0;
  double P99Ms = 0;
};

FaultedResult faultedReplay() {
  ServiceEngineOptions Opts;
  Opts.Jobs = 2;
  Opts.CacheEntries = 4096;
  Opts.QueueCapacity = 64;
  Opts.Fault = ServiceFault::WorkerStall;
  ServiceEngine Engine(Opts);

  // Healthy and doomed programs are disjoint fresh seeds: every doomed
  // request is a cache miss that must ride the stalled worker into its
  // deadline, every healthy one pays the stall once and hits thereafter.
  std::vector<ServiceRequest> Healthy, Doomed;
  for (uint64_t I = 0; I != FaultHealthy; ++I) {
    ServiceRequest Req;
    Req.Source = ProgramGen(SeedBase + 10000 + I).generate().source();
    Req.Cache = CacheConfig::fullyAssociative(8);
    Req.TimeoutMs = GenerousDeadlineMs;
    Healthy.push_back(std::move(Req));
  }
  for (uint64_t I = 0; I != FaultDoomed; ++I) {
    ServiceRequest Req;
    Req.Source = ProgramGen(SeedBase + 20000 + I).generate().source();
    Req.Cache = CacheConfig::fullyAssociative(8);
    Req.TimeoutMs = StrictDeadlineMs;
    Doomed.push_back(std::move(Req));
  }

  FaultedResult Out;
  std::vector<double> LatenciesMs;
  LatenciesMs.reserve(FaultTraceLen);
  Rng Pick(SeedBase + 99);
  for (uint64_t I = 0; I != FaultTraceLen; ++I) {
    // Interleave: healthy misses, doomed misses, then duplicate traffic.
    ServiceRequest Req =
        I < FaultHealthy ? Healthy[I]
        : I < FaultHealthy + FaultDoomed
            ? Doomed[I - FaultHealthy]
            : Healthy[Pick.nextBelow(FaultHealthy)];
    Req.Id = I;
    Timer T;
    ServiceResponse Resp = Engine.handle(Req);
    double Ms = T.seconds() * 1000;
    LatenciesMs.push_back(Ms);
    if (Resp.Status == ServiceStatus::Ok)
      ++Out.OkCount;
    else if (Resp.Status == ServiceStatus::Timeout)
      ++Out.TimeoutCount;
    else {
      std::fprintf(stderr, "error: faulted request %llu: %s\n",
                   static_cast<unsigned long long>(I), Resp.Error.c_str());
      return Out;
    }
    if (Ms <= 2 * static_cast<double>(Req.TimeoutMs))
      ++Out.OnTime;
  }
  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  Out.P99Ms = LatenciesMs[(LatenciesMs.size() * 99) / 100];
  Out.Ok = true;
  return Out;
}

/// The replay measurements as one JSON record (one history entry of
/// BENCH_service.json).
std::string benchJson(double SingleShotSeconds, const ReplayResult &A,
                      const ReplayResult &B, unsigned JobsA, unsigned JobsB,
                      double Speedup, const FaultedResult &Faulted) {
  const double Trace = static_cast<double>(TraceLen);
  JsonWriter W;
  W.field("suite", "service-replay");
  W.field("workload", "CI-fleet trace: hot deep-call head, one-off tail");
  W.field("trace_requests", TraceLen);
  W.field("unique_programs", UniqueCount);
  W.field("head_programs", HeadCount);
  W.field("tail_programs", TailCount);
  W.field("duplicate_share",
          static_cast<double>(TraceLen - UniqueCount) / Trace);
  W.field("seed_base", SeedBase);
  W.field("single_shot_seconds", SingleShotSeconds);
  W.field("single_shot_rps", Trace / SingleShotSeconds);
  W.field("replay_seconds", A.Seconds);
  W.field("replay_rps", Trace / A.Seconds);
  W.field("speedup", Speedup);
  W.field("cache_hits", A.Hits);
  W.field("analyses_run", A.AnalysesRun);
  W.field("verdicts_bit_identical_to_single_shot", true);
  W.rawField("jobs_compared",
             jsonArray({std::to_string(JobsA), std::to_string(JobsB)}));
  W.field("replay_seconds_alt_jobs", B.Seconds);
  W.field("jobs_invariant", true);
  W.field("faulted_fault", "worker-stall");
  W.field("faulted_requests", FaultTraceLen);
  W.rawField("faulted_deadlines_ms",
             jsonArray({std::to_string(StrictDeadlineMs),
                        std::to_string(GenerousDeadlineMs)}));
  W.field("faulted_ok", Faulted.OkCount);
  W.field("faulted_timeouts", Faulted.TimeoutCount);
  W.field("faulted_availability", static_cast<double>(Faulted.OnTime) /
                                      static_cast<double>(FaultTraceLen));
  W.field("faulted_p99_ms", Faulted.P99Ms);
  return W.finish();
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      JsonPath = Argv[++I];
      continue;
    }
    std::fprintf(stderr, "usage: %s [--json FILE]\n", Argv[0]);
    return 1;
  }

  // Phase 1: cold single-shot reference for every unique program. These
  // digests are the correctness oracle; the per-program seconds feed the
  // no-daemon cost model.
  std::printf("phase 1: %llu unique programs, cold single-shot runs\n",
              static_cast<unsigned long long>(UniqueCount));
  std::vector<UniqueProgram> Uniques(UniqueCount);
  double HeadSeconds = 0, TailSeconds = 0;
  for (uint64_t I = 0; I != UniqueCount; ++I) {
    UniqueProgram &U = Uniques[I];
    U.Request = I < HeadCount ? headRequest(I) : tailRequest(I - HeadCount);
    Timer T;
    RunOutcome Out = runRequest(U.Request.toRunRequest());
    U.ColdSeconds = T.seconds();
    if (!Out.Ok) {
      std::fprintf(stderr, "error: unique %llu failed to analyze: %s\n",
                   static_cast<unsigned long long>(I), Out.Error.c_str());
      return 1;
    }
    U.ColdVerdict = Out.Row.digest();
    (I < HeadCount ? HeadSeconds : TailSeconds) += U.ColdSeconds;
  }
  std::printf("  head: %llu programs, %.3fs total (%.1f ms mean)\n",
              static_cast<unsigned long long>(HeadCount), HeadSeconds,
              1000 * HeadSeconds / HeadCount);
  std::printf("  tail: %llu programs, %.3fs total (%.2f ms mean)\n",
              static_cast<unsigned long long>(TailCount), TailSeconds,
              1000 * TailSeconds / TailCount);

  // The trace: every unique once (misses), then 9000 repeats drawn from
  // the head. Deterministic from the seed.
  std::vector<uint64_t> Trace;
  Trace.reserve(TraceLen);
  for (uint64_t I = 0; I != UniqueCount; ++I)
    Trace.push_back(I);
  Rng Pick(SeedBase);
  while (Trace.size() != TraceLen)
    Trace.push_back(Pick.nextBelow(HeadCount));

  // What the trace costs with no daemon: its requests at their measured
  // cold price.
  double SingleShotSeconds = 0;
  for (uint64_t U : Trace)
    SingleShotSeconds += Uniques[U].ColdSeconds;
  std::printf("single-shot trace cost: %.1fs extrapolated (%.1f req/s)\n",
              SingleShotSeconds,
              static_cast<double>(TraceLen) / SingleShotSeconds);

  // Phase 2: the same trace through the service engine.
  std::printf("phase 2: replaying %llu requests through the engine\n",
              static_cast<unsigned long long>(TraceLen));
  const unsigned JobsA = 1;
  ReplayResult A = replay(Uniques, Trace, JobsA);
  if (!A.Ok)
    return 1;

  bool Pass = true;
  for (size_t I = 0; I != Trace.size(); ++I)
    if (A.Digests[I] != Uniques[Trace[I]].ColdVerdict) {
      std::fprintf(stderr,
                   "FAIL: request %zu verdict 0x%016llx != single-shot "
                   "0x%016llx\n",
                   I, static_cast<unsigned long long>(A.Digests[I]),
                   static_cast<unsigned long long>(
                       Uniques[Trace[I]].ColdVerdict));
      Pass = false;
      break;
    }
  const uint64_t WantHits = TraceLen - UniqueCount;
  if (A.Hits != WantHits || A.AnalysesRun != UniqueCount) {
    std::fprintf(stderr,
                 "FAIL: expected %llu hits / %llu analyses, got %llu / "
                 "%llu\n",
                 static_cast<unsigned long long>(WantHits),
                 static_cast<unsigned long long>(UniqueCount),
                 static_cast<unsigned long long>(A.Hits),
                 static_cast<unsigned long long>(A.AnalysesRun));
    Pass = false;
  }
  double Speedup = SingleShotSeconds / A.Seconds;
  std::printf("replay: %.3fs (%.0f req/s), %llu hits, speedup %.0fx\n",
              A.Seconds, static_cast<double>(TraceLen) / A.Seconds,
              static_cast<unsigned long long>(A.Hits), Speedup);
  if (Speedup < 100) {
    std::fprintf(stderr, "FAIL: replay speedup %.1fx < 100x\n", Speedup);
    Pass = false;
  }

  // Phase 3: a different worker count must not change a single verdict
  // or counter — only the wall clock.
  const unsigned JobsB = 4;
  std::printf("phase 3: jobs invariance (%u vs %u workers)\n", JobsA, JobsB);
  ReplayResult B = replay(Uniques, Trace, JobsB);
  if (!B.Ok)
    return 1;
  if (B.Digests != A.Digests || B.Hits != A.Hits ||
      B.AnalysesRun != A.AnalysesRun) {
    std::fprintf(stderr, "FAIL: %u-job replay diverged from %u-job replay\n",
                 JobsB, JobsA);
    Pass = false;
  } else {
    std::printf("  identical digests and counters (%.3fs)\n", B.Seconds);
  }

  // Phase 4: the same engine under an injected worker stall, every
  // request budgeted. Availability is the claim: a definitive answer
  // within twice each request's deadline, verdict or timeout.
  std::printf("phase 4: faulted replay (worker-stall, %llu requests)\n",
              static_cast<unsigned long long>(FaultTraceLen));
  FaultedResult F = faultedReplay();
  if (!F.Ok)
    return 1;
  std::printf("  %llu ok, %llu timeouts, availability %.1f%%, p99 %.0fms\n",
              static_cast<unsigned long long>(F.OkCount),
              static_cast<unsigned long long>(F.TimeoutCount),
              100.0 * static_cast<double>(F.OnTime) /
                  static_cast<double>(FaultTraceLen),
              F.P99Ms);
  if (F.OnTime != FaultTraceLen) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu faulted requests missed their 2x "
                 "deadline bound\n",
                 static_cast<unsigned long long>(FaultTraceLen - F.OnTime),
                 static_cast<unsigned long long>(FaultTraceLen));
    Pass = false;
  }
  if (F.TimeoutCount < FaultDoomed ||
      F.OkCount + F.TimeoutCount != FaultTraceLen) {
    std::fprintf(stderr,
                 "FAIL: faulted replay expected >= %llu timeouts and only "
                 "ok/timeout statuses (got %llu ok, %llu timeouts)\n",
                 static_cast<unsigned long long>(FaultDoomed),
                 static_cast<unsigned long long>(F.OkCount),
                 static_cast<unsigned long long>(F.TimeoutCount));
    Pass = false;
  }

  if (JsonPath && Pass &&
      !writeJsonFile(JsonPath, benchJson(SingleShotSeconds, A, B, JobsA,
                                         JobsB, Speedup, F))) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath);
    return 1;
  }
  std::printf("%s\n", Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}
