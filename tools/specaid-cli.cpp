//===- specaid-cli.cpp - Client and load generator for specaid -------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Thin client for a running specaid daemon (docs/SERVICE.md).
///
///   specaid-cli --socket PATH FILE.mc [options]   analyze one file
///   specaid-cli --socket PATH FILE.mc --repair    synthesize mitigations
///   specaid-cli --socket PATH --ping              liveness probe
///   specaid-cli --socket PATH --stats             print daemon counters
///   specaid-cli --socket PATH --shutdown          stop the daemon
///   specaid-cli --socket PATH --trace N --unique U --seed S [--check]
///                                                 replay a generated trace
///
/// Analysis options mirror specai-cli: --entry NAME, --lowering M,
/// --lines N, --assoc N, --policy P, --strategy S, --depth-miss N,
/// --depth-hit N, --no-spec, --no-shadow, --refine, --no-leaks, plus
/// --priority N for the daemon's queue ordering.
///
/// Budget options: --timeout-ms N bounds each request's wall clock (the
/// daemon answers `status: timeout` past it), --max-iterations N caps its
/// fixpoint steps.
///
/// Retry options: `overloaded` responses and broken-pipe transport errors
/// retry with capped exponential backoff and deterministic jitter —
/// --retries N attempts (default 4) starting at --backoff-ms N (default
/// 50), never retrying past a request's own --timeout-ms deadline.
///
/// Trace mode generates U unique seeded programs, replays an N-request
/// trace drawing uniformly from them over one connection, and reports the
/// daemon's hit count. With --check every response's verdict digest is
/// compared against a local single-shot run of the same request — the
/// bit-identical-verdicts assertion the CI smoke leg relies on — and, when
/// N > U, at least one cache hit is required.
///
/// With --repair the file is sent under the daemon's `repair` verb
/// (docs/MITIGATION.md): the response carries the mitigation set, the
/// before/after leak and WCET counts, and the patched program, and is
/// cached under its own verdict-cache key like any analyze verdict.
///
/// Exit code: 0 on success, 1 on any transport/daemon/check failure, 2
/// when a file-mode analysis found leaks (matching specai-cli) or a
/// --repair run left leaks beyond the mitigation menu.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace specai;

namespace {

void usage(std::FILE *To) {
  std::fprintf(To,
      "usage: specaid-cli --socket PATH [FILE.mc | --ping | --stats | "
      "--shutdown |\n"
      "       --trace N --unique U --seed S [--check]]\n"
      "       [--entry NAME] [--lowering inline|summarize] [--lines N]\n"
      "       [--assoc N] [--policy lru|fifo|plru] [--strategy S]\n"
      "       [--depth-miss N] [--depth-hit N] [--no-spec] [--no-shadow]\n"
      "       [--refine] [--no-leaks] [--repair] [--priority N]\n"
      "       [--timeout-ms N] [--max-iterations N]\n"
      "       [--retries N] [--backoff-ms N]\n");
}

bool parseStrategyName(const std::string &Name, MergeStrategy &Out) {
  for (MergeStrategy S :
       {MergeStrategy::NoMerge, MergeStrategy::MergeAtExit,
        MergeStrategy::JustInTime, MergeStrategy::MergeAtRollback})
    if (Name == mergeStrategyName(S)) {
      Out = S;
      return true;
    }
  return false;
}

/// Sends \p Req and fails hard on transport errors (the load generator
/// and file mode both want that).
bool mustCall(ServiceClient &Client, const ServiceRequest &Req,
              ServiceResponse &Resp) {
  std::string Error;
  if (!Client.call(Req, Resp, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// How analyze calls recover from a daemon that pushes back or drops the
/// connection. Jitter is deterministic (a fixed-seed Rng) so a given
/// invocation always sleeps the same schedule — runs stay reproducible.
struct RetryPolicy {
  std::string SocketPath;
  uint64_t Retries = 4;
  uint64_t BackoffMs = 50;
  Rng Jitter{0x7261657472792121ULL};
  /// Attempts that had to back off (overloaded or transport), for the
  /// trace-mode report.
  uint64_t Backoffs = 0;
};

/// Sends \p Req, retrying `overloaded` responses and transport failures
/// (a daemon mid-restart, EPIPE from a connection it shed) with capped
/// exponential backoff: wait BackoffMs << attempt, plus jitter of up to
/// half that so a herd of retrying clients spreads out, capped at 2s per
/// wait. A request carrying --timeout-ms never retries past its own
/// deadline — the caller asked for a bounded wait, and a late retry would
/// outlive it. Transport retries reconnect before resending. Returns
/// false (with the error already printed) only when transport attempts
/// are exhausted; an `overloaded` verdict that outlasts every retry is
/// handed back in \p Resp for the caller to report.
bool callBackoff(ServiceClient &Client, RetryPolicy &Policy,
                 const ServiceRequest &Req, ServiceResponse &Resp) {
  Timer T;
  for (uint64_t Attempt = 0;; ++Attempt) {
    std::string Error = "not connected";
    bool Sent = Client.connected() && Client.call(Req, Resp, Error);
    if (Sent && Resp.Status != ServiceStatus::Overloaded)
      return true;

    uint64_t Shift = Attempt < 6 ? Attempt : 6;
    uint64_t Delay = Policy.BackoffMs << Shift;
    if (Delay > 2000)
      Delay = 2000;
    Delay += Policy.Jitter.nextBelow(Delay / 2 + 1);
    uint64_t ElapsedMs = static_cast<uint64_t>(T.seconds() * 1000.0);
    bool PastDeadline =
        Req.TimeoutMs != 0 && ElapsedMs + Delay > Req.TimeoutMs;
    if (Attempt == Policy.Retries || PastDeadline) {
      if (!Sent) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return false;
      }
      return true; // Still overloaded: the caller sees the status.
    }

    ++Policy.Backoffs;
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
    if (!Sent) {
      Client.close();
      std::string ConnError;
      // A failed reconnect leaves the client closed; the next attempt
      // fails fast and backs off again.
      Client.connect(Policy.SocketPath, ConnError);
    }
  }
}

int runTrace(ServiceClient &Client, RetryPolicy &Policy,
             const ServiceRequest &Base, uint64_t Trace, uint64_t Unique,
             uint64_t Seed, bool Check) {
  if (Unique == 0 || Trace == 0) {
    std::fprintf(stderr, "error: --trace and --unique must be positive\n");
    return 1;
  }
  // Deterministic unique programs: the same (seed, unique) pair always
  // replays the same trace, so runs are comparable across daemons.
  std::vector<std::string> Sources;
  Sources.reserve(Unique);
  for (uint64_t I = 0; I != Unique; ++I)
    Sources.push_back(ProgramGen(Seed + I).generate().source());

  // Local reference digests, one single-shot run per unique program.
  std::vector<uint64_t> WantDigest(Unique, 0);
  if (Check) {
    for (uint64_t I = 0; I != Unique; ++I) {
      ServiceRequest Req = Base;
      Req.Source = Sources[I];
      RunOutcome Out = runRequest(Req.toRunRequest());
      if (!Out.Ok) {
        std::fprintf(stderr, "error: local run of unique %llu failed: %s\n",
                     static_cast<unsigned long long>(I), Out.Error.c_str());
        return 1;
      }
      WantDigest[I] = Out.Row.digest();
    }
  }

  Rng Pick(Seed ^ 0x9e3779b97f4a7c15ULL);
  uint64_t Hits = 0;
  Timer T;
  for (uint64_t I = 0; I != Trace; ++I) {
    // Walk the uniques in order first so every program enters the cache,
    // then draw uniformly — the steady-state phase is all duplicates.
    uint64_t U = I < Unique ? I : Pick.nextBelow(Unique);
    ServiceRequest Req = Base;
    Req.Id = I;
    Req.Source = Sources[U];
    ServiceResponse Resp;
    // Backoff absorbs transient pushback; a persistent overload (or a
    // daemon that stays gone) falls through and fails the run.
    if (!callBackoff(Client, Policy, Req, Resp))
      return 1;
    if (Resp.Status != ServiceStatus::Ok) {
      std::fprintf(stderr, "error: request %llu: %s\n",
                   static_cast<unsigned long long>(I), Resp.Error.c_str());
      return 1;
    }
    if (Resp.Cached)
      ++Hits;
    if (Check && Resp.VerdictDigest != WantDigest[U]) {
      std::fprintf(stderr,
                   "error: request %llu (unique %llu): daemon verdict "
                   "0x%016llx != local 0x%016llx\n",
                   static_cast<unsigned long long>(I),
                   static_cast<unsigned long long>(U),
                   static_cast<unsigned long long>(Resp.VerdictDigest),
                   static_cast<unsigned long long>(WantDigest[U]));
      return 1;
    }
  }
  double Seconds = T.seconds();
  std::printf("trace: %llu requests, %llu unique, %llu hits, %llu "
              "backoffs, %.3fs (%.0f req/s)\n",
              static_cast<unsigned long long>(Trace),
              static_cast<unsigned long long>(Unique),
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Policy.Backoffs), Seconds,
              Seconds > 0 ? static_cast<double>(Trace) / Seconds : 0.0);
  if (Check)
    std::printf("check: all %llu verdicts bit-identical to local runs\n",
                static_cast<unsigned long long>(Trace));
  if (Check && Trace > Unique && Hits == 0) {
    std::fprintf(stderr, "error: expected cache hits on a duplicate-heavy "
                         "trace, saw none\n");
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath, File;
  ServiceRequest Req; // Doubles as the trace-mode base request.
  RetryPolicy Policy;
  bool Ping = false, Stats = false, Shutdown = false, Check = false;
  bool Repair = false;
  uint64_t Trace = 0, Unique = 0, Seed = 1;
  uint32_t Lines = 0, Assoc = 0;
  bool GeometrySet = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
        std::exit(1);
      }
      return Argv[++I];
    };
    auto NextUnsigned = [&]() -> unsigned {
      const char *Value = Next();
      std::optional<unsigned> Parsed = parseUnsigned(Value);
      if (!Parsed) {
        std::fprintf(stderr, "error: %s needs a non-negative number, got '%s'\n",
                     Arg.c_str(), Value);
        std::exit(1);
      }
      return *Parsed;
    };
    if (Arg == "--socket") {
      SocketPath = Next();
    } else if (Arg == "--ping") {
      Ping = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--shutdown") {
      Shutdown = true;
    } else if (Arg == "--trace") {
      Trace = NextUnsigned();
    } else if (Arg == "--unique") {
      Unique = NextUnsigned();
    } else if (Arg == "--seed") {
      Seed = NextUnsigned();
    } else if (Arg == "--check") {
      Check = true;
    } else if (Arg == "--entry") {
      Req.Entry = Next();
    } else if (Arg == "--lowering") {
      std::string M = Next();
      if (!parseLoweringMode(M, Req.Mode)) {
        std::fprintf(stderr, "error: unknown lowering mode '%s'\n", M.c_str());
        return 1;
      }
    } else if (Arg == "--lines") {
      Lines = NextUnsigned();
      GeometrySet = true;
    } else if (Arg == "--assoc") {
      Assoc = NextUnsigned();
      GeometrySet = true;
    } else if (Arg == "--policy") {
      std::string P = Next();
      if (!parseReplacementPolicy(P, Req.Cache.Policy)) {
        std::fprintf(stderr, "error: unknown policy '%s'\n", P.c_str());
        return 1;
      }
    } else if (Arg == "--strategy") {
      std::string S = Next();
      if (!parseStrategyName(S, Req.Strategy)) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", S.c_str());
        return 1;
      }
    } else if (Arg == "--depth-miss") {
      Req.DepthMiss = NextUnsigned();
    } else if (Arg == "--depth-hit") {
      Req.DepthHit = NextUnsigned();
    } else if (Arg == "--no-spec") {
      Req.Speculative = false;
    } else if (Arg == "--no-shadow") {
      Req.UseShadow = false;
    } else if (Arg == "--refine") {
      Req.Refine = true;
    } else if (Arg == "--no-leaks") {
      Req.DetectLeaks = false;
    } else if (Arg == "--repair") {
      Repair = true;
    } else if (Arg == "--priority") {
      Req.Priority = static_cast<int64_t>(NextUnsigned());
    } else if (Arg == "--timeout-ms") {
      Req.TimeoutMs = NextUnsigned();
    } else if (Arg == "--max-iterations") {
      Req.MaxSteps = NextUnsigned();
    } else if (Arg == "--retries") {
      Policy.Retries = NextUnsigned();
    } else if (Arg == "--backoff-ms") {
      Policy.BackoffMs = NextUnsigned();
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

  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket PATH is required\n");
    usage(stderr);
    return 1;
  }
  if (GeometrySet) {
    ReplacementPolicy Policy = Req.Cache.Policy;
    if (Lines == 0)
      Lines = 512;
    Req.Cache = Assoc == 0 ? CacheConfig::fullyAssociative(Lines)
                           : CacheConfig::setAssociative(Lines, Assoc);
    Req.Cache.Policy = Policy;
    if (!Req.Cache.isValid()) {
      std::fprintf(stderr, "error: invalid cache geometry (%u lines, %u ways)\n",
                   Lines, Assoc);
      return 1;
    }
  }

  int Modes = (File.empty() ? 0 : 1) + (Ping ? 1 : 0) + (Stats ? 1 : 0) +
              (Shutdown ? 1 : 0) + (Trace != 0 ? 1 : 0);
  if (Modes != 1) {
    std::fprintf(stderr, "error: pick exactly one of FILE.mc, --ping, "
                         "--stats, --shutdown, or --trace\n");
    return 1;
  }
  if (Repair && File.empty()) {
    std::fprintf(stderr, "error: --repair needs a FILE.mc to repair\n");
    return 1;
  }

  ServiceClient Client;
  Policy.SocketPath = SocketPath;
  std::string Error;
  if (!Client.connect(SocketPath, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (Trace != 0)
    return runTrace(Client, Policy, Req, Trace, Unique, Seed, Check);

  if (Ping || Stats || Shutdown) {
    Req.Op = Ping ? ServiceOp::Ping
                  : Stats ? ServiceOp::Stats : ServiceOp::Shutdown;
    ServiceResponse Resp;
    if (!mustCall(Client, Req, Resp))
      return 1;
    if (Resp.Status != ServiceStatus::Ok) {
      std::fprintf(stderr, "error: %s\n", Resp.Error.c_str());
      return 1;
    }
    // Stats responses carry counters beyond the response schema; the raw
    // line is the most faithful rendering.
    std::printf("%s\n", Stats ? Client.lastLine().c_str()
                              : Ping ? "pong" : "shutdown acknowledged");
    return 0;
  }

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Req.Source = Buffer.str();
  if (Repair)
    Req.Op = ServiceOp::Repair;

  ServiceResponse Resp;
  if (!callBackoff(Client, Policy, Req, Resp))
    return 1;
  if (Resp.Status == ServiceStatus::Overloaded) {
    std::fprintf(stderr, "error: daemon overloaded after %llu retries: %s\n",
                 static_cast<unsigned long long>(Policy.Retries),
                 Resp.Error.c_str());
    return 1;
  }
  if (Resp.Status == ServiceStatus::Timeout) {
    std::fprintf(stderr, "status: timeout (%s)\n", Resp.Error.c_str());
    return 1;
  }
  if (Resp.Status != ServiceStatus::Ok) {
    std::fprintf(stderr, "%s\n", Resp.Error.c_str());
    return 1;
  }
  std::printf("status: ok%s\n", Resp.Cached ? " (cached)" : "");
  std::printf("request-digest: 0x%016llx\n",
              static_cast<unsigned long long>(Resp.RequestDigest));
  std::printf("verdict-digest: 0x%016llx\n",
              static_cast<unsigned long long>(Resp.VerdictDigest));
  if (Repair) {
    if (!Resp.RepairChecked) {
      std::fprintf(stderr, "error: daemon answered without a repair "
                           "verdict (pre-repair daemon?)\n");
      return 1;
    }
    if (Resp.LeaksBefore == 0) {
      std::printf("repair: no leaks reported; program unchanged\n");
      return 0;
    }
    std::printf("repair: %llu leak%s, %zu mitigation%s, wcet %llu -> %llu\n",
                static_cast<unsigned long long>(Resp.LeaksBefore),
                Resp.LeaksBefore == 1 ? "" : "s", Resp.Mitigations.size(),
                Resp.Mitigations.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(Resp.WcetBefore),
                static_cast<unsigned long long>(Resp.WcetAfter));
    for (const std::string &M : Resp.Mitigations)
      std::printf("  %s\n", M.c_str());
    if (!Resp.Repaired) {
      std::printf("repair: %llu leak%s remain beyond the mitigation menu\n",
                  static_cast<unsigned long long>(Resp.LeaksAfter),
                  Resp.LeaksAfter == 1 ? "" : "s");
      return 2;
    }
    std::printf("patched program:\n%s", Resp.PatchedIr.c_str());
    return 0;
  }
  std::printf("accesses: %llu  possible misses: %llu  speculative-only "
              "misses: %llu  iterations: %llu\n",
              static_cast<unsigned long long>(Resp.AccessNodes),
              static_cast<unsigned long long>(Resp.MissCount),
              static_cast<unsigned long long>(Resp.SpMissCount),
              static_cast<unsigned long long>(Resp.Iterations));
  if (Resp.LeaksChecked) {
    if (!Resp.LeakSites.empty()) {
      for (const std::string &Site : Resp.LeakSites)
        std::printf("%s\n", Site.c_str());
      return 2;
    }
    std::printf("no leaks: %llu secret-indexed accesses proven "
                "timing-uniform\n",
                static_cast<unsigned long long>(Resp.ProvenLeakFree));
  }
  return 0;
}
