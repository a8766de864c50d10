//===- Protocol.h - specaid request/response wire protocol ------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specaid wire protocol (docs/SERVICE.md): newline-delimited flat
/// JSON objects over a local stream socket. One request line yields
/// exactly one response line. The request carries the program source plus
/// *every* option that can change a verdict; the response carries either a
/// Verdict (the record a BatchRow holds too), an error, or an
/// explicit `overloaded` rejection — the daemon never degrades into
/// unbounded queueing latency.
///
/// Cache keying lives here too, so every consumer (engine, tests, bench,
/// CLI) derives keys the same way:
///
///   program digest  = FNV-1a over the lowered IR (driver runRequest)
///   option key      = canonical string of all verdict-visible options
///   request digest  = FNV-1a(option key, seeded with program digest)
///   verdict digest  = FNV-1a over the canonical verdict rendering
///
/// The request digest addresses the verdict cache; the verdict digest lets
/// clients assert bit-identical results against single-shot `specai-cli
/// --digest` runs without shipping every counter through shell plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SERVICE_PROTOCOL_H
#define SPECAI_SERVICE_PROTOCOL_H

#include "driver/BatchRunner.h"

#include <cstdint>
#include <string>

namespace specai {

/// Request kinds. Analyze and Repair are the workloads; the rest are
/// daemon control.
enum class ServiceOp : uint8_t {
  Analyze,  ///< Compile + analyze (or serve from the verdict cache).
  Repair,   ///< Compile + synthesize a minimum-cost leak repair
            ///< (repair/MitigationSynth.h); cached like Analyze under an
            ///< option key extended with `op=repair`.
  Ping,     ///< Liveness probe; responds ok immediately.
  Stats,    ///< Cache/pool counters as a JSON response.
  Shutdown, ///< Acknowledge, then stop the server loop.
};

const char *serviceOpName(ServiceOp Op);
bool parseServiceOp(const std::string &Name, ServiceOp &Out);

/// One analysis request. Field-for-field this is RunRequest flattened
/// into wire-friendly scalars, plus queueing metadata (Id, Priority).
struct ServiceRequest {
  ServiceOp Op = ServiceOp::Analyze;
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t Id = 0;
  /// Higher runs first when misses queue on the analysis pool.
  int64_t Priority = 0;
  /// Wall-clock budget in milliseconds (0 = unlimited). Measured from the
  /// moment the engine accepts the request; covers queueing and analysis.
  /// An exceeded budget answers `status: timeout`, which is never cached.
  /// Queueing metadata like Id/Priority: excluded from optionKey().
  uint64_t TimeoutMs = 0;
  /// Fixpoint step cap across every engine invocation of the request
  /// (worklist pops; 0 = unlimited). Also queueing metadata — it bounds
  /// *whether* the analysis finishes, never what a finished verdict says.
  uint64_t MaxSteps = 0;

  std::string Source;
  std::string Entry = "main";
  LoweringMode Mode = LoweringMode::InlineUnroll;

  CacheConfig Cache = CacheConfig::paperDefault();
  bool Speculative = true;
  bool UseShadow = true;
  MergeStrategy Strategy = MergeStrategy::JustInTime;
  uint32_t DepthMiss = 200;
  uint32_t DepthHit = 20;
  BoundingMode Bounding = BoundingMode::Dynamic;
  bool Refine = false;
  bool DetectLeaks = true;

  /// The analysis options this request denotes (everything the fixpoint
  /// sees); bit-identical to what `specai-cli` builds from equivalent
  /// flags.
  MustHitOptions toMustHitOptions() const;
  LoweringOptions toLoweringOptions() const;
  /// The full driver-level request (source + options).
  RunRequest toRunRequest() const;

  /// Canonical rendering of every option that can change the verdict —
  /// the non-program half of the cache key. Excludes Id and Priority
  /// (queueing metadata must not split cache entries).
  std::string optionKey() const;
  /// Canonical rendering of the options that change *compilation* only;
  /// keys the source -> program-digest memo.
  std::string loweringKey() const;

  std::string toJson() const;
  /// Parses one request line. Unknown keys are rejected (a typo'd option
  /// silently falling back to a default would poison the cache key
  /// discipline). Returns false and fills \p Error on malformed input.
  static bool fromJson(const std::string &Line, ServiceRequest &Out,
                       std::string &Error);
};

/// Response status. Overloaded is backpressure: the bounded analysis
/// queue was full, nothing was scheduled, and the client should retry.
/// Timeout is a spent budget: the request's `timeout_ms`/`max_iterations`
/// allowance ran out (or the daemon began shutting down) before the
/// fixpoint converged; the partial result is discarded, never cached.
enum class ServiceStatus : uint8_t { Ok, Error, Overloaded, Timeout };

const char *serviceStatusName(ServiceStatus S);
bool parseServiceStatus(const std::string &Name, ServiceStatus &Out);

/// Deliberate, test-only faults in the *service* layer — the daemon's
/// transport, scheduling, and persistence tiers. Completes the repo's
/// fault-injection ladder (InjectedFault, support/Fault.h, one level
/// down): `specaid --inject-fault <name>` boots a daemon with one
/// rung armed, and the service_test fault matrix plus the CI chaos leg
/// prove every rung is contained — wrong-but-plausible behavior must
/// degrade to counted misses, explicit error statuses, or timeouts, never
/// to a wrong verdict or a wedged daemon. Never set outside tests.
enum class ServiceFault : uint8_t {
  None,
  /// Spill writes truncate mid-payload before the atomic rename — the
  /// on-disk image a kill -9 during a write would leave behind.
  SpillTruncate,
  /// Spill writes replace the payload with garbage bytes (bit rot, torn
  /// sector): the checksum trailer must reject it on read.
  SpillGarbage,
  /// Analysis workers stall past any request deadline before running the
  /// fixpoint: every budgeted request must still answer `timeout` within
  /// 2x its deadline while unbudgeted concurrent requests complete.
  WorkerStall,
  /// Analysis jobs throw after scheduling: waiters and coalesced
  /// duplicates must each get an error response, never hang.
  AnalysisThrow,
  /// The server's line-framing limit shrinks to 128 bytes, so ordinary
  /// requests exercise the oversized-request rejection path.
  OversizedRequest,
  /// Response writes dribble out a few bytes at a time with pauses: a
  /// slow consumer must not wedge other connections or shutdown.
  SlowClient,
};

const char *serviceFaultName(ServiceFault F);
/// Parses a service fault name; returns false on unknown names.
bool parseServiceFault(const std::string &Name, ServiceFault &Out);

/// One response line. An Ok analyze response carries the verdict of a
/// BatchRow; an Ok repair response carries the repair fields below instead.
struct ServiceResponse : Verdict {
  ServiceStatus Status = ServiceStatus::Error;
  uint64_t Id = 0;
  /// True when the verdict came from the cache (or coalesced onto an
  /// identical in-flight analysis) rather than a fresh fixpoint.
  bool Cached = false;
  /// Content-addressed cache key of the request (0 on errors).
  uint64_t RequestDigest = 0;
  /// Verdict::digest() of an analyze response, repairVerdictDigest() of
  /// a repair response: equal digests mean equal verdicts.
  uint64_t VerdictDigest = 0;
  std::string Error;

  /// Work counters of the analysis (BatchRow::Iterations and Seconds;
  /// Seconds is 0 for cache hits). On the wire, but not in the digest.
  uint64_t Iterations = 0;
  double Seconds = 0;

  // The repair verdict (`op: repair` responses only; every field below is
  // omitted from the wire when RepairChecked is false, so analyze
  // responses are byte-identical to the pre-repair protocol).
  bool RepairChecked = false;
  /// Every reported leak site of the original program is proven leak-free
  /// by re-analysis of the patched program (vacuous when LeaksBefore==0).
  bool Repaired = false;
  uint64_t LeaksBefore = 0;
  uint64_t LeaksAfter = 0;
  uint64_t WcetBefore = 0;
  uint64_t WcetAfter = 0;
  /// Rendered applied mitigations (Mitigation::str), newline-joined on
  /// the wire like LeakSites.
  std::vector<std::string> Mitigations;
  /// The emitted patched program's IR rendering; equals the original
  /// program's rendering when nothing was applied.
  std::string PatchedIr;

  /// Builds an Ok response from a finished row, with its verdict digest
  /// (the request digest is left 0 for the caller to fill).
  static ServiceResponse fromRow(const BatchRow &Row);

  std::string toJson() const;
  /// Parses one response line. Rejects a `leak_count` that differs from
  /// the number of `leak_sites`.
  static bool fromJson(const std::string &Line, ServiceResponse &Out,
                       std::string &Error);
};

/// Digest over the canonical rendering of a repair verdict (the
/// RepairChecked fields, mitigations, and the patched IR). A repair
/// response's VerdictDigest carries this instead of Verdict::digest().
uint64_t repairVerdictDigest(const ServiceResponse &R);

/// The content-addressed cache key: \p ProgramDigest (runRequest's FNV-1a
/// over the lowered IR) mixed with the request's option key.
uint64_t requestDigest(uint64_t ProgramDigest, const ServiceRequest &Req);

/// The collision-guard string stored next to each cache entry: requests
/// whose digests collide but whose keys differ are treated as misses.
std::string requestKeyString(uint64_t ProgramDigest,
                             const ServiceRequest &Req);

} // namespace specai

#endif // SPECAI_SERVICE_PROTOCOL_H
