//===- ServiceEngine.cpp - Request handling behind the daemon -------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceEngine.h"

#include "fuzz/StateDigest.h"
#include "service/Json.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace specai;

ServiceEngine::ServiceEngine(const ServiceEngineOptions &Opts)
    : Cache(Opts.CacheEntries, Opts.CacheShards, Opts.SpillDir, Opts.Fault),
      Pool(Opts.Jobs, Opts.QueueCapacity),
      MemoCapacity(Opts.MemoEntries ? Opts.MemoEntries : 1),
      Fault(Opts.Fault) {}

ServiceEngine::~ServiceEngine() {
  // Cancel in-flight and queued analyses (their budgets poll the flag),
  // then quiesce the workers before any member they touch is destroyed.
  beginShutdown();
  Pool.shutdown();
}

void ServiceEngine::beginShutdown() {
  ShuttingDown.store(true, std::memory_order_relaxed);
}

ServiceResponse ServiceEngine::handle(const ServiceRequest &Req) {
  if (Req.Op == ServiceOp::Ping) {
    std::lock_guard<std::mutex> Guard(Lock);
    ++Requests;
    ServiceResponse R;
    R.Status = ServiceStatus::Ok;
    R.Id = Req.Id;
    return R;
  }
  if (Req.Op != ServiceOp::Analyze && Req.Op != ServiceOp::Repair) {
    ServiceResponse R;
    R.Status = ServiceStatus::Error;
    R.Id = Req.Id;
    R.Error = std::string("engine: op '") + serviceOpName(Req.Op) +
              "' is handled by the server";
    return R;
  }
  // Repair rides the same three tiers as Analyze: its option key carries
  // an `op=repair` suffix, so the two verbs never share a cache entry.
  return handleAnalyze(Req);
}

ServiceResponse ServiceEngine::handleAnalyze(const ServiceRequest &Req) {
  // The deadline anchors at acceptance: queueing, stalls, and analysis all
  // spend the same allowance, so "answers within 2x its deadline" holds
  // whatever the pool is doing.
  const auto Deadline = ExecBudget::Clock::now() +
                        std::chrono::milliseconds(Req.TimeoutMs);

  std::string SrcKeyStr = Req.loweringKey();
  SrcKeyStr += '\0';
  SrcKeyStr += Req.Source;
  const uint64_t SrcKey = fnv1a(SrcKeyStr);

  // Tiers 1-2 answer from what an earlier analysis left: a memoized
  // compile error, or the verdict cached for the memoized program digest
  // (the digest is over the lowered IR, not the text). Both are checked
  // once up front and again under the lock that registers a flight.
  auto MemoizedError = [&](const CompileMemo &M) {
    ServiceResponse R;
    R.Status = ServiceStatus::Error;
    R.Id = Req.Id;
    R.Cached = true;
    R.Error = M.Error;
    return R;
  };
  auto CachedVerdict = [&](uint64_t ProgramDigest, ServiceResponse &R) {
    const uint64_t Digest = requestDigest(ProgramDigest, Req);
    if (!Cache.lookup(Digest, requestKeyString(ProgramDigest, Req), R))
      return false;
    R.Id = Req.Id;
    R.Cached = true;
    R.RequestDigest = Digest;
    R.Seconds = 0; // No analysis ran for this request.
    return true;
  };

  // Tier 1: the source memo. The stored full key must match too — a bare
  // SrcKey collision between distinct sources degrades to a miss, never to
  // another program's digest.
  uint64_t ProgramDigest = 0;
  bool HaveDigest = false;
  {
    std::lock_guard<std::mutex> Guard(Lock);
    ++Requests;
    if (CompileMemo *M = memoLookup(SrcKey, SrcKeyStr)) {
      if (!M->Ok) {
        ++CacheHits;
        return MemoizedError(*M);
      }
      ProgramDigest = M->ProgramDigest;
      HaveDigest = true;
    }
  }

  // Tier 2: the verdict cache, outside the engine lock (it has its own).
  if (HaveDigest) {
    ServiceResponse R;
    if (CachedVerdict(ProgramDigest, R)) {
      std::lock_guard<std::mutex> Guard(Lock);
      ++CacheHits;
      return R;
    }
  }

  // Tier 3: schedule the analysis, coalescing exact duplicates that are
  // already in flight. The key is the full request identity (options +
  // source), not a digest — collisions must not fuse distinct requests.
  std::string FlightKey = Req.optionKey();
  FlightKey += '\0';
  FlightKey += Req.Source;

  std::shared_future<ServiceResponse> Fut;
  std::shared_ptr<std::promise<ServiceResponse>> Prom;
  {
    std::lock_guard<std::mutex> Guard(Lock);
    auto It = InFlight.find(FlightKey);
    if (It != InFlight.end()) {
      Fut = It->second;
      ++Coalesced;
    } else {
      // A twin may have finished between tiers 1-2 and this lock.
      // runAnalysis stores the memo and the verdict before it erases its
      // flight, so re-checking both here keeps the twin's answer from
      // being computed a second time.
      if (CompileMemo *M = memoLookup(SrcKey, SrcKeyStr)) {
        ServiceResponse R;
        if (!M->Ok || CachedVerdict(M->ProgramDigest, R)) {
          ++CacheHits;
          return M->Ok ? R : MemoizedError(*M);
        }
      }
      Prom = std::make_shared<std::promise<ServiceResponse>>();
      Fut = Prom->get_future().share();
      InFlight.emplace(FlightKey, Fut);
    }
  }

  if (Prom) {
    // The flight's budget: this request's deadline and step cap, plus the
    // engine-wide shutdown flag. Unbudgeted requests still carry one so
    // shutdown can cancel them while queued or mid-fixpoint. Owned by the
    // job (shared_ptr) — the enqueuing thread may return before it runs.
    auto Budget = std::make_shared<ExecBudget>(Req.TimeoutMs, Req.MaxSteps,
                                               &ShuttingDown);
    bool Queued = Pool.tryEnqueue(Req.Priority, [this, Req, SrcKey, FlightKey,
                                                 Prom, Budget] {
      // An analysis that throws (requireRow, a rethrown parallelFor worker
      // fault, bad_alloc, ...) must still resolve the promise: the waiter
      // below — and every duplicate coalesced onto this flight — blocks in
      // Fut.get() while holding the promise alive, so a swallowed exception
      // would park them all forever.
      ServiceResponse Out;
      try {
        Out = runAnalysis(Req, SrcKey, *Budget);
      } catch (const std::exception &E) {
        Out = ServiceResponse();
        Out.Status = ServiceStatus::Error;
        Out.Error = std::string("analysis failed: ") + E.what();
      } catch (...) {
        Out = ServiceResponse();
        Out.Status = ServiceStatus::Error;
        Out.Error = "analysis failed: unknown exception";
      }
      {
        std::lock_guard<std::mutex> Guard(Lock);
        InFlight.erase(FlightKey);
      }
      Prom->set_value(std::move(Out));
    });
    if (!Queued) {
      // Backpressure: reject now, and resolve the in-flight entry so any
      // request that coalesced onto it in the window above is also told
      // to retry rather than parked forever.
      ServiceResponse R;
      R.Status = ServiceStatus::Overloaded;
      R.Error = "analysis queue is full; retry later";
      {
        std::lock_guard<std::mutex> Guard(Lock);
        ++OverloadedCount;
        InFlight.erase(FlightKey);
      }
      Prom->set_value(R);
      R.Id = Req.Id;
      return R;
    }
  }

  // Budgeted waiters detach at their own deadline: a coalesced duplicate
  // with a short deadline must not inherit a longer flight's latency, and
  // a worker stalled past every deadline must not strand anyone. The
  // flight itself keeps running and resolves for patient waiters; its
  // verdict (if Ok) is cached for the detached client's retry.
  if (Req.TimeoutMs != 0 &&
      Fut.wait_until(Deadline) == std::future_status::timeout) {
    ServiceResponse R;
    R.Status = ServiceStatus::Timeout;
    R.Id = Req.Id;
    R.Error = "deadline exceeded before the analysis finished";
    std::lock_guard<std::mutex> Guard(Lock);
    ++Timeouts;
    return R;
  }

  ServiceResponse R = Fut.get();
  R.Id = Req.Id;
  if (R.Status == ServiceStatus::Timeout) {
    std::lock_guard<std::mutex> Guard(Lock);
    ++Timeouts;
  }
  if (!Prom && R.Status == ServiceStatus::Ok) {
    // A coalesced duplicate: the verdict exists because some *other*
    // request paid for it.
    R.Cached = true;
    R.Seconds = 0;
  }
  return R;
}

ServiceResponse ServiceEngine::runAnalysis(const ServiceRequest &Req,
                                           uint64_t SrcKey,
                                           ExecBudget &Budget) {
  // Injected fault: every analysis throws after scheduling. Containment
  // is the enqueue lambda's catch — waiters and coalesced duplicates all
  // get an error response, the pool worker survives.
  if (Fault == ServiceFault::AnalysisThrow)
    throw std::runtime_error("injected fault: analysis-throw");

  // Injected fault: the worker stalls before touching the fixpoint, well
  // past any realistic deadline — the containment claim is that budgeted
  // waiters still answer `timeout` on time and the daemon stays healthy.
  if (Fault == ServiceFault::WorkerStall) {
    for (int I = 0; I != 20 && !Budget.exhausted(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // A budget spent while queued (or a daemon mid-shutdown) short-circuits:
  // running the analysis would only delay the timeout answer.
  auto TimeoutResponse = [&] {
    ServiceResponse R;
    R.Status = ServiceStatus::Timeout;
    R.Error = std::string("analysis budget exhausted (") +
              budgetTripName(Budget.trip()) + ")";
    return R;
  };
  if (Budget.exhausted())
    return TimeoutResponse();

  RunRequest RR = Req.toRunRequest();
  RR.Options.Budget = &Budget;

  // The compile outcome is budget-independent, so memoizing it is safe
  // even when the analysis below timed out.
  std::string SrcKeyStr = Req.loweringKey();
  SrcKeyStr += '\0';
  SrcKeyStr += Req.Source;
  auto StoreMemo = [&](bool Ok, uint64_t ProgramDigest,
                       const std::string &Error) {
    std::lock_guard<std::mutex> Guard(Lock);
    ++AnalysesRun;
    CompileMemo M;
    M.Ok = Ok;
    M.ProgramDigest = ProgramDigest;
    M.Error = Error;
    M.Key = std::move(SrcKeyStr);
    if (!Ok)
      ++CompileErrors;
    memoStore(SrcKey, std::move(M));
  };

  if (Req.Op == ServiceOp::Repair) {
    RepairRunOutcome Out = runRepairRequest(RR);
    StoreMemo(Out.Ok, Out.ProgramDigest, Out.Error);
    if (!Out.Ok) {
      ServiceResponse R;
      R.Status = ServiceStatus::Error;
      R.Error = Out.Error;
      return R;
    }
    if (Out.Result.BudgetExceeded)
      return TimeoutResponse(); // Partial search: never cached.
    ServiceResponse R;
    if (!Out.Result.Error.empty()) {
      // Outside the synthesizer's domain (e.g. a Summarize-mode module):
      // a definitive answer, but an error, not a verdict — never cached.
      R.Status = ServiceStatus::Error;
      R.Error = Out.Result.Error;
      return R;
    }
    R.Status = ServiceStatus::Ok;
    R.RepairChecked = true;
    R.Repaired = Out.Result.Repaired;
    R.LeaksBefore = Out.Result.LeaksBefore;
    R.LeaksAfter = Out.Result.LeaksAfter;
    R.WcetBefore = Out.Result.WcetBefore;
    R.WcetAfter = Out.Result.WcetAfter;
    for (const Mitigation &M : Out.Result.Applied)
      R.Mitigations.push_back(M.str(Out.Result.Patched));
    R.PatchedIr = Out.Result.Patched.str();
    R.VerdictDigest = repairVerdictDigest(R);
    R.RequestDigest = requestDigest(Out.ProgramDigest, Req);
    Cache.insert(R.RequestDigest, requestKeyString(Out.ProgramDigest, Req), R);
    return R;
  }

  RunOutcome Out = runRequest(RR);
  StoreMemo(Out.Ok, Out.ProgramDigest, Out.Error);
  if (!Out.Ok) {
    ServiceResponse R;
    R.Status = ServiceStatus::Error;
    R.Error = Out.Error;
    return R;
  }
  if (Out.Row.BudgetExceeded)
    return TimeoutResponse(); // Partial fixpoint: never cached.
  ServiceResponse R = ServiceResponse::fromRow(Out.Row);
  R.RequestDigest = requestDigest(Out.ProgramDigest, Req);
  Cache.insert(R.RequestDigest, requestKeyString(Out.ProgramDigest, Req), R);
  return R;
}

ServiceEngine::CompileMemo *
ServiceEngine::memoLookup(uint64_t SrcKey, const std::string &SrcKeyStr) {
  auto It = MemoIndex.find(SrcKey);
  if (It == MemoIndex.end() || It->second->second.Key != SrcKeyStr)
    return nullptr;
  MemoOrder.splice(MemoOrder.begin(), MemoOrder, It->second);
  return &It->second->second;
}

void ServiceEngine::memoStore(uint64_t SrcKey, CompileMemo M) {
  auto It = MemoIndex.find(SrcKey);
  if (It != MemoIndex.end()) {
    // Same digest slot (collision or refresh): last writer wins, recency
    // refreshed. A collision victim recompiles on every request — slower,
    // never wrong, matching VerdictCache's guard discipline.
    It->second->second = std::move(M);
    MemoOrder.splice(MemoOrder.begin(), MemoOrder, It->second);
    return;
  }
  MemoOrder.emplace_front(SrcKey, std::move(M));
  MemoIndex[SrcKey] = MemoOrder.begin();
  while (MemoOrder.size() > MemoCapacity) {
    MemoIndex.erase(MemoOrder.back().first);
    MemoOrder.pop_back();
    ++MemoEvictions;
  }
}

ServiceEngineStats ServiceEngine::stats() const {
  ServiceEngineStats S;
  {
    std::lock_guard<std::mutex> Guard(Lock);
    S.Requests = Requests;
    S.CacheHits = CacheHits;
    S.AnalysesRun = AnalysesRun;
    S.CompileErrors = CompileErrors;
    S.Overloaded = OverloadedCount;
    S.Coalesced = Coalesced;
    S.Timeouts = Timeouts;
    S.MemoEntries = MemoOrder.size();
    S.MemoEvictions = MemoEvictions;
  }
  S.Cache = Cache.stats();
  return S;
}

std::string ServiceEngine::statsJson(uint64_t Id) const {
  ServiceEngineStats S = stats();
  JsonWriter W;
  W.field("status", serviceStatusName(ServiceStatus::Ok));
  W.field("id", Id);
  W.field("requests", S.Requests);
  W.field("cache_hits", S.CacheHits);
  W.field("analyses_run", S.AnalysesRun);
  W.field("compile_errors", S.CompileErrors);
  W.field("overloaded", S.Overloaded);
  W.field("coalesced", S.Coalesced);
  W.field("timeouts", S.Timeouts);
  W.field("memo_entries", S.MemoEntries);
  W.field("memo_evictions", S.MemoEvictions);
  W.field("cache_entries", S.Cache.Entries);
  W.field("cache_evictions", S.Cache.Evictions);
  W.field("cache_spill_writes", S.Cache.SpillWrites);
  W.field("cache_spill_hits", S.Cache.SpillHits);
  W.field("cache_spill_corrupt", S.Cache.SpillCorrupt);
  W.field("pool_rejected", Pool.rejectedCount());
  W.field("pool_faulted", Pool.faultedCount());
  W.field("jobs", static_cast<uint64_t>(Pool.jobCount()));
  return W.finish();
}
