//===- Protocol.cpp - specaid request/response wire protocol --------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "fuzz/StateDigest.h"
#include "service/Json.h"

#include <cstdio>

using namespace specai;

const char *specai::serviceOpName(ServiceOp Op) {
  switch (Op) {
  case ServiceOp::Analyze:
    return "analyze";
  case ServiceOp::Repair:
    return "repair";
  case ServiceOp::Ping:
    return "ping";
  case ServiceOp::Stats:
    return "stats";
  case ServiceOp::Shutdown:
    return "shutdown";
  }
  return "?";
}

bool specai::parseServiceOp(const std::string &Name, ServiceOp &Out) {
  for (ServiceOp Op : {ServiceOp::Analyze, ServiceOp::Repair, ServiceOp::Ping,
                       ServiceOp::Stats, ServiceOp::Shutdown})
    if (Name == serviceOpName(Op)) {
      Out = Op;
      return true;
    }
  return false;
}

const char *specai::serviceStatusName(ServiceStatus S) {
  switch (S) {
  case ServiceStatus::Ok:
    return "ok";
  case ServiceStatus::Error:
    return "error";
  case ServiceStatus::Overloaded:
    return "overloaded";
  case ServiceStatus::Timeout:
    return "timeout";
  }
  return "?";
}

bool specai::parseServiceStatus(const std::string &Name, ServiceStatus &Out) {
  for (ServiceStatus S :
       {ServiceStatus::Ok, ServiceStatus::Error, ServiceStatus::Overloaded,
        ServiceStatus::Timeout})
    if (Name == serviceStatusName(S)) {
      Out = S;
      return true;
    }
  return false;
}

const char *specai::serviceFaultName(ServiceFault F) {
  switch (F) {
  case ServiceFault::None:
    return "none";
  case ServiceFault::SpillTruncate:
    return "spill-truncate";
  case ServiceFault::SpillGarbage:
    return "spill-garbage";
  case ServiceFault::WorkerStall:
    return "worker-stall";
  case ServiceFault::AnalysisThrow:
    return "analysis-throw";
  case ServiceFault::OversizedRequest:
    return "oversized-request";
  case ServiceFault::SlowClient:
    return "slow-client";
  }
  return "?";
}

bool specai::parseServiceFault(const std::string &Name, ServiceFault &Out) {
  for (ServiceFault F :
       {ServiceFault::None, ServiceFault::SpillTruncate,
        ServiceFault::SpillGarbage, ServiceFault::WorkerStall,
        ServiceFault::AnalysisThrow, ServiceFault::OversizedRequest,
        ServiceFault::SlowClient}) {
    if (Name == serviceFaultName(F)) {
      Out = F;
      return true;
    }
  }
  return false;
}

namespace {

/// Fetches an integer field, rejecting values outside [0, Max]. \p Side
/// ("request" or "response") prefixes the error.
bool takeUInt(const char *Side, const JsonObject &O, const char *Key,
              uint64_t Max, uint64_t &Out, std::string &Error) {
  auto It = O.find(Key);
  if (It == O.end())
    return true; // Absent: keep the default.
  if (It->second.K != JsonValue::Kind::Int || It->second.I < 0 ||
      static_cast<uint64_t>(It->second.I) > Max) {
    Error = std::string(Side) + ": bad '" + Key + "'";
    return false;
  }
  Out = static_cast<uint64_t>(It->second.I);
  return true;
}

bool takeBool(const char *Side, const JsonObject &O, const char *Key,
              bool &Out, std::string &Error) {
  auto It = O.find(Key);
  if (It == O.end())
    return true;
  if (It->second.K != JsonValue::Kind::Bool) {
    Error = std::string(Side) + ": bad '" + Key + "'";
    return false;
  }
  Out = It->second.B;
  return true;
}

constexpr const char *Req = "request";
constexpr const char *Resp = "response";

const std::string *takeString(const JsonObject &O, const char *Key) {
  auto It = O.find(Key);
  if (It == O.end() || It->second.K != JsonValue::Kind::String)
    return nullptr;
  return &It->second.S;
}

/// List fields travel as one newline-joined string (the protocol is flat
/// JSON); splitLines inverts joinLines for lines without newlines.
std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Joined;
  for (const std::string &L : Lines) {
    if (&L != &Lines.front())
      Joined += '\n';
    Joined += L;
  }
  return Joined;
}

std::vector<std::string> splitLines(const std::string &Joined) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  for (size_t End; (End = Joined.find('\n', Start)) != std::string::npos;
       Start = End + 1)
    Lines.push_back(Joined.substr(Start, End - Start));
  Lines.push_back(Joined.substr(Start));
  return Lines;
}

void writeVerdict(JsonWriter &W, const Verdict &V) {
  W.field("access_nodes", V.AccessNodes);
  W.field("miss_count", V.MissCount);
  W.field("sp_miss_count", V.SpMissCount);
  W.field("branch_count", V.BranchCount);
  W.field("refinement_rounds", static_cast<uint64_t>(V.RefinementRounds));
  W.field("converged", V.Converged);
  W.field("leaks_checked", V.LeaksChecked);
  W.field("leak_count", static_cast<uint64_t>(V.LeakSites.size()));
  W.field("proven_leak_free", V.ProvenLeakFree);
  if (!V.LeakSites.empty())
    W.field("leak_sites", joinLines(V.LeakSites));
}

bool readVerdict(const JsonObject &O, Verdict &V, std::string &Error) {
  uint64_t Rounds = V.RefinementRounds;
  uint64_t LeakCount = 0;
  constexpr uint64_t Max = UINT64_MAX >> 1;
  if (!takeUInt(Resp, O, "access_nodes", Max, V.AccessNodes, Error) ||
      !takeUInt(Resp, O, "miss_count", Max, V.MissCount, Error) ||
      !takeUInt(Resp, O, "sp_miss_count", Max, V.SpMissCount, Error) ||
      !takeUInt(Resp, O, "branch_count", Max, V.BranchCount, Error) ||
      !takeUInt(Resp, O, "refinement_rounds", 1u << 20, Rounds, Error) ||
      !takeBool(Resp, O, "converged", V.Converged, Error) ||
      !takeBool(Resp, O, "leaks_checked", V.LeaksChecked, Error) ||
      !takeUInt(Resp, O, "leak_count", Max, LeakCount, Error) ||
      !takeUInt(Resp, O, "proven_leak_free", Max, V.ProvenLeakFree, Error))
    return false;
  V.RefinementRounds = static_cast<unsigned>(Rounds);
  if (const std::string *Sites = takeString(O, "leak_sites"))
    V.LeakSites = splitLines(*Sites);
  if (LeakCount != V.LeakSites.size()) {
    Error = "response: 'leak_count' differs from the number of 'leak_sites'";
    return false;
  }
  return true;
}

} // namespace

MustHitOptions ServiceRequest::toMustHitOptions() const {
  MustHitOptions O;
  O.Cache = Cache;
  O.Speculative = Speculative;
  O.UseShadow = UseShadow;
  O.Strategy = Strategy;
  O.DepthMiss = DepthMiss;
  O.DepthHit = DepthHit;
  O.Bounding = Bounding;
  O.IterativeDepthRefinement = Refine;
  return O;
}

LoweringOptions ServiceRequest::toLoweringOptions() const {
  LoweringOptions O;
  O.EntryFunction = Entry;
  O.Mode = Mode;
  return O;
}

RunRequest ServiceRequest::toRunRequest() const {
  RunRequest R;
  R.Source = Source;
  R.Lowering = toLoweringOptions();
  R.Options = toMustHitOptions();
  R.DetectLeaks = DetectLeaks;
  return R;
}

std::string ServiceRequest::loweringKey() const {
  // Entry and mode are the only lowering knobs the protocol exposes; both
  // change the compiled IR, so both key the source -> digest memo.
  std::string K = "entry=";
  K += Entry;
  K += ";lowering=";
  K += loweringModeName(Mode);
  return K;
}

std::string ServiceRequest::optionKey() const {
  // Every verdict-visible option in a fixed order. The lowering knobs are
  // included even though they also shift the program digest: the key
  // string doubles as the collision guard, and a guard that under-reports
  // the request cannot distinguish colliding digests.
  std::string K = loweringKey();
  K += ";lines=";
  K += std::to_string(Cache.NumLines);
  K += ";line_size=";
  K += std::to_string(Cache.LineSize);
  K += ";assoc=";
  K += std::to_string(Cache.Associativity);
  K += ";policy=";
  K += replacementPolicyName(Cache.Policy);
  K += ";spec=";
  K += Speculative ? '1' : '0';
  K += ";shadow=";
  K += UseShadow ? '1' : '0';
  K += ";strategy=";
  K += mergeStrategyName(Strategy);
  K += ";depth_miss=";
  K += std::to_string(DepthMiss);
  K += ";depth_hit=";
  K += std::to_string(DepthHit);
  K += ";bounding=";
  K += boundingModeName(Bounding);
  K += ";refine=";
  K += Refine ? '1' : '0';
  K += ";leaks=";
  K += DetectLeaks ? '1' : '0';
  // Appended only for the repair verb, so every analyze key (and with it
  // every cached analyze verdict) predating the verb is unchanged.
  if (Op == ServiceOp::Repair)
    K += ";op=repair";
  return K;
}

std::string ServiceRequest::toJson() const {
  JsonWriter W;
  W.field("op", serviceOpName(Op));
  W.field("id", Id);
  if (Priority != 0)
    W.field("priority", Priority);
  if (Op != ServiceOp::Analyze && Op != ServiceOp::Repair)
    return W.finish();
  if (TimeoutMs != 0)
    W.field("timeout_ms", TimeoutMs);
  if (MaxSteps != 0)
    W.field("max_iterations", MaxSteps);
  W.field("source", Source);
  W.field("entry", Entry);
  W.field("lowering", loweringModeName(Mode));
  W.field("lines", static_cast<uint64_t>(Cache.NumLines));
  W.field("line_size", static_cast<uint64_t>(Cache.LineSize));
  W.field("assoc", static_cast<uint64_t>(Cache.Associativity));
  W.field("policy", replacementPolicyName(Cache.Policy));
  W.field("strategy", mergeStrategyName(Strategy));
  W.field("bounding", boundingModeName(Bounding));
  W.field("spec", Speculative);
  W.field("shadow", UseShadow);
  W.field("depth_miss", static_cast<uint64_t>(DepthMiss));
  W.field("depth_hit", static_cast<uint64_t>(DepthHit));
  W.field("refine", Refine);
  W.field("leaks", DetectLeaks);
  return W.finish();
}

bool ServiceRequest::fromJson(const std::string &Line, ServiceRequest &Out,
                              std::string &Error) {
  JsonObject O;
  if (!parseJsonObject(Line, O, Error))
    return false;
  Out = ServiceRequest();

  static const char *const Known[] = {
      "op",       "id",      "priority",  "source",    "entry",
      "lowering", "lines",   "line_size", "assoc",     "policy",
      "strategy", "bounding", "spec",     "shadow",    "depth_miss",
      "depth_hit", "refine", "leaks",     "timeout_ms", "max_iterations"};
  for (const auto &[Key, Value] : O) {
    bool Ok = false;
    for (const char *K : Known)
      Ok |= Key == K;
    if (!Ok) {
      Error = "request: unknown key '" + Key + "'";
      return false;
    }
  }

  if (const std::string *S = takeString(O, "op")) {
    if (!parseServiceOp(*S, Out.Op)) {
      Error = "request: unknown op '" + *S + "'";
      return false;
    }
  } else if (O.count("op")) {
    Error = "request: bad 'op'";
    return false;
  }

  uint64_t U = 0;
  if (!takeUInt(Req, O, "id", UINT64_MAX >> 1, U, Error))
    return false;
  Out.Id = O.count("id") ? U : 0;
  if (auto It = O.find("priority"); It != O.end()) {
    if (It->second.K != JsonValue::Kind::Int) {
      Error = "request: bad 'priority'";
      return false;
    }
    Out.Priority = It->second.I;
  }

  if (Out.Op != ServiceOp::Analyze && Out.Op != ServiceOp::Repair) {
    // Control requests must not smuggle analysis fields; a stats probe
    // carrying a 'source' is a client bug worth surfacing.
    for (const char *K : {"source", "entry", "lowering", "lines", "line_size",
                          "assoc", "policy", "strategy", "bounding", "spec",
                          "shadow", "depth_miss", "depth_hit", "refine",
                          "leaks", "timeout_ms", "max_iterations"})
      if (O.count(K)) {
        Error = std::string("request: '") + K + "' is not valid for op '" +
                serviceOpName(Out.Op) + "'";
        return false;
      }
    return true;
  }

  const std::string *Src = takeString(O, "source");
  if (!Src) {
    Error = "request: analyze needs a string 'source'";
    return false;
  }
  Out.Source = *Src;
  if (const std::string *S = takeString(O, "entry")) {
    if (S->empty()) {
      Error = "request: empty 'entry'";
      return false;
    }
    Out.Entry = *S;
  }
  if (const std::string *S = takeString(O, "lowering")) {
    if (!parseLoweringMode(*S, Out.Mode)) {
      Error = "request: unknown lowering '" + *S + "'";
      return false;
    }
  }
  if (const std::string *S = takeString(O, "policy")) {
    if (!parseReplacementPolicy(*S, Out.Cache.Policy)) {
      Error = "request: unknown policy '" + *S + "'";
      return false;
    }
  }
  if (const std::string *S = takeString(O, "strategy")) {
    if (!parseMergeStrategy(*S, Out.Strategy)) {
      Error = "request: unknown strategy '" + *S + "'";
      return false;
    }
  }
  if (const std::string *S = takeString(O, "bounding")) {
    if (!parseBoundingMode(*S, Out.Bounding)) {
      Error = "request: unknown bounding '" + *S + "'";
      return false;
    }
  }

  if (!takeUInt(Req, O, "lines", MaxCacheLines, U, Error))
    return false;
  if (O.count("lines"))
    Out.Cache.NumLines = static_cast<uint32_t>(U);
  if (!takeUInt(Req, O, "line_size", 1u << 16, U, Error))
    return false;
  if (O.count("line_size"))
    Out.Cache.LineSize = static_cast<uint32_t>(U);
  if (!takeUInt(Req, O, "assoc", MaxCacheLines, U, Error))
    return false;
  if (O.count("assoc"))
    Out.Cache.Associativity = static_cast<uint32_t>(U);
  if (!takeUInt(Req, O, "depth_miss", MaxSpecDepth, U, Error))
    return false;
  if (O.count("depth_miss"))
    Out.DepthMiss = static_cast<uint32_t>(U);
  if (!takeUInt(Req, O, "depth_hit", MaxSpecDepth, U, Error))
    return false;
  if (O.count("depth_hit"))
    Out.DepthHit = static_cast<uint32_t>(U);

  if (!takeUInt(Req, O, "timeout_ms", UINT64_MAX >> 1, Out.TimeoutMs, Error))
    return false;
  if (!takeUInt(Req, O, "max_iterations", UINT64_MAX >> 1, Out.MaxSteps, Error))
    return false;

  if (!takeBool(Req, O, "spec", Out.Speculative, Error) ||
      !takeBool(Req, O, "shadow", Out.UseShadow, Error) ||
      !takeBool(Req, O, "refine", Out.Refine, Error) ||
      !takeBool(Req, O, "leaks", Out.DetectLeaks, Error))
    return false;

  if (!Out.Cache.isValid()) {
    Error = "request: invalid cache geometry";
    return false;
  }
  return true;
}

ServiceResponse ServiceResponse::fromRow(const BatchRow &Row) {
  ServiceResponse R;
  static_cast<Verdict &>(R) = Row;
  R.Status = ServiceStatus::Ok;
  R.VerdictDigest = Row.digest();
  R.Iterations = Row.Iterations;
  R.Seconds = Row.Seconds;
  return R;
}

std::string ServiceResponse::toJson() const {
  JsonWriter W;
  W.field("status", serviceStatusName(Status));
  W.field("id", Id);
  if (Status != ServiceStatus::Ok) {
    if (!Error.empty())
      W.field("error", Error);
    if (RequestDigest)
      W.hexField("request_digest", RequestDigest);
    return W.finish();
  }
  W.field("cached", Cached);
  W.hexField("request_digest", RequestDigest);
  W.hexField("verdict_digest", VerdictDigest);
  writeVerdict(W, *this);
  W.field("iterations", Iterations);
  if (RepairChecked) {
    W.field("repair_checked", true);
    W.field("repaired", Repaired);
    W.field("leaks_before", LeaksBefore);
    W.field("leaks_after", LeaksAfter);
    W.field("wcet_before", WcetBefore);
    W.field("wcet_after", WcetAfter);
    if (!Mitigations.empty())
      W.field("mitigations", joinLines(Mitigations));
    if (!PatchedIr.empty())
      W.field("patched_ir", PatchedIr);
  }
  W.field("seconds", Seconds);
  return W.finish();
}

bool ServiceResponse::fromJson(const std::string &Line, ServiceResponse &Out,
                               std::string &Error) {
  JsonObject O;
  if (!parseJsonObject(Line, O, Error))
    return false;
  Out = ServiceResponse();

  const std::string *S = takeString(O, "status");
  if (!S || !parseServiceStatus(*S, Out.Status)) {
    Error = "response: missing or unknown 'status'";
    return false;
  }
  uint64_t U = 0;
  if (!takeUInt(Resp, O, "id", UINT64_MAX >> 1, U, Error))
    return false;
  Out.Id = O.count("id") ? U : 0;
  if (const std::string *E = takeString(O, "error"))
    Out.Error = *E;
  if (const std::string *H = takeString(O, "request_digest"))
    if (!parseHexU64(*H, Out.RequestDigest)) {
      Error = "response: bad 'request_digest'";
      return false;
    }
  if (Out.Status != ServiceStatus::Ok)
    return true;

  if (const std::string *H = takeString(O, "verdict_digest")) {
    if (!parseHexU64(*H, Out.VerdictDigest)) {
      Error = "response: bad 'verdict_digest'";
      return false;
    }
  }
  constexpr uint64_t Max = UINT64_MAX >> 1;
  if (!takeBool(Resp, O, "cached", Out.Cached, Error) ||
      !readVerdict(O, Out, Error) ||
      !takeUInt(Resp, O, "iterations", Max, Out.Iterations, Error) ||
      !takeBool(Resp, O, "repair_checked", Out.RepairChecked, Error))
    return false;
  if (Out.RepairChecked) {
    if (!takeBool(Resp, O, "repaired", Out.Repaired, Error) ||
        !takeUInt(Resp, O, "leaks_before", Max, Out.LeaksBefore, Error) ||
        !takeUInt(Resp, O, "leaks_after", Max, Out.LeaksAfter, Error) ||
        !takeUInt(Resp, O, "wcet_before", Max, Out.WcetBefore, Error) ||
        !takeUInt(Resp, O, "wcet_after", Max, Out.WcetAfter, Error))
      return false;
    if (const std::string *Ms = takeString(O, "mitigations"))
      Out.Mitigations = splitLines(*Ms);
    if (const std::string *P = takeString(O, "patched_ir"))
      Out.PatchedIr = *P;
  }
  if (auto It = O.find("seconds"); It != O.end())
    Out.Seconds = It->second.asDouble(0);
  return true;
}

uint64_t Verdict::digest() const {
  // Canonical rendering of every verdict field, leaving out what is not
  // the verdict: a row's label and configuration echo (the request digest
  // covers the configuration) and the work counters. Field order and
  // separators are part of the digest contract that `specai-cli --digest`
  // and the CI stress smokes (tools/stress_smoke.sh) pin.
  std::string S = "access_nodes=";
  S += std::to_string(AccessNodes);
  S += ";miss_count=";
  S += std::to_string(MissCount);
  S += ";sp_miss_count=";
  S += std::to_string(SpMissCount);
  S += ";branch_count=";
  S += std::to_string(BranchCount);
  S += ";refinement_rounds=";
  S += std::to_string(RefinementRounds);
  S += ";converged=";
  S += Converged ? '1' : '0';
  S += ";leaks_checked=";
  S += LeaksChecked ? '1' : '0';
  S += ";leak_count=";
  S += std::to_string(LeakSites.size());
  S += ";proven_leak_free=";
  S += std::to_string(ProvenLeakFree);
  for (const std::string &Site : LeakSites) {
    S += ";site=";
    S += Site;
  }
  return fnv1a(S);
}

uint64_t specai::repairVerdictDigest(const ServiceResponse &R) {
  // Canonical rendering of the repair verdict: what the synthesizer chose
  // and what it claims, plus the patched artifact itself. Equal digests
  // mean the same mitigations, the same WCET claim, and a bit-identical
  // patched program.
  std::string S = "repaired=";
  S += R.Repaired ? '1' : '0';
  S += ";leaks_before=";
  S += std::to_string(R.LeaksBefore);
  S += ";leaks_after=";
  S += std::to_string(R.LeaksAfter);
  S += ";wcet_before=";
  S += std::to_string(R.WcetBefore);
  S += ";wcet_after=";
  S += std::to_string(R.WcetAfter);
  for (const std::string &M : R.Mitigations) {
    S += ";mitigation=";
    S += M;
  }
  S += ";patched=";
  S += R.PatchedIr;
  return fnv1a(S);
}

uint64_t specai::requestDigest(uint64_t ProgramDigest,
                               const ServiceRequest &Req) {
  return fnv1a(Req.optionKey(), ProgramDigest);
}

std::string specai::requestKeyString(uint64_t ProgramDigest,
                                     const ServiceRequest &Req) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "program=0x%016llx;",
                static_cast<unsigned long long>(ProgramDigest));
  return Buf + Req.optionKey();
}
