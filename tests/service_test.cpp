//===- service_test.cpp - Unit tests for the specaid service layer --------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// The service layer's soundness contract (docs/SERVICE.md): the request
/// digest must split every verdict-visible option (a cache that conflates
/// two configurations would serve *wrong verdicts*, the one failure mode a
/// verdict cache must never have), identical requests must hit, the LRU
/// bounds hold, backpressure is an explicit response, and the engine's
/// answers are bit-identical to single-shot runRequest calls.
///
//===----------------------------------------------------------------------===//

#include "service/ServiceEngine.h"

#include "VerdictMatchers.h"
#include "fuzz/ProgramGen.h"
#include "service/Client.h"
#include "service/Json.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace specai;

namespace {

const char *testProgram() {
  return R"MC(
char table[256];
char left[64];
int mode;
secret reg char key;

int main() {
  reg int t;
  for (reg int i = 0; i < 256; i += 64)
    t = table[i];
  if (mode == 0) {
    t = t + left[0];
  }
  t = t + table[key & 255];
  return t;
}
)MC";
}

ServiceRequest baseRequest() {
  ServiceRequest Req;
  Req.Source = testProgram();
  Req.Cache = CacheConfig::fullyAssociative(6);
  return Req;
}

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(ServiceJsonTest, FlatObjectsRoundTrip) {
  JsonWriter W;
  W.field("s", "line1\nline2\t\"quoted\" \\ done");
  W.field("b", true);
  W.field("i", int64_t(-42));
  W.field("u", uint64_t(9000000000000000000ULL));
  W.field("d", 1.5);
  W.hexField("h", 0xdeadbeefcafe1234ULL);
  std::string Text = W.finish();

  JsonObject O;
  std::string Error;
  ASSERT_TRUE(parseJsonObject(Text, O, Error)) << Error;
  EXPECT_EQ(O["s"].asString(""), "line1\nline2\t\"quoted\" \\ done");
  EXPECT_EQ(O["b"].asBool(false), true);
  EXPECT_EQ(O["i"].asInt(0), -42);
  EXPECT_EQ(O["u"].asInt(0), int64_t(9000000000000000000ULL));
  EXPECT_EQ(O["d"].asDouble(0), 1.5);
  uint64_t H = 0;
  ASSERT_TRUE(parseHexU64(O["h"].asString(""), H));
  EXPECT_EQ(H, 0xdeadbeefcafe1234ULL);
}

TEST(ServiceJsonTest, RejectsNestingDuplicatesAndGarbage) {
  JsonObject O;
  std::string Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": {\"b\": 1}}", O, Error));
  EXPECT_FALSE(parseJsonObject("{\"a\": [1, 2]}", O, Error));
  EXPECT_FALSE(parseJsonObject("{\"a\": 1, \"a\": 2}", O, Error));
  EXPECT_FALSE(parseJsonObject("{\"a\": 1} trailing", O, Error));
  EXPECT_FALSE(parseJsonObject("{\"a\": }", O, Error));
  EXPECT_FALSE(parseJsonObject("not json", O, Error));
  EXPECT_TRUE(parseJsonObject("{}", O, Error)) << Error;
  EXPECT_TRUE(O.empty());
}

TEST(ServiceJsonTest, EmbeddedValuesRenderNestedButNeverParse) {
  // Bench and campaign records nest a finished object and an array; the
  // writer embeds them verbatim, and the flat protocol parser still
  // refuses the result.
  JsonWriter Inner;
  Inner.field("policy", "lru");
  Inner.field("seconds", 0.25);
  JsonWriter W;
  W.field("suite", "s");
  W.rawField("policies", jsonArray({Inner.finish()}));
  W.rawField("jobs", jsonArray({"1", "4"}));
  W.rawField("empty", jsonArray({}));
  std::string Text = W.finish();
  EXPECT_EQ(Text, "{\"suite\": \"s\", \"policies\": [{\"policy\": \"lru\", "
                  "\"seconds\": 0.250000}], \"jobs\": [1, 4], \"empty\": []}");

  JsonObject O;
  std::string Error;
  EXPECT_FALSE(parseJsonObject(Text, O, Error));
  EXPECT_NE(Error.find("nested"), std::string::npos) << Error;
}

TEST(ServiceJsonTest, TruncatedEscapesAreRejectedWithOffsets) {
  // A request line cut mid-escape (a client killed mid-write, a torn
  // buffer) must parse to an error, never to a silently mangled string.
  JsonObject O;
  std::string Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"x\\", O, Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos) << Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"x\\u00", O, Error));
  EXPECT_NE(Error.find("\\u"), std::string::npos) << Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"x\\u00g0\"}", O, Error));
  EXPECT_NE(Error.find("malformed"), std::string::npos) << Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"x\\q\"}", O, Error));
  EXPECT_NE(Error.find("unknown escape"), std::string::npos) << Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"never closed}", O, Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos) << Error;
}

TEST(ServiceJsonTest, BracesAndNewlinesInsideStringsAreData) {
  // Program sources carry braces and (escaped) newlines; the flat-object
  // nesting rejection must not fire on brace *characters* inside strings.
  JsonObject O;
  std::string Error;
  ASSERT_TRUE(parseJsonObject(
      "{\"src\": \"int main() { return 0; }\", \"t\": \"a\\nb\\n\"}", O,
      Error))
      << Error;
  EXPECT_EQ(O["src"].asString(""), "int main() { return 0; }");
  EXPECT_EQ(O["t"].asString(""), "a\nb\n");

  // The writer escapes every byte the parser needs escaped, so any source
  // text round-trips — including one that is itself a JSON object.
  JsonWriter W;
  W.field("src", "{\"op\": \"analyze\"}\nline2");
  ASSERT_TRUE(parseJsonObject(W.finish(), O, Error)) << Error;
  EXPECT_EQ(O["src"].asString(""), "{\"op\": \"analyze\"}\nline2");
}

TEST(ServiceJsonTest, DuplicateKeysAreRejectedWhateverTheValueKinds) {
  // Duplicate keys are a first-writer/last-writer ambiguity a cache-key
  // discipline cannot afford; the parser rejects them outright.
  JsonObject O;
  std::string Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": \"x\", \"a\": \"x\"}", O, Error));
  EXPECT_NE(Error.find("duplicate"), std::string::npos) << Error;
  EXPECT_FALSE(parseJsonObject("{\"a\": 1, \"b\": 2, \"a\": \"s\"}", O,
                               Error));
  EXPECT_FALSE(parseJsonObject("{\"a\": true, \"a\": false}", O, Error));
  // And through the request layer: a duplicated option must not pick
  // either value.
  ServiceRequest Req;
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"ping\", \"id\": 1, \"id\": 2}", Req, Error));
}

TEST(ServiceProtocolTest, RequestsRoundTripThroughJson) {
  ServiceRequest Req = baseRequest();
  Req.Id = 17;
  Req.Priority = -3;
  Req.Mode = LoweringMode::Summarize;
  Req.Strategy = MergeStrategy::MergeAtExit;
  Req.Bounding = BoundingMode::Fixed;
  Req.Cache = CacheConfig::setAssociative(16, 2);
  Req.Cache.Policy = ReplacementPolicy::Fifo;
  Req.Speculative = false;
  Req.UseShadow = false;
  Req.DepthMiss = 123;
  Req.DepthHit = 7;
  Req.Refine = true;
  Req.DetectLeaks = false;

  Req.TimeoutMs = 1500;
  Req.MaxSteps = 2000000;

  ServiceRequest Back;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(Req.toJson(), Back, Error)) << Error;
  EXPECT_EQ(Back.Id, Req.Id);
  EXPECT_EQ(Back.Priority, Req.Priority);
  EXPECT_EQ(Back.Source, Req.Source);
  EXPECT_EQ(Back.optionKey(), Req.optionKey());
  EXPECT_EQ(Back.TimeoutMs, Req.TimeoutMs);
  EXPECT_EQ(Back.MaxSteps, Req.MaxSteps);

  ServiceResponse Timeout;
  Timeout.Status = ServiceStatus::Timeout;
  Timeout.Id = 3;
  Timeout.Error = "deadline exceeded";
  ServiceResponse BackR;
  ASSERT_TRUE(ServiceResponse::fromJson(Timeout.toJson(), BackR, Error))
      << Error;
  EXPECT_EQ(BackR.Status, ServiceStatus::Timeout);
  EXPECT_EQ(BackR.Error, "deadline exceeded");
}

TEST(ServiceProtocolTest, MalformedRequestsAreRejectedWithReasons) {
  ServiceRequest Out;
  std::string Error;
  // Unknown keys must be rejected: a typo'd option silently defaulting
  // would make two *different* requests share a cache key.
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"analyze\", \"source\": \"int main(){return 0;}\", "
      "\"strtegy\": \"no-merge\"}",
      Out, Error));
  EXPECT_NE(Error.find("strtegy"), std::string::npos) << Error;

  EXPECT_FALSE(ServiceRequest::fromJson("{\"op\": \"analyze\"}", Out, Error))
      << "analyze without source must fail";
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"frob\", \"source\": \"x\"}", Out, Error));
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"ping\", \"source\": \"int main(){return 0;}\"}", Out,
      Error))
      << "control ops must not smuggle analysis fields";
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"analyze\", \"source\": \"x\", \"lines\": 0}", Out, Error))
      << "invalid cache geometry must be rejected at parse time";

  EXPECT_TRUE(ServiceRequest::fromJson("{\"op\": \"ping\", \"id\": 3}", Out,
                                       Error))
      << Error;
  EXPECT_EQ(Out.Op, ServiceOp::Ping);
  EXPECT_EQ(Out.Id, 3u);
}

TEST(ServiceProtocolTest, ResponsesRoundTripThroughJson) {
  BatchRow Row;
  Row.AccessNodes = 10;
  Row.MissCount = 7;
  Row.SpMissCount = 6;
  Row.BranchCount = 2;
  Row.Iterations = 29;
  Row.RefinementRounds = 2;
  Row.Converged = true;
  Row.LeaksChecked = true;
  Row.ProvenLeakFree = 1;
  Row.LeakSites = {"site one", "site two"};
  Row.Seconds = 0.25;

  ServiceResponse R = ServiceResponse::fromRow(Row);
  R.Id = 5;
  R.RequestDigest = 0x1234;
  ServiceResponse Back;
  std::string Error;
  ASSERT_TRUE(ServiceResponse::fromJson(R.toJson(), Back, Error)) << Error;
  EXPECT_TRUE(sameAnswer(Back, R));
  EXPECT_EQ(Back.Id, R.Id);
  EXPECT_EQ(Back.Iterations, 29u) << "work counters stay on the wire";
  EXPECT_EQ(Back.RequestDigest, R.RequestDigest);
  EXPECT_EQ(Back.LeakSites, R.LeakSites);

  ServiceResponse Err;
  Err.Status = ServiceStatus::Overloaded;
  Err.Id = 9;
  Err.Error = "queue full";
  ASSERT_TRUE(ServiceResponse::fromJson(Err.toJson(), Back, Error)) << Error;
  EXPECT_EQ(Back.Status, ServiceStatus::Overloaded);
  EXPECT_EQ(Back.Error, "queue full");
}

TEST(ServiceProtocolTest, LeakCountMustMatchTheLeakSites) {
  // The leak count is the number of sites; a response whose two disagree
  // is corrupt, not a verdict.
  ServiceResponse R;
  R.Status = ServiceStatus::Ok;
  R.LeaksChecked = true;
  R.LeakSites = {"site one", "site two"};
  std::string Line = R.toJson();
  size_t At = Line.find("\"leak_count\": 2");
  ASSERT_NE(At, std::string::npos) << "written from the sites: " << Line;
  Line.replace(At, 15, "\"leak_count\": 3");
  ServiceResponse Back;
  std::string Error;
  EXPECT_FALSE(ServiceResponse::fromJson(Line, Back, Error));
  EXPECT_NE(Error.find("leak_count"), std::string::npos) << Error;
}

TEST(ServiceProtocolTest, FieldErrorsNameTheSideThatSentThem) {
  // A bad field blames the message it came in: a daemon answer with a
  // negative counter is a bad response, not a bad request.
  ServiceResponse Back;
  std::string Error;
  EXPECT_FALSE(ServiceResponse::fromJson(
      "{\"status\": \"ok\", \"miss_count\": -1}", Back, Error));
  EXPECT_EQ(Error, "response: bad 'miss_count'");
  EXPECT_FALSE(ServiceResponse::fromJson(
      "{\"status\": \"ok\", \"converged\": 1}", Back, Error));
  EXPECT_EQ(Error, "response: bad 'converged'");

  ServiceRequest Req;
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"analyze\", \"source\": \"x\", \"lines\": -1}", Req,
      Error));
  EXPECT_EQ(Error, "request: bad 'lines'");
  EXPECT_FALSE(ServiceRequest::fromJson(
      "{\"op\": \"analyze\", \"source\": \"x\", \"spec\": 2}", Req,
      Error));
  EXPECT_EQ(Error, "request: bad 'spec'");
}

//===----------------------------------------------------------------------===//
// Digest soundness: every verdict-visible option must split the key
//===----------------------------------------------------------------------===//

TEST(ServiceProtocolTest, RepairRequestsAndResponsesRoundTrip) {
  ServiceRequest Req = baseRequest();
  Req.Op = ServiceOp::Repair;
  Req.Id = 9;
  ServiceRequest Back;
  std::string Error;
  ASSERT_TRUE(ServiceRequest::fromJson(Req.toJson(), Back, Error)) << Error;
  EXPECT_EQ(Back.Op, ServiceOp::Repair);
  EXPECT_EQ(Back.Source, Req.Source);
  // The repair verb gets its own cache-key space; everything else about
  // the key is shared with analyze.
  ServiceRequest Analyze = baseRequest();
  EXPECT_NE(Req.optionKey(), Analyze.optionKey());
  EXPECT_NE(Req.optionKey().find(";op=repair"), std::string::npos);
  EXPECT_EQ(Analyze.optionKey().find(";op=repair"), std::string::npos);

  ServiceResponse R;
  R.Status = ServiceStatus::Ok;
  R.Id = 9;
  R.RepairChecked = true;
  R.Repaired = true;
  R.LeaksBefore = 2;
  R.LeaksAfter = 0;
  R.WcetBefore = 700;
  R.WcetAfter = 650;
  R.Mitigations = {"hoist 'mode' (cost 0)", "fence at bb2 (cost 12)"};
  R.PatchedIr = "program main {\n}\n";
  R.VerdictDigest = repairVerdictDigest(R);
  ServiceResponse BackR;
  ASSERT_TRUE(ServiceResponse::fromJson(R.toJson(), BackR, Error)) << Error;
  EXPECT_TRUE(BackR.RepairChecked);
  EXPECT_TRUE(BackR.Repaired);
  EXPECT_EQ(BackR.LeaksBefore, 2u);
  EXPECT_EQ(BackR.LeaksAfter, 0u);
  EXPECT_EQ(BackR.WcetBefore, 700u);
  EXPECT_EQ(BackR.WcetAfter, 650u);
  EXPECT_EQ(BackR.Mitigations, R.Mitigations);
  EXPECT_EQ(BackR.PatchedIr, R.PatchedIr);
  EXPECT_TRUE(sameAnswer(BackR, R));

  // A non-repair response must not gain a single new wire key: analyze
  // responses are byte-compatible with the pre-repair protocol.
  ServiceResponse Plain;
  Plain.Status = ServiceStatus::Ok;
  EXPECT_EQ(Plain.toJson().find("repair"), std::string::npos);
  EXPECT_EQ(Plain.toJson().find("mitigation"), std::string::npos);
  EXPECT_EQ(Plain.toJson().find("patched"), std::string::npos);
}

TEST(ServiceDigestTest, EveryVerdictVisibleOptionSplitsTheRequestDigest) {
  const uint64_t PD = 0xabcdef0123456789ULL;
  ServiceRequest Base = baseRequest();

  std::vector<ServiceRequest> Variants;
  auto Vary = [&](auto Mutate) {
    ServiceRequest R = Base;
    Mutate(R);
    Variants.push_back(std::move(R));
  };
  Vary([](ServiceRequest &R) { R.Entry = "helper"; });
  Vary([](ServiceRequest &R) { R.Mode = LoweringMode::Summarize; });
  Vary([](ServiceRequest &R) { R.Cache = CacheConfig::fullyAssociative(12); });
  Vary([](ServiceRequest &R) { R.Cache = CacheConfig::setAssociative(6, 2); });
  Vary([](ServiceRequest &R) { R.Cache.Policy = ReplacementPolicy::Fifo; });
  Vary([](ServiceRequest &R) { R.Cache.Policy = ReplacementPolicy::Plru; });
  Vary([](ServiceRequest &R) { R.Speculative = false; });
  Vary([](ServiceRequest &R) { R.UseShadow = false; });
  Vary([](ServiceRequest &R) { R.Strategy = MergeStrategy::NoMerge; });
  Vary([](ServiceRequest &R) { R.Strategy = MergeStrategy::MergeAtExit; });
  Vary([](ServiceRequest &R) { R.Strategy = MergeStrategy::MergeAtRollback; });
  Vary([](ServiceRequest &R) { R.DepthMiss = 100; });
  Vary([](ServiceRequest &R) { R.DepthHit = 10; });
  Vary([](ServiceRequest &R) { R.Bounding = BoundingMode::Fixed; });
  Vary([](ServiceRequest &R) { R.Refine = true; });
  Vary([](ServiceRequest &R) { R.DetectLeaks = false; });

  std::set<uint64_t> Digests{requestDigest(PD, Base)};
  for (const ServiceRequest &V : Variants) {
    uint64_t D = requestDigest(PD, V);
    EXPECT_TRUE(Digests.insert(D).second)
        << "option change did not split the digest: " << V.optionKey();
  }
  // And the same request twice is the same digest.
  EXPECT_EQ(requestDigest(PD, Base), requestDigest(PD, baseRequest()));
  // A different program splits everything.
  EXPECT_NE(requestDigest(PD, Base), requestDigest(PD + 1, Base));
}

TEST(ServiceDigestTest, QueueingMetadataDoesNotSplitTheDigest) {
  const uint64_t PD = 42;
  ServiceRequest A = baseRequest();
  ServiceRequest B = baseRequest();
  B.Id = 999;
  B.Priority = 7;
  // Budgets are queueing metadata too: they bound *whether* an answer
  // arrives, never *what* it is (a budget-tripped run is never cached),
  // so a budgeted and an unbudgeted request must share a cache entry.
  B.TimeoutMs = 5000;
  B.MaxSteps = 1000000;
  EXPECT_EQ(requestDigest(PD, A), requestDigest(PD, B));
  EXPECT_EQ(requestKeyString(PD, A), requestKeyString(PD, B));
}

TEST(ServiceDigestTest, VerdictDigestIsLabelAndTimingIndependent) {
  BatchRow A;
  A.Label = "service";
  A.MissCount = 3;
  A.Seconds = 0.5;
  BatchRow B = A;
  B.Label = "cli";
  B.Seconds = 99;
  // Pops are a cost of the schedule, not part of the answer.
  B.Iterations = A.Iterations + 1;
  EXPECT_EQ(A.digest(), B.digest());

  B.MissCount = 4;
  EXPECT_NE(A.digest(), B.digest());
  B = A;
  B.LeakSites = {"leak"};
  EXPECT_NE(A.digest(), B.digest());
}

//===----------------------------------------------------------------------===//
// ExecBudget: the cooperative cancellation token the engines poll
//===----------------------------------------------------------------------===//

TEST(ExecBudgetTest, StepCapIsExactAndSticky) {
  ExecBudget B(/*TimeoutMs=*/0, /*MaxSteps=*/10);
  for (int I = 0; I != 10; ++I)
    EXPECT_FALSE(B.chargeStep()) << "step " << I << " is within the cap";
  EXPECT_TRUE(B.chargeStep()) << "step 11 must trip the cap";
  EXPECT_EQ(B.trip(), BudgetTrip::StepCap);
  EXPECT_TRUE(B.chargeStep()) << "exhaustion is sticky";
  EXPECT_TRUE(B.exhausted());
}

TEST(ExecBudgetTest, ZeroMeansUnbounded) {
  ExecBudget B(0, 0);
  for (int I = 0; I != 1000; ++I)
    EXPECT_FALSE(B.chargeStep());
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.trip(), BudgetTrip::None);
}

TEST(ExecBudgetTest, DeadlineTripsOnTheAmortizedPoll) {
  ExecBudget B(/*TimeoutMs=*/1, /*MaxSteps=*/0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // chargeStep only polls the clock every 64th step; within 64 steps at
  // least one poll happens.
  bool Tripped = false;
  for (int I = 0; I != 64 && !Tripped; ++I)
    Tripped = B.chargeStep();
  EXPECT_TRUE(Tripped);
  EXPECT_EQ(B.trip(), BudgetTrip::Deadline);
}

TEST(ExecBudgetTest, ExternalCancelFlagWinsImmediately) {
  std::atomic<bool> Cancel{false};
  ExecBudget B(/*TimeoutMs=*/0, /*MaxSteps=*/0, &Cancel);
  EXPECT_FALSE(B.exhausted());
  Cancel = true;
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.trip(), BudgetTrip::Cancelled);
  Cancel = false; // Stickiness: clearing the flag cannot un-trip.
  EXPECT_TRUE(B.exhausted());
}

//===----------------------------------------------------------------------===//
// VerdictCache
//===----------------------------------------------------------------------===//

ServiceResponse payload(uint64_t Tag) {
  ServiceResponse R;
  R.Status = ServiceStatus::Ok;
  R.MissCount = Tag;
  R.VerdictDigest = Tag;
  return R;
}

TEST(VerdictCacheTest, HitsMissesAndCapacityBound) {
  VerdictCache Cache(/*MaxEntries=*/4, /*Shards=*/1);
  ServiceResponse Out;

  EXPECT_FALSE(Cache.lookup(1, "k1", Out));
  Cache.insert(1, "k1", payload(1));
  ASSERT_TRUE(Cache.lookup(1, "k1", Out));
  EXPECT_EQ(Out.MissCount, 1u);

  for (uint64_t D = 2; D <= 5; ++D)
    Cache.insert(D, "k" + std::to_string(D), payload(D));
  VerdictCacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 4u) << "capacity must bound the entry count";
  EXPECT_EQ(S.Evictions, 1u);

  // Digest 1 predates the D=2..5 inserts, so it was the LRU victim; the
  // four newest entries remain.
  EXPECT_FALSE(Cache.lookup(1, "k1", Out));
  for (uint64_t D = 2; D <= 5; ++D)
    EXPECT_TRUE(Cache.lookup(D, "k" + std::to_string(D), Out)) << D;
}

TEST(VerdictCacheTest, LruEvictsTheLeastRecentlyUsedEntry) {
  VerdictCache Cache(3, 1);
  ServiceResponse Out;
  Cache.insert(1, "k1", payload(1));
  Cache.insert(2, "k2", payload(2));
  Cache.insert(3, "k3", payload(3));
  // Touch 1 and 3; 2 becomes the LRU victim.
  EXPECT_TRUE(Cache.lookup(1, "k1", Out));
  EXPECT_TRUE(Cache.lookup(3, "k3", Out));
  Cache.insert(4, "k4", payload(4));
  EXPECT_FALSE(Cache.lookup(2, "k2", Out));
  EXPECT_TRUE(Cache.lookup(1, "k1", Out));
  EXPECT_TRUE(Cache.lookup(3, "k3", Out));
  EXPECT_TRUE(Cache.lookup(4, "k4", Out));
}

TEST(VerdictCacheTest, DigestCollisionsDegradeToMissesNeverWrongVerdicts) {
  VerdictCache Cache(8, 1);
  ServiceResponse Out;
  Cache.insert(7, "request A", payload(1));
  // Same digest, different canonical key: must miss, and must not
  // overwrite A's verdict.
  EXPECT_FALSE(Cache.lookup(7, "request B", Out));
  Cache.insert(7, "request B", payload(2));
  ASSERT_TRUE(Cache.lookup(7, "request A", Out));
  EXPECT_EQ(Out.MissCount, 1u) << "collision must not clobber the entry";
  EXPECT_FALSE(Cache.lookup(7, "request B", Out));
}

TEST(VerdictCacheTest, SpilledEntriesComeBackFromDisk) {
  std::string Dir = ::testing::TempDir() + "specai_spill_test";
  std::remove(Dir.c_str());
  ASSERT_EQ(std::system(("mkdir -p '" + Dir + "'").c_str()), 0);

  VerdictCache Cache(/*MaxEntries=*/1, /*Shards=*/1, Dir);
  ServiceResponse Out;
  Cache.insert(1, "k1", payload(11));
  Cache.insert(2, "k2", payload(22)); // Evicts and spills digest 1.
  VerdictCacheStats S = Cache.stats();
  EXPECT_EQ(S.SpillWrites, 1u);

  ASSERT_TRUE(Cache.lookup(1, "k1", Out)) << "must fall through to disk";
  EXPECT_EQ(Out.MissCount, 11u);
  EXPECT_EQ(Cache.stats().SpillHits, 1u);

  // The wrong key must not read the spilled entry either.
  EXPECT_FALSE(Cache.lookup(2, "not-k2", Out));
}

//===----------------------------------------------------------------------===//
// Spill crash matrix: every way a spill file can rot must degrade to a
// counted miss + quarantine, never to a verdict.
//===----------------------------------------------------------------------===//

std::string freshSpillDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "specai_spill_" + Tag;
  EXPECT_EQ(std::system(("rm -rf '" + Dir + "' && mkdir -p '" + Dir + "'")
                            .c_str()),
            0);
  return Dir;
}

std::string spillFile(const std::string &Dir, uint64_t Digest) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "/%016llx.verdict",
                static_cast<unsigned long long>(Digest));
  return Dir + Name;
}

/// Evicts digest 1 (key "k1", payload 11) out of a 1-entry cache so it
/// lands on disk, then destroys the cache — the file is all that remains,
/// exactly the state a daemon restart (or kill -9) leaves behind.
void spillOne(const std::string &Dir, ServiceFault Fault = ServiceFault::None) {
  VerdictCache Cache(/*MaxEntries=*/1, /*Shards=*/1, Dir, Fault);
  Cache.insert(1, "k1", payload(11));
  Cache.insert(2, "k2", payload(22));
  ASSERT_EQ(Cache.stats().SpillWrites, 1u);
}

/// The shared postcondition of every corruption flavor: the lookup misses,
/// the corruption is counted, and the broken file is quarantined as
/// `.corrupt` so the next lookup is a clean (uncounted) miss.
void expectQuarantined(const std::string &Dir) {
  VerdictCache Cache(1, 1, Dir);
  ServiceResponse Out;
  EXPECT_FALSE(Cache.lookup(1, "k1", Out))
      << "a rotten spill entry must never surface as a verdict";
  EXPECT_EQ(Cache.stats().SpillCorrupt, 1u);
  std::ifstream Orig(spillFile(Dir, 1));
  EXPECT_FALSE(Orig.good()) << "the broken file must be moved aside";
  std::ifstream Quarantined(spillFile(Dir, 1) + ".corrupt");
  EXPECT_TRUE(Quarantined.good()) << "the evidence must be kept";
}

TEST(SpillCrashMatrixTest, TruncatedFilesAreQuarantinedMisses) {
  std::string Dir = freshSpillDir("truncate");
  spillOne(Dir);
  // A pre-rename torn write (or a filesystem that lost the tail): keep
  // only the first half of the bytes.
  std::ifstream In(spillFile(Dir, 1));
  std::stringstream Buf;
  Buf << In.rdbuf();
  In.close();
  std::string Bytes = Buf.str();
  std::ofstream(spillFile(Dir, 1), std::ios::trunc)
      << Bytes.substr(0, Bytes.size() / 2);
  expectQuarantined(Dir);
}

TEST(SpillCrashMatrixTest, GarbageFilesAreQuarantinedMisses) {
  std::string Dir = freshSpillDir("garbage");
  spillOne(Dir);
  std::ofstream(spillFile(Dir, 1), std::ios::trunc)
      << "complete garbage, not even close to the format\n";
  expectQuarantined(Dir);
}

TEST(SpillCrashMatrixTest, BitRotFailsTheChecksumAndQuarantines) {
  std::string Dir = freshSpillDir("bitrot");
  spillOne(Dir);
  // Flip one payload byte while keeping the three-line structure intact:
  // only the checksum can catch this one.
  std::ifstream In(spillFile(Dir, 1));
  std::stringstream Buf;
  Buf << In.rdbuf();
  In.close();
  std::string Bytes = Buf.str();
  size_t Mid = Bytes.find('\n') + 5; // Somewhere inside the payload line.
  ASSERT_LT(Mid, Bytes.size());
  Bytes[Mid] = Bytes[Mid] == 'x' ? 'y' : 'x';
  std::ofstream(spillFile(Dir, 1), std::ios::trunc) << Bytes;
  expectQuarantined(Dir);
}

TEST(SpillCrashMatrixTest, WrongKeyedFilesAreQuarantinedMisses) {
  std::string Dir = freshSpillDir("wrongkey");
  spillOne(Dir);
  // A checksum-valid file whose stored key is not the requested one: a
  // stale file from another run sitting at this digest's path. Safe to
  // quarantine — the cost is one recompute, never a wrong verdict.
  VerdictCache Cache(1, 1, Dir);
  ServiceResponse Out;
  EXPECT_FALSE(Cache.lookup(1, "some-other-request", Out));
  EXPECT_EQ(Cache.stats().SpillCorrupt, 1u);
}

TEST(SpillCrashMatrixTest, VanishedFilesArePlainMisses) {
  std::string Dir = freshSpillDir("vanish");
  spillOne(Dir);
  ASSERT_EQ(::unlink(spillFile(Dir, 1).c_str()), 0);
  VerdictCache Cache(1, 1, Dir);
  ServiceResponse Out;
  EXPECT_FALSE(Cache.lookup(1, "k1", Out));
  EXPECT_EQ(Cache.stats().SpillCorrupt, 0u)
      << "an absent file is an ordinary miss, not corruption";
}

TEST(SpillCrashMatrixTest, RestartOverTheSameSpillDirServesOldVerdicts) {
  std::string Dir = freshSpillDir("restart");
  spillOne(Dir);
  // Simulated restart: a brand-new cache over the surviving directory.
  VerdictCache Cache(8, 1, Dir);
  ServiceResponse Out;
  ASSERT_TRUE(Cache.lookup(1, "k1", Out));
  EXPECT_EQ(Out.MissCount, 11u) << "the spilled verdict must be intact";
  EXPECT_EQ(Cache.stats().SpillCorrupt, 0u);
}

TEST(SpillCrashMatrixTest, ReloadedEntriesServeRecomputedDigests) {
  // payload() stores VerdictDigest = Tag, which no verdict hashes to: the
  // state a spill file written under an older digest rendering is in.
  // The read path must serve the digest of the verdict it parsed.
  std::string Dir = freshSpillDir("stale_digest");
  spillOne(Dir);
  VerdictCache Cache(8, 1, Dir);
  ServiceResponse Out;
  ASSERT_TRUE(Cache.lookup(1, "k1", Out));
  EXPECT_EQ(Out.MissCount, 11u);
  EXPECT_NE(Out.VerdictDigest, 11u);
  EXPECT_EQ(Out.VerdictDigest, Out.digest());

  // A repair entry gets the repair digest.
  ServiceResponse Repair = payload(33);
  Repair.RepairChecked = true;
  Repair.Mitigations = {"fence at bb2 (cost 12)"};
  {
    VerdictCache Writer(1, 1, Dir);
    Writer.insert(3, "k3", Repair);
    Writer.insert(4, "k4", payload(44));
    ASSERT_EQ(Writer.stats().SpillWrites, 1u);
  }
  VerdictCache Reader(8, 1, Dir);
  ASSERT_TRUE(Reader.lookup(3, "k3", Out));
  EXPECT_TRUE(Out.RepairChecked);
  EXPECT_EQ(Out.VerdictDigest, repairVerdictDigest(Out));
  EXPECT_NE(Out.VerdictDigest, 33u);
}

TEST(SpillCrashMatrixTest, StartupSweepsOrphanedTempFiles) {
  std::string Dir = freshSpillDir("orphans");
  std::ofstream(Dir + "/0000000000000001.verdict.tmp") << "half a write";
  std::ofstream(Dir + "/keep.verdict") << "not a temp file";
  VerdictCache Cache(8, 1, Dir);
  EXPECT_FALSE(std::ifstream(Dir + "/0000000000000001.verdict.tmp").good())
      << "orphaned temp files must be swept at startup";
  EXPECT_TRUE(std::ifstream(Dir + "/keep.verdict").good());
}

TEST(SpillCrashMatrixTest, InjectedTornAndRottenWritesNeverComeBack) {
  // The SpillTruncate/SpillGarbage fault rungs corrupt every write while
  // keeping the pre-corruption trailer: the read path must reject all of
  // it. This is the end-to-end version of the hand-corrupted cases above.
  for (ServiceFault F :
       {ServiceFault::SpillTruncate, ServiceFault::SpillGarbage}) {
    std::string Dir = freshSpillDir(F == ServiceFault::SpillTruncate
                                        ? "fault_truncate"
                                        : "fault_garbage");
    spillOne(Dir, F);
    VerdictCache Cache(1, 1, Dir);
    ServiceResponse Out;
    EXPECT_FALSE(Cache.lookup(1, "k1", Out))
        << "faulted spill writes must never read back as verdicts";
    EXPECT_EQ(Cache.stats().SpillCorrupt, 1u);
  }
}

//===----------------------------------------------------------------------===//
// AnalysisPool
//===----------------------------------------------------------------------===//

TEST(AnalysisPoolTest, BoundedQueueRejectsInsteadOfGrowing) {
  AnalysisPool Pool(/*Jobs=*/1, /*QueueCapacity=*/2);

  // Block the single worker so enqueued jobs pile up deterministically.
  // No assertion may fire while the gate is closed: a fatal failure
  // would run the pool destructor against a worker stuck in Cv.wait and
  // hang the join forever. Observations are collected first, the gate
  // opens, and only then do the checks run.
  std::mutex Gate;
  std::condition_variable Cv;
  bool Release = false;
  std::atomic<bool> Claimed{false};
  std::atomic<int> Ran{0};
  bool GateQueued = Pool.tryEnqueue(0, [&] {
    Claimed = true;
    std::unique_lock<std::mutex> G(Gate);
    Cv.wait(G, [&] { return Release; });
    ++Ran;
  });
  // Wait until the worker has actually claimed the blocking job — only
  // then are both queue slots known to be free.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Claimed && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool SawClaim = Claimed.load();
  bool First = Pool.tryEnqueue(0, [&] { ++Ran; });
  bool Second = Pool.tryEnqueue(0, [&] { ++Ran; });
  bool Third = Pool.tryEnqueue(0, [&] { ++Ran; });
  uint64_t RejectedAtCapacity = Pool.rejectedCount();

  {
    std::lock_guard<std::mutex> G(Gate);
    Release = true;
  }
  Cv.notify_all();
  Pool.shutdown(); // Drains the queue before joining.

  ASSERT_TRUE(GateQueued);
  ASSERT_TRUE(SawClaim) << "worker never claimed the blocking job";
  EXPECT_TRUE(First);
  EXPECT_TRUE(Second);
  EXPECT_FALSE(Third) << "third queued job must be rejected at capacity 2";
  EXPECT_EQ(RejectedAtCapacity, 1u);
  EXPECT_EQ(Ran.load(), 3);
}

TEST(AnalysisPoolTest, HigherPriorityRunsFirstFifoWithin) {
  AnalysisPool Pool(1, 16);
  // Same discipline as above: collect results while the gate is closed,
  // open it, shut down, then assert — a fatal failure with the gate
  // closed would deadlock the worker join.
  std::mutex Gate;
  std::condition_variable Cv;
  bool Release = false;
  std::atomic<bool> Claimed{false};
  std::vector<int> Order;
  std::mutex OrderLock;

  bool GateQueued = Pool.tryEnqueue(0, [&] {
    Claimed = true;
    std::unique_lock<std::mutex> G(Gate);
    Cv.wait(G, [&] { return Release; });
  });
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Claimed && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool SawClaim = Claimed.load();
  auto Record = [&](int Tag) {
    return [&, Tag] {
      std::lock_guard<std::mutex> G(OrderLock);
      Order.push_back(Tag);
    };
  };
  // Queued while the worker is blocked: low, high, high, low.
  bool Queued = Pool.tryEnqueue(0, Record(1));
  Queued = Pool.tryEnqueue(5, Record(2)) && Queued;
  Queued = Pool.tryEnqueue(5, Record(3)) && Queued;
  Queued = Pool.tryEnqueue(0, Record(4)) && Queued;
  {
    std::lock_guard<std::mutex> G(Gate);
    Release = true;
  }
  Cv.notify_all();
  Pool.shutdown();

  ASSERT_TRUE(GateQueued);
  ASSERT_TRUE(SawClaim) << "worker never claimed the blocking job";
  ASSERT_TRUE(Queued);
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1, 4}));
}

TEST(AnalysisPoolTest, ThrowingJobsAreContained) {
  AnalysisPool Pool(2, 8);
  std::atomic<int> After{0};
  ASSERT_TRUE(Pool.tryEnqueue(0, [] { throw std::runtime_error("job"); }));
  ASSERT_TRUE(Pool.tryEnqueue(0, [&] { ++After; }));
  Pool.shutdown();
  EXPECT_EQ(After.load(), 1) << "pool must survive a throwing job";
  EXPECT_EQ(Pool.faultedCount(), 1u);
}

//===----------------------------------------------------------------------===//
// ServiceEngine end to end
//===----------------------------------------------------------------------===//

ServiceEngineOptions smallEngine() {
  ServiceEngineOptions Opts;
  Opts.Jobs = 2;
  Opts.CacheEntries = 64;
  Opts.CacheShards = 2;
  Opts.QueueCapacity = 8;
  return Opts;
}

TEST(ServiceEngineTest, IdenticalRequestsHitAndMatchSingleShotRuns) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Req = baseRequest();
  Req.Id = 1;

  ServiceResponse First = Engine.handle(Req);
  ASSERT_EQ(First.Status, ServiceStatus::Ok) << First.Error;
  EXPECT_FALSE(First.Cached);

  Req.Id = 2;
  ServiceResponse Second = Engine.handle(Req);
  ASSERT_EQ(Second.Status, ServiceStatus::Ok);
  EXPECT_TRUE(Second.Cached) << "identical request must hit";
  EXPECT_EQ(Second.Id, 2u) << "id echoes the request, not the cache entry";
  EXPECT_TRUE(sameAnswer(Second, First));

  // Bit-identical to the library single-shot path.
  RunOutcome Out = runRequest(Req.toRunRequest());
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(First.VerdictDigest, Out.Row.digest());
  EXPECT_EQ(First.RequestDigest, requestDigest(Out.ProgramDigest, Req));

  ServiceEngineStats S = Engine.stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.CacheHits, 1u);
  EXPECT_EQ(S.AnalysesRun, 1u);
}

TEST(ServiceEngineTest, DifferentOptionsNeverShareAVerdict) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Spec = baseRequest();
  ServiceRequest NoSpec = baseRequest();
  NoSpec.Speculative = false;

  ServiceResponse A = Engine.handle(Spec);
  ServiceResponse B = Engine.handle(NoSpec);
  ASSERT_EQ(A.Status, ServiceStatus::Ok);
  ASSERT_EQ(B.Status, ServiceStatus::Ok);
  EXPECT_FALSE(B.Cached) << "different options must not hit";
  EXPECT_NE(A.RequestDigest, B.RequestDigest);
  // This program's speculative-only misses differ, so the verdicts do too.
  EXPECT_NE(A.VerdictDigest, B.VerdictDigest);
}

TEST(ServiceEngineTest, CompileErrorsAreMemoizedResponsesNotCrashes) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Req = baseRequest();
  Req.Source = "int main() { return undeclared; }";

  ServiceResponse First = Engine.handle(Req);
  EXPECT_EQ(First.Status, ServiceStatus::Error);
  EXPECT_NE(First.Error.find("undeclared"), std::string::npos) << First.Error;

  ServiceResponse Second = Engine.handle(Req);
  EXPECT_EQ(Second.Status, ServiceStatus::Error);
  EXPECT_TRUE(Second.Cached) << "compile errors memoize too";
  ServiceEngineStats S = Engine.stats();
  EXPECT_EQ(S.AnalysesRun, 1u) << "the broken source must compile only once";
  EXPECT_EQ(S.CompileErrors, 1u);

  // And the engine still serves good requests afterwards.
  ServiceResponse Good = Engine.handle(baseRequest());
  EXPECT_EQ(Good.Status, ServiceStatus::Ok) << Good.Error;
}

TEST(ServiceEngineTest, PingAndGarbageSurvival) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  Ping.Id = 77;
  ServiceResponse R = Engine.handle(Ping);
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  EXPECT_EQ(R.Id, 77u);

  // Lexically hostile sources become error responses, not crashes.
  for (const char *Bad : {"", "\x01\x02\x03", "int int int", "}{"}) {
    ServiceRequest Req = baseRequest();
    Req.Source = Bad;
    EXPECT_EQ(Engine.handle(Req).Status, ServiceStatus::Error);
  }
}

TEST(ServiceEngineTest, OverloadIsAnExplicitResponse) {
  // One worker and a one-deep queue, fed from many threads at once: at
  // least one request must be told `overloaded`, and every response must
  // still be either a correct verdict or that rejection.
  ServiceEngineOptions Opts = smallEngine();
  Opts.Jobs = 1;
  Opts.QueueCapacity = 1;
  ServiceEngine Engine(Opts);

  // Distinct programs so requests cannot coalesce or hit.
  std::vector<ServiceRequest> Requests;
  for (uint64_t I = 0; I != 8; ++I) {
    ServiceRequest Req = baseRequest();
    Req.Source = ProgramGen(1000 + I).generate().source();
    Req.Id = I;
    Requests.push_back(std::move(Req));
  }

  std::atomic<int> Ok{0}, Overloaded{0}, Other{0};
  std::vector<std::thread> Threads;
  for (const ServiceRequest &Req : Requests)
    Threads.emplace_back([&Engine, &Req, &Ok, &Overloaded, &Other] {
      ServiceResponse R = Engine.handle(Req);
      if (R.Status == ServiceStatus::Ok)
        ++Ok;
      else if (R.Status == ServiceStatus::Overloaded)
        ++Overloaded;
      else
        ++Other;
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Other.load(), 0);
  EXPECT_EQ(Ok.load() + Overloaded.load(), 8);
  EXPECT_GT(Overloaded.load(), 0)
      << "8 concurrent analyses against a 1-deep queue must overload";
  EXPECT_EQ(Engine.stats().Overloaded,
            static_cast<uint64_t>(Overloaded.load()));

  // Overload is transient: the same requests succeed once the herd is
  // gone.
  for (const ServiceRequest &Req : Requests)
    EXPECT_EQ(Engine.handle(Req).Status, ServiceStatus::Ok);
}

TEST(ServiceEngineTest, ConcurrentDuplicatesCoalesceOntoOneAnalysis) {
  ServiceEngineOptions Opts = smallEngine();
  Opts.Jobs = 1;
  Opts.QueueCapacity = 16;
  ServiceEngine Engine(Opts);

  ServiceRequest Req = baseRequest();
  std::vector<std::thread> Threads;
  std::atomic<int> Ok{0};
  for (int I = 0; I != 6; ++I)
    Threads.emplace_back([&] {
      if (Engine.handle(Req).Status == ServiceStatus::Ok)
        ++Ok;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ok.load(), 6);
  ServiceEngineStats S = Engine.stats();
  EXPECT_EQ(S.AnalysesRun, 1u)
      << "identical concurrent requests must share one fixpoint";
  EXPECT_EQ(S.CacheHits + S.Coalesced, 5u);
}

/// Overrides the runAnalysis seam to throw, standing in for the real
/// library throws a daemon must survive (requireRow, a rethrown
/// parallelFor worker fault, bad_alloc).
class ThrowingEngine : public ServiceEngine {
public:
  using ServiceEngine::ServiceEngine;
  std::atomic<int> FaultsLeft{0};

protected:
  ServiceResponse runAnalysis(const ServiceRequest &Req, uint64_t SrcKey,
                              ExecBudget &Budget) override {
    if (FaultsLeft.fetch_sub(1) > 0)
      throw std::runtime_error("injected analysis fault");
    return ServiceEngine::runAnalysis(Req, SrcKey, Budget);
  }
};

TEST(ServiceEngineTest, ThrowingAnalysisReleasesEveryWaiterWithAnError) {
  // Regression: a pool job that threw used to skip both the InFlight
  // erasure and set_value, so the submitting thread — and every duplicate
  // coalesced onto the same flight — hung in Fut.get() forever.
  ThrowingEngine Engine(smallEngine());
  Engine.FaultsLeft = 1000; // Every analysis in the herd faults.
  ServiceRequest Req = baseRequest();

  std::vector<std::thread> Threads;
  std::atomic<int> Errors{0};
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&] {
      ServiceResponse R = Engine.handle(Req);
      if (R.Status == ServiceStatus::Error &&
          R.Error.find("injected analysis fault") != std::string::npos)
        ++Errors;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Errors.load(), 4)
      << "every waiter on a faulting analysis must get an error response";

  // The flight was cleaned up: once the fault clears, the very same
  // request runs fresh instead of coalescing onto a dead future.
  Engine.FaultsLeft = 0;
  ServiceResponse R = Engine.handle(Req);
  EXPECT_EQ(R.Status, ServiceStatus::Ok) << R.Error;
}

//===----------------------------------------------------------------------===//
// Deadlines, budgets, and the fault matrix
//===----------------------------------------------------------------------===//

TEST(ServiceEngineTest, StepCapAnswersTimeoutAndNeverCaches) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Req = baseRequest();
  Req.MaxSteps = 1; // No real fixpoint finishes in one worklist pop.

  ServiceResponse R = Engine.handle(Req);
  ASSERT_EQ(R.Status, ServiceStatus::Timeout) << R.Error;
  EXPECT_NE(R.Error.find("step-cap"), std::string::npos) << R.Error;
  EXPECT_EQ(Engine.stats().Timeouts, 1u);

  // The partial run must not have been cached: the same request without
  // a budget runs the full fixpoint and reports a miss.
  Req.MaxSteps = 0;
  ServiceResponse Full = Engine.handle(Req);
  ASSERT_EQ(Full.Status, ServiceStatus::Ok) << Full.Error;
  EXPECT_FALSE(Full.Cached) << "a budget-tripped run must never be cached";

  // And the full run is still bit-identical to a single-shot run — the
  // aborted attempt left no trace in the verdict path.
  RunOutcome Out = runRequest(Req.toRunRequest());
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Full.VerdictDigest, Out.Row.digest());
}

TEST(ServiceEngineTest, StalledWorkerAnswersTimeoutWithinTwiceTheDeadline) {
  // WorkerStall parks every analysis well past the deadline. The
  // containment claim from docs/SERVICE.md: the budgeted waiter detaches
  // at its own deadline, so the answer arrives within 2x even though the
  // worker is still stalling.
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::WorkerStall;
  ServiceEngine Engine(Opts);

  ServiceRequest Req = baseRequest();
  Req.TimeoutMs = 60;
  auto Start = std::chrono::steady_clock::now();
  ServiceResponse R = Engine.handle(Req);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(R.Status, ServiceStatus::Timeout) << R.Error;
  EXPECT_LE(ElapsedMs, 2 * 60)
      << "a timed-out request must answer within twice its deadline";
  EXPECT_GE(Engine.stats().Timeouts, 1u);
}

TEST(ServiceEngineTest, TimeoutsDoNotPoisonConcurrentHealthyRequests) {
  // One request times out against the stalled worker while an unbudgeted
  // one rides out the stall: the timeout must not take the healthy
  // request (or the daemon) down with it.
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::WorkerStall;
  Opts.Jobs = 2;
  ServiceEngine Engine(Opts);

  ServiceRequest Budgeted = baseRequest();
  Budgeted.TimeoutMs = 60;
  ServiceRequest Patient = baseRequest();
  Patient.Source = ProgramGen(7).generate().source(); // Distinct flight.

  ServiceResponse BudgetedR, PatientR;
  std::thread A([&] { BudgetedR = Engine.handle(Budgeted); });
  std::thread B([&] { PatientR = Engine.handle(Patient); });
  A.join();
  B.join();
  EXPECT_EQ(BudgetedR.Status, ServiceStatus::Timeout) << BudgetedR.Error;
  EXPECT_EQ(PatientR.Status, ServiceStatus::Ok) << PatientR.Error;
}

TEST(ServiceEngineTest, CoalescedWaitersEachHonorTheirOwnDeadline) {
  // Two identical requests coalesce onto one stalled flight; the one with
  // the short deadline detaches on time, the patient one gets the verdict
  // once the stall ends.
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::WorkerStall;
  Opts.Jobs = 1;
  ServiceEngine Engine(Opts);

  ServiceRequest Short = baseRequest();
  Short.TimeoutMs = 30;
  ServiceRequest Patient = baseRequest(); // Same flight, no deadline.

  ServiceResponse ShortR, PatientR;
  std::thread A([&] { PatientR = Engine.handle(Patient); });
  // Give the patient request time to become the flight owner, so the
  // budgeted one coalesces instead of owning.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread B([&] { ShortR = Engine.handle(Short); });
  B.join();
  A.join();
  EXPECT_EQ(ShortR.Status, ServiceStatus::Timeout) << ShortR.Error;
  // The flight itself is unbudgeted: once the stall ends it completes,
  // and the patient waiter gets a real verdict.
  EXPECT_EQ(PatientR.Status, ServiceStatus::Ok) << PatientR.Error;
}

TEST(ServiceEngineTest, BeginShutdownCancelsAnalysesPromptly) {
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::WorkerStall; // Would stall 100ms if not cut.
  ServiceEngine Engine(Opts);
  Engine.beginShutdown();

  ServiceRequest Req = baseRequest();
  auto Start = std::chrono::steady_clock::now();
  ServiceResponse R = Engine.handle(Req);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(R.Status, ServiceStatus::Timeout) << R.Error;
  EXPECT_NE(R.Error.find("cancelled"), std::string::npos) << R.Error;
  EXPECT_LT(ElapsedMs, 5000)
      << "shutdown must cancel, not drain at full cost";
}

TEST(ServiceEngineTest, InjectedAnalysisThrowIsContained) {
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::AnalysisThrow;
  ServiceEngine Engine(Opts);

  ServiceResponse R = Engine.handle(baseRequest());
  EXPECT_EQ(R.Status, ServiceStatus::Error);
  EXPECT_NE(R.Error.find("analysis-throw"), std::string::npos) << R.Error;

  // The worker survived its own exception: the engine still answers.
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  EXPECT_EQ(Engine.handle(Ping).Status, ServiceStatus::Ok);
  EXPECT_EQ(Engine.handle(baseRequest()).Status, ServiceStatus::Error)
      << "the fault is sticky, but every request still gets an answer";
}

TEST(ServiceEngineTest, SourceMemoIsBoundedWithLruEviction) {
  ServiceEngineOptions Opts = smallEngine();
  Opts.MemoEntries = 2;
  ServiceEngine Engine(Opts);

  for (uint64_t Seed = 0; Seed != 3; ++Seed) {
    ServiceRequest Req = baseRequest();
    Req.Source = ProgramGen(100 + Seed).generate().source();
    ASSERT_EQ(Engine.handle(Req).Status, ServiceStatus::Ok);
  }
  ServiceEngineStats S = Engine.stats();
  EXPECT_EQ(S.MemoEntries, 2u) << "the memo must stay at its bound";
  EXPECT_EQ(S.MemoEvictions, 1u);

  // The evicted source still answers correctly — it just recompiles.
  ServiceRequest Req = baseRequest();
  Req.Source = ProgramGen(100).generate().source();
  EXPECT_EQ(Engine.handle(Req).Status, ServiceStatus::Ok);
}

TEST(ServiceEngineTest, StatsJsonParsesAsAnOkResponse) {
  ServiceEngine Engine(smallEngine());
  Engine.handle(baseRequest());
  std::string Line = Engine.statsJson(123);
  ServiceResponse R;
  std::string Error;
  ASSERT_TRUE(ServiceResponse::fromJson(Line, R, Error)) << Error << "\n"
                                                         << Line;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  EXPECT_EQ(R.Id, 123u);
  JsonObject O;
  ASSERT_TRUE(parseJsonObject(Line, O, Error));
  EXPECT_EQ(O["requests"].asInt(0), 1);
  EXPECT_EQ(O["analyses_run"].asInt(0), 1);
  EXPECT_EQ(O["timeouts"].asInt(-1), 0);
  EXPECT_EQ(O["memo_entries"].asInt(-1), 1);
  EXPECT_EQ(O["memo_evictions"].asInt(-1), 0);
  EXPECT_EQ(O["cache_spill_corrupt"].asInt(-1), 0);
}

/// baseRequest() shrunk to a 4-line cache, where the test program's
/// secret-indexed `table[key & 255]` can no longer be proven timing-uniform
/// (at 6 lines every table line fits and the detector proves it clean).
ServiceRequest repairRequest() {
  ServiceRequest Req = baseRequest();
  Req.Op = ServiceOp::Repair;
  Req.Cache = CacheConfig::fullyAssociative(4);
  return Req;
}

TEST(ServiceEngineTest, RepairVerbSynthesizesCachesAndDigests) {
  ServiceEngine Engine(smallEngine());
  ServiceRequest Req = repairRequest();
  Req.Id = 1;

  ServiceResponse First = Engine.handle(Req);
  ASSERT_EQ(First.Status, ServiceStatus::Ok) << First.Error;
  EXPECT_FALSE(First.Cached);
  EXPECT_TRUE(First.RepairChecked);
  EXPECT_TRUE(First.Repaired);
  EXPECT_GT(First.LeaksBefore, 0u) << "the test program must start leaky";
  EXPECT_EQ(First.LeaksAfter, 0u);
  EXPECT_FALSE(First.Mitigations.empty());
  EXPECT_FALSE(First.PatchedIr.empty());
  EXPECT_EQ(First.VerdictDigest, repairVerdictDigest(First));

  Req.Id = 2;
  ServiceResponse Second = Engine.handle(Req);
  ASSERT_EQ(Second.Status, ServiceStatus::Ok);
  EXPECT_TRUE(Second.Cached) << "identical repair requests must hit";
  EXPECT_TRUE(sameAnswer(Second, First));

  // Bit-identical to the library single-shot path, like analyze.
  RepairRunOutcome Out = runRepairRequest(Req.toRunRequest());
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(First.LeaksBefore, Out.Result.LeaksBefore);
  EXPECT_EQ(First.WcetBefore, Out.Result.WcetBefore);
  EXPECT_EQ(First.WcetAfter, Out.Result.WcetAfter);
  EXPECT_EQ(First.PatchedIr, Out.Result.Patched.str());
  EXPECT_EQ(First.Mitigations.size(), Out.Result.Applied.size());
  EXPECT_EQ(First.RequestDigest, requestDigest(Out.ProgramDigest, Req));

  // An analyze request with the identical source and options occupies its
  // own cache line and its response carries none of the repair verdict.
  ServiceRequest AnalyzeReq = repairRequest();
  AnalyzeReq.Op = ServiceOp::Analyze;
  ServiceResponse Plain = Engine.handle(AnalyzeReq);
  ASSERT_EQ(Plain.Status, ServiceStatus::Ok) << Plain.Error;
  EXPECT_FALSE(Plain.Cached) << "repair must not poison the analyze key";
  EXPECT_FALSE(Plain.RepairChecked);
  EXPECT_NE(Plain.RequestDigest, First.RequestDigest);

  ServiceEngineStats S = Engine.stats();
  EXPECT_EQ(S.Requests, 3u);
  EXPECT_EQ(S.CacheHits, 1u);
  EXPECT_EQ(S.AnalysesRun, 2u) << "one repair synthesis, one analyze";
}

TEST(ServiceEngineTest, RepairResponsesSurviveTheWireFormat) {
  // The repair verdict a client sees after JSON framing is the verdict the
  // engine computed — mitigations, patched IR, digest and all.
  ServiceEngine Engine(smallEngine());
  ServiceResponse R = Engine.handle(repairRequest());
  ASSERT_EQ(R.Status, ServiceStatus::Ok) << R.Error;
  ServiceResponse Back;
  std::string Error;
  ASSERT_TRUE(ServiceResponse::fromJson(R.toJson(), Back, Error)) << Error;
  EXPECT_TRUE(sameAnswer(Back, R));
  EXPECT_EQ(Back.PatchedIr, R.PatchedIr);
  EXPECT_EQ(Back.VerdictDigest, repairVerdictDigest(Back));
}

//===----------------------------------------------------------------------===//
// ServiceServer over a real socket
//===----------------------------------------------------------------------===//

std::string testSocketPath(const char *Tag) {
  return "/tmp/specaid_test_" + std::string(Tag) + "_" +
         std::to_string(static_cast<unsigned long>(::getpid())) + ".sock";
}

TEST(ServiceServerTest, ShutdownDoesNotWaitForIdleConnections) {
  ServiceEngine Engine(smallEngine());
  ServiceServer Server(Engine);
  std::string Error;
  const std::string Path = testSocketPath("idle");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  // A persistent connection that goes quiet, like an idle editor
  // integration. The ping guarantees the server has accepted it before
  // the shutdown request arrives.
  ServiceClient Idle;
  ASSERT_TRUE(Idle.connect(Path, Error)) << Error;
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  ServiceResponse R;
  ASSERT_TRUE(Idle.call(Ping, R, Error)) << Error;

  ServiceClient Ctl;
  ASSERT_TRUE(Ctl.connect(Path, Error)) << Error;
  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(Ctl.call(Down, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);

  // Regression: wait() used to block until every client voluntarily
  // disconnected, because connection threads sat in read() on idle peers.
  std::atomic<bool> Returned{false};
  std::thread Waiter([&] {
    Server.wait();
    Returned = true;
  });
  for (int I = 0; I != 500 && !Returned.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(Returned.load())
      << "shutdown must not wait for idle connections to hang up";
  Idle.close(); // Unblocks the server so the test terminates even on fail.
  Waiter.join();
}

TEST(ServiceServerTest, ClientsThatVanishBeforeTheResponseDoNotKillIt) {
  // Regression: the response write to a client that already closed used to
  // raise SIGPIPE, whose default disposition would terminate this whole
  // process — one misbehaving client killing the shared daemon.
  ServiceEngine Engine(smallEngine());
  ServiceServer Server(Engine);
  std::string Error;
  const std::string Path = testSocketPath("vanish");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  const std::string Line = Ping.toJson() + "\n";
  for (int I = 0; I != 8; ++I) {
    // Fire the request and slam the connection without reading the reply:
    // the queued bytes still reach the server, whose write then hits a
    // fully closed peer.
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    ASSERT_EQ(::write(Fd, Line.data(), Line.size()),
              static_cast<ssize_t>(Line.size()));
    ::close(Fd);
  }

  // The daemon is still alive and serving.
  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceRequest Req;
  Req.Op = ServiceOp::Ping;
  Req.Id = 5;
  ServiceResponse R;
  ASSERT_TRUE(C.call(Req, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);

  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(C.call(Down, R, Error)) << Error;
  Server.wait();
}

TEST(ServiceServerTest, EndlessLinesAreCutOffNotBuffered) {
  // A peer streaming bytes with no newline must be answered and dropped
  // once the framing bound passes, instead of growing the heap forever.
  ServiceEngine Engine(smallEngine());
  ServerOptions SrvOpts;
  SrvOpts.MaxRequestBytes = 256;
  ServiceServer Server(Engine, SrvOpts);
  std::string Error;
  const std::string Path = testSocketPath("endless");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  std::string Endless(4096, 'x'); // 16x the bound, and no newline ever.
  ASSERT_EQ(::write(Fd, Endless.data(), Endless.size()),
            static_cast<ssize_t>(Endless.size()));

  // The server's answer: one error line, then EOF.
  std::string Answer;
  char Chunk[512];
  for (ssize_t N; (N = ::read(Fd, Chunk, sizeof(Chunk))) > 0;)
    Answer.append(Chunk, static_cast<size_t>(N));
  ::close(Fd);
  ServiceResponse R;
  ASSERT_FALSE(Answer.empty()) << "the peer deserves a reason";
  ASSERT_TRUE(ServiceResponse::fromJson(
      Answer.substr(0, Answer.find('\n')), R, Error))
      << Error << "\n" << Answer;
  EXPECT_EQ(R.Status, ServiceStatus::Error);
  EXPECT_NE(R.Error.find("exceeds"), std::string::npos) << R.Error;

  // The daemon is unharmed and still serves well-framed clients.
  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  ASSERT_TRUE(C.call(Ping, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(C.call(Down, R, Error)) << Error;
  Server.wait();
}

TEST(ServiceServerTest, OversizedRequestFaultRejectsCompleteLinesToo) {
  // The oversized-request rung shrinks the bound to 128 bytes, so an
  // ordinary analyze request — delivered whole, newline and all — trips
  // the same rejection path as the streaming case above.
  ServiceEngine Engine(smallEngine());
  ServerOptions SrvOpts;
  SrvOpts.Fault = ServiceFault::OversizedRequest;
  ServiceServer Server(Engine, SrvOpts);
  std::string Error;
  const std::string Path = testSocketPath("oversized");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceResponse R;
  ASSERT_TRUE(C.call(baseRequest(), R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Error);
  EXPECT_NE(R.Error.find("exceeds"), std::string::npos) << R.Error;

  // A request under the shrunken bound still works on a new connection
  // (the oversized one was closed).
  ServiceClient Small;
  ASSERT_TRUE(Small.connect(Path, Error)) << Error;
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  ASSERT_TRUE(Small.call(Ping, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(Small.call(Down, R, Error)) << Error;
  Server.wait();
}

TEST(ServiceServerTest, OversizedRepairRequestsAnswerCleanlyAndMoveOn) {
  // A repair request ships the whole source and gets back mitigations plus
  // a patched program, so it is the verb most likely to brush the framing
  // bound. Over the bound it must be a clean error — not a wedged worker —
  // and the daemon must keep repairing for everyone else.
  ServiceEngine Engine(smallEngine());
  ServerOptions SrvOpts;
  SrvOpts.MaxRequestBytes = 2048;
  ServiceServer Server(Engine, SrvOpts);
  std::string Error;
  const std::string Path = testSocketPath("bigrepair");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  ServiceRequest Big = repairRequest();
  Big.Source = std::string("// ") + std::string(8192, 'x') + "\n" +
               testProgram();
  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceResponse R;
  ASSERT_TRUE(C.call(Big, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Error);
  EXPECT_NE(R.Error.find("exceeds"), std::string::npos) << R.Error;

  // A right-sized repair request on a fresh connection still gets the full
  // verdict through the same daemon.
  ServiceClient Fresh;
  ASSERT_TRUE(Fresh.connect(Path, Error)) << Error;
  ASSERT_TRUE(Fresh.call(repairRequest(), R, Error)) << Error;
  ASSERT_EQ(R.Status, ServiceStatus::Ok) << R.Error;
  EXPECT_TRUE(R.RepairChecked);
  EXPECT_TRUE(R.Repaired);
  EXPECT_GT(R.LeaksBefore, 0u);
  EXPECT_FALSE(R.PatchedIr.empty());

  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(Fresh.call(Down, R, Error)) << Error;
  Server.wait();
}

TEST(ServiceServerTest, DeeplyNestedSourceIsAnErrorNotACrash) {
  // 200,000 nested parentheses fit under the framing bound (~400 KB) and
  // used to overflow the stack of the analysing worker, killing the whole
  // daemon. The parser's nesting bound turns it into an error response;
  // the same connection then gets its next request answered.
  ServiceEngine Engine(smallEngine());
  ServiceServer Server(Engine);
  std::string Error;
  const std::string Path = testSocketPath("deep");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  constexpr size_t Depth = 200000;
  ServiceRequest Deep = baseRequest();
  Deep.Source = "int x; int main() { x = " + std::string(Depth, '(') + "1" +
                std::string(Depth, ')') + "; return x; }";
  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceResponse R;
  ASSERT_TRUE(C.call(Deep, R, Error)) << Error;
  EXPECT_NE(R.Status, ServiceStatus::Ok);
  EXPECT_NE(R.Error.find("nesting too deep"), std::string::npos) << R.Error;

  ASSERT_TRUE(C.call(baseRequest(), R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok) << R.Error;

  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(C.call(Down, R, Error)) << Error;
  Server.wait();
}

TEST(ServiceServerTest, SlowClientFaultDribblesButStaysCorrect) {
  // The slow-client rung drips responses out a few bytes at a time. The
  // claim is containment: responses still arrive intact and shutdown
  // still completes — only that connection's latency suffers.
  ServiceEngine Engine(smallEngine());
  ServerOptions SrvOpts;
  SrvOpts.Fault = ServiceFault::SlowClient;
  ServiceServer Server(Engine, SrvOpts);
  std::string Error;
  const std::string Path = testSocketPath("slow");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  ServiceClient C;
  ASSERT_TRUE(C.connect(Path, Error)) << Error;
  ServiceRequest Ping;
  Ping.Op = ServiceOp::Ping;
  Ping.Id = 42;
  ServiceResponse R;
  ASSERT_TRUE(C.call(Ping, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  EXPECT_EQ(R.Id, 42u) << "a dribbled response must still parse whole";

  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ASSERT_TRUE(C.call(Down, R, Error)) << Error;
  EXPECT_EQ(R.Status, ServiceStatus::Ok);
  Server.wait();
}

TEST(ServiceServerTest, ShutdownRequestCancelsInFlightAnalyses) {
  // A stalled analysis is in flight when the shutdown request lands: the
  // server must cancel it through the engine's shutdown flag and still
  // drain promptly, answering the stranded waiter with `timeout`.
  ServiceEngineOptions Opts = smallEngine();
  Opts.Fault = ServiceFault::WorkerStall;
  ServiceEngine Engine(Opts);
  ServiceServer Server(Engine);
  std::string Error;
  const std::string Path = testSocketPath("cancel");
  ASSERT_TRUE(Server.start(Path, Error)) << Error;

  ServiceResponse Stalled;
  std::atomic<bool> CallOk{false};
  std::thread Waiter([&] {
    ServiceClient C;
    std::string E;
    if (C.connect(Path, E))
      CallOk = C.call(baseRequest(), Stalled, E);
  });
  // Let the analysis reach the stall, then shut down around it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ServiceClient Ctl;
  ASSERT_TRUE(Ctl.connect(Path, Error)) << Error;
  ServiceRequest Down;
  Down.Op = ServiceOp::Shutdown;
  ServiceResponse R;
  ASSERT_TRUE(Ctl.call(Down, R, Error)) << Error;
  Server.wait();
  Waiter.join();
  // The in-flight request was cancelled (if it had not already finished
  // its stall): either way its waiter got a definitive answer over the
  // half-shut connection, not a hang or a dropped response.
  ASSERT_TRUE(CallOk.load()) << "the stranded waiter never got an answer";
  EXPECT_TRUE(Stalled.Status == ServiceStatus::Timeout ||
              Stalled.Status == ServiceStatus::Ok)
      << Stalled.Error;
}

} // namespace
