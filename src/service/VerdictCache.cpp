//===- VerdictCache.cpp - Sharded LRU cache of analysis verdicts ----------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "service/VerdictCache.h"

#include "fuzz/StateDigest.h"

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <unistd.h>

using namespace specai;

namespace {

/// Renders the integrity trailer over the first two lines of a spill file
/// (key + payload, newlines included): "#sum <byte-count> <fnv1a-hex>".
/// Both fields must match on read; the length catches truncation the hash
/// of a short prefix would not, and the hash catches in-place bit rot.
std::string spillTrailer(const std::string &Body) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "#sum %zu %016llx", Body.size(),
                static_cast<unsigned long long>(fnv1a(Body)));
  return Buf;
}

} // namespace

VerdictCache::VerdictCache(uint64_t MaxEntries, unsigned Shards,
                           std::string SpillDir, ServiceFault Fault)
    : SpillDir(std::move(SpillDir)), Fault(Fault) {
  if (Shards == 0)
    Shards = 1;
  if (Shards > MaxEntries && MaxEntries > 0)
    Shards = static_cast<unsigned>(MaxEntries);
  this->Shards.reserve(Shards);
  for (unsigned I = 0; I != Shards; ++I)
    this->Shards.push_back(std::make_unique<Shard>());
  PerShardCapacity = MaxEntries / Shards;
  if (PerShardCapacity == 0)
    PerShardCapacity = 1;

  // Sweep temp files a crashed writer abandoned: they hold unrenamed,
  // possibly half-written payloads nothing will ever read. Finished
  // `.verdict` files survive restarts by design.
  if (!this->SpillDir.empty()) {
    if (DIR *D = opendir(this->SpillDir.c_str())) {
      while (struct dirent *E = readdir(D)) {
        std::string Name = E->d_name;
        if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".tmp") == 0)
          ::unlink((this->SpillDir + "/" + Name).c_str());
      }
      closedir(D);
    }
  }
}

bool VerdictCache::lookup(uint64_t Digest, const std::string &Key,
                          ServiceResponse &Out) {
  Shard &S = shardFor(Digest);
  std::lock_guard<std::mutex> Guard(S.Lock);
  auto It = S.Index.find(Digest);
  if (It != S.Index.end()) {
    if (It->second->Key != Key) {
      // Digest collision: treat as a miss. The entry stays; the colliding
      // request just never caches.
      ++S.Misses;
      return false;
    }
    ++S.Hits;
    S.Order.splice(S.Order.begin(), S.Order, It->second);
    Out = It->second->Payload;
    return true;
  }
  if (!SpillDir.empty() && spillRead(S, Digest, Key, Out)) {
    ++S.Hits;
    ++S.SpillHits;
    insertLocked(S, Digest, Key, Out);
    return true;
  }
  ++S.Misses;
  return false;
}

void VerdictCache::insert(uint64_t Digest, const std::string &Key,
                          const ServiceResponse &Payload) {
  Shard &S = shardFor(Digest);
  std::lock_guard<std::mutex> Guard(S.Lock);
  insertLocked(S, Digest, Key, Payload);
}

void VerdictCache::insertLocked(Shard &S, uint64_t Digest,
                                const std::string &Key,
                                const ServiceResponse &Payload) {
  auto It = S.Index.find(Digest);
  if (It != S.Index.end()) {
    if (It->second->Key != Key)
      return; // Collision with a live entry: first writer wins.
    S.Order.splice(S.Order.begin(), S.Order, It->second);
    return;
  }
  while (S.Order.size() >= PerShardCapacity) {
    Entry &Victim = S.Order.back();
    if (!SpillDir.empty())
      spillWrite(S, Victim);
    S.Index.erase(Victim.Digest);
    S.Order.pop_back();
    ++S.Evictions;
  }
  S.Order.push_front(Entry{Digest, Key, Payload});
  S.Index[Digest] = S.Order.begin();
}

VerdictCacheStats VerdictCache::stats() const {
  VerdictCacheStats Out;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->Lock);
    Out.Hits += S->Hits;
    Out.Misses += S->Misses;
    Out.Evictions += S->Evictions;
    Out.SpillWrites += S->SpillWrites;
    Out.SpillHits += S->SpillHits;
    Out.SpillCorrupt += S->SpillCorrupt;
    Out.Entries += S->Order.size();
  }
  return Out;
}

std::string VerdictCache::spillPath(uint64_t Digest) const {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "/%016llx.verdict",
                static_cast<unsigned long long>(Digest));
  return SpillDir + Name;
}

void VerdictCache::spillWrite(Shard &S, const Entry &E) {
  // Cached verdicts echo the id of whichever request populated them; the
  // engine overwrites the id on every hit, so persisting it is harmless.
  // A write failure (disk full, bad directory) silently downgrades the
  // entry to evicted — the spill tier is best-effort by design.
  //
  // Crash tolerance: the body lands in a temp file first and moves into
  // place with rename(), which POSIX makes atomic — a reader (or a
  // restarted daemon) sees either the complete old file or the complete
  // new one, never a torn write. Orphaned temps are swept at startup.
  std::string Body = E.Key;
  Body += '\n';
  Body += E.Payload.toJson();
  Body += '\n';

  // Injected faults model the failure modes the trailer exists to catch:
  // a torn write (half the body) and bit rot (same length, garbage). Both
  // keep the *stale* trailer so reads must reject them.
  std::string Trailer = spillTrailer(Body);
  if (Fault == ServiceFault::SpillTruncate)
    Body.resize(Body.size() / 2);
  else if (Fault == ServiceFault::SpillGarbage)
    for (char &C : Body)
      C = '~';

  std::string Final = spillPath(E.Digest);
  std::string Tmp = Final + ".tmp";
  {
    std::ofstream F(Tmp, std::ios::trunc);
    if (!F)
      return;
    F << Body << Trailer << '\n';
    if (!F.good())
      return;
  }
  if (std::rename(Tmp.c_str(), Final.c_str()) == 0)
    ++S.SpillWrites;
  else
    ::unlink(Tmp.c_str());
}

bool VerdictCache::spillRead(Shard &S, uint64_t Digest, const std::string &Key,
                             ServiceResponse &Out) {
  std::string Path = spillPath(Digest);
  std::ifstream F(Path);
  if (!F)
    return false;

  // Reject-and-quarantine: any integrity failure renames the file to
  // `.corrupt` (keeping the evidence for postmortems, and keeping the
  // lookup path from re-parsing the same broken bytes forever) and counts
  // SpillCorrupt. The caller then counts an ordinary miss and recomputes
  // — a corrupt spill entry can never surface as a verdict.
  auto Reject = [&] {
    F.close();
    std::rename(Path.c_str(), (Path + ".corrupt").c_str());
    ++S.SpillCorrupt;
    return false;
  };

  std::string StoredKey, Line, Trailer;
  if (!std::getline(F, StoredKey) || !std::getline(F, Line) ||
      !std::getline(F, Trailer))
    return Reject(); // Truncated: a pre-hardening torn write.
  std::string Body = StoredKey;
  Body += '\n';
  Body += Line;
  Body += '\n';
  if (Trailer != spillTrailer(Body))
    return Reject(); // Length or checksum mismatch: garbage bytes.
  if (StoredKey != Key)
    return Reject(); // Wrong key at this digest's path: stale/foreign file.
  std::string Error;
  ServiceResponse R;
  if (!ServiceResponse::fromJson(Line, R, Error))
    return Reject(); // Checksummed but unparseable: writer bug, still safe.
  // The stored digest is not trusted: a file written under an older
  // digest rendering would otherwise keep serving digests that no fresh
  // run reproduces.
  R.VerdictDigest = R.RepairChecked ? repairVerdictDigest(R) : R.digest();
  Out = R;
  return true;
}
