//===- bench_micro_domain.cpp - Domain/engine microbenchmarks -------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenchmarks of the abstract-domain primitives
/// (transfer, join, widen, copy, hash) across state sizes and
/// cache geometries, plus end-to-end engine throughput on quantl — the
/// knobs §6's optimizations trade against. The join/transfer benches run
/// both fully associative (one partition) and 8-way set-associative
/// (realistic per-set partitioning) shapes; BENCH_domain.json tracks the
/// trajectory.
///
//===----------------------------------------------------------------------===//

#include "specai/SpecAI.h"

#include <benchmark/benchmark.h>

using namespace specai;

namespace {

/// Builds a program with one-line variables over \p Config (one per cache
/// line), so fullState() fills every set of the modeled cache.
struct GeomFixture {
  Program P;
  CacheConfig Config;
  std::unique_ptr<MemoryModel> MM;

  explicit GeomFixture(CacheConfig Config) : Config(Config) {
    for (uint32_t I = 0; I != Config.NumLines; ++I) {
      MemVar Var;
      Var.Name = "v" + std::to_string(I);
      Var.ElemSize = 8;
      Var.NumElements = 1;
      P.Vars.push_back(Var);
    }
    // One load per variable puts every line in the model's block
    // universes, then one terminator keeps the program valid.
    BasicBlock BB;
    for (VarId V = 0; V != P.Vars.size(); ++V) {
      Instruction Load;
      Load.Op = Opcode::Load;
      Load.Dst = 0;
      Load.Var = V;
      Load.Index = Operand::imm(0);
      BB.Insts.push_back(Load);
    }
    P.NumRegs = 1;
    Instruction Ret;
    Ret.Op = Opcode::Ret;
    BB.Insts.push_back(Ret);
    P.Blocks.push_back(BB);
    MM = std::make_unique<MemoryModel>(P, Config);
  }

  CacheAbsState fullState(bool Shadow) const {
    CacheAbsState S = CacheAbsState::empty();
    for (VarId V = 0; V != P.Vars.size(); ++V)
      S.accessBlock(MM->blockOf(V, 0), *MM, Shadow);
    return S;
  }
};

/// The historical fixture: fully associative with \p Lines lines.
struct DomainFixture : GeomFixture {
  explicit DomainFixture(uint32_t Lines)
      : GeomFixture(CacheConfig::fullyAssociative(Lines)) {}
};

/// Range(1) == 1 selects 8-way set-associative, else fully associative.
CacheConfig geomOf(int64_t Lines, int64_t SetAssoc) {
  return SetAssoc ? CacheConfig::setAssociative(static_cast<uint32_t>(Lines),
                                                8)
                  : CacheConfig::fullyAssociative(
                        static_cast<uint32_t>(Lines));
}

void BM_TransferKnown(benchmark::State &State) {
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  bool Shadow = State.range(1) != 0;
  CacheAbsState S = F.fullState(Shadow);
  uint64_t V = 0;
  for (auto _ : State) {
    S.accessBlock(F.MM->blockOf(V % F.P.Vars.size(), 0), *F.MM, Shadow);
    ++V;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TransferKnown)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_Join(benchmark::State &State) {
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  bool Shadow = State.range(1) != 0;
  CacheAbsState A = F.fullState(Shadow);
  CacheAbsState B = F.fullState(Shadow);
  B.accessBlock(F.MM->blockOf(0, 0), *F.MM, Shadow);
  for (auto _ : State) {
    CacheAbsState C = A;
    benchmark::DoNotOptimize(C.joinInto(B, Shadow));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Join)->Args({16, 1})->Args({128, 1})->Args({512, 1});

void BM_Widen(benchmark::State &State) {
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  CacheAbsState Prev = F.fullState(true);
  CacheAbsState Cur = Prev;
  Cur.accessBlock(F.MM->blockOf(0, 0), *F.MM, true);
  for (auto _ : State) {
    CacheAbsState W = Cur;
    W.widenFrom(Prev);
    benchmark::DoNotOptimize(W);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Widen)->Arg(16)->Arg(128)->Arg(512);

// ---- Hot-path representation benches (per-set partitioning, COW, hash,
// ---- interning) at realistic geometries: args are (lines, set-assoc?).

void BM_TransferKnownGeom(benchmark::State &State) {
  GeomFixture F(geomOf(State.range(0), State.range(1)));
  // Production analyses always run under a payload arena
  // (AnalysisPipeline installs one); measure that profile.
  CacheStateArenaScope Arena;
  CacheAbsState S = F.fullState(true);
  uint64_t V = 0;
  for (auto _ : State) {
    S.accessBlock(F.MM->blockOf(V % F.P.Vars.size(), 0), *F.MM, true);
    ++V;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TransferKnownGeom)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_CloneTransferHashGeom(benchmark::State &State) {
  // The engines' per-pop step: `Out = In; transfer(Out); hash(Out)`. In
  // is shared and already hashed (as interned and memoised states are),
  // so the transfer pays the copy-on-write clone and the hash is the
  // incremental one. BM_TransferKnownGeom mutates a uniquely owned state
  // and never clones.
  GeomFixture F(geomOf(State.range(0), State.range(1)));
  CacheStateArenaScope Arena;
  CacheAbsState In = F.fullState(true);
  benchmark::DoNotOptimize(In.structuralHash());
  uint64_t V = 0;
  for (auto _ : State) {
    CacheAbsState Out = In;
    Out.accessBlock(F.MM->blockOf(V % F.P.Vars.size(), 0), *F.MM, true);
    benchmark::DoNotOptimize(Out.structuralHash());
    ++V;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CloneTransferHashGeom)->Args({512, 0})->Args({512, 1});

void BM_JoinGeom(benchmark::State &State) {
  GeomFixture F(geomOf(State.range(0), State.range(1)));
  CacheStateArenaScope Arena;
  CacheAbsState A = F.fullState(true);
  CacheAbsState B = F.fullState(true);
  B.accessBlock(F.MM->blockOf(0, 0), *F.MM, true);
  for (auto _ : State) {
    CacheAbsState C = A;
    benchmark::DoNotOptimize(C.joinInto(B, true));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_JoinGeom)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_JoinNoChangeSharedStorage(benchmark::State &State) {
  // The engines' steady state: joining a state into an identical one that
  // shares its payload must be O(1) (pointer compare), whatever the size.
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  CacheAbsState A = F.fullState(true);
  CacheAbsState B = A; // Copy-on-write alias.
  for (auto _ : State)
    benchmark::DoNotOptimize(A.joinInto(B, true));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_JoinNoChangeSharedStorage)->Arg(16)->Arg(128)->Arg(512);

void BM_JoinNoChangeSubsumed(benchmark::State &State) {
  // From ⊑ Into with distinct payloads: the no-change path walks entries
  // but must not allocate.
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  CacheAbsState Into = F.fullState(true);
  CacheAbsState From = Into;
  From.accessBlock(F.MM->blockOf(0, 0), *F.MM, true);
  Into.joinInto(From, true); // Now From ⊑ Into strictly.
  for (auto _ : State)
    benchmark::DoNotOptimize(Into.joinInto(From, true));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_JoinNoChangeSubsumed)->Arg(16)->Arg(128)->Arg(512);

void BM_CopyState(benchmark::State &State) {
  // `Out = In` in the engines: a refcount bump under COW.
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  CacheAbsState A = F.fullState(true);
  for (auto _ : State) {
    CacheAbsState B = A;
    benchmark::DoNotOptimize(B);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CopyState)->Arg(16)->Arg(512);

void BM_StructuralHash(benchmark::State &State) {
  // Cold hash of a fresh payload each iteration (the cached-hash hit is
  // a load; this measures the computation the cache amortizes).
  DomainFixture F(static_cast<uint32_t>(State.range(0)));
  CacheAbsState A = F.fullState(true);
  for (auto _ : State) {
    CacheAbsState B = A;
    B.accessBlock(F.MM->blockOf(1, 0), *F.MM, true); // Invalidate.
    benchmark::DoNotOptimize(B.structuralHash());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StructuralHash)->Arg(16)->Arg(128)->Arg(512);

void BM_QuantlAnalysis(benchmark::State &State) {
  DiagnosticEngine Diags;
  LoweringOptions LO;
  LO.EntryFunction = "quantl";
  auto CP = compileSource(quantlSource(), Diags, LO);
  bool Speculative = State.range(0) != 0;
  for (auto _ : State) {
    MustHitOptions Opts;
    Opts.Speculative = Speculative;
    MustHitReport R = runMustHitAnalysis(*CP, Opts);
    benchmark::DoNotOptimize(R.MissCount);
  }
}
BENCHMARK(BM_QuantlAnalysis)->Arg(0)->Arg(1);

void BM_CompileFig2(benchmark::State &State) {
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto CP = compileSource(fig2Source(), Diags);
    benchmark::DoNotOptimize(CP);
  }
}
BENCHMARK(BM_CompileFig2);

} // namespace
