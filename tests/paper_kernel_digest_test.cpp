//===- paper_kernel_digest_test.cpp - Full-state digests of Tables 5/7 ----===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// Pins digestModuleReport — every abstract state at every node, entry
/// for entry — of the paper's own workloads: the ten Table-5 kernels on a
/// 64-line fully associative cache and the ten Table-7 Figure-10 clients
/// on the 512-line fully associative cache, each speculative and with
/// speculation off. These are the states with hundreds of entries and
/// 16-bit age lanes; the ProgramGen golden corpora only reach a few dozen
/// blocks. A representation change of CacheAbsState must leave every
/// value here unchanged.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisPipeline.h"
#include "fuzz/StateDigest.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

using namespace specai;

namespace {

/// Figure-10 client buffer sizes per Table-7 kernel: the largest attacker
/// buffer at which the non-speculative analysis still proves the client
/// leak-free (des at 0: its own buffer leaks under speculation).
const std::map<std::string, uint64_t> ClientBufferBytes = {
    {"hash", 30592},    {"encoder", 31616}, {"chacha20", 30400},
    {"ocb", 29568},     {"des", 0},         {"aes", 32256},
    {"str2key", 32576}, {"seed", 32128},    {"camellia", 31808},
    {"salsa", 32768}};

/// Speculative and non-speculative module digests of one program.
struct PinnedDigests {
  uint64_t Spec;
  uint64_t NoSpec;
};

const std::map<std::string, PinnedDigests> Table5Digests = {
    {"adpcm", {0x827d8864d2c756c7, 0x0fa4be02cb502119}},
    {"susan", {0x04a268448d58f83d, 0xe60bc9a5e7ba0587}},
    {"layer3", {0x52b533531297c4e7, 0xf547affe0d2de405}},
    {"jcmarker", {0x6e415f16ea0d1491, 0x8046d1ee1d601e51}},
    {"jdmarker", {0x65317f65643e0cb0, 0xf31f15fa1b304ede}},
    {"jcphuff", {0x422a21a6b16afb37, 0xd7e745787ce7b456}},
    {"gtk", {0x6535ec4304ea878e, 0x1aff08b1606758bd}},
    {"g72", {0x7199b903ab86962c, 0xd8cf63028ecfdbdf}},
    {"vga", {0x170de61b9cc39085, 0x5ca99be7da376f36}},
    {"stc", {0x5f3f1a053eead8e1, 0x7fb5e40251b70adb}},
};

const std::map<std::string, PinnedDigests> Table7Digests = {
    {"hash", {0xafff7dfce91e64c4, 0xba654f66fdd5b179}},
    {"encoder", {0x188be5f704f93909, 0x86c12fea76f29de4}},
    {"chacha20", {0x581905f266f971e7, 0x414f854f1554d363}},
    {"ocb", {0x407914d1c2a6ea06, 0xd98fbd64d496b9e9}},
    {"des", {0x755f834dc7c85ed6, 0xe1a7cb8a954a5706}},
    {"aes", {0xbf22c52a61088b4c, 0xbf22c52a61088b4c}},
    {"str2key", {0x524b176316d5b6b0, 0x524b176316d5b6b0}},
    {"seed", {0x7e1fdd34278cbaff, 0x7e1fdd34278cbaff}},
    {"camellia", {0x8270b67f79125ede, 0x8270b67f79125ede}},
    {"salsa", {0x9cb085941f183710, 0x9cb085941f183710}},
};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

/// Analyzes \p Source speculatively and not, on \p Cache, and compares
/// both module digests with \p Pinned.
void checkDigests(const std::string &Name, const std::string &Source,
                  const CacheConfig &Cache,
                  const std::map<std::string, PinnedDigests> &Pinned) {
  DiagnosticEngine Diags;
  auto CP = compileSource(Source, Diags);
  ASSERT_TRUE(CP) << Name << ": " << Diags.str();
  MustHitOptions O;
  O.Cache = Cache;
  O.Speculative = true;
  MustHitReport Sp = runMustHitAnalysis(*CP, O);
  O.Speculative = false;
  MustHitReport Ns = runMustHitAnalysis(*CP, O);
  ASSERT_TRUE(Sp.Converged && Ns.Converged) << Name;
  uint64_t SpD = digestModuleReport(*CP, Sp);
  uint64_t NsD = digestModuleReport(*CP, Ns);
  auto It = Pinned.find(Name);
  ASSERT_NE(It, Pinned.end()) << "no pinned digests for " << Name;
  EXPECT_EQ(hex(SpD), hex(It->second.Spec)) << Name << " speculative";
  EXPECT_EQ(hex(NsD), hex(It->second.NoSpec)) << Name << " no-spec";
}

} // namespace

TEST(PaperKernelDigestTest, Table5KernelsAt64LinesFullyAssociative) {
  ASSERT_EQ(wcetWorkloads().size(), Table5Digests.size());
  for (const Workload &W : wcetWorkloads())
    checkDigests(W.Name, W.Source, CacheConfig::fullyAssociative(64),
                 Table5Digests);
}

TEST(PaperKernelDigestTest, Table7ClientsAt512LinesFullyAssociative) {
  ASSERT_EQ(cryptoWorkloads().size(), Table7Digests.size());
  for (const CryptoWorkload &W : cryptoWorkloads()) {
    auto Buf = ClientBufferBytes.find(W.Name);
    ASSERT_NE(Buf, ClientBufferBytes.end()) << W.Name;
    checkDigests(W.Name, makeClientProgram(W, Buf->second),
                 CacheConfig::fullyAssociative(512), Table7Digests);
  }
}
