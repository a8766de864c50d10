//===- support_test.cpp - Unit tests for the support library --------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Fault.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <set>

using namespace specai;

TEST(SourceLocTest, InvalidByDefault) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocTest, RendersLineColumn) {
  SourceLoc Loc(12, 34);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "12:34");
}

TEST(DiagnosticsTest, CountsOnlyErrors) {
  DiagnosticEngine Diags;
  Diags.warning(SourceLoc(1, 1), "a warning");
  Diags.note(SourceLoc(1, 2), "a note");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 1), "an error");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(DiagnosticsTest, RendersLlvmStyle) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(3, 14), "unexpected token");
  EXPECT_EQ(Diags.diagnostics().front().str(), "error: 3:14: unexpected token");
}

TEST(DiagnosticsTest, ClearResets) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(), "boom");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  auto Parts = splitString("a,,b", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
}

TEST(StringUtilsTest, TrimBothEnds) {
  EXPECT_EQ(trimString("  hi \t\n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
}

TEST(StringUtilsTest, JoinWithSeparator) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("speculative", "spec"));
  EXPECT_FALSE(startsWith("spec", "speculative"));
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(FaultTest, NamesRoundTripAndAreDistinct) {
  std::set<std::string> Names;
  for (uint8_t I = 0;
       I <= static_cast<uint8_t>(InjectedFault::UnsoundHoist); ++I) {
    auto F = static_cast<InjectedFault>(I);
    InjectedFault Parsed = InjectedFault::None;
    ASSERT_TRUE(parseFault(faultName(F), Parsed)) << faultName(F);
    EXPECT_EQ(Parsed, F);
    EXPECT_TRUE(Names.insert(faultName(F)).second) << faultName(F);
    EXPECT_EQ(faultLayer(F) == FaultLayer::None, F == InjectedFault::None);
  }
  InjectedFault Out = InjectedFault::SkipRollback;
  EXPECT_FALSE(parseFault("skip-spec-sed", Out));
  EXPECT_EQ(Out, InjectedFault::SkipRollback);
}

TEST(FaultTest, FaultInPassesOnlyTheTargetLayer) {
  EXPECT_EQ(faultIn(FaultLayer::Engine, InjectedFault::SkipRollback),
            InjectedFault::SkipRollback);
  EXPECT_EQ(faultIn(FaultLayer::Engine, InjectedFault::SkipBackedge),
            InjectedFault::None);
  EXPECT_EQ(faultIn(FaultLayer::Lowering, InjectedFault::SkipBackedge),
            InjectedFault::SkipBackedge);
  EXPECT_EQ(faultIn(FaultLayer::Repair, InjectedFault::LeakSkipMixed),
            InjectedFault::None);
}

TEST(RngTest, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 4);
}

TEST(RngTest, RangeIsInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.nextRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u); // All five values should appear.
}

TEST(RngTest, NextBelowBounds) {
  Rng R(9);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(10), 10u);
}

TEST(StatisticsTest, IncrementAndGet) {
  StatisticSet Stats;
  EXPECT_EQ(Stats.get("joins"), 0u);
  Stats.increment("joins");
  Stats.increment("joins", 4);
  EXPECT_EQ(Stats.get("joins"), 5u);
}

TEST(TableTest, AlignsColumns) {
  TableWriter T({"Name", "Count"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "23"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_EQ(T.rowCount(), 2u);
  // Header separator present.
  EXPECT_NE(Out.find("-----"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  TableWriter T({"A", "B", "C"});
  T.addRow({"x"});
  EXPECT_EQ(T.rowCount(), 1u);
  EXPECT_NE(T.str().find('x'), std::string::npos);
}
