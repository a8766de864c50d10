//===- SpeculativeEngine.cpp ----------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "ai/SpeculativeEngine.h"

using namespace specai;

const char *specai::mergeStrategyName(MergeStrategy S) {
  switch (S) {
  case MergeStrategy::NoMerge:
    return "no-merge";
  case MergeStrategy::MergeAtExit:
    return "merge-at-exit";
  case MergeStrategy::JustInTime:
    return "just-in-time";
  case MergeStrategy::MergeAtRollback:
    return "merge-at-rollback";
  }
  return "<invalid>";
}

bool specai::parseMergeStrategy(const std::string &Name, MergeStrategy &Out) {
  for (MergeStrategy S :
       {MergeStrategy::NoMerge, MergeStrategy::MergeAtExit,
        MergeStrategy::JustInTime, MergeStrategy::MergeAtRollback}) {
    if (Name == mergeStrategyName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

const char *specai::boundingModeName(BoundingMode B) {
  switch (B) {
  case BoundingMode::Fixed:
    return "fixed";
  case BoundingMode::Dynamic:
    return "dynamic";
  }
  return "<invalid>";
}

bool specai::parseBoundingMode(const std::string &Name, BoundingMode &Out) {
  for (BoundingMode B : {BoundingMode::Fixed, BoundingMode::Dynamic}) {
    if (Name == boundingModeName(B)) {
      Out = B;
      return true;
    }
  }
  return false;
}
