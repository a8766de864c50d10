//===- Statistics.h - Analysis statistics counters --------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters that analysis runs accumulate (worklist pops and
/// pushes, memo hits and misses, joins per flow kind). The bench
/// harness reads these to populate the paper's #Iteration/#Branch
/// columns.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SUPPORT_STATISTICS_H
#define SPECAI_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <string>

namespace specai {

/// A bag of named uint64 counters.
class StatisticSet {
public:
  void increment(const std::string &Name, uint64_t By = 1) {
    Counters[Name] += By;
  }

  /// Value of \p Name, or zero if never touched.
  uint64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  const std::map<std::string, uint64_t> &all() const { return Counters; }

private:
  std::map<std::string, uint64_t> Counters;
};

} // namespace specai

#endif // SPECAI_SUPPORT_STATISTICS_H
