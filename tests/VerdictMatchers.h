//===- VerdictMatchers.h - Row and response equality for tests --*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Equalities the determinism and round-trip tests need beyond
/// `Verdict ==`: a batch row's label and configuration echo, and a
/// service response's status, digest and repair verdict. Work counters
/// (iterations, seconds) are compared by none of them.
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_TESTS_VERDICTMATCHERS_H
#define SPECAI_TESTS_VERDICTMATCHERS_H

#include "service/Protocol.h"

namespace specai {

/// Same label, same configuration echo, same verdict.
inline bool sameRow(const BatchRow &A, const BatchRow &B) {
  return A.Label == B.Label && A.Strategy == B.Strategy &&
         A.Bounding == B.Bounding &&
         A.Cache.NumLines == B.Cache.NumLines &&
         A.Cache.LineSize == B.Cache.LineSize &&
         A.Cache.Associativity == B.Cache.Associativity &&
         A.Cache.Policy == B.Cache.Policy && A.Speculative == B.Speculative &&
         static_cast<const Verdict &>(A) == B;
}

/// Both reports hold the same rows in the same order.
inline bool sameRows(const BatchReport &A, const BatchReport &B) {
  if (A.Rows.size() != B.Rows.size())
    return false;
  for (size_t I = 0; I != A.Rows.size(); ++I)
    if (!sameRow(A.Rows[I], B.Rows[I]))
      return false;
  return true;
}

/// Both responses assert the same answer: status, verdict digest, the
/// verdict and the repair verdict (not id, caching or timing metadata).
inline bool sameAnswer(const ServiceResponse &A, const ServiceResponse &B) {
  return A.Status == B.Status && A.VerdictDigest == B.VerdictDigest &&
         static_cast<const Verdict &>(A) == B &&
         A.RepairChecked == B.RepairChecked && A.Repaired == B.Repaired &&
         A.LeaksBefore == B.LeaksBefore && A.LeaksAfter == B.LeaksAfter &&
         A.WcetBefore == B.WcetBefore && A.WcetAfter == B.WcetAfter &&
         A.Mitigations == B.Mitigations && A.PatchedIr == B.PatchedIr;
}

} // namespace specai

#endif // SPECAI_TESTS_VERDICTMATCHERS_H
