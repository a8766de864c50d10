//===- trace.cpp ----------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "service/Json.h"

#include <cstdio>
#include <cstring>

using namespace perfbench;

namespace {

std::vector<double> childSeconds(const std::vector<Tracer::Span> &Spans) {
  std::vector<double> Child(Spans.size(), 0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent >= 0)
      Child[S.Parent] += S.End - S.Start;
  return Child;
}

} // namespace

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> Child = childSeconds(Spans);
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] += Spans[I].End - Spans[I].Start - Child[I];
  return Self;
}

std::map<uint64_t, std::map<std::string, double>>
Tracer::selfSecondsBy(const char *Group) const {
  std::vector<double> Child = childSeconds(Spans);
  std::map<uint64_t, std::map<std::string, double>> Rows;
  for (size_t I = 0; I != Spans.size(); ++I) {
    int32_t A = static_cast<int32_t>(I);
    while (A >= 0 && std::strcmp(Spans[A].Name, Group) != 0)
      A = Spans[A].Parent;
    if (A < 0)
      continue;
    Rows[Spans[A].Id][Spans[I].Name] +=
        Spans[I].End - Spans[I].Start - Child[I];
  }
  return Rows;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    specai::JsonWriter W;
    W.field("span", static_cast<uint64_t>(I));
    W.field("name", Spans[I].Name);
    W.field("start", Spans[I].Start);
    W.field("end", Spans[I].End);
    W.field("parent", static_cast<int64_t>(Spans[I].Parent));
    W.field("id", Spans[I].Id);
    std::fprintf(F, "%s\n", W.finish().c_str());
  }
  return std::fclose(F) == 0;
}
