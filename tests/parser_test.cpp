//===- parser_test.cpp - Unit tests for the mini-C parser -----------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace specai;

namespace {

struct Parsed {
  AstContext Context;
  DiagnosticEngine Diags;
  TranslationUnit Unit;
};

std::unique_ptr<Parsed> parse(const std::string &Source,
                              bool ExpectErrors = false) {
  auto P = std::make_unique<Parsed>();
  Lexer L(Source, P->Diags);
  Parser Par(L.lexAll(), P->Context, P->Diags);
  P->Unit = Par.parseTranslationUnit();
  EXPECT_EQ(P->Diags.hasErrors(), ExpectErrors) << P->Diags.str();
  return P;
}

/// Renders the first statement of a function body for structural checks.
std::string firstStmt(const TranslationUnit &Unit, const char *Fn) {
  FuncDecl *F = Unit.findFunction(Fn);
  EXPECT_NE(F, nullptr);
  auto *Body = static_cast<BlockStmt *>(F->Body);
  EXPECT_FALSE(Body->Body.empty());
  return printStmt(Body->Body.front());
}

} // namespace

TEST(ParserTest, GlobalScalarsAndArrays) {
  auto P = parse("int a; char b[64]; secret reg char k; const int t[4] = "
                 "{1,2,3};");
  ASSERT_EQ(P->Unit.Globals.size(), 4u);
  EXPECT_FALSE(P->Unit.Globals[0]->IsArray);
  EXPECT_TRUE(P->Unit.Globals[1]->IsArray);
  EXPECT_TRUE(P->Unit.Globals[2]->Type.IsSecret);
  EXPECT_TRUE(P->Unit.Globals[2]->Type.IsReg);
  EXPECT_TRUE(P->Unit.Globals[3]->Type.IsConst);
  EXPECT_EQ(P->Unit.Globals[3]->Init.size(), 3u);
}

TEST(ParserTest, CommaSeparatedDeclarators) {
  auto P = parse("int el, delt, tmp;");
  ASSERT_EQ(P->Unit.Globals.size(), 3u);
  EXPECT_EQ(P->Unit.Globals[1]->Name, "delt");
}

TEST(ParserTest, FunctionWithParams) {
  auto P = parse("int f(int a, reg char b) { return a; }");
  FuncDecl *F = P->Unit.findFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->Params.size(), 2u);
  EXPECT_TRUE(F->Params[1]->Type.IsReg);
  EXPECT_EQ(F->Params[1]->Type.Kind, TypeKind::Char);
}

TEST(ParserTest, VoidParameterListIsEmpty) {
  auto P = parse("int f(void) { return 0; }");
  FuncDecl *F = P->Unit.findFunction("f");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->Params.empty());
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  auto P = parse("void f() { reg int x; x = 1 + 2 * 3; }");
  FuncDecl *F = P->Unit.findFunction("f");
  auto *Body = static_cast<BlockStmt *>(F->Body);
  auto *Assign = static_cast<AssignStmt *>(Body->Body[1]);
  EXPECT_EQ(printExpr(Assign->Value), "(1 + (2 * 3))");
}

TEST(ParserTest, PrecedenceShiftBelowRelational) {
  auto P = parse("void f() { reg int x; x = 1 < 2 << 3; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Assign = static_cast<AssignStmt *>(Body->Body[1]);
  EXPECT_EQ(printExpr(Assign->Value), "(1 < (2 << 3))");
}

TEST(ParserTest, CompoundAssignDesugars) {
  auto P = parse("int x; void f() { x += 5; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Assign = static_cast<AssignStmt *>(Body->Body[0]);
  EXPECT_EQ(printExpr(Assign->Value), "(x + 5)");
}

TEST(ParserTest, IncrementDesugars) {
  auto P = parse("int x; void f() { x++; x--; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Inc = static_cast<AssignStmt *>(Body->Body[0]);
  auto *Dec = static_cast<AssignStmt *>(Body->Body[1]);
  EXPECT_EQ(printExpr(Inc->Value), "(x + 1)");
  EXPECT_EQ(printExpr(Dec->Value), "(x - 1)");
}

TEST(ParserTest, ArrayElementCompoundAssign) {
  auto P = parse("int a[8]; void f(int i) { a[i] <<= 2; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Assign = static_cast<AssignStmt *>(Body->Body[0]);
  ASSERT_EQ(Assign->Target->Kind, ExprKind::Index);
  EXPECT_EQ(printExpr(Assign->Value), "(a[i] << 2)");
}

TEST(ParserTest, TernaryExpression) {
  auto P = parse("void f(int c) { reg int x; x = c ? 1 : 2; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Assign = static_cast<AssignStmt *>(Body->Body[1]);
  EXPECT_EQ(Assign->Value->Kind, ExprKind::Ternary);
}

TEST(ParserTest, CStyleCastIsAccepted) {
  // The paper's quantl has `(long)detl`.
  auto P = parse("void f(int d) { reg long x; x = (long)d * 2; }");
  EXPECT_FALSE(P->Diags.hasErrors());
}

TEST(ParserTest, ForHeaderVariants) {
  auto P = parse("void f() { for (reg int i = 0; i < 8; i++) { } "
                 "int j; for (j = 0; j < 4; j += 2) { } for (;;) { break; } }");
  EXPECT_FALSE(P->Diags.hasErrors());
}

TEST(ParserTest, DoWhileLoop) {
  auto P = parse("void f(int n) { int i; i = 0; do { i++; } while (i < n); }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  EXPECT_EQ(Body->Body.back()->Kind, StmtKind::DoWhile);
}

TEST(ParserTest, DanglingElseBindsToInner) {
  auto P = parse("void f(int a, int b) { if (a) if (b) a = 1; else a = 2; }");
  auto *Body = static_cast<BlockStmt *>(P->Unit.findFunction("f")->Body);
  auto *Outer = static_cast<IfStmt *>(Body->Body[0]);
  EXPECT_EQ(Outer->Else, nullptr);
  auto *Inner = static_cast<IfStmt *>(Outer->Then);
  EXPECT_NE(Inner->Else, nullptr);
}

TEST(ParserTest, CallStatementAndNestedCalls) {
  auto P = parse("int g(int x) { return x; } void f() { g(g(1) + 2); }");
  auto S = firstStmt(P->Unit, "f");
  EXPECT_NE(S.find("g((g(1) + 2))"), std::string::npos);
}

TEST(ParserTest, MissingSemicolonIsError) {
  parse("void f() { int x x = 1; }", /*ExpectErrors=*/true);
}

TEST(ParserTest, UnbalancedParenIsError) {
  parse("void f() { if (1 { } }", /*ExpectErrors=*/true);
}

TEST(ParserTest, AssignmentToRValueIsError) {
  parse("void f() { 1 = 2; }", /*ExpectErrors=*/true);
}

/// Expects \p Source to fail with exactly one diagnostic, the nesting
/// bound's.
void expectNestingError(const std::string &Source) {
  auto P = parse(Source, /*ExpectErrors=*/true);
  ASSERT_EQ(P->Diags.errorCount(), 1u) << P->Diags.str();
  EXPECT_NE(P->Diags.str().find("nesting too deep"), std::string::npos)
      << P->Diags.str();
}

std::string nestedParens(size_t N) {
  return "int x; void f() { x = " + std::string(N, '(') + "1" +
         std::string(N, ')') + "; }";
}

std::string flatSum(size_t Terms) {
  std::string Sum = "1";
  for (size_t I = 1; I != Terms; ++I)
    Sum += "+1";
  return "int x; void f() { x = " + Sum + "; }";
}

std::string nestedBlocks(size_t N) {
  return "void f() " + std::string(N, '{') + std::string(N, '}');
}

// Each of these used to overflow the stack (Sema and lowering recurse on
// the tree; the paren and block shapes already overflowed the parser).
TEST(ParserTest, DeepParenthesesAreOneError) {
  expectNestingError(nestedParens(200000));
}

TEST(ParserTest, LongFlatOperatorChainIsOneError) {
  // No recursion in the parser, but the binary-operator loop builds a
  // left spine 200,000 nodes deep.
  expectNestingError(flatSum(200000));
}

TEST(ParserTest, DeepBlocksAreOneError) {
  expectNestingError(nestedBlocks(200000));
}

TEST(ParserTest, DeepPrefixAndTernaryChainsAreOneError) {
  // Both recurse without passing through a parenthesis.
  std::string Negations, Ternaries;
  for (int I = 0; I != 200000; ++I) {
    Negations += "- ";
    Ternaries += "x ? 1 : ";
  }
  expectNestingError("int x; void f() { x = " + Negations + "1; }");
  expectNestingError("int x; void f() { x = " + Ternaries + "2; }");
}

TEST(ParserTest, NestingJustUnderTheBoundParses) {
  // The bound is 256 levels; the enclosing statement takes one or two.
  parse(nestedParens(250));
  parse(flatSum(250));
  parse(nestedBlocks(250));
}

TEST(ParserTest, ParsesQuantlShape) {
  auto P = parse("int tab[31] = {1,2,3};\n"
                 "int quantl(int el, int detl) {\n"
                 "  int ril, mil;\n"
                 "  long wd, decis;\n"
                 "  for (mil = 0; mil < 30; mil++) {\n"
                 "    decis = (tab[mil] * (long)detl) >> 15;\n"
                 "    if (wd <= decis) break;\n"
                 "  }\n"
                 "  if (el >= 0) { ril = tab[mil]; } else { ril = tab[0]; }\n"
                 "  return ril;\n"
                 "}\n");
  EXPECT_NE(P->Unit.findFunction("quantl"), nullptr);
}
