//===- Parser.h - Mini-C recursive descent parser ---------------*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#ifndef SPECAI_LANG_PARSER_H
#define SPECAI_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <vector>

namespace specai {

/// Recursive-descent parser for mini-C. Compound assignments (`+=` etc.) and
/// `++`/`--` statements are desugared into plain assignments during parsing,
/// so later phases only see canonical AST forms.
/// Trees deeper than MaxNestingDepth (Parser.cpp) are rejected with one
/// error, as later phases recurse on them.
class Parser {
public:
  Parser(std::vector<Token> Tokens, AstContext &Context,
         DiagnosticEngine &Diags);

  /// Parses a whole translation unit. On error, diagnostics are reported and
  /// the best-effort partial unit is returned; callers must check
  /// Diags.hasErrors().
  TranslationUnit parseTranslationUnit();

private:
  // Token stream helpers.
  const Token &peek(unsigned Ahead = 0) const;
  const Token &current() const { return peek(0); }
  Token advance();
  bool check(TokenKind Kind) const { return current().is(Kind); }
  bool match(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  void synchronizeToSemi();
  /// Reports a syntax error; silent once the parse is abandoned.
  void error(SourceLoc Loc, std::string Message);

  // Nesting bound.
  /// Holds one nesting level open for its lifetime.
  struct NestingScope {
    Parser &P;
    explicit NestingScope(Parser &P) : P(P) { ++P.Depth; }
    ~NestingScope() { --P.Depth; }
    NestingScope(const NestingScope &) = delete;
  };
  /// True, after reporting, when the open levels exceed the bound.
  bool nestedTooDeep();
  /// \p E, one level taller than its tallest child, or null after
  /// reporting when that exceeds the bound.
  Expr *grown(Expr *E, uint32_t ChildHeight);
  /// Reports the bound, then jumps to Eof so every open production unwinds
  /// without descending further.
  void abandonTooDeep(SourceLoc Loc);

  // Declarations.
  bool parseQualifiersAndType(QualType &Type, bool &SawAny);
  std::vector<VarDecl *> parseVarDeclarators(QualType Type, bool IsGlobal,
                                             FuncDecl *Parent);
  FuncDecl *parseFunction(QualType ReturnType, std::string Name,
                          SourceLoc Loc);

  // Statements.
  Stmt *parseStmt();
  Stmt *parseBlock();
  Stmt *parseIf();
  Stmt *parseFor();
  Stmt *parseWhile();
  Stmt *parseDoWhile();
  Stmt *parseReturn();
  /// Parses `lvalue = expr`, `lvalue op= expr`, `lvalue++/--`, or a call;
  /// \p ConsumeSemi controls whether the trailing ';' is required (false in
  /// for-headers).
  Stmt *parseExprOrAssign(bool ConsumeSemi);

  // Expressions (precedence climbing). Each sets Height to the height of
  // the tree it returns.
  Expr *parseExpr();
  Expr *parseTernary();
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  /// Builds a structurally fresh copy of an lvalue for compound-assignment
  /// desugaring (`x += e` becomes `x = x + e`).
  Expr *rebuildLValue(Expr *LValue);

  FuncDecl *CurrentFunction = nullptr;
  std::vector<Token> Tokens;
  size_t Pos = 0;
  uint32_t Depth = 0;  ///< Open statements, parseExpr calls, prefix ops.
  uint32_t Height = 0; ///< Height of the last expression parsed.
  bool Abandoned = false;
  AstContext &Context;
  DiagnosticEngine &Diags;
};

} // namespace specai

#endif // SPECAI_LANG_PARSER_H
