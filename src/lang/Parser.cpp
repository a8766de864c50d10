//===- Parser.cpp ---------------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include <algorithm>
#include <cassert>

using namespace specai;

namespace {
/// Deepest nesting the parser accepts, counted two ways: open recursion
/// (statements, bracketed and ternary-arm expressions, prefix operators)
/// and expression-tree height, which also grows along the left spine the
/// binary-operator loop builds for `a + b + c ...`. Later phases recurse
/// on the tree, so this bounds their stack use too (a desugared
/// `x op= e` sits one level above its operand). Clang's default bracket
/// depth is the same.
constexpr uint32_t MaxNestingDepth = 256;
} // namespace

Parser::Parser(std::vector<Token> Tokens, AstContext &Context,
               DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Context(Context), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::Eof) &&
         "token stream must end with Eof");
}

const Token &Parser::peek(unsigned Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1;
  return Tokens[Index];
}

Token Parser::advance() {
  Token T = current();
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Where) {
  if (match(Kind))
    return true;
  error(current().Loc, std::string("expected ") + tokenKindName(Kind) + " " +
                           Where + ", found " + tokenKindName(current().Kind));
  return false;
}

void Parser::error(SourceLoc Loc, std::string Message) {
  if (!Abandoned)
    Diags.error(Loc, std::move(Message));
}

void Parser::abandonTooDeep(SourceLoc Loc) {
  error(Loc, "nesting too deep: expressions and statements may nest at "
             "most " + std::to_string(MaxNestingDepth) + " levels");
  Abandoned = true;
  Pos = Tokens.size() - 1; // Eof.
}

bool Parser::nestedTooDeep() {
  if (Depth <= MaxNestingDepth)
    return false;
  abandonTooDeep(current().Loc);
  return true;
}

Expr *Parser::grown(Expr *E, uint32_t ChildHeight) {
  Height = ChildHeight + 1;
  if (Height <= MaxNestingDepth)
    return E;
  abandonTooDeep(E->Loc);
  return nullptr;
}

void Parser::synchronizeToSemi() {
  while (!check(TokenKind::Eof) && !check(TokenKind::Semi) &&
         !check(TokenKind::RBrace))
    advance();
  match(TokenKind::Semi);
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

bool Parser::parseQualifiersAndType(QualType &Type, bool &SawAny) {
  SawAny = false;
  while (true) {
    if (match(TokenKind::KwSecret)) {
      Type.IsSecret = true;
      SawAny = true;
      continue;
    }
    if (match(TokenKind::KwReg)) {
      Type.IsReg = true;
      SawAny = true;
      continue;
    }
    if (match(TokenKind::KwConst)) {
      Type.IsConst = true;
      SawAny = true;
      continue;
    }
    if (match(TokenKind::KwUnsigned)) {
      // Signedness is irrelevant to the cache model; accept and ignore.
      SawAny = true;
      continue;
    }
    break;
  }
  if (match(TokenKind::KwChar)) {
    Type.Kind = TypeKind::Char;
  } else if (match(TokenKind::KwShort)) {
    Type.Kind = TypeKind::Short;
  } else if (match(TokenKind::KwInt)) {
    Type.Kind = TypeKind::Int;
  } else if (match(TokenKind::KwLong)) {
    Type.Kind = TypeKind::Long;
    // Accept "long int".
    match(TokenKind::KwInt);
  } else if (match(TokenKind::KwVoid)) {
    Type.Kind = TypeKind::Void;
  } else {
    if (SawAny)
      error(current().Loc, "expected type after qualifier");
    return false;
  }
  SawAny = true;
  return true;
}

std::vector<VarDecl *>
Parser::parseVarDeclarators(QualType Type, bool IsGlobal, FuncDecl *Parent) {
  std::vector<VarDecl *> Decls;
  while (true) {
    SourceLoc Loc = current().Loc;
    if (!check(TokenKind::Identifier)) {
      error(Loc, "expected variable name in declaration");
      synchronizeToSemi();
      return Decls;
    }
    std::string Name = advance().Text;

    VarDecl *Decl = Context.createVarDecl();
    Decl->Name = std::move(Name);
    Decl->Type = Type;
    Decl->Loc = Loc;
    Decl->IsGlobal = IsGlobal;
    Decl->Parent = Parent;

    if (match(TokenKind::LBracket)) {
      // Array sizes must be constant expressions; Sema folds SizeExpr into
      // NumElements and validates it.
      Decl->IsArray = true;
      Decl->SizeExpr = parseExpr();
      expect(TokenKind::RBracket, "after array size");
    }

    if (match(TokenKind::Equal)) {
      if (match(TokenKind::LBrace)) {
        if (!check(TokenKind::RBrace)) {
          do {
            if (Expr *E = parseExpr())
              Decl->Init.push_back(E);
            else
              break;
          } while (match(TokenKind::Comma));
        }
        expect(TokenKind::RBrace, "after array initializer");
      } else if (Expr *E = parseExpr()) {
        Decl->Init.push_back(E);
      }
    }

    Decls.push_back(Decl);
    if (!match(TokenKind::Comma))
      break;
  }
  expect(TokenKind::Semi, "after variable declaration");
  return Decls;
}

FuncDecl *Parser::parseFunction(QualType ReturnType, std::string Name,
                                SourceLoc Loc) {
  FuncDecl *Func = Context.createFuncDecl();
  Func->Name = std::move(Name);
  Func->ReturnType = ReturnType;
  Func->Loc = Loc;

  FuncDecl *SavedFunction = CurrentFunction;
  CurrentFunction = Func;

  if (!check(TokenKind::RParen)) {
    // `void` alone means an empty parameter list.
    if (check(TokenKind::KwVoid) && peek(1).is(TokenKind::RParen)) {
      advance();
    } else {
      do {
        QualType ParamType;
        bool SawAny = false;
        if (!parseQualifiersAndType(ParamType, SawAny)) {
          error(current().Loc, "expected parameter type");
          break;
        }
        if (!check(TokenKind::Identifier)) {
          error(current().Loc, "expected parameter name");
          break;
        }
        SourceLoc ParamLoc = current().Loc;
        std::string ParamName = advance().Text;
        VarDecl *Param = Context.createVarDecl();
        Param->Name = std::move(ParamName);
        Param->Type = ParamType;
        Param->Loc = ParamLoc;
        Param->IsParam = true;
        Param->Parent = Func;
        Func->Params.push_back(Param);
      } while (match(TokenKind::Comma));
    }
  }
  expect(TokenKind::RParen, "after parameter list");

  if (!check(TokenKind::LBrace)) {
    error(current().Loc, "expected function body");
    CurrentFunction = SavedFunction;
    return Func;
  }
  Func->Body = parseBlock();
  CurrentFunction = SavedFunction;
  return Func;
}

TranslationUnit Parser::parseTranslationUnit() {
  TranslationUnit Unit;
  while (!check(TokenKind::Eof)) {
    QualType Type;
    bool SawAny = false;
    if (!parseQualifiersAndType(Type, SawAny)) {
      error(current().Loc, "expected declaration at top level");
      advance();
      continue;
    }
    if (check(TokenKind::Identifier) && peek(1).is(TokenKind::LParen)) {
      SourceLoc Loc = current().Loc;
      std::string Name = advance().Text;
      advance(); // '('
      if (FuncDecl *Func = parseFunction(Type, std::move(Name), Loc))
        Unit.Functions.push_back(Func);
      continue;
    }
    for (VarDecl *Decl :
         parseVarDeclarators(Type, /*IsGlobal=*/true, /*Parent=*/nullptr))
      Unit.Globals.push_back(Decl);
  }
  return Unit;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Stmt *Parser::parseBlock() {
  SourceLoc Loc = current().Loc;
  expect(TokenKind::LBrace, "to open block");
  std::vector<Stmt *> Body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    if (Stmt *S = parseStmt())
      Body.push_back(S);
  }
  expect(TokenKind::RBrace, "to close block");
  return Context.create<BlockStmt>(std::move(Body), Loc);
}

Stmt *Parser::parseStmt() {
  NestingScope Nest(*this);
  if (nestedTooDeep())
    return nullptr;
  SourceLoc Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDoWhile();
  case TokenKind::KwBreak:
    advance();
    expect(TokenKind::Semi, "after 'break'");
    return Context.create<BreakStmt>(Loc);
  case TokenKind::KwContinue:
    advance();
    expect(TokenKind::Semi, "after 'continue'");
    return Context.create<ContinueStmt>(Loc);
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::Semi:
    advance(); // Empty statement.
    return Context.create<BlockStmt>(std::vector<Stmt *>{}, Loc);
  default:
    break;
  }

  // Local declaration?
  QualType Type;
  bool SawAny = false;
  if (parseQualifiersAndType(Type, SawAny)) {
    std::vector<VarDecl *> Decls =
        parseVarDeclarators(Type, /*IsGlobal=*/false, CurrentFunction);
    return Context.create<DeclStmt>(std::move(Decls), Loc);
  }
  if (SawAny) {
    synchronizeToSemi();
    return nullptr;
  }
  return parseExprOrAssign(/*ConsumeSemi=*/true);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = advance().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  Stmt *Then = parseStmt();
  Stmt *Else = nullptr;
  if (match(TokenKind::KwElse))
    Else = parseStmt();
  if (!Cond || !Then)
    return nullptr;
  return Context.create<IfStmt>(Cond, Then, Else, Loc);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = advance().Loc; // 'for'
  expect(TokenKind::LParen, "after 'for'");

  Stmt *Init = nullptr;
  if (!check(TokenKind::Semi)) {
    QualType Type;
    bool SawAny = false;
    if (parseQualifiersAndType(Type, SawAny)) {
      // Declaration-style init consumes the ';' itself.
      std::vector<VarDecl *> Decls =
          parseVarDeclarators(Type, /*IsGlobal=*/false, CurrentFunction);
      Init = Context.create<DeclStmt>(std::move(Decls), Loc);
    } else {
      Init = parseExprOrAssign(/*ConsumeSemi=*/false);
      expect(TokenKind::Semi, "after for-init");
    }
  } else {
    advance();
  }

  Expr *Cond = nullptr;
  if (!check(TokenKind::Semi))
    Cond = parseExpr();
  expect(TokenKind::Semi, "after for-condition");

  Stmt *Step = nullptr;
  if (!check(TokenKind::RParen))
    Step = parseExprOrAssign(/*ConsumeSemi=*/false);
  expect(TokenKind::RParen, "after for-header");

  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Context.create<ForStmt>(Init, Cond, Step, Body, Loc);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = advance().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  Stmt *Body = parseStmt();
  if (!Cond || !Body)
    return nullptr;
  return Context.create<WhileStmt>(Cond, Body, Loc);
}

Stmt *Parser::parseDoWhile() {
  SourceLoc Loc = advance().Loc; // 'do'
  Stmt *Body = parseStmt();
  expect(TokenKind::KwWhile, "after do-body");
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after do-while condition");
  expect(TokenKind::Semi, "after do-while");
  if (!Cond || !Body)
    return nullptr;
  return Context.create<DoWhileStmt>(Body, Cond, Loc);
}

Stmt *Parser::parseReturn() {
  SourceLoc Loc = advance().Loc; // 'return'
  Expr *Value = nullptr;
  if (!check(TokenKind::Semi))
    Value = parseExpr();
  expect(TokenKind::Semi, "after return");
  return Context.create<ReturnStmt>(Value, Loc);
}

Expr *Parser::rebuildLValue(Expr *LValue) {
  if (!LValue)
    return nullptr;
  if (LValue->Kind == ExprKind::VarRef) {
    auto *Ref = static_cast<VarRefExpr *>(LValue);
    return Context.create<VarRefExpr>(Ref->Name, Ref->Loc);
  }
  assert(LValue->Kind == ExprKind::Index && "lvalue must be var or index");
  auto *IE = static_cast<IndexExpr *>(LValue);
  auto *Base = Context.create<VarRefExpr>(IE->Base->Name, IE->Base->Loc);
  // The index subexpression is shared; expressions are side-effect free
  // except calls, and double evaluation of the index matches the two memory
  // accesses (load + store) a compound array assignment performs.
  return Context.create<IndexExpr>(Base, IE->Index, IE->Loc);
}

Stmt *Parser::parseExprOrAssign(bool ConsumeSemi) {
  SourceLoc Loc = current().Loc;
  Expr *LHS = parsePostfix();
  if (!LHS) {
    synchronizeToSemi();
    return nullptr;
  }

  auto FinishSemi = [&]() {
    if (ConsumeSemi)
      expect(TokenKind::Semi, "after statement");
  };

  // Map compound-assignment tokens to the underlying binary operator.
  auto CompoundOp = [](TokenKind Kind) -> const BinaryOpKind * {
    static const BinaryOpKind Add = BinaryOpKind::Add, Sub = BinaryOpKind::Sub,
                              Mul = BinaryOpKind::Mul, Div = BinaryOpKind::Div,
                              Rem = BinaryOpKind::Rem, And = BinaryOpKind::And,
                              Or = BinaryOpKind::Or, Xor = BinaryOpKind::Xor,
                              Shl = BinaryOpKind::Shl, Shr = BinaryOpKind::Shr;
    switch (Kind) {
    case TokenKind::PlusEqual:
      return &Add;
    case TokenKind::MinusEqual:
      return &Sub;
    case TokenKind::StarEqual:
      return &Mul;
    case TokenKind::SlashEqual:
      return &Div;
    case TokenKind::PercentEqual:
      return &Rem;
    case TokenKind::AmpEqual:
      return &And;
    case TokenKind::PipeEqual:
      return &Or;
    case TokenKind::CaretEqual:
      return &Xor;
    case TokenKind::LessLessEqual:
      return &Shl;
    case TokenKind::GreaterGreaterEqual:
      return &Shr;
    default:
      return nullptr;
    }
  };

  bool IsLValue =
      LHS->Kind == ExprKind::VarRef || LHS->Kind == ExprKind::Index;

  if (IsLValue && match(TokenKind::Equal)) {
    Expr *Value = parseExpr();
    FinishSemi();
    if (!Value)
      return nullptr;
    return Context.create<AssignStmt>(LHS, Value, Loc);
  }
  if (const BinaryOpKind *Op = CompoundOp(current().Kind)) {
    if (!IsLValue) {
      error(Loc, "left side of compound assignment is not an lvalue");
      synchronizeToSemi();
      return nullptr;
    }
    advance();
    Expr *RHS = parseExpr();
    FinishSemi();
    if (!RHS)
      return nullptr;
    Expr *Reload = rebuildLValue(LHS);
    Expr *Value = Context.create<BinaryExpr>(*Op, Reload, RHS, Loc);
    return Context.create<AssignStmt>(LHS, Value, Loc);
  }
  if (check(TokenKind::PlusPlus) || check(TokenKind::MinusMinus)) {
    if (!IsLValue) {
      error(Loc, "operand of increment is not an lvalue");
      synchronizeToSemi();
      return nullptr;
    }
    BinaryOpKind Op = check(TokenKind::PlusPlus) ? BinaryOpKind::Add
                                                 : BinaryOpKind::Sub;
    advance();
    FinishSemi();
    Expr *Reload = rebuildLValue(LHS);
    Expr *One = Context.create<IntLitExpr>(1, Loc);
    Expr *Value = Context.create<BinaryExpr>(Op, Reload, One, Loc);
    return Context.create<AssignStmt>(LHS, Value, Loc);
  }

  // Plain expression statement (typically a call).
  FinishSemi();
  return Context.create<ExprStmt>(LHS, Loc);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpr() {
  NestingScope Nest(*this);
  if (nestedTooDeep())
    return nullptr;
  return parseTernary();
}

Expr *Parser::parseTernary() {
  Expr *Cond = parseBinary(0);
  if (!Cond || !match(TokenKind::Question))
    return Cond;
  uint32_t CondHeight = Height;
  SourceLoc Loc = Cond->Loc;
  Expr *TrueExpr = parseExpr();
  uint32_t TrueHeight = Height;
  expect(TokenKind::Colon, "in ternary expression");
  // parseExpr rather than parseTernary: the same production, but a
  // `c ? a : c ? a : ...` chain must count as nesting.
  Expr *FalseExpr = parseExpr();
  if (!TrueExpr || !FalseExpr)
    return nullptr;
  return grown(Context.create<TernaryExpr>(Cond, TrueExpr, FalseExpr, Loc),
               std::max({CondHeight, TrueHeight, Height}));
}

namespace {
struct BinOpInfo {
  BinaryOpKind Op;
  int Prec;
};
} // namespace

static const BinOpInfo *binOpInfo(TokenKind Kind) {
  static const BinOpInfo LogOr = {BinaryOpKind::LogOr, 1};
  static const BinOpInfo LogAnd = {BinaryOpKind::LogAnd, 2};
  static const BinOpInfo Or = {BinaryOpKind::Or, 3};
  static const BinOpInfo Xor = {BinaryOpKind::Xor, 4};
  static const BinOpInfo And = {BinaryOpKind::And, 5};
  static const BinOpInfo Eq = {BinaryOpKind::Eq, 6};
  static const BinOpInfo Ne = {BinaryOpKind::Ne, 6};
  static const BinOpInfo Lt = {BinaryOpKind::Lt, 7};
  static const BinOpInfo Le = {BinaryOpKind::Le, 7};
  static const BinOpInfo Gt = {BinaryOpKind::Gt, 7};
  static const BinOpInfo Ge = {BinaryOpKind::Ge, 7};
  static const BinOpInfo Shl = {BinaryOpKind::Shl, 8};
  static const BinOpInfo Shr = {BinaryOpKind::Shr, 8};
  static const BinOpInfo Add = {BinaryOpKind::Add, 9};
  static const BinOpInfo Sub = {BinaryOpKind::Sub, 9};
  static const BinOpInfo Mul = {BinaryOpKind::Mul, 10};
  static const BinOpInfo Div = {BinaryOpKind::Div, 10};
  static const BinOpInfo Rem = {BinaryOpKind::Rem, 10};
  switch (Kind) {
  case TokenKind::PipePipe:
    return &LogOr;
  case TokenKind::AmpAmp:
    return &LogAnd;
  case TokenKind::Pipe:
    return &Or;
  case TokenKind::Caret:
    return &Xor;
  case TokenKind::Amp:
    return &And;
  case TokenKind::EqualEqual:
    return &Eq;
  case TokenKind::BangEqual:
    return &Ne;
  case TokenKind::Less:
    return &Lt;
  case TokenKind::LessEqual:
    return &Le;
  case TokenKind::Greater:
    return &Gt;
  case TokenKind::GreaterEqual:
    return &Ge;
  case TokenKind::LessLess:
    return &Shl;
  case TokenKind::GreaterGreater:
    return &Shr;
  case TokenKind::Plus:
    return &Add;
  case TokenKind::Minus:
    return &Sub;
  case TokenKind::Star:
    return &Mul;
  case TokenKind::Slash:
    return &Div;
  case TokenKind::Percent:
    return &Rem;
  default:
    return nullptr;
  }
}

Expr *Parser::parseBinary(int MinPrec) {
  Expr *LHS = parseUnary();
  if (!LHS)
    return nullptr;
  while (true) {
    const BinOpInfo *Info = binOpInfo(current().Kind);
    if (!Info || Info->Prec < MinPrec)
      return LHS;
    uint32_t LHSHeight = Height;
    SourceLoc Loc = current().Loc;
    advance();
    Expr *RHS = parseBinary(Info->Prec + 1);
    if (!RHS)
      return nullptr;
    // Each iteration deepens the left spine by one level.
    LHS = grown(Context.create<BinaryExpr>(Info->Op, LHS, RHS, Loc),
                std::max(LHSHeight, Height));
    if (!LHS)
      return nullptr;
  }
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = current().Loc;
  // Prefix operators and casts recurse here without passing parseExpr, so
  // they count their own nesting.
  auto ParseOperand = [&]() -> Expr * {
    NestingScope Nest(*this);
    if (nestedTooDeep())
      return nullptr;
    return parseUnary();
  };
  auto MakeUnary = [&](UnaryOpKind Op) -> Expr * {
    Expr *Operand = ParseOperand();
    if (!Operand)
      return nullptr;
    return grown(Context.create<UnaryExpr>(Op, Operand, Loc), Height);
  };
  if (match(TokenKind::Minus))
    return MakeUnary(UnaryOpKind::Neg);
  if (match(TokenKind::Plus))
    return ParseOperand();
  if (match(TokenKind::Tilde))
    return MakeUnary(UnaryOpKind::BitNot);
  if (match(TokenKind::Bang))
    return MakeUnary(UnaryOpKind::LogNot);
  // C-style casts like (long) appear in the paper's code; accept and drop.
  if (check(TokenKind::LParen)) {
    TokenKind Next = peek(1).Kind;
    bool IsTypeTok = Next == TokenKind::KwChar || Next == TokenKind::KwShort ||
                     Next == TokenKind::KwInt || Next == TokenKind::KwLong ||
                     Next == TokenKind::KwUnsigned;
    if (IsTypeTok) {
      advance(); // '('
      QualType Ignored;
      bool SawAny = false;
      parseQualifiersAndType(Ignored, SawAny);
      expect(TokenKind::RParen, "after cast type");
      return ParseOperand();
    }
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  while (match(TokenKind::LBracket)) {
    Expr *Index = parseExpr();
    expect(TokenKind::RBracket, "after array index");
    if (!Index)
      return nullptr;
    if (E->Kind != ExprKind::VarRef) {
      error(E->Loc, "only named arrays can be subscripted");
      return nullptr;
    }
    E = grown(
        Context.create<IndexExpr>(static_cast<VarRefExpr *>(E), Index, E->Loc),
        Height);
    if (!E)
      return nullptr;
  }
  return E;
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = current().Loc;
  if (check(TokenKind::IntLiteral)) {
    int64_t Value = advance().IntValue;
    Height = 1;
    return Context.create<IntLitExpr>(Value, Loc);
  }
  if (check(TokenKind::Identifier)) {
    std::string Name = advance().Text;
    if (match(TokenKind::LParen)) {
      std::vector<Expr *> Args;
      uint32_t ArgHeight = 0;
      if (!check(TokenKind::RParen)) {
        do {
          Expr *Arg = parseExpr();
          if (!Arg)
            break;
          Args.push_back(Arg);
          ArgHeight = std::max(ArgHeight, Height);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
      return grown(
          Context.create<CallExpr>(std::move(Name), std::move(Args), Loc),
          ArgHeight);
    }
    Height = 1;
    return Context.create<VarRefExpr>(std::move(Name), Loc);
  }
  if (match(TokenKind::LParen)) {
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  error(Loc, std::string("expected expression, found ") +
                       tokenKindName(current().Kind));
  advance();
  return nullptr;
}
