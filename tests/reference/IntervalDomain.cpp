//===- IntervalDomain.cpp -------------------------------------------------===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "reference/IntervalDomain.h"

using namespace specai;

namespace {

/// Saturating add that keeps infinities absorbing.
int64_t satAdd(int64_t A, int64_t B) {
  if (A == Interval::NegInf || B == Interval::NegInf)
    return Interval::NegInf;
  if (A == Interval::PosInf || B == Interval::PosInf)
    return Interval::PosInf;
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return B > 0 ? Interval::PosInf : Interval::NegInf;
  return R;
}

int64_t satNeg(int64_t A) {
  if (A == Interval::NegInf)
    return Interval::PosInf;
  if (A == Interval::PosInf)
    return Interval::NegInf;
  return -A;
}

int64_t satMul(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  bool Neg = (A < 0) != (B < 0);
  if (A == Interval::NegInf || A == Interval::PosInf ||
      B == Interval::NegInf || B == Interval::PosInf)
    return Neg ? Interval::NegInf : Interval::PosInf;
  int64_t R;
  if (__builtin_mul_overflow(A, B, &R))
    return Neg ? Interval::NegInf : Interval::PosInf;
  return R;
}

} // namespace

Interval Interval::add(const Interval &RHS) const {
  return Interval{satAdd(Lo, RHS.Lo), satAdd(Hi, RHS.Hi)};
}

Interval Interval::sub(const Interval &RHS) const {
  return Interval{satAdd(Lo, satNeg(RHS.Hi)), satAdd(Hi, satNeg(RHS.Lo))};
}

Interval Interval::mul(const Interval &RHS) const {
  int64_t Candidates[4] = {satMul(Lo, RHS.Lo), satMul(Lo, RHS.Hi),
                           satMul(Hi, RHS.Lo), satMul(Hi, RHS.Hi)};
  int64_t NewLo = Candidates[0], NewHi = Candidates[0];
  for (int64_t C : Candidates) {
    NewLo = std::min(NewLo, C);
    NewHi = std::max(NewHi, C);
  }
  return Interval{NewLo, NewHi};
}

Interval Interval::fromBool(bool CanBeFalse, bool CanBeTrue) {
  if (CanBeFalse && CanBeTrue)
    return Interval{0, 1};
  if (CanBeTrue)
    return Interval{1, 1};
  return Interval{0, 0};
}

std::string Interval::str() const {
  auto Bound = [](int64_t V) {
    if (V == NegInf)
      return std::string("-inf");
    if (V == PosInf)
      return std::string("+inf");
    return std::to_string(V);
  };
  return "[" + Bound(Lo) + ", " + Bound(Hi) + "]";
}

Interval IntervalState::reg(RegId R) const {
  auto It = Regs.find(R);
  return It == Regs.end() ? Interval::top() : It->second;
}

Interval IntervalState::scalar(VarId V) const {
  auto It = Scalars.find(V);
  return It == Scalars.end() ? Interval::top() : It->second;
}

void IntervalState::setReg(RegId R, Interval I) {
  if (I.isTop())
    Regs.erase(R);
  else
    Regs[R] = I;
}

void IntervalState::setScalar(VarId V, Interval I) {
  if (I.isTop())
    Scalars.erase(V);
  else
    Scalars[V] = I;
}

bool IntervalState::joinInto(const IntervalState &From) {
  if (From.Bottom)
    return false;
  if (Bottom) {
    *this = From;
    return true;
  }
  bool Changed = false;
  // Entries absent on either side are top; join(top, x) = top, so the
  // result keeps only keys present on both sides.
  auto JoinMap = [&](auto &Mine, const auto &Theirs) {
    for (auto It = Mine.begin(); It != Mine.end();) {
      auto Found = Theirs.find(It->first);
      if (Found == Theirs.end()) {
        It = Mine.erase(It);
        Changed = true;
        continue;
      }
      Interval Joined = It->second.join(Found->second);
      if (!(Joined == It->second)) {
        It->second = Joined;
        Changed = true;
      }
      if (It->second.isTop()) {
        It = Mine.erase(It);
        continue;
      }
      ++It;
    }
  };
  JoinMap(Regs, From.Regs);
  JoinMap(Scalars, From.Scalars);
  return Changed;
}

void IntervalState::widenFrom(const IntervalState &Prev) {
  if (Bottom || Prev.Bottom)
    return;
  for (auto It = Regs.begin(); It != Regs.end();) {
    auto Found = Prev.Regs.find(It->first);
    Interval Widened =
        It->second.widen(Found == Prev.Regs.end() ? It->second : Found->second);
    if (Found == Prev.Regs.end()) {
      // New key since the previous iterate: keep as is (it can only join
      // toward top later).
      ++It;
      continue;
    }
    It->second = Widened;
    if (It->second.isTop()) {
      It = Regs.erase(It);
      continue;
    }
    ++It;
  }
  for (auto It = Scalars.begin(); It != Scalars.end();) {
    auto Found = Prev.Scalars.find(It->first);
    if (Found == Prev.Scalars.end()) {
      ++It;
      continue;
    }
    It->second = It->second.widen(Found->second);
    if (It->second.isTop()) {
      It = Scalars.erase(It);
      continue;
    }
    ++It;
  }
}

std::string IntervalState::str() const {
  if (Bottom)
    return "⊥";
  std::string Out = "{";
  bool First = true;
  for (const auto &[R, I] : Regs) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "r" + std::to_string(R) + "=" + I.str();
  }
  for (const auto &[V, I] : Scalars) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "v" + std::to_string(V) + "=" + I.str();
  }
  return Out + "}";
}

Interval IntervalDomain::evalOperand(const State &S, const Operand &Op) const {
  switch (Op.K) {
  case Operand::Kind::None:
    return Interval::constant(0);
  case Operand::Kind::Imm:
    return Interval::constant(Op.Imm);
  case Operand::Kind::Reg:
    return S.reg(Op.Reg);
  }
  return Interval::top();
}

void IntervalDomain::transfer(State &S, NodeId N) {
  if (S.isBottom())
    return;
  const Instruction &I = G->inst(N);
  switch (I.Op) {
  case Opcode::Mov:
    S.setReg(I.Dst, evalOperand(S, I.A));
    return;
  case Opcode::Bin: {
    Interval L = evalOperand(S, I.A);
    Interval R = evalOperand(S, I.B);
    Interval Out = Interval::top();
    switch (I.BinOp) {
    case IrBinOp::Add:
      Out = L.add(R);
      break;
    case IrBinOp::Sub:
      Out = L.sub(R);
      break;
    case IrBinOp::Mul:
      Out = L.mul(R);
      break;
    case IrBinOp::Eq:
      if (L.isConstant() && R.isConstant())
        Out = Interval::fromBool(L.Lo != R.Lo, L.Lo == R.Lo);
      else if (L.Hi < R.Lo || R.Hi < L.Lo)
        Out = Interval::fromBool(true, false);
      else
        Out = Interval{0, 1};
      break;
    case IrBinOp::Ne:
      if (L.isConstant() && R.isConstant())
        Out = Interval::fromBool(L.Lo == R.Lo, L.Lo != R.Lo);
      else if (L.Hi < R.Lo || R.Hi < L.Lo)
        Out = Interval::fromBool(false, true);
      else
        Out = Interval{0, 1};
      break;
    case IrBinOp::Lt:
      if (L.Hi < R.Lo)
        Out = Interval{1, 1};
      else if (L.Lo >= R.Hi)
        Out = Interval{0, 0};
      else
        Out = Interval{0, 1};
      break;
    case IrBinOp::Le:
      if (L.Hi <= R.Lo)
        Out = Interval{1, 1};
      else if (L.Lo > R.Hi)
        Out = Interval{0, 0};
      else
        Out = Interval{0, 1};
      break;
    case IrBinOp::Gt:
      if (L.Lo > R.Hi)
        Out = Interval{1, 1};
      else if (L.Hi <= R.Lo)
        Out = Interval{0, 0};
      else
        Out = Interval{0, 1};
      break;
    case IrBinOp::Ge:
      if (L.Lo >= R.Hi)
        Out = Interval{1, 1};
      else if (L.Hi < R.Lo)
        Out = Interval{0, 0};
      else
        Out = Interval{0, 1};
      break;
    default:
      // Division, shifts, bitwise ops: give up to top (sound).
      Out = Interval::top();
      break;
    }
    S.setReg(I.Dst, Out);
    return;
  }
  case Opcode::Load: {
    const MemVar &Var = G->program().Vars[I.Var];
    if (Var.NumElements == 1)
      S.setReg(I.Dst, S.scalar(I.Var));
    else
      S.setReg(I.Dst, Interval::top()); // Array elements are untracked.
    return;
  }
  case Opcode::Store: {
    const MemVar &Var = G->program().Vars[I.Var];
    if (Var.NumElements == 1)
      S.setScalar(I.Var, evalOperand(S, I.A));
    return;
  }
  case Opcode::Call:
    // Summarize mode: the interval domain does not track callee effects.
    // The result, every reg global, and every memory scalar the callee
    // could store to become unknown.
    S.setReg(I.Dst, Interval::top());
    for (const RegGlobal &RG : G->program().RegGlobals)
      S.setReg(RG.Reg, Interval::top());
    for (VarId V = 0; V != G->program().Vars.size(); ++V)
      if (G->program().Vars[V].NumElements == 1)
        S.setScalar(V, Interval::top());
    return;
  case Opcode::Br:
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::Fence:
    return;
  }
}
