//===- compute/Engine.cpp - Lane-batched kernel execution engine -------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/compute/CMakeLists.txt): the fused tape ops keep the scalar
// interpreter's two-rounding semantics, so letting the compiler contract
// a + b*c into an FMA would break bit-exactness for Float64 kernels.
//
//===----------------------------------------------------------------------===//

#include "compute/Engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace stencilflow;
using namespace stencilflow::compute;

using Kind = TapeOp::Kind;

// The tape reuses OpCode's encoding for the shared prefix so translation is
// a cast and the chain matcher can reason about both uniformly.
static_assert(static_cast<int>(Kind::Const) == static_cast<int>(OpCode::Const));
static_assert(static_cast<int>(Kind::Input) == static_cast<int>(OpCode::Input));
static_assert(static_cast<int>(Kind::Add) == static_cast<int>(OpCode::Add));
static_assert(static_cast<int>(Kind::Div) == static_cast<int>(OpCode::Div));
static_assert(static_cast<int>(Kind::And) == static_cast<int>(OpCode::And));
static_assert(static_cast<int>(Kind::Sqrt) == static_cast<int>(OpCode::Sqrt));
static_assert(static_cast<int>(Kind::Tanh) == static_cast<int>(OpCode::Tanh));
static_assert(static_cast<int>(Kind::Pow) == static_cast<int>(OpCode::Pow));
static_assert(static_cast<int>(Kind::Select) ==
              static_cast<int>(OpCode::Select));

const char *compute::kernelEngineName(KernelEngine Engine) {
  switch (Engine) {
  case KernelEngine::Scalar:
    return "scalar";
  case KernelEngine::Batched:
    return "batched";
  case KernelEngine::Specialized:
    return "specialized";
  }
  return "<invalid>";
}

Expected<KernelEngine> compute::parseKernelEngine(std::string_view Name) {
  if (Name == "scalar")
    return KernelEngine::Scalar;
  if (Name == "specialized")
    return KernelEngine::Specialized;
  return makeError(ErrorCode::InvalidInput,
                   "unknown kernel engine '" + std::string(Name) +
                       "' (expected scalar or specialized)");
}

namespace {

//===----------------------------------------------------------------------===//
// Rounding policies: one struct per DataType so the per-lane loops are
// instantiated with the rounding inlined (no per-element switch).
//===----------------------------------------------------------------------===//

struct RoundF32 {
  static double r(double V) { return static_cast<double>(static_cast<float>(V)); }
};
struct RoundF64 {
  static double r(double V) { return V; }
};
struct RoundI32 {
  static double r(double V) { return static_cast<double>(static_cast<int32_t>(V)); }
};
struct RoundI64 {
  static double r(double V) { return static_cast<double>(static_cast<int64_t>(V)); }
};

//===----------------------------------------------------------------------===//
// Batched tape interpreter: one dispatch per instruction, per-lane inner
// loops over a slot-major SoA register file (Scratch[Reg * W + Lane]).
//===----------------------------------------------------------------------===//

template <class R>
void runTape(const TapeOp *Ops, size_t N, const double *In, int W,
             double *Scratch, int32_t OutReg, double *Out) {
  for (size_t I = 0; I != N; ++I) {
    const TapeOp &O = Ops[I];
    double *D = Scratch + static_cast<size_t>(O.Dst) * W;
    const double *A = O.A >= 0 ? Scratch + static_cast<size_t>(O.A) * W : nullptr;
    const double *B = O.B >= 0 ? Scratch + static_cast<size_t>(O.B) * W : nullptr;
    const double *C = O.C >= 0 ? Scratch + static_cast<size_t>(O.C) * W : nullptr;
    switch (O.Op) {
    case Kind::Const:
      for (int L = 0; L != W; ++L)
        D[L] = O.Constant; // Already rounded at compile time.
      break;
    case Kind::Input: {
      const double *S = In + static_cast<size_t>(O.InputIndex) * W;
      for (int L = 0; L != W; ++L)
        D[L] = R::r(S[L]);
      break;
    }
    case Kind::Neg:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(-A[L]);
      break;
    case Kind::Not:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] == 0.0 ? 1.0 : 0.0);
      break;
    case Kind::Add:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] + B[L]);
      break;
    case Kind::Sub:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] - B[L]);
      break;
    case Kind::Mul:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] * B[L]);
      break;
    case Kind::Div:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] / B[L]);
      break;
    case Kind::Lt:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] < B[L] ? 1.0 : 0.0);
      break;
    case Kind::Le:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] <= B[L] ? 1.0 : 0.0);
      break;
    case Kind::Gt:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] > B[L] ? 1.0 : 0.0);
      break;
    case Kind::Ge:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] >= B[L] ? 1.0 : 0.0);
      break;
    case Kind::Eq:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] == B[L] ? 1.0 : 0.0);
      break;
    case Kind::Ne:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] != B[L] ? 1.0 : 0.0);
      break;
    case Kind::And:
      for (int L = 0; L != W; ++L)
        D[L] = R::r((A[L] != 0.0 && B[L] != 0.0) ? 1.0 : 0.0);
      break;
    case Kind::Or:
      for (int L = 0; L != W; ++L)
        D[L] = R::r((A[L] != 0.0 || B[L] != 0.0) ? 1.0 : 0.0);
      break;
    case Kind::Sqrt:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::sqrt(A[L]));
      break;
    case Kind::Abs:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::fabs(A[L]));
      break;
    case Kind::Exp:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::exp(A[L]));
      break;
    case Kind::Log:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::log(A[L]));
      break;
    case Kind::Sin:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::sin(A[L]));
      break;
    case Kind::Cos:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::cos(A[L]));
      break;
    case Kind::Tanh:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::tanh(A[L]));
      break;
    case Kind::Floor:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::floor(A[L]));
      break;
    case Kind::Ceil:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::ceil(A[L]));
      break;
    case Kind::Min:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::fmin(A[L], B[L]));
      break;
    case Kind::Max:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::fmax(A[L], B[L]));
      break;
    case Kind::Pow:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(std::pow(A[L], B[L]));
      break;
    case Kind::Select:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] != 0.0 ? B[L] : C[L]);
      break;
    case Kind::MulAdd:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] + R::r(B[L] * C[L]));
      break;
    case Kind::MulSub:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(A[L] - R::r(B[L] * C[L]));
      break;
    case Kind::MulRSub:
      for (int L = 0; L != W; ++L)
        D[L] = R::r(R::r(B[L] * C[L]) - A[L]);
      break;
    }
  }
  const double *Result = Scratch + static_cast<size_t>(OutReg) * W;
  std::copy(Result, Result + W, Out);
}

//===----------------------------------------------------------------------===//
// Specialized weighted-sum chain evaluator. The accumulator lives directly
// in Out[]; leaves are loaded (and re-rounded, which is idempotent) from
// the SoA input block, so no register file is needed at all.
//===----------------------------------------------------------------------===//

/// Applies a single-leaf term: Out[l] = op(Out[l], X_l) with the leaf source
/// branch hoisted out of the lane loop.
template <class R, class F>
inline void applyOneLeaf(const ChainTerm &T, const double *In, int W,
                         double *Out, F Op) {
  if (T.XInput >= 0) {
    const double *X = In + static_cast<size_t>(T.XInput) * W;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], R::r(X[L]));
  } else {
    const double X = T.XConst;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], X);
  }
}

/// Applies a two-leaf term: Out[l] = op(Out[l], X_l, Y_l).
template <class R, class F>
inline void applyTwoLeaf(const ChainTerm &T, const double *In, int W,
                         double *Out, F Op) {
  if (T.XInput >= 0 && T.YInput >= 0) {
    const double *X = In + static_cast<size_t>(T.XInput) * W;
    const double *Y = In + static_cast<size_t>(T.YInput) * W;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], R::r(X[L]), R::r(Y[L]));
  } else if (T.XInput >= 0) {
    const double *X = In + static_cast<size_t>(T.XInput) * W;
    const double Y = T.YConst;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], R::r(X[L]), Y);
  } else if (T.YInput >= 0) {
    const double X = T.XConst;
    const double *Y = In + static_cast<size_t>(T.YInput) * W;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], X, R::r(Y[L]));
  } else {
    const double X = T.XConst, Y = T.YConst;
    for (int L = 0; L != W; ++L)
      Out[L] = Op(Out[L], X, Y);
  }
}

template <class R>
void runChain(const ChainTerm *Terms, size_t N, const double *In, int W,
              double *Out) {
  for (size_t I = 0; I != N; ++I) {
    const ChainTerm &T = Terms[I];
    switch (T.Op) {
    case ChainTerm::Kind::Init:
      applyOneLeaf<R>(T, In, W, Out, [](double, double X) { return X; });
      break;
    case ChainTerm::Kind::Add:
      applyOneLeaf<R>(T, In, W, Out,
                      [](double Acc, double X) { return R::r(Acc + X); });
      break;
    case ChainTerm::Kind::Sub:
      applyOneLeaf<R>(T, In, W, Out,
                      [](double Acc, double X) { return R::r(Acc - X); });
      break;
    case ChainTerm::Kind::RSub:
      applyOneLeaf<R>(T, In, W, Out,
                      [](double Acc, double X) { return R::r(X - Acc); });
      break;
    case ChainTerm::Kind::Mul:
      applyOneLeaf<R>(T, In, W, Out,
                      [](double Acc, double X) { return R::r(Acc * X); });
      break;
    case ChainTerm::Kind::MulAdd:
      applyTwoLeaf<R>(T, In, W, Out, [](double Acc, double X, double Y) {
        return R::r(Acc + R::r(X * Y));
      });
      break;
    case ChainTerm::Kind::MulSub:
      applyTwoLeaf<R>(T, In, W, Out, [](double Acc, double X, double Y) {
        return R::r(Acc - R::r(X * Y));
      });
      break;
    case ChainTerm::Kind::MulRSub:
      applyTwoLeaf<R>(T, In, W, Out, [](double Acc, double X, double Y) {
        return R::r(R::r(X * Y) - Acc);
      });
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Tape compilation passes.
//===----------------------------------------------------------------------===//

bool isLeaf(const TapeOp &O) {
  return O.Op == Kind::Const || O.Op == Kind::Input;
}

/// Translates the kernel's SSA instruction tape (instruction I writes
/// register I) into the explicit-destination tape form.
std::vector<TapeOp> buildTape(const Kernel &Krn) {
  std::vector<TapeOp> Ops;
  Ops.reserve(Krn.instructions().size());
  for (size_t I = 0, E = Krn.instructions().size(); I != E; ++I) {
    const Instruction &Inst = Krn.instructions()[I];
    TapeOp O;
    O.Op = static_cast<Kind>(Inst.Op);
    O.Dst = static_cast<int32_t>(I);
    O.A = Inst.A;
    O.B = Inst.B;
    O.C = Inst.C;
    O.InputIndex = Inst.InputIndex;
    O.Constant = Inst.Constant;
    Ops.push_back(O);
  }
  return Ops;
}

/// Folds computing ops whose operands are all constants. KernelBuilder
/// already folds during emission, but CSE can still leave foldable ops when
/// folding was disabled at kernel-compile time, and it keeps the engine
/// correct for any tape source. Uses the exact same round(evalOpUnrounded)
/// sequence as the scalar interpreter, so folded constants are bit-exact.
void foldConstants(std::vector<TapeOp> &Ops, DataType Type) {
  for (TapeOp &O : Ops) {
    if (isLeaf(O))
      continue;
    auto constOf = [&](int32_t Reg, double &Value) {
      if (Reg < 0) {
        Value = 0.0;
        return true;
      }
      const TapeOp &Def = Ops[static_cast<size_t>(Reg)];
      if (Def.Op != Kind::Const)
        return false;
      Value = Def.Constant;
      return true;
    };
    double A, B, C;
    if (!constOf(O.A, A) || !constOf(O.B, B) || !constOf(O.C, C))
      continue;
    // Runs before fusion, so O.Op is always within the OpCode range here.
    double Folded =
        roundToType(evalOpUnrounded(static_cast<OpCode>(O.Op), A, B, C), Type);
    int32_t Dst = O.Dst;
    O = TapeOp();
    O.Op = Kind::Const;
    O.Dst = Dst;
    O.Constant = Folded;
  }
}

/// Fuses a single-use Mul feeding an Add/Sub into MulAdd/MulSub/MulRSub.
/// Only fuses positions where the fused form evaluates operands in the
/// exact same order as the two-instruction original (no commuting: a+b and
/// b+a can differ in NaN payload bits, and we promise bit-exactness).
void fuseMulOps(std::vector<TapeOp> &Ops, int32_t OutReg) {
  std::vector<int32_t> Uses(Ops.size(), 0);
  auto use = [&](int32_t Reg) {
    if (Reg >= 0)
      ++Uses[static_cast<size_t>(Reg)];
  };
  for (const TapeOp &O : Ops) {
    use(O.A);
    use(O.B);
    use(O.C);
  }
  use(OutReg); // The output register is live even with zero operand uses.

  auto singleUseMul = [&](int32_t Reg) {
    return Reg >= 0 && Uses[static_cast<size_t>(Reg)] == 1 &&
           Ops[static_cast<size_t>(Reg)].Op == Kind::Mul;
  };
  for (TapeOp &O : Ops) {
    if (O.Op == Kind::Add && singleUseMul(O.B)) {
      // a + (b*c)  ->  MulAdd(a, b, c)
      const TapeOp &M = Ops[static_cast<size_t>(O.B)];
      O.Op = Kind::MulAdd;
      O.B = M.A;
      O.C = M.B;
    } else if (O.Op == Kind::Sub && singleUseMul(O.B)) {
      // a - (b*c)  ->  MulSub(a, b, c)
      const TapeOp &M = Ops[static_cast<size_t>(O.B)];
      O.Op = Kind::MulSub;
      O.B = M.A;
      O.C = M.B;
    } else if (O.Op == Kind::Sub && singleUseMul(O.A)) {
      // (b*c) - a  ->  MulRSub(a, b, c)
      const TapeOp &M = Ops[static_cast<size_t>(O.A)];
      O.Op = Kind::MulRSub;
      O.A = O.B;
      O.B = M.A;
      O.C = M.B;
    }
  }
  // The consumed Mul ops are now dead; eliminateDead() removes them.
}

/// Removes ops whose destination never reaches the output register and
/// renumbers the surviving registers densely (better scratch locality).
/// Returns the renumbered output register.
int32_t eliminateDead(std::vector<TapeOp> &Ops, int32_t OutReg) {
  std::vector<char> Live(Ops.size(), 0);
  Live[static_cast<size_t>(OutReg)] = 1;
  for (size_t I = Ops.size(); I-- > 0;) {
    if (!Live[I])
      continue;
    const TapeOp &O = Ops[I];
    if (O.A >= 0)
      Live[static_cast<size_t>(O.A)] = 1;
    if (O.B >= 0)
      Live[static_cast<size_t>(O.B)] = 1;
    if (O.C >= 0)
      Live[static_cast<size_t>(O.C)] = 1;
  }
  std::vector<int32_t> NewReg(Ops.size(), -1);
  size_t Next = 0;
  for (size_t I = 0, E = Ops.size(); I != E; ++I) {
    if (!Live[I])
      continue;
    TapeOp O = Ops[I];
    O.Dst = static_cast<int32_t>(Next);
    if (O.A >= 0)
      O.A = NewReg[static_cast<size_t>(O.A)];
    if (O.B >= 0)
      O.B = NewReg[static_cast<size_t>(O.B)];
    if (O.C >= 0)
      O.C = NewReg[static_cast<size_t>(O.C)];
    NewReg[I] = static_cast<int32_t>(Next);
    Ops[Next++] = O;
  }
  Ops.resize(Next);
  return NewReg[static_cast<size_t>(OutReg)];
}

/// Pattern-matches a pure accumulator chain: every computing op extends the
/// running accumulator with leaf (Input/Const) operands, in tape order,
/// without commuting any operand. This covers weighted sums, Laplacians,
/// and most select-free arithmetic stencil cores after madd fusion.
bool matchChain(const std::vector<TapeOp> &Ops, int32_t OutReg,
                std::vector<ChainTerm> &Terms) {
  auto leaf = [&](int32_t Reg, int32_t &Input, double &Constant) {
    if (Reg < 0)
      return false;
    const TapeOp &Def = Ops[static_cast<size_t>(Reg)];
    if (Def.Op == Kind::Input) {
      Input = Def.InputIndex;
      return true;
    }
    if (Def.Op == Kind::Const) {
      Input = -1;
      Constant = Def.Constant;
      return true;
    }
    return false;
  };

  Terms.clear();
  int32_t Prev = -1; // Destination of the previous chain op.
  for (const TapeOp &O : Ops) {
    if (isLeaf(O))
      continue;
    ChainTerm First, Term;
    bool HasFirst = false;
    switch (O.Op) {
    case Kind::Add:
    case Kind::Sub:
    case Kind::Mul: {
      bool AccInA = Prev >= 0 && O.A == Prev;
      bool AccInB = Prev >= 0 && O.B == Prev;
      if (AccInA) {
        // acc OP leaf.
        if (!leaf(O.B, Term.XInput, Term.XConst))
          return false;
        Term.Op = O.Op == Kind::Add   ? ChainTerm::Kind::Add
                  : O.Op == Kind::Sub ? ChainTerm::Kind::Sub
                                      : ChainTerm::Kind::Mul;
      } else if (AccInB && O.Op == Kind::Sub) {
        // leaf - acc keeps operand order under RSub; leaf + acc and
        // leaf * acc commute in general (NaN payload selection), so those
        // only match under the Const carve-out below.
        if (!leaf(O.A, Term.XInput, Term.XConst))
          return false;
        Term.Op = ChainTerm::Kind::RSub;
      } else if (AccInB && (O.Op == Kind::Add || O.Op == Kind::Mul)) {
        // const + acc / const * acc: IEEE add/mul only depend on operand
        // order when both operands can be NaN (which NaN's payload wins).
        // A non-NaN constant rules that out, so evaluating as acc + const
        // / acc * const is bit-exact — this is what lets jacobi3d's final
        // `const * sum` specialize. Input leaves stay rejected: they can
        // carry NaNs at runtime.
        if (!leaf(O.A, Term.XInput, Term.XConst) || Term.XInput >= 0 ||
            std::isnan(Term.XConst))
          return false;
        Term.Op =
            O.Op == Kind::Add ? ChainTerm::Kind::Add : ChainTerm::Kind::Mul;
      } else if (Terms.empty()) {
        // Chain start: both operands are leaves.
        if (!leaf(O.A, First.XInput, First.XConst) ||
            !leaf(O.B, Term.XInput, Term.XConst))
          return false;
        First.Op = ChainTerm::Kind::Init;
        HasFirst = true;
        Term.Op = O.Op == Kind::Add   ? ChainTerm::Kind::Add
                  : O.Op == Kind::Sub ? ChainTerm::Kind::Sub
                                      : ChainTerm::Kind::Mul;
      } else {
        return false;
      }
      break;
    }
    case Kind::MulAdd:
    case Kind::MulSub:
    case Kind::MulRSub: {
      if (!leaf(O.B, Term.XInput, Term.XConst) ||
          !leaf(O.C, Term.YInput, Term.YConst))
        return false;
      if (Prev >= 0 && O.A == Prev) {
        // Accumulator feeds the addend side.
      } else if (Terms.empty() && leaf(O.A, First.XInput, First.XConst)) {
        First.Op = ChainTerm::Kind::Init;
        HasFirst = true;
      } else {
        return false;
      }
      Term.Op = O.Op == Kind::MulAdd   ? ChainTerm::Kind::MulAdd
                : O.Op == Kind::MulSub ? ChainTerm::Kind::MulSub
                                       : ChainTerm::Kind::MulRSub;
      break;
    }
    default:
      return false; // Div, comparisons, Select, intrinsics: no chain form.
    }
    if (HasFirst)
      Terms.push_back(First);
    Terms.push_back(Term);
    Prev = O.Dst;
  }

  if (Prev < 0) {
    // No computing ops at all: the output is a bare Input or Const.
    ChainTerm Init;
    Init.Op = ChainTerm::Kind::Init;
    if (!leaf(OutReg, Init.XInput, Init.XConst))
      return false;
    Terms.push_back(Init);
    return true;
  }
  // Every intermediate accumulator is consumed by the next chain op by
  // construction (leaf operands can only name Input/Const registers), so
  // the chain is valid iff it ends on the output register.
  return Prev == OutReg;
}

} // namespace

KernelEvaluator KernelEvaluator::compile(const Kernel &Krn,
                                         KernelEngine Engine, int Lanes) {
  assert(Lanes >= 1 && "vector width must be positive");
  KernelEvaluator E;
  E.Krn = &Krn;
  E.Lanes = Lanes;
  E.Type = Krn.elementType();
  E.NumInputs = static_cast<int32_t>(Krn.inputs().size());
  if (Engine == KernelEngine::Scalar) {
    E.Tier = KernelEngine::Scalar;
    E.OutReg = Krn.outputRegister();
    E.TapeLen = Krn.instructions().size();
    // Kernel scratch plus one gathered lane column of inputs.
    E.ScratchDoubles = Krn.instructions().size() + Krn.inputs().size();
    return E;
  }

  std::vector<TapeOp> Ops = buildTape(Krn);
  int32_t OutReg = Krn.outputRegister();
  foldConstants(Ops, E.Type);
  // DRE before fusion: dead ops (unreferenced locals, folded operands)
  // would otherwise inflate use counts and block profitable fusions.
  OutReg = eliminateDead(Ops, OutReg);
  fuseMulOps(Ops, OutReg);
  OutReg = eliminateDead(Ops, OutReg); // Drop the consumed Mul ops.

  E.OutReg = OutReg;
  std::vector<ChainTerm> Terms;
  if (matchChain(Ops, OutReg, Terms)) {
    E.Tier = KernelEngine::Specialized;
    E.Chain = std::move(Terms);
    E.Specialization = "weighted-sum-chain";
    E.ScratchDoubles = 0; // The accumulator lives in Out[].
    E.TapeLen = E.Chain.size();
    return E;
  }
  E.Tier = KernelEngine::Batched;
  E.TapeLen = Ops.size();
  E.ScratchDoubles = Ops.size() * static_cast<size_t>(Lanes);
  E.Ops = std::move(Ops);
  return E;
}

void KernelEvaluator::evaluate(const double *SoAInputs, double *Out,
                               double *Scratch) const {
  assert(Krn && "evaluate() on a default-constructed evaluator");
  switch (Tier) {
  case KernelEngine::Scalar: {
    // Reference tier: transpose each lane's column out of the SoA block and
    // run the scalar interpreter, exactly like the pre-engine simulator.
    double *Column = Scratch + Krn->instructions().size();
    for (int L = 0; L != Lanes; ++L) {
      for (int32_t S = 0; S != NumInputs; ++S)
        Column[S] = SoAInputs[static_cast<size_t>(S) * Lanes + L];
      Out[L] = Krn->evaluate(Column, Scratch);
    }
    return;
  }
  case KernelEngine::Batched:
    switch (Type) {
    case DataType::Float32:
      runTape<RoundF32>(Ops.data(), Ops.size(), SoAInputs, Lanes, Scratch,
                        OutReg, Out);
      return;
    case DataType::Float64:
      runTape<RoundF64>(Ops.data(), Ops.size(), SoAInputs, Lanes, Scratch,
                        OutReg, Out);
      return;
    case DataType::Int32:
      runTape<RoundI32>(Ops.data(), Ops.size(), SoAInputs, Lanes, Scratch,
                        OutReg, Out);
      return;
    case DataType::Int64:
      runTape<RoundI64>(Ops.data(), Ops.size(), SoAInputs, Lanes, Scratch,
                        OutReg, Out);
      return;
    }
    return;
  case KernelEngine::Specialized:
    switch (Type) {
    case DataType::Float32:
      runChain<RoundF32>(Chain.data(), Chain.size(), SoAInputs, Lanes, Out);
      return;
    case DataType::Float64:
      runChain<RoundF64>(Chain.data(), Chain.size(), SoAInputs, Lanes, Out);
      return;
    case DataType::Int32:
      runChain<RoundI32>(Chain.data(), Chain.size(), SoAInputs, Lanes, Out);
      return;
    case DataType::Int64:
      runChain<RoundI64>(Chain.data(), Chain.size(), SoAInputs, Lanes, Out);
      return;
    }
    return;
  }
}
