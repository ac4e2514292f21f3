//===- compute/Kernel.cpp - Compiled stencil kernels -------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "compute/Kernel.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

using namespace stencilflow;
using namespace stencilflow::compute;

namespace {

OpCode binaryOpCode(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return OpCode::Add;
  case BinaryOp::Sub:
    return OpCode::Sub;
  case BinaryOp::Mul:
    return OpCode::Mul;
  case BinaryOp::Div:
    return OpCode::Div;
  case BinaryOp::Lt:
    return OpCode::Lt;
  case BinaryOp::Le:
    return OpCode::Le;
  case BinaryOp::Gt:
    return OpCode::Gt;
  case BinaryOp::Ge:
    return OpCode::Ge;
  case BinaryOp::Eq:
    return OpCode::Eq;
  case BinaryOp::Ne:
    return OpCode::Ne;
  case BinaryOp::And:
    return OpCode::And;
  case BinaryOp::Or:
    return OpCode::Or;
  }
  assert(false && "unknown binary op");
  return OpCode::Add;
}

OpCode intrinsicOpCode(Intrinsic Fn) {
  switch (Fn) {
  case Intrinsic::Sqrt:
    return OpCode::Sqrt;
  case Intrinsic::Abs:
    return OpCode::Abs;
  case Intrinsic::Exp:
    return OpCode::Exp;
  case Intrinsic::Log:
    return OpCode::Log;
  case Intrinsic::Sin:
    return OpCode::Sin;
  case Intrinsic::Cos:
    return OpCode::Cos;
  case Intrinsic::Tanh:
    return OpCode::Tanh;
  case Intrinsic::Floor:
    return OpCode::Floor;
  case Intrinsic::Ceil:
    return OpCode::Ceil;
  case Intrinsic::Min:
    return OpCode::Min;
  case Intrinsic::Max:
    return OpCode::Max;
  case Intrinsic::Pow:
    return OpCode::Pow;
  }
  assert(false && "unknown intrinsic");
  return OpCode::Sqrt;
}

/// Value-numbering key of an instruction: its opcode, operands, constant
/// bits and input slot.
struct InstructionKey {
  OpCode Op;
  int A, B, C;
  uint64_t ConstBits;
  int InputIndex;

  explicit InstructionKey(const Instruction &Inst)
      : Op(Inst.Op), A(Inst.A), B(Inst.B), C(Inst.C),
        ConstBits(std::bit_cast<uint64_t>(Inst.Constant)),
        InputIndex(Inst.InputIndex) {}

  bool operator==(const InstructionKey &Other) const = default;

  size_t hash() const {
    size_t Hash = std::hash<uint64_t>()(ConstBits);
    for (int Part : {static_cast<int>(Op), A, B, C, InputIndex})
      Hash = (Hash ^ static_cast<unsigned>(Part)) * 0x100000001b3ull;
    return Hash;
  }
};

/// Incrementally builds the instruction tape with value numbering. Names
/// and offsets are looked up by hash, viewed in the node's code, so the
/// build is linear in the number of expressions. Fused code is emitted
/// straight from its instances (ir/Expr.h, CodeInstance): each instance's
/// locals resolve within its own body, its field accesses are shifted as
/// they are emitted, and an inlined read is the register of its source
/// instance's final statement. Nothing is materialized.
class KernelBuilder {
public:
  KernelBuilder(const StencilNode &Node, const KernelOptions &Options)
      : Node(Node), Options(Options) {}

  Expected<int> build() {
    const std::vector<CodeInstance> &Instances = Node.Code.instances();
    Outputs.resize(Instances.size(), -1);
    int OutputReg = -1;
    for (size_t Index = 0; Index != Instances.size(); ++Index) {
      Instance = &Instances[Index];
      Locals.clear();
      for (const Assignment &Stmt : *Instance->Body) {
        Expected<int> Reg = emitExpr(*Stmt.Value);
        if (!Reg)
          return Reg;
        Locals[Stmt.Target] = *Reg;
        OutputReg = *Reg;
      }
      Outputs[Index] = OutputReg;
    }
    return OutputReg;
  }

  std::vector<KernelInput> takeInputs() { return std::move(Inputs); }
  std::vector<Instruction> takeCode() { return std::move(Code); }

private:
  const StencilNode &Node;
  KernelOptions Options;
  std::vector<KernelInput> Inputs;
  std::vector<Instruction> Code;
  // The instance being emitted, its locals, and every instance's output
  // register.
  const CodeInstance *Instance = nullptr;
  std::unordered_map<std::string_view, int> Locals;
  std::vector<int> Outputs;
  // (field, offset) -> index into Inputs, in first-use order.
  std::unordered_map<FieldOffsetRef, int, FieldOffsetRefHash> Slots;
  // Value numbers: an open-addressed table of tape indices (-1 = empty),
  // probed linearly and kept at most half full. With CSE on every tape
  // entry is unique, so the tape is the key store and interning allocates
  // only when the table doubles.
  std::vector<int> Numbering;

  int intern(Instruction Inst) {
    if (!Options.EnableCSE) {
      Code.push_back(Inst);
      return static_cast<int>(Code.size()) - 1;
    }
    if (2 * (Code.size() + 1) > Numbering.size())
      growNumbering();
    InstructionKey Key(Inst);
    size_t Mask = Numbering.size() - 1;
    for (size_t Slot = Key.hash() & Mask;; Slot = (Slot + 1) & Mask) {
      int Index = Numbering[Slot];
      if (Index < 0) {
        Numbering[Slot] = static_cast<int>(Code.size());
        Code.push_back(Inst);
        return Numbering[Slot];
      }
      if (InstructionKey(Code[static_cast<size_t>(Index)]) == Key)
        return Index;
    }
  }

  void growNumbering() {
    Numbering.assign(std::max<size_t>(64, 2 * Numbering.size()), -1);
    size_t Mask = Numbering.size() - 1;
    for (size_t Index = 0; Index != Code.size(); ++Index) {
      size_t Slot = InstructionKey(Code[Index]).hash() & Mask;
      while (Numbering[Slot] >= 0)
        Slot = (Slot + 1) & Mask;
      Numbering[Slot] = static_cast<int>(Index);
    }
  }

  int emitConst(double Value) {
    Instruction Inst;
    Inst.Op = OpCode::Const;
    Inst.Constant = roundToType(Value, Node.Type);
    return intern(Inst);
  }

  int emitInput(std::string_view Field, const Offset &Off) {
    auto [It, Inserted] = Slots.try_emplace(FieldOffsetRef{Field, Off},
                                            static_cast<int>(Inputs.size()));
    if (Inserted)
      Inputs.push_back(KernelInput{std::string(Field), Off});
    Instruction Inst;
    Inst.Op = OpCode::Input;
    Inst.InputIndex = It->second;
    return intern(Inst);
  }

  int emitOp(OpCode Op, int A, int B = -1, int C = -1) {
    if (Options.EnableConstantFolding && isConstReg(A) &&
        (B < 0 || isConstReg(B)) && (C < 0 || isConstReg(C))) {
      double Folded =
          evalOpUnrounded(Op, constValue(A), B < 0 ? 0.0 : constValue(B),
                          C < 0 ? 0.0 : constValue(C));
      return emitConst(Folded);
    }
    Instruction Inst;
    Inst.Op = Op;
    Inst.A = A;
    Inst.B = B;
    Inst.C = C;
    return intern(Inst);
  }

  bool isConstReg(int Reg) const {
    return Code[static_cast<size_t>(Reg)].Op == OpCode::Const;
  }
  double constValue(int Reg) const {
    return Code[static_cast<size_t>(Reg)].Constant;
  }

  Expected<int> emitExpr(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Literal:
      return emitConst(cast<LiteralExpr>(&E)->value());
    case ExprKind::FieldAccess: {
      const auto *Access = cast<FieldAccessExpr>(&E);
      if (const CodeInstance::InlinedRead *Read =
              Instance->inlinedRead(Access->field(), Access->offset()))
        return Outputs[Read->Source];
      return emitInput(Access->field(),
                       Instance->shifted(Access->field(), Access->offset()));
    }
    case ExprKind::LocalRef: {
      const auto *Ref = cast<LocalRefExpr>(&E);
      auto It = Locals.find(Ref->name());
      if (It == Locals.end())
        return makeError("stencil '" + Node.Name +
                         "': unresolved local '" + Instance->Prefix +
                         Ref->name() +
                         "' (semantic analysis must run before compilation)");
      return It->second;
    }
    case ExprKind::Unary: {
      const auto *Unary = cast<UnaryExpr>(&E);
      Expected<int> Operand = emitExpr(Unary->operand());
      if (!Operand)
        return Operand;
      OpCode Op = Unary->op() == UnaryOp::Neg ? OpCode::Neg : OpCode::Not;
      return emitOp(Op, *Operand);
    }
    case ExprKind::Binary: {
      const auto *Binary = cast<BinaryExpr>(&E);
      Expected<int> LHS = emitExpr(Binary->lhs());
      if (!LHS)
        return LHS;
      Expected<int> RHS = emitExpr(Binary->rhs());
      if (!RHS)
        return RHS;
      return emitOp(binaryOpCode(Binary->op()), *LHS, *RHS);
    }
    case ExprKind::Call: {
      const auto *Call = cast<CallExpr>(&E);
      // Intrinsics take one or two arguments.
      int Args[2] = {-1, -1};
      for (size_t Index = 0; Index != Call->args().size(); ++Index) {
        Expected<int> Reg = emitExpr(*Call->args()[Index]);
        if (!Reg)
          return Reg;
        if (Index < 2)
          Args[Index] = *Reg;
      }
      OpCode Op = intrinsicOpCode(Call->intrinsic());
      return emitOp(Op, Args[0], Args[1]);
    }
    case ExprKind::Select: {
      const auto *Select = cast<SelectExpr>(&E);
      Expected<int> Cond = emitExpr(Select->condition());
      if (!Cond)
        return Cond;
      Expected<int> TrueValue = emitExpr(Select->trueValue());
      if (!TrueValue)
        return TrueValue;
      Expected<int> FalseValue = emitExpr(Select->falseValue());
      if (!FalseValue)
        return FalseValue;
      return emitOp(OpCode::Select, *Cond, *TrueValue, *FalseValue);
    }
    }
    return makeError("unknown expression kind");
  }
};

/// Counts the operations of \p Code by class.
OpCensus countOperations(const std::vector<Instruction> &Code) {
  OpCensus Census;
  for (const Instruction &Inst : Code) {
    switch (Inst.Op) {
    case OpCode::Const:
    case OpCode::Input:
      break;
    case OpCode::Add:
    case OpCode::Sub:
      ++Census.Additions;
      break;
    case OpCode::Mul:
      ++Census.Multiplications;
      break;
    case OpCode::Div:
      ++Census.Divisions;
      break;
    case OpCode::Sqrt:
      ++Census.SquareRoots;
      break;
    case OpCode::Min:
    case OpCode::Max:
      ++Census.MinMax;
      break;
    case OpCode::Lt:
    case OpCode::Le:
    case OpCode::Gt:
    case OpCode::Ge:
    case OpCode::Eq:
    case OpCode::Ne:
      ++Census.Comparisons;
      break;
    case OpCode::Select:
      ++Census.Branches;
      break;
    case OpCode::Exp:
    case OpCode::Log:
    case OpCode::Sin:
    case OpCode::Cos:
    case OpCode::Tanh:
    case OpCode::Pow:
      ++Census.Transcendental;
      break;
    case OpCode::Neg:
    case OpCode::Not:
    case OpCode::Abs:
    case OpCode::Floor:
    case OpCode::Ceil:
    case OpCode::And:
    case OpCode::Or:
      ++Census.Other;
      break;
    }
  }
  return Census;
}

} // namespace

Expected<Kernel> Kernel::compile(const StencilNode &Node,
                                 const KernelOptions &Options) {
  KernelBuilder Builder(Node, Options);
  Expected<int> OutputReg = Builder.build();
  if (!OutputReg)
    return OutputReg.takeError();
  Kernel Result;
  Result.Inputs = Builder.takeInputs();
  Result.Code = Builder.takeCode();
  Result.OutputRegister = *OutputReg;
  Result.Type = Node.Type;
  Result.Census = countOperations(Result.Code);
  assert(Result.OutputRegister >= 0 && "empty kernel");
  return Result;
}

int Kernel::inputIndex(const std::string &Field, const Offset &Off) const {
  for (size_t I = 0, E = Inputs.size(); I != E; ++I)
    if (Inputs[I].Field == Field && Inputs[I].Off == Off)
      return static_cast<int>(I);
  return -1;
}

double Kernel::evaluate(const double *InputValues, double *Scratch) const {
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    const Instruction &Inst = Code[I];
    double Result;
    switch (Inst.Op) {
    case OpCode::Const:
      Result = Inst.Constant; // Already rounded at compile time.
      Scratch[I] = Result;
      continue;
    case OpCode::Input:
      Result = roundToType(
          InputValues[static_cast<size_t>(Inst.InputIndex)], Type);
      Scratch[I] = Result;
      continue;
    default:
      Result = evalOpUnrounded(Inst.Op, Scratch[Inst.A],
                               Inst.B >= 0 ? Scratch[Inst.B] : 0.0,
                               Inst.C >= 0 ? Scratch[Inst.C] : 0.0);
      Scratch[I] = roundToType(Result, Type);
    }
  }
  return Scratch[static_cast<size_t>(OutputRegister)];
}

double Kernel::evaluate(const std::vector<double> &InputValues) const {
  assert(InputValues.size() == Inputs.size() && "wrong number of inputs");
  std::vector<double> Scratch(Code.size());
  return evaluate(InputValues.data(), Scratch.data());
}

int64_t Kernel::criticalPathLatency(const LatencyTable &Latencies) const {
  std::vector<int64_t> Depth(Code.size(), 0);
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    const Instruction &Inst = Code[I];
    int64_t OperandDepth = 0;
    if (Inst.A >= 0)
      OperandDepth = std::max(OperandDepth, Depth[Inst.A]);
    if (Inst.B >= 0)
      OperandDepth = std::max(OperandDepth, Depth[Inst.B]);
    if (Inst.C >= 0)
      OperandDepth = std::max(OperandDepth, Depth[Inst.C]);
    Depth[I] = OperandDepth + Latencies.latency(Inst.Op);
  }
  return Depth[static_cast<size_t>(OutputRegister)];
}

std::string Kernel::dump() const {
  std::string Result;
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    const Instruction &Inst = Code[I];
    Result += formatString("r%zu = %s", I,
                           std::string(opCodeName(Inst.Op)).c_str());
    if (Inst.Op == OpCode::Const) {
      Result += formatString(" %g", Inst.Constant);
    } else if (Inst.Op == OpCode::Input) {
      const KernelInput &Input = Inputs[static_cast<size_t>(Inst.InputIndex)];
      Result += formatString(" %s%s", Input.Field.c_str(),
                             Input.Off.empty()
                                 ? ""
                                 : offsetToString(Input.Off).c_str());
    } else {
      if (Inst.A >= 0)
        Result += formatString(" r%d", Inst.A);
      if (Inst.B >= 0)
        Result += formatString(" r%d", Inst.B);
      if (Inst.C >= 0)
        Result += formatString(" r%d", Inst.C);
    }
    if (static_cast<int>(I) == OutputRegister)
      Result += "  ; output";
    Result += "\n";
  }
  return Result;
}
