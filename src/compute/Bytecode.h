//===- compute/Bytecode.h - Stencil compute bytecode -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear, SSA-style instruction form that stencil ASTs are compiled
/// into. This "tape" is what both the reference executor and the hardware
/// simulator evaluate per cell, and it is the basis for the critical-path
/// latency computation (paper Sec. IV-B: "the AST formed by computation of
/// a stencil operation forms another DAG, whose critical path adds a delay
/// between a sequence of inputs entering and exiting the pipeline") and the
/// operation census of Sec. IX-A.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_COMPUTE_BYTECODE_H
#define STENCILFLOW_COMPUTE_BYTECODE_H

#include "ir/DataType.h"
#include "ir/Expr.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace stencilflow {
namespace compute {

/// Bytecode operations. Instruction I writes register I (pure SSA).
enum class OpCode {
  Const,  ///< Register <- immediate constant.
  Input,  ///< Register <- kernel input slot (one (field, offset) pair).
  Neg,
  Not,
  Add,
  Sub,
  Mul,
  Div,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
  Sqrt,
  Abs,
  Exp,
  Log,
  Sin,
  Cos,
  Tanh,
  Floor,
  Ceil,
  Min,
  Max,
  Pow,
  Select ///< Register <- A != 0 ? B : C (data-dependent branch).
};

/// Number of opcodes; Select is the last.
constexpr size_t NumOpCodes = static_cast<size_t>(OpCode::Select) + 1;

/// Returns a printable mnemonic for \p Op.
std::string_view opCodeName(OpCode Op);

/// Rounds \p Value to \p Type's precision. Float32 kernels round every
/// intermediate to float, matching the per-operation rounding of hardware
/// fp32 units (and of the fp32 OpenCL kernels the real system generates).
template <DataType Type> inline double roundTo(double Value) {
  if constexpr (Type == DataType::Float32)
    return static_cast<double>(static_cast<float>(Value));
  else if constexpr (Type == DataType::Int32)
    return static_cast<double>(static_cast<int32_t>(Value));
  else if constexpr (Type == DataType::Int64)
    return static_cast<double>(static_cast<int64_t>(Value));
  else
    return Value;
}

/// \c roundTo for a run-time \p Type. Shared by the scalar interpreter,
/// the row-at-a-time reference executor, the lane-batched engine
/// (compute/Engine.h), and compile-time constant folding, so all of them
/// produce bit-identical values.
inline double roundToType(double Value, DataType Type) {
  switch (Type) {
  case DataType::Float32:
    return roundTo<DataType::Float32>(Value);
  case DataType::Float64:
    return roundTo<DataType::Float64>(Value);
  case DataType::Int32:
    return roundTo<DataType::Int32>(Value);
  case DataType::Int64:
    return roundTo<DataType::Int64>(Value);
  }
  return Value;
}

/// The semantics of computing opcode \p Op on already-rounded operands,
/// without rounding the result: the one definition of every operation
/// that the scalar interpreter, the reference executor and constant
/// folding evaluate. Unary operations ignore \p B and \p C, binary ones
/// \p C.
template <OpCode Op> inline double applyOp(double A, double B, double C) {
  static_assert(Op != OpCode::Const && Op != OpCode::Input,
                "applyOp of a non-computing opcode");
  if constexpr (Op == OpCode::Neg)
    return -A;
  else if constexpr (Op == OpCode::Not)
    return A == 0.0 ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Add)
    return A + B;
  else if constexpr (Op == OpCode::Sub)
    return A - B;
  else if constexpr (Op == OpCode::Mul)
    return A * B;
  else if constexpr (Op == OpCode::Div)
    return A / B;
  else if constexpr (Op == OpCode::Lt)
    return A < B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Le)
    return A <= B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Gt)
    return A > B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Ge)
    return A >= B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Eq)
    return A == B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Ne)
    return A != B ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::And)
    return (A != 0.0 && B != 0.0) ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Or)
    return (A != 0.0 || B != 0.0) ? 1.0 : 0.0;
  else if constexpr (Op == OpCode::Sqrt)
    return std::sqrt(A);
  else if constexpr (Op == OpCode::Abs)
    return std::fabs(A);
  else if constexpr (Op == OpCode::Exp)
    return std::exp(A);
  else if constexpr (Op == OpCode::Log)
    return std::log(A);
  else if constexpr (Op == OpCode::Sin)
    return std::sin(A);
  else if constexpr (Op == OpCode::Cos)
    return std::cos(A);
  else if constexpr (Op == OpCode::Tanh)
    return std::tanh(A);
  else if constexpr (Op == OpCode::Floor)
    return std::floor(A);
  else if constexpr (Op == OpCode::Ceil)
    return std::ceil(A);
  else if constexpr (Op == OpCode::Min)
    return std::fmin(A, B);
  else if constexpr (Op == OpCode::Max)
    return std::fmax(A, B);
  else if constexpr (Op == OpCode::Pow)
    return std::pow(A, B);
  else
    return A != 0.0 ? B : C; // Select.
}

/// Calls \p F with \c std::integral_constant<OpCode, Op> for the
/// computing opcode \p Op, so a loop inside \p F is compiled once per
/// operation. Must not be called with OpCode::Const or OpCode::Input.
template <typename Fn> inline void visitOp(OpCode Op, Fn &&F) {
  using enum OpCode;
  switch (Op) {
  case Neg:
    return F(std::integral_constant<OpCode, Neg>());
  case Not:
    return F(std::integral_constant<OpCode, Not>());
  case Add:
    return F(std::integral_constant<OpCode, Add>());
  case Sub:
    return F(std::integral_constant<OpCode, Sub>());
  case Mul:
    return F(std::integral_constant<OpCode, Mul>());
  case Div:
    return F(std::integral_constant<OpCode, Div>());
  case Lt:
    return F(std::integral_constant<OpCode, Lt>());
  case Le:
    return F(std::integral_constant<OpCode, Le>());
  case Gt:
    return F(std::integral_constant<OpCode, Gt>());
  case Ge:
    return F(std::integral_constant<OpCode, Ge>());
  case Eq:
    return F(std::integral_constant<OpCode, Eq>());
  case Ne:
    return F(std::integral_constant<OpCode, Ne>());
  case And:
    return F(std::integral_constant<OpCode, And>());
  case Or:
    return F(std::integral_constant<OpCode, Or>());
  case Sqrt:
    return F(std::integral_constant<OpCode, Sqrt>());
  case Abs:
    return F(std::integral_constant<OpCode, Abs>());
  case Exp:
    return F(std::integral_constant<OpCode, Exp>());
  case Log:
    return F(std::integral_constant<OpCode, Log>());
  case Sin:
    return F(std::integral_constant<OpCode, Sin>());
  case Cos:
    return F(std::integral_constant<OpCode, Cos>());
  case Tanh:
    return F(std::integral_constant<OpCode, Tanh>());
  case Floor:
    return F(std::integral_constant<OpCode, Floor>());
  case Ceil:
    return F(std::integral_constant<OpCode, Ceil>());
  case Min:
    return F(std::integral_constant<OpCode, Min>());
  case Max:
    return F(std::integral_constant<OpCode, Max>());
  case Pow:
    return F(std::integral_constant<OpCode, Pow>());
  case Select:
    return F(std::integral_constant<OpCode, Select>());
  case Const:
  case Input:
    break;
  }
  assert(false && "visitOp on a non-computing opcode");
}

/// Evaluates one computing operation on already-rounded operands, without
/// rounding the result (the caller applies \c roundToType). Must not be
/// called with OpCode::Const or OpCode::Input.
inline double evalOpUnrounded(OpCode Op, double A, double B, double C) {
  double Result = 0.0;
  visitOp(Op, [&](auto Code) {
    Result = applyOp<decltype(Code)::value>(A, B, C);
  });
  return Result;
}

/// One bytecode instruction. Operand fields A/B/C index earlier registers.
struct Instruction {
  OpCode Op = OpCode::Const;
  int A = -1;
  int B = -1;
  int C = -1;
  double Constant = 0.0; ///< Immediate for OpCode::Const.
  int InputIndex = -1;   ///< Slot for OpCode::Input.
};

/// Per-operation pipeline latencies in cycles.
///
/// Latencies are "both type and architecture dependent ... provided as
/// configuration to the framework, and default to conservative values"
/// (Sec. IV-B). The defaults model hardened fp32 arithmetic on a
/// Stratix 10-class device.
class LatencyTable {
public:
  /// Builds the default (conservative) table.
  LatencyTable();

  /// Latency in cycles of \p Op.
  int64_t latency(OpCode Op) const {
    return Latencies[static_cast<size_t>(Op)];
  }

  /// Overrides the latency of \p Op.
  void setLatency(OpCode Op, int64_t Cycles) {
    Latencies[static_cast<size_t>(Op)] = Cycles;
  }

private:
  std::array<int64_t, NumOpCodes> Latencies{};
};

/// Operation counts of a compiled kernel, following the accounting of
/// Sec. IX-A: additions and subtractions count as additions; min/max,
/// comparisons and branches are tracked separately and excluded from the
/// floating-point operation count.
struct OpCensus {
  int64_t Additions = 0;       ///< Add + Sub.
  int64_t Multiplications = 0; ///< Mul.
  int64_t Divisions = 0;       ///< Div.
  int64_t SquareRoots = 0;     ///< Sqrt.
  int64_t MinMax = 0;          ///< Min + Max.
  int64_t Comparisons = 0;     ///< Lt/Le/Gt/Ge/Eq/Ne.
  int64_t Branches = 0;        ///< Select (data-dependent branches).
  int64_t Transcendental = 0;  ///< Exp/Log/Sin/Cos/Tanh/Pow.
  int64_t Other = 0;           ///< Neg/Not/Floor/Ceil/And/Or.

  /// Floating-point operations in the paper's accounting (Eq. 2 counts
  /// additions + multiplications + square roots; we include divisions and
  /// transcendentals for programs that use them).
  int64_t flops() const {
    return Additions + Multiplications + Divisions + SquareRoots +
           Transcendental;
  }

  /// Total operations of any kind.
  int64_t total() const {
    return Additions + Multiplications + Divisions + SquareRoots + MinMax +
           Comparisons + Branches + Transcendental + Other;
  }

  OpCensus &operator+=(const OpCensus &Other);
};

} // namespace compute
} // namespace stencilflow

#endif // STENCILFLOW_COMPUTE_BYTECODE_H
