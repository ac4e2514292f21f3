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
#include <cstddef>
#include <cstdint>
#include <string>

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
/// Shared by the scalar interpreter, the lane-batched engine
/// (compute/Engine.h), and compile-time constant folding, so all three
/// produce bit-identical values.
double roundToType(double Value, DataType Type);

/// Evaluates one computing operation on already-rounded operands, without
/// rounding the result (the caller applies \c roundToType). Must not be
/// called with OpCode::Const or OpCode::Input.
double evalOpUnrounded(OpCode Op, double A, double B, double C);

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
