//===- compute/Engine.h - Lane-batched kernel execution engine ----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel execution engine: evaluates a compiled stencil kernel for all
/// W vector lanes of a cycle at once instead of lane-by-lane. The paper's
/// performance model assumes fully pipelined W-lane vectorized units
/// (Sec. VI); the simulator mirrors that by amortizing the per-instruction
/// dispatch over the whole vector and keeping the register file in
/// structure-of-arrays layout so the per-lane inner loops autovectorize.
///
/// Two requestable tiers, selected by \c KernelEngine:
///
///  - \b Scalar: delegates to Kernel::evaluate per lane. The reference
///    implementation the other tier must match bit-for-bit.
///  - \b Specialized: compiles the kernel to a tape (constant folding,
///    dead-register elimination, multiply-add fusion, register
///    renumbering) and pattern-matches pure weighted-sum / Laplacian
///    accumulator chains (the dominant stencil shape) into a
///    pre-templated native evaluator. Kernels that do not match run the
///    fused tape once per vector with one dispatch per instruction and
///    report the effective tier \b Batched.
///
/// Simulated cycles do not depend on the tier; it only changes host speed.
///
/// Bit-exactness contract: every tier performs the same operations in the
/// same order with the same per-operation rounding (\c roundToType) as the
/// scalar interpreter, including padding lanes. Fused multiply-adds keep
/// both intermediate roundings (round(a + round(b*c))), and the translation
/// unit is built with -ffp-contract=off so the compiler cannot contract
/// them into hardware FMAs.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_COMPUTE_ENGINE_H
#define STENCILFLOW_COMPUTE_ENGINE_H

#include "compute/Kernel.h"
#include "support/Error.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace stencilflow {
namespace compute {

/// Which kernel execution tier the simulator uses.
enum class KernelEngine : uint8_t {
  Scalar,      ///< Per-lane reference interpreter (Kernel::evaluate).
  Batched,     ///< Effective tier only: the fused tape a Specialized
               ///< request runs when no chain matches.
  Specialized, ///< Weighted-sum chain, else the fused tape.
};

/// Returns a printable name ("scalar", "batched", "specialized").
const char *kernelEngineName(KernelEngine Engine);

/// Parses a --kernel-engine value: exactly "scalar" or "specialized".
/// Anything else, including the retired "batched", "jit" and "auto", is
/// an ErrorCode::InvalidInput error naming the accepted values.
Expected<KernelEngine> parseKernelEngine(std::string_view Name);

/// One compiled tape operation. Mirrors compute::OpCode with three fused
/// superinstructions appended; \c Dst is explicit because dead-register
/// elimination renumbers the register file.
struct TapeOp {
  enum class Kind : uint8_t {
    // Keep in sync with OpCode (static_assert in Engine.cpp).
    Const,
    Input,
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
    Select,
    MulAdd,  ///< dst = round(a + round(b*c))
    MulSub,  ///< dst = round(a - round(b*c))
    MulRSub, ///< dst = round(round(b*c) - a)
  };

  Kind Op = Kind::Const;
  int32_t Dst = -1;
  int32_t A = -1;
  int32_t B = -1;
  int32_t C = -1;
  int32_t InputIndex = -1;
  double Constant = 0.0;
};

/// One term of a specialized weighted-sum accumulator chain. A leaf operand
/// is either a kernel input slot (rounded on load; rounding is idempotent so
/// this matches the tape's explicit Input instruction) or a pre-rounded
/// constant.
struct ChainTerm {
  enum class Kind : uint8_t {
    Init,   ///< acc = X
    Add,    ///< acc = round(acc + X)
    Sub,    ///< acc = round(acc - X)
    RSub,   ///< acc = round(X - acc)
    Mul,    ///< acc = round(acc * X)
    MulAdd, ///< acc = round(acc + round(X*Y))
    MulSub, ///< acc = round(acc - round(X*Y))
    MulRSub ///< acc = round(round(X*Y) - acc)
  };

  Kind Op = Kind::Init;
  int32_t XInput = -1; ///< Input slot of X, or -1 if X is XConst.
  int32_t YInput = -1; ///< Input slot of Y, or -1 if Y is YConst.
  double XConst = 0.0;
  double YConst = 0.0;
};

/// A kernel compiled for one execution tier at a fixed vector width.
///
/// The evaluator is immutable after compile() and holds no mutable state,
/// so one instance may be shared by concurrent shards as long as each call
/// site passes its own scratch buffer.
class KernelEvaluator {
public:
  KernelEvaluator() = default;

  /// Compiles \p Krn for \p Engine at vector width \p Lanes. Never fails:
  /// every engine but Scalar compiles the fused tape and specializes it
  /// when the chain pattern matches. The *effective* tier is always
  /// observable through \c tier().
  static KernelEvaluator compile(const Kernel &Krn, KernelEngine Engine,
                                 int Lanes);

  /// The tier that actually executes: Scalar, Specialized when the chain
  /// matched, otherwise Batched.
  KernelEngine tier() const { return Tier; }

  /// Name of the matched specialization ("weighted-sum-chain"), or empty.
  std::string_view specialization() const { return Specialization; }

  /// Scratch doubles evaluate() needs (may be zero for specialized tiers).
  size_t scratchDoubles() const { return ScratchDoubles; }

  /// Instructions in the compiled tape (post folding/fusion/DRE). For the
  /// scalar tier this is the original kernel tape length.
  size_t tapeLength() const { return TapeLen; }

  /// Vector width this evaluator was compiled for.
  int lanes() const { return Lanes; }

  /// Evaluates all lanes of one cycle. \p SoAInputs holds the gathered
  /// input slots in structure-of-arrays layout (slot-major:
  /// SoAInputs[Slot * Lanes + Lane]); \p Out receives lanes() results;
  /// \p Scratch must have at least scratchDoubles() entries.
  void evaluate(const double *SoAInputs, double *Out, double *Scratch) const;

private:
  const Kernel *Krn = nullptr; ///< Scalar tier delegate.
  KernelEngine Tier = KernelEngine::Scalar;
  int Lanes = 1;
  DataType Type = DataType::Float32;
  int32_t OutReg = -1;
  int32_t NumInputs = 0;
  size_t ScratchDoubles = 0;
  size_t TapeLen = 0;
  std::vector<TapeOp> Ops;        ///< Batched tape.
  std::vector<ChainTerm> Chain;   ///< Specialized chain (if matched).
  std::string_view Specialization; ///< Static string; never dangles.
};

} // namespace compute
} // namespace stencilflow

#endif // STENCILFLOW_COMPUTE_ENGINE_H
