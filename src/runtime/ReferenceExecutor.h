//===- runtime/ReferenceExecutor.h - Sequential CPU reference -----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference CPU execution of stencil programs (paper Sec. VI-C): stencil
/// evaluations are executed sequentially in topological order — no fusion
/// or parallelism between stencil evaluations — over full arrays, and are
/// used to verify the generated hardware (here: simulated) kernels.
///
/// Each node is evaluated a block of cells at a time: a block holds up to
/// a fixed number of consecutive cells, filled row by row along the
/// innermost dimension. Every input slot reads its row segment from a
/// precomputed base and stride, and only the cells past a field edge take
/// the bounds-checked boundary path. Each instruction of the node's
/// kernel then runs across the whole block, with the per-operation
/// arithmetic and rounding of compute/Bytecode.h that the scalar
/// interpreter (\c compute::Kernel::evaluate) uses, so results are
/// bit-identical to evaluating cell by cell.
///
/// The oracle never goes through the simulator's \c KernelEvaluator or its
/// fused tape: a defect in the tape's batching, fusion or chain matching
/// shows up as a mismatch instead of being shared by both sides.
///
/// A multi-threaded variant splitting each node's cells into contiguous
/// ranges (which may split rows) is provided as the load/store-architecture
/// comparator for the application study (Tab. II "Xeon 12C" row).
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_RUNTIME_REFERENCEEXECUTOR_H
#define STENCILFLOW_RUNTIME_REFERENCEEXECUTOR_H

#include "core/CompiledProgram.h"
#include "support/Error.h"

#include <map>
#include <string>
#include <vector>

namespace stencilflow {

/// Results of a program execution: one array per field (inputs and all
/// node outputs), in row-major memory order.
struct ExecutionResult {
  std::map<std::string, std::vector<double>> Fields;

  /// Returns the array for \p Name; it must exist.
  const std::vector<double> &field(const std::string &Name) const {
    auto It = Fields.find(Name);
    assert(It != Fields.end() && "field() of an unknown field");
    return It->second;
  }
};

/// Executes \p Compiled sequentially with the given inputs (from
/// materializeInputs or custom data). Missing inputs are an error.
Expected<ExecutionResult>
runReference(const CompiledProgram &Compiled,
             const std::map<std::string, std::vector<double>> &Inputs);

/// Multi-threaded execution: each stencil is still evaluated in topological
/// order, but its cells are split into \p Threads contiguous ranges in
/// row-major order, one per worker thread. Results are bit-identical to
/// runReference.
Expected<ExecutionResult>
runReferenceParallel(const CompiledProgram &Compiled,
                     const std::map<std::string, std::vector<double>> &Inputs,
                     int Threads);

} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_REFERENCEEXECUTOR_H
