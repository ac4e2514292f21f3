//===- core/CompiledProgram.h - Program + compiled kernels --------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stencil program together with its per-node compiled kernels and
/// topological order — the common substrate the analyses, code generators,
/// simulator and reference executor all operate on.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_COMPILEDPROGRAM_H
#define STENCILFLOW_CORE_COMPILEDPROGRAM_H

#include "compute/Kernel.h"
#include "ir/StencilProgram.h"
#include "support/Error.h"

#include <vector>

namespace stencilflow {

/// A validated stencil program with one compiled kernel per node.
class CompiledProgram {
public:
  /// Validates \p Program and compiles every node.
  static Expected<CompiledProgram>
  compile(StencilProgram Program,
          const compute::KernelOptions &Options = {});

  /// A copy of this program at vectorization width \p Width: the program
  /// is cloned and re-validated at the new width, and the kernels and
  /// topological order are copied, since neither depends on the width.
  Expected<CompiledProgram> withVectorWidth(int Width) const;

  const StencilProgram &program() const { return Program; }
  StencilProgram &program() { return Program; }

  /// Kernel of node \p Index (program().Nodes order).
  const compute::Kernel &kernel(size_t Index) const {
    assert(Index < Kernels.size() && "node index out of range");
    return Kernels[Index];
  }

  /// Kernel of the node named \p Name; the node must exist.
  const compute::Kernel &kernelFor(const std::string &Name) const;

  /// Node indices in topological order.
  const std::vector<size_t> &topologicalOrder() const { return TopoOrder; }

  /// Aggregate per-cell operation census over all nodes (Sec. IX-A).
  compute::OpCensus totalCensus() const;

private:
  StencilProgram Program;
  std::vector<compute::Kernel> Kernels;
  std::vector<size_t> TopoOrder;
};

} // namespace stencilflow

#endif // STENCILFLOW_CORE_COMPILEDPROGRAM_H
