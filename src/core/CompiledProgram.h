//===- core/CompiledProgram.h - Program + compiled kernels --------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stencil program together with its per-node compiled kernels,
/// topological order and vectorization width — the common substrate the
/// analyses, code generators, simulator and reference executor all operate
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_COMPILEDPROGRAM_H
#define STENCILFLOW_CORE_COMPILEDPROGRAM_H

#include "compute/Kernel.h"
#include "ir/StencilProgram.h"
#include "support/Error.h"

#include <memory>
#include <vector>

namespace stencilflow {

/// A validated stencil program with one compiled kernel per node, viewed
/// at one vectorization width.
///
/// The program, its kernels and its topological order do not depend on the
/// width (Sec. IV-C widens the lanes of a fixed dataflow graph), so they
/// are held as shared immutable state: copies and \c withVectorWidth views
/// share them, and only \c vectorWidth() is per object. Every width-
/// dependent analysis reads \c vectorWidth(), never
/// \c program().VectorWidth, which stays the width the program was
/// compiled at.
class CompiledProgram {
public:
  /// An empty program (no nodes) at width 1.
  CompiledProgram();

  /// Validates \p Program and compiles every node. The view's width is
  /// the program's \c VectorWidth.
  static Expected<CompiledProgram>
  compile(StencilProgram Program,
          const compute::KernelOptions &Options = {});

  /// As above, for a program shared with other owners: the compiled
  /// program shares \p Program instead of copying it.
  static Expected<CompiledProgram>
  compile(std::shared_ptr<const StencilProgram> Program,
          const compute::KernelOptions &Options = {});

  /// This program viewed at vectorization width \p Width: only the width
  /// checks of \c StencilProgram::validate run again (same messages); the
  /// program, kernels and topological order are shared, not copied.
  Expected<CompiledProgram> withVectorWidth(int Width) const;

  const StencilProgram &program() const { return *Shared->Program; }

  /// Vectorization width W of this view.
  int vectorWidth() const { return Width; }

  /// Kernel of node \p Index (program().Nodes order).
  const compute::Kernel &kernel(size_t Index) const {
    assert(Index < Shared->Kernels.size() && "node index out of range");
    return Shared->Kernels[Index];
  }

  /// Kernel of the node named \p Name; the node must exist.
  const compute::Kernel &kernelFor(const std::string &Name) const;

  /// Node indices in topological order.
  const std::vector<size_t> &topologicalOrder() const {
    return Shared->TopoOrder;
  }

  /// Aggregate per-cell operation census over all nodes (Sec. IX-A).
  compute::OpCensus totalCensus() const;

private:
  struct State {
    std::shared_ptr<const StencilProgram> Program;
    std::vector<compute::Kernel> Kernels;
    std::vector<size_t> TopoOrder;
  };

  std::shared_ptr<const State> Shared;
  int Width = 1;
};

} // namespace stencilflow

#endif // STENCILFLOW_CORE_COMPILEDPROGRAM_H
