//===- core/CompiledProgram.cpp - Program + compiled kernels -----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CompiledProgram.h"

using namespace stencilflow;

CompiledProgram::CompiledProgram() {
  static const std::shared_ptr<const State> Empty = [] {
    auto Empty = std::make_shared<State>();
    Empty->Program = std::make_shared<const StencilProgram>();
    return Empty;
  }();
  Shared = Empty;
}

Expected<CompiledProgram>
CompiledProgram::compile(StencilProgram Program,
                         const compute::KernelOptions &Options) {
  return compile(std::make_shared<const StencilProgram>(std::move(Program)),
                 Options);
}

Expected<CompiledProgram>
CompiledProgram::compile(std::shared_ptr<const StencilProgram> Program,
                         const compute::KernelOptions &Options) {
  if (Error Err = Program->validate())
    return Err;
  auto Compiled = std::make_shared<State>();
  Compiled->Kernels.reserve(Program->Nodes.size());
  for (const StencilNode &Node : Program->Nodes) {
    Expected<compute::Kernel> Kernel = compute::Kernel::compile(Node,
                                                                Options);
    if (!Kernel)
      return Kernel.takeError();
    Compiled->Kernels.push_back(Kernel.takeValue());
  }
  Expected<std::vector<size_t>> Order = Program->topologicalOrder();
  if (!Order)
    return Order.takeError();
  Compiled->TopoOrder = Order.takeValue();
  Compiled->Program = std::move(Program);

  CompiledProgram Result;
  Result.Width = Compiled->Program->VectorWidth;
  Result.Shared = std::move(Compiled);
  return Result;
}

Expected<CompiledProgram>
CompiledProgram::withVectorWidth(int Width) const {
  if (Error Err = program().checkVectorWidth(Width))
    return Err;
  CompiledProgram Result = *this;
  Result.Width = Width;
  return Result;
}

const compute::Kernel &
CompiledProgram::kernelFor(const std::string &Name) const {
  int Index = program().nodeIndex(Name);
  assert(Index >= 0 && "kernelFor() of an unknown node");
  return kernel(static_cast<size_t>(Index));
}

compute::OpCensus CompiledProgram::totalCensus() const {
  compute::OpCensus Census;
  for (const compute::Kernel &Kern : Shared->Kernels)
    Census += Kern.census();
  return Census;
}
