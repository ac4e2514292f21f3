//===- core/CompiledProgram.cpp - Program + compiled kernels -----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CompiledProgram.h"

using namespace stencilflow;

Expected<CompiledProgram>
CompiledProgram::compile(StencilProgram Program,
                         const compute::KernelOptions &Options) {
  if (Error Err = Program.validate())
    return Err;
  CompiledProgram Result;
  Result.Program = std::move(Program);
  Result.Kernels.reserve(Result.Program.Nodes.size());
  for (const StencilNode &Node : Result.Program.Nodes) {
    Expected<compute::Kernel> Compiled = compute::Kernel::compile(Node,
                                                                  Options);
    if (!Compiled)
      return Compiled.takeError();
    Result.Kernels.push_back(Compiled.takeValue());
  }
  Expected<std::vector<size_t>> Order = Result.Program.topologicalOrder();
  if (!Order)
    return Order.takeError();
  Result.TopoOrder = Order.takeValue();
  return Result;
}

Expected<CompiledProgram>
CompiledProgram::withVectorWidth(int Width) const {
  CompiledProgram Result;
  Result.Program = Program.clone();
  Result.Program.VectorWidth = Width;
  if (Error Err = Result.Program.validate())
    return Err;
  Result.Kernels = Kernels;
  Result.TopoOrder = TopoOrder;
  return Result;
}

const compute::Kernel &
CompiledProgram::kernelFor(const std::string &Name) const {
  int Index = Program.nodeIndex(Name);
  assert(Index >= 0 && "kernelFor() of an unknown node");
  return Kernels[static_cast<size_t>(Index)];
}

compute::OpCensus CompiledProgram::totalCensus() const {
  compute::OpCensus Census;
  for (const compute::Kernel &Kern : Kernels)
    Census += Kern.census();
  return Census;
}
