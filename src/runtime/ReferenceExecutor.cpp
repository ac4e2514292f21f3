//===- runtime/ReferenceExecutor.cpp - Sequential CPU reference --------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ReferenceExecutor.h"

#include "core/ValidRegion.h"

#include <thread>

using namespace stencilflow;

namespace {

/// Precomputed access plan for one kernel input slot.
struct SlotPlan {
  const std::vector<double> *Data = nullptr;
  /// Program dimensions the field spans.
  std::vector<size_t> SpannedDims;
  /// Offset per spanned dimension.
  std::vector<int64_t> Offsets;
  /// Extents and row-major strides of the field's own shape.
  std::vector<int64_t> Extents;
  std::vector<int64_t> Strides;
  /// Boundary handling.
  BoundaryKind Boundary = BoundaryKind::Constant;
  double BoundaryValue = 0.0;

  /// Reads the slot's value for center \p Index (program-rank index).
  double read(const std::vector<int64_t> &Index) const {
    int64_t Linear = 0;
    bool InBounds = true;
    for (size_t Dim = 0, E = SpannedDims.size(); Dim != E; ++Dim) {
      int64_t Component = Index[SpannedDims[Dim]] + Offsets[Dim];
      if (Component < 0 || Component >= Extents[Dim]) {
        InBounds = false;
        break;
      }
      Linear += Component * Strides[Dim];
    }
    if (InBounds)
      return (*Data)[static_cast<size_t>(Linear)];
    if (Boundary == BoundaryKind::Constant)
      return BoundaryValue;
    // Copy: the value at offset 0 in all dimensions. The projected center
    // is always in bounds.
    int64_t Center = 0;
    for (size_t Dim = 0, E = SpannedDims.size(); Dim != E; ++Dim)
      Center += Index[SpannedDims[Dim]] * Strides[Dim];
    return (*Data)[static_cast<size_t>(Center)];
  }
};

/// Builds the slot plans for one node against the current field arrays.
std::vector<SlotPlan>
buildPlans(const StencilProgram &Program, const StencilNode &Node,
           const compute::Kernel &Kernel,
           const std::map<std::string, std::vector<double>> &Fields) {
  std::vector<SlotPlan> Plans;
  Plans.reserve(Kernel.inputs().size());
  for (const compute::KernelInput &Slot : Kernel.inputs()) {
    SlotPlan Plan;
    auto It = Fields.find(Slot.Field);
    assert(It != Fields.end() && "topological execution order violated");
    Plan.Data = &It->second;

    const std::vector<bool> &Mask = Program.fieldDimensionMask(Slot.Field);
    for (size_t Dim = 0; Dim != Mask.size(); ++Dim)
      if (Mask[Dim])
        Plan.SpannedDims.push_back(Dim);
    assert(Slot.Off.size() == Plan.SpannedDims.size() &&
           "offset rank mismatch survived validation");
    for (int Component : Slot.Off)
      Plan.Offsets.push_back(Component);

    Shape FieldShape = Program.fieldShape(Slot.Field);
    Plan.Extents = FieldShape.extents();
    Plan.Strides.assign(Plan.Extents.size(), 1);
    for (size_t Dim = Plan.Extents.size(); Dim-- > 1;)
      Plan.Strides[Dim - 1] = Plan.Strides[Dim] * Plan.Extents[Dim];

    BoundaryCondition Boundary = Node.boundaryFor(Slot.Field);
    Plan.Boundary = Boundary.Kind;
    Plan.BoundaryValue = Boundary.Value;
    Plans.push_back(std::move(Plan));
  }
  return Plans;
}

/// Evaluates node cells in [Begin, End) (linear cell range).
void evaluateRange(const StencilProgram &Program, const StencilNode &Node,
                   const compute::Kernel &Kernel,
                   const std::vector<SlotPlan> &Plans,
                   const ValidRegion &Region, int64_t Begin, int64_t End,
                   std::vector<double> &Output) {
  const Shape &Space = Program.IterationSpace;
  std::vector<int64_t> Index = Space.delinearize(Begin);
  std::vector<double> InputValues(Plans.size());
  std::vector<double> Scratch(Kernel.instructions().size());

  for (int64_t Cell = Begin; Cell != End; ++Cell) {
    for (size_t Slot = 0, E = Plans.size(); Slot != E; ++Slot)
      InputValues[Slot] = Plans[Slot].read(Index);
    double Value = Kernel.evaluate(InputValues.data(), Scratch.data());
    if (!Node.ShrinkOutput || Region.contains(Index))
      Output[static_cast<size_t>(Cell)] = Value;

    // Increment the multi-dimensional index (row-major).
    for (size_t Dim = Space.rank(); Dim-- > 0;) {
      if (++Index[Dim] < Space.extent(Dim))
        break;
      Index[Dim] = 0;
    }
  }
}

Expected<ExecutionResult>
run(const CompiledProgram &Compiled,
    const std::map<std::string, std::vector<double>> &Inputs, int Threads) {
  const StencilProgram &Program = Compiled.program();
  ExecutionResult Result;

  for (const Field &Input : Program.Inputs) {
    auto It = Inputs.find(Input.Name);
    if (It == Inputs.end())
      return makeError("missing data for input field '" + Input.Name + "'");
    int64_t ExpectedCells =
        Input.shapeWithin(Program.IterationSpace).numCells();
    if (static_cast<int64_t>(It->second.size()) != ExpectedCells)
      return makeError("input field '" + Input.Name +
                       "' has the wrong number of cells");
    Result.Fields[Input.Name] = It->second;
  }

  int64_t Cells = Program.IterationSpace.numCells();
  for (size_t NodeIndex : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[NodeIndex];
    const compute::Kernel &Kernel = Compiled.kernel(NodeIndex);
    std::vector<SlotPlan> Plans =
        buildPlans(Program, Node, Kernel, Result.Fields);
    ValidRegion Region = computeValidRegion(Program, Node);
    std::vector<double> Output(static_cast<size_t>(Cells), 0.0);

    if (Threads <= 1) {
      evaluateRange(Program, Node, Kernel, Plans, Region, 0, Cells, Output);
    } else {
      std::vector<std::thread> Workers;
      int64_t Chunk = (Cells + Threads - 1) / Threads;
      for (int T = 0; T < Threads; ++T) {
        int64_t Begin = T * Chunk;
        int64_t End = std::min(Cells, Begin + Chunk);
        if (Begin >= End)
          break;
        Workers.emplace_back([&, Begin, End] {
          evaluateRange(Program, Node, Kernel, Plans, Region, Begin, End,
                        Output);
        });
      }
      for (std::thread &Worker : Workers)
        Worker.join();
    }
    Result.Fields[Node.Name] = std::move(Output);
  }
  return Result;
}

} // namespace

Expected<ExecutionResult> stencilflow::runReference(
    const CompiledProgram &Compiled,
    const std::map<std::string, std::vector<double>> &Inputs) {
  return run(Compiled, Inputs, 1);
}

Expected<ExecutionResult> stencilflow::runReferenceParallel(
    const CompiledProgram &Compiled,
    const std::map<std::string, std::vector<double>> &Inputs, int Threads) {
  return run(Compiled, Inputs, Threads);
}
