//===- runtime/ReferenceExecutor.cpp - Sequential CPU reference --------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ReferenceExecutor.h"

#include "core/ValidRegion.h"

#include <algorithm>
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

/// Where one slot reads along the row through a center index: the cell at
/// innermost index X reads Data[Base + X * Stride] when Lo <= X < Hi, and
/// takes the boundary path (\c SlotPlan::read) otherwise.
struct RowCursor {
  int64_t Base = 0;
  int64_t Stride = 0;
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// Positions \p Plan on the row through \p Index, whose innermost
/// component is ignored; the row has \p RowLength cells.
RowCursor seekRow(const SlotPlan &Plan, const std::vector<int64_t> &Index,
                  int64_t RowLength) {
  RowCursor Row;
  Row.Hi = RowLength;
  size_t Inner = Index.size() - 1;
  for (size_t Dim = 0, E = Plan.SpannedDims.size(); Dim != E; ++Dim) {
    int64_t Offset = Plan.Offsets[Dim];
    if (Plan.SpannedDims[Dim] == Inner) {
      Row.Stride = Plan.Strides[Dim];
      Row.Base += Offset * Row.Stride;
      Row.Lo = std::max<int64_t>(Row.Lo, -Offset);
      Row.Hi = std::min(Row.Hi, Plan.Extents[Dim] - Offset);
      continue;
    }
    int64_t Component = Index[Plan.SpannedDims[Dim]] + Offset;
    if (Component < 0 || Component >= Plan.Extents[Dim])
      Row.Hi = 0; // The whole row reads the boundary.
    Row.Base += Component * Plan.Strides[Dim];
  }
  Row.Hi = std::max(Row.Lo, Row.Hi);
  return Row;
}

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

/// Cells evaluated together. A block runs each instruction across all of
/// its cells before the next, so the register block holds
/// instructions() x BlockCells values whatever the row width.
constexpr int64_t BlockCells = 64;

/// Runs \p Code over the first \p N cells of a block: slot S's values are
/// SlotValues[S * BlockCells + L], and register I's are
/// Registers[I * BlockCells + L]. Each operation is \c compute::applyOp
/// rounded by \c compute::roundTo, as in \c Kernel::evaluate.
template <DataType Type>
void runBlock(const std::vector<compute::Instruction> &Code,
              const double *SlotValues, int64_t N, double *Registers) {
  static const double Zeros[BlockCells] = {};
  auto RegisterOf = [&](int Index) -> const double * {
    return Index >= 0 ? Registers + Index * BlockCells : Zeros;
  };
  for (size_t I = 0, E = Code.size(); I != E; ++I) {
    const compute::Instruction &Inst = Code[I];
    double *D = Registers + static_cast<int64_t>(I) * BlockCells;
    if (Inst.Op == compute::OpCode::Const) {
      std::fill(D, D + N, Inst.Constant); // Already rounded at compile time.
      continue;
    }
    if (Inst.Op == compute::OpCode::Input) {
      const double *S = SlotValues + Inst.InputIndex * BlockCells;
      for (int64_t L = 0; L != N; ++L)
        D[L] = compute::roundTo<Type>(S[L]);
      continue;
    }
    const double *A = RegisterOf(Inst.A);
    const double *B = RegisterOf(Inst.B);
    const double *C = RegisterOf(Inst.C);
    compute::visitOp(Inst.Op, [&](auto Op) {
      for (int64_t L = 0; L != N; ++L)
        D[L] = compute::roundTo<Type>(
            compute::applyOp<decltype(Op)::value>(A[L], B[L], C[L]));
    });
  }
}

/// Evaluates node cells in [Begin, End) (linear cell range) a block at a
/// time. A block fills with whole or partial rows of the innermost
/// dimension; each slot reads a row segment from its \c RowCursor, and
/// only the cells past a field edge take the boundary path.
template <DataType Type>
void evaluateRange(const StencilProgram &Program, const StencilNode &Node,
                   const compute::Kernel &Kernel,
                   const std::vector<SlotPlan> &Plans,
                   const ValidRegion &Region, int64_t Begin, int64_t End,
                   std::vector<double> &Output) {
  const Shape &Space = Program.IterationSpace;
  assert(Space.rank() >= 1 && "validated programs have rank 1 to 3");
  const size_t Inner = Space.rank() - 1;
  const int64_t RowLength = Space.extent(Inner);
  const std::vector<compute::Instruction> &Code = Kernel.instructions();
  std::vector<double> SlotValues(Plans.size() * BlockCells);
  std::vector<double> Registers(Code.size() * BlockCells);
  std::vector<RowCursor> Rows(Plans.size());
  bool Keep[BlockCells] = {};

  std::vector<int64_t> Index = Space.delinearize(Begin);
  bool RowStart = true;
  for (int64_t Cell = Begin; Cell != End;) {
    int64_t N = 0;
    while (N != BlockCells && Cell + N != End) {
      // Gather one row segment: [X, X + Count) of the current row.
      if (RowStart) {
        for (size_t Slot = 0, E = Plans.size(); Slot != E; ++Slot)
          Rows[Slot] = seekRow(Plans[Slot], Index, RowLength);
        RowStart = false;
      }
      int64_t X = Index[Inner];
      int64_t Count =
          std::min({BlockCells - N, RowLength - X, End - (Cell + N)});
      for (size_t Slot = 0, E = Plans.size(); Slot != E; ++Slot) {
        const RowCursor &Row = Rows[Slot];
        double *Values = SlotValues.data() + Slot * BlockCells + N;
        auto ReadBoundary = [&](int64_t From, int64_t To) {
          for (int64_t L = From; L != To; ++L) {
            Index[Inner] = X + L;
            Values[L] = Plans[Slot].read(Index);
          }
        };
        int64_t InLo = std::clamp(Row.Lo - X, int64_t(0), Count);
        int64_t InHi = std::clamp(Row.Hi - X, InLo, Count);
        const double *Data = Plans[Slot].Data->data();
        ReadBoundary(0, InLo);
        for (int64_t L = InLo; L != InHi; ++L)
          Values[L] = Data[Row.Base + (X + L) * Row.Stride];
        ReadBoundary(InHi, Count);
      }
      if (Node.ShrinkOutput)
        for (int64_t L = 0; L != Count; ++L) {
          Index[Inner] = X + L;
          Keep[N + L] = Region.contains(Index);
        }
      N += Count;
      // Step to the segment's end, carrying into the outer dimensions at
      // the end of a row.
      Index[Inner] = X + Count;
      if (Index[Inner] == RowLength) {
        RowStart = true;
        Index[Inner] = 0;
        for (size_t Dim = Inner; Dim-- > 0;) {
          if (++Index[Dim] < Space.extent(Dim))
            break;
          Index[Dim] = 0;
        }
      }
    }

    runBlock<Type>(Code, SlotValues.data(), N, Registers.data());
    const double *Result =
        Registers.data() + Kernel.outputRegister() * BlockCells;
    for (int64_t L = 0; L != N; ++L)
      if (!Node.ShrinkOutput || Keep[L])
        Output[static_cast<size_t>(Cell + L)] = Result[L];
    Cell += N;
  }
}

/// \c evaluateRange for the kernel's element type.
void evaluateRange(const StencilProgram &Program, const StencilNode &Node,
                   const compute::Kernel &Kernel,
                   const std::vector<SlotPlan> &Plans,
                   const ValidRegion &Region, int64_t Begin, int64_t End,
                   std::vector<double> &Output) {
  switch (Kernel.elementType()) {
  case DataType::Float32:
    return evaluateRange<DataType::Float32>(Program, Node, Kernel, Plans,
                                            Region, Begin, End, Output);
  case DataType::Float64:
    return evaluateRange<DataType::Float64>(Program, Node, Kernel, Plans,
                                            Region, Begin, End, Output);
  case DataType::Int32:
    return evaluateRange<DataType::Int32>(Program, Node, Kernel, Plans,
                                          Region, Begin, End, Output);
  case DataType::Int64:
    return evaluateRange<DataType::Int64>(Program, Node, Kernel, Plans,
                                          Region, Begin, End, Output);
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
