//===- runtime/SpatialTiling.cpp - Tiled execution ------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SpatialTiling.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace stencilflow;

std::vector<int64_t>
stencilflow::computeTransitiveHalo(const CompiledProgram &Compiled) {
  const StencilProgram &Program = Compiled.program();
  size_t Rank = Program.IterationSpace.rank();

  // Reach of each field from the raw inputs, per dimension.
  std::map<std::string, std::vector<int64_t>> Reach;
  for (const Field &Input : Program.Inputs)
    Reach[Input.Name] = std::vector<int64_t>(Rank, 0);

  for (size_t Index : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[Index];
    std::vector<int64_t> NodeReach(Rank, 0);
    for (const FieldAccesses &FA : Node.Accesses) {
      const std::vector<int64_t> &Upstream = Reach.at(FA.Field);
      const std::vector<bool> &Mask = Program.fieldDimensionMask(FA.Field);
      for (const Offset &Off : FA.Offsets) {
        size_t Component = 0;
        for (size_t Dim = 0; Dim != Rank; ++Dim) {
          if (!Mask[Dim])
            continue;
          NodeReach[Dim] = std::max(
              NodeReach[Dim],
              Upstream[Dim] + std::abs(
                                  static_cast<int64_t>(Off[Component])));
          ++Component;
        }
      }
    }
    Reach[Node.Name] = std::move(NodeReach);
  }

  std::vector<int64_t> Halo(Rank, 0);
  for (const std::string &Output : Program.Outputs)
    for (size_t Dim = 0; Dim != Rank; ++Dim)
      Halo[Dim] = std::max(Halo[Dim], Reach.at(Output)[Dim]);
  return Halo;
}

namespace {

/// Copies the region [Lo, Lo+Extent) of a row-major array with shape
/// \p SrcShape into a dense array of shape \p Extent.
std::vector<double> sliceRegion(const std::vector<double> &Src,
                                const std::vector<int64_t> &SrcShape,
                                const std::vector<int64_t> &Lo,
                                const std::vector<int64_t> &Extent) {
  size_t Rank = SrcShape.size();
  int64_t Cells = 1;
  for (int64_t E : Extent)
    Cells *= E;
  std::vector<double> Dst(static_cast<size_t>(Cells));
  std::vector<int64_t> Index(Rank, 0);
  std::vector<int64_t> SrcStride(Rank, 1);
  for (size_t Dim = Rank; Dim-- > 1;)
    SrcStride[Dim - 1] = SrcStride[Dim] * SrcShape[Dim];
  for (int64_t Cell = 0; Cell != Cells; ++Cell) {
    int64_t SrcLinear = 0;
    for (size_t Dim = 0; Dim != Rank; ++Dim)
      SrcLinear += (Lo[Dim] + Index[Dim]) * SrcStride[Dim];
    Dst[static_cast<size_t>(Cell)] = Src[static_cast<size_t>(SrcLinear)];
    for (size_t Dim = Rank; Dim-- > 0;) {
      if (++Index[Dim] < Extent[Dim])
        break;
      Index[Dim] = 0;
    }
  }
  return Dst;
}

} // namespace

Expected<TiledExecution> stencilflow::runTiledReference(
    const CompiledProgram &Compiled,
    const std::map<std::string, std::vector<double>> &Inputs,
    const std::vector<int64_t> &TileExtents) {
  const StencilProgram &Program = Compiled.program();
  size_t Rank = Program.IterationSpace.rank();
  if (TileExtents.size() != Rank)
    return makeError("tile extents must match the program rank");
  for (int64_t Extent : TileExtents)
    if (Extent < 1)
      return makeError("tile extents must be positive");

  std::vector<int64_t> Halo = computeTransitiveHalo(Compiled);
  const std::vector<int64_t> &Domain = Program.IterationSpace.extents();

  TiledExecution Result;
  for (const std::string &Output : Program.Outputs)
    Result.Outputs[Output] = std::vector<double>(
        static_cast<size_t>(Program.IterationSpace.numCells()), 0.0);

  // Tile grid.
  std::vector<int64_t> TilesPerDim(Rank);
  int64_t TotalTiles = 1;
  for (size_t Dim = 0; Dim != Rank; ++Dim) {
    int64_t Core = std::min(TileExtents[Dim], Domain[Dim]);
    TilesPerDim[Dim] = (Domain[Dim] + Core - 1) / Core;
    TotalTiles *= TilesPerDim[Dim];
  }

  int64_t ComputedCells = 0;
  std::vector<int64_t> Tile(Rank, 0);
  for (int64_t TileIndex = 0; TileIndex != TotalTiles; ++TileIndex) {
    // Core region and clamped extended region of this tile.
    std::vector<int64_t> CoreLo(Rank), CoreHi(Rank), ExtLo(Rank),
        ExtHi(Rank), ExtShape(Rank);
    for (size_t Dim = 0; Dim != Rank; ++Dim) {
      int64_t Core = std::min(TileExtents[Dim], Domain[Dim]);
      CoreLo[Dim] = Tile[Dim] * Core;
      CoreHi[Dim] = std::min(Domain[Dim], CoreLo[Dim] + Core);
      ExtLo[Dim] = std::max<int64_t>(0, CoreLo[Dim] - Halo[Dim]);
      ExtHi[Dim] = std::min(Domain[Dim], CoreHi[Dim] + Halo[Dim]);
      ExtShape[Dim] = ExtHi[Dim] - ExtLo[Dim];
    }

    // Build the tile subprogram: same DAG over the extended tile.
    StencilProgram TileProgram = Program.clone();
    TileProgram.Name = formatString("%s_tile%lld", Program.Name.c_str(),
                                    static_cast<long long>(TileIndex));
    TileProgram.IterationSpace = Shape(ExtShape);
    TileProgram.VectorWidth = 1; // Tiles need not preserve W divisibility.
    Expected<CompiledProgram> TileCompiled =
        CompiledProgram::compile(std::move(TileProgram));
    if (!TileCompiled)
      return TileCompiled.takeError().addContext("tile compilation");

    // Slice the inputs to the extended tile.
    std::map<std::string, std::vector<double>> TileInputs;
    for (const Field &Input : Program.Inputs) {
      auto It = Inputs.find(Input.Name);
      if (It == Inputs.end())
        return makeError("missing data for input field '" + Input.Name +
                         "'");
      std::vector<int64_t> FieldShape, FieldLo, FieldExtent;
      for (size_t Dim = 0; Dim != Rank; ++Dim) {
        if (!Input.DimensionMask[Dim])
          continue;
        FieldShape.push_back(Domain[Dim]);
        FieldLo.push_back(ExtLo[Dim]);
        FieldExtent.push_back(ExtShape[Dim]);
      }
      TileInputs[Input.Name] =
          sliceRegion(It->second, FieldShape, FieldLo, FieldExtent);
    }

    Expected<ExecutionResult> TileResult =
        runReference(*TileCompiled, TileInputs);
    if (!TileResult)
      return TileResult.takeError().addContext("tile execution");

    // Stitch the core region into the global outputs.
    Shape ExtSpace(ExtShape);
    for (const std::string &Output : Program.Outputs) {
      const std::vector<double> &TileData = TileResult->field(Output);
      std::vector<double> &Global = Result.Outputs[Output];
      std::vector<int64_t> Index = CoreLo;
      bool Done = false;
      while (!Done) {
        std::vector<int64_t> Local(Rank);
        for (size_t Dim = 0; Dim != Rank; ++Dim)
          Local[Dim] = Index[Dim] - ExtLo[Dim];
        Global[static_cast<size_t>(
            Program.IterationSpace.linearizeIndex(Index))] =
            TileData[static_cast<size_t>(ExtSpace.linearizeIndex(Local))];
        Done = true;
        for (size_t Dim = Rank; Dim-- > 0;) {
          if (++Index[Dim] < CoreHi[Dim]) {
            Done = false;
            break;
          }
          Index[Dim] = CoreLo[Dim];
        }
      }
    }

    int64_t TileCells = 1;
    for (int64_t E : ExtShape)
      TileCells *= E;
    ComputedCells += TileCells;
    Result.MaxTileCells = std::max(Result.MaxTileCells, TileCells);

    // Advance the tile grid index.
    for (size_t Dim = Rank; Dim-- > 0;) {
      if (++Tile[Dim] < TilesPerDim[Dim])
        break;
      Tile[Dim] = 0;
    }
  }

  Result.Tiles = TotalTiles;
  Result.RedundancyFactor =
      static_cast<double>(ComputedCells) /
      static_cast<double>(Program.IterationSpace.numCells());
  return Result;
}
