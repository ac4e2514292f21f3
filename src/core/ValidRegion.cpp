//===- core/ValidRegion.cpp - Shrink-boundary output regions -----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ValidRegion.h"

#include <algorithm>

using namespace stencilflow;

ValidRegion stencilflow::computeValidRegion(const StencilProgram &Program,
                                            const StencilNode &Node) {
  size_t Rank = Program.IterationSpace.rank();
  ValidRegion Region;
  Region.Lo.assign(Rank, 0);
  Region.Hi = Program.IterationSpace.extents();
  if (!Node.ShrinkOutput)
    return Region;

  for (const FieldAccesses &FA : Node.Accesses) {
    const std::vector<bool> &Mask = Program.fieldDimensionMask(FA.Field);
    for (const Offset &Off : FA.Offsets) {
      // Map the field's offset components back onto program dimensions.
      size_t Component = 0;
      for (size_t Dim = 0; Dim != Rank; ++Dim) {
        if (!Mask[Dim])
          continue;
        int O = Off[Component++];
        if (O < 0)
          Region.Lo[Dim] = std::max<int64_t>(Region.Lo[Dim], -O);
        else if (O > 0)
          Region.Hi[Dim] = std::min<int64_t>(
              Region.Hi[Dim], Program.IterationSpace.extent(Dim) - O);
      }
    }
  }
  return Region;
}
