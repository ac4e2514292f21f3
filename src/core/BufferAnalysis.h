//===- core/BufferAnalysis.h - Internal reuse buffers -------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal buffers for intra-stencil reuse (paper Sec. IV-A).
///
/// When a stencil reads the same field at multiple offsets, the elements
/// between the lowest and highest offset in memory order are kept in an
/// on-chip shift register. The buffer size is the largest distance between
/// any two offsets in memory order, plus the vector width: e.g. in a 3D
/// space {K, J, I}, accesses a[0,1,0] and a[0,-1,0] buffer two rows
/// (2I + W elements), while b[0,0,0] and b[1,0,0] buffer a 2D slice
/// (IJ + W elements). Buffer sizes are up to a constant number of
/// (D-1)-dimensional slices.
///
/// Filling the buffers delays the first output: the initialization phase of
/// a stencil is max{B_1, ..., B_F}, and a buffer with size B_i only starts
/// filling after max{B} - B_i iterations so all fields stay synchronized.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_BUFFERANALYSIS_H
#define STENCILFLOW_CORE_BUFFERANALYSIS_H

#include "ir/StencilProgram.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stencilflow {

/// The internal buffer of one (stencil, field) pair.
struct InternalBuffer {
  /// The buffered input field.
  std::string Field;

  /// True if the field is accessed at two or more offsets and therefore
  /// needs a shift register; single-access fields pass straight through
  /// (size counts just the vector itself).
  bool NeedsShiftRegister = false;

  /// Largest distance between any two accesses in memory order, in
  /// elements (0 for a single access at the center).
  int64_t DistanceElements = 0;

  /// Lowest and highest linearized access offsets (both clamped to include
  /// the center, 0). DistanceElements = MaxLinear - MinLinear.
  int64_t MinLinear = 0;
  int64_t MaxLinear = 0;

  /// Buffer size in elements: DistanceElements + W (Sec. IV-A).
  int64_t SizeElements = 0;

  /// Cycles of input consumption before the first output can be produced:
  /// ceil(DistanceElements / W). This is the buffer's contribution to the
  /// initialization phase.
  int64_t InitCycles = 0;

  /// Number of cycles to wait before this buffer starts filling, so it is
  /// synchronized with the stencil's largest buffer:
  /// maxInitCycles - InitCycles.
  int64_t FillDelayCycles = 0;

  /// Tap positions into the shift register: each access offset's distance
  /// from the lowest (oldest) access, in elements. Sorted ascending; the
  /// highest tap equals DistanceElements.
  std::vector<int64_t> TapsElements;
};

/// Buffer analysis result for one stencil node.
struct NodeBuffers {
  std::string Node;

  /// One entry per *streamed* (full-rank) input field, in access order.
  /// Lower-dimensional inputs are preloaded into on-chip ROMs before
  /// streaming begins and need no shift registers.
  std::vector<InternalBuffer> Buffers;

  /// Initialization phase of the node in cycles:
  /// max over buffers of InitCycles (0 if no streamed input has reuse).
  int64_t InitCycles = 0;

  /// Total on-chip elements held by this node's internal buffers.
  int64_t totalBufferElements() const {
    int64_t Total = 0;
    for (const InternalBuffer &Buffer : Buffers)
      if (Buffer.NeedsShiftRegister)
        Total += Buffer.SizeElements;
    return Total;
  }
};

/// Computes internal buffers for one node of \p Program at vectorization
/// width \p VectorWidth.
NodeBuffers computeNodeBuffers(const StencilProgram &Program,
                               const StencilNode &Node, int VectorWidth);

/// Computes internal buffers for every node, in node order.
std::vector<NodeBuffers> computeAllBuffers(const StencilProgram &Program,
                                           int VectorWidth);

} // namespace stencilflow

#endif // STENCILFLOW_CORE_BUFFERANALYSIS_H
