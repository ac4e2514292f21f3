//===- core/DataflowAnalysis.h - Delay buffers & pipeline latency -*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delay buffers for inter-stencil reuse and deadlock freedom
/// (paper Sec. IV-B), and the global pipeline latency used by the runtime
/// model (Sec. VIII-A).
///
/// Two factors delay data along a path through the DAG: the critical path
/// of each stencil's compute circuit, and the initialization phase in which
/// internal buffers fill. Traversing the DAG in topological order we
/// compute, for every edge arriving at a node, the highest delay along any
/// path from any source. The delay buffer placed on an edge is the highest
/// delay across *all* of the node's incoming edges minus the delay of that
/// edge — so every node has at least one incoming edge with buffer size
/// zero, and producers that run ahead (Fig. 4) can deposit their data
/// without blocking, which guarantees deadlock freedom and continuous
/// streaming.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_CORE_DATAFLOWANALYSIS_H
#define STENCILFLOW_CORE_DATAFLOWANALYSIS_H

#include "compute/Bytecode.h"
#include "core/BufferAnalysis.h"
#include "core/CompiledProgram.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stencilflow {

/// One streamed edge of the dataflow graph: from a source (off-chip input
/// reader or producer stencil) into a consumer stencil.
struct DataflowEdge {
  /// Field streamed along the edge (an input field or a producer node's
  /// output; the producer node has the same name as the field).
  std::string Source;

  /// Consuming stencil node, and its index in the program.
  std::string Consumer;
  size_t ConsumerIndex = 0;

  /// Cycles the consumer spends filling this edge's internal buffer before
  /// its first element is useful (the per-field initialization phase,
  /// Sec. IV-A).
  int64_t FillCycles = 0;

  /// Highest delay (cycles) along any path from any source through this
  /// edge, *including the contribution of the initialization phase of the
  /// consuming node itself* (Sec. IV-B): the total delay of the source
  /// plus this edge's FillCycles.
  int64_t PathDelay = 0;

  /// Delay-buffer depth in vector units: the highest PathDelay among the
  /// consumer's incoming edges minus this edge's PathDelay. At least one
  /// incoming edge of every node has depth zero (Sec. IV-B).
  int64_t BufferDepth = 0;
};

/// Per-node timing contributions.
struct NodeDataflow {
  std::string Node;

  /// Initialization phase: cycles of input consumed before the first
  /// output (max over the node's internal buffers; Sec. IV-A).
  int64_t InitCycles = 0;

  /// Critical path of the compute circuit in cycles (Sec. IV-B). Typically
  /// small (<100 cycles).
  int64_t CircuitLatency = 0;

  /// Highest total delay from any source through this node, including its
  /// own initialization phase and circuit latency.
  int64_t TotalDelay = 0;
};

/// Complete dataflow analysis of a program.
struct DataflowAnalysis {
  /// Internal buffers, one entry per node (node order).
  std::vector<NodeBuffers> Buffers;

  /// Timing, one entry per node (node order).
  std::vector<NodeDataflow> Nodes;

  /// Streamed edges with their delay-buffer depths.
  std::vector<DataflowEdge> Edges;

  /// Pipeline latency L of the whole program (Eq. 1): the highest total
  /// delay into any program output.
  int64_t PipelineLatency = 0;

  /// Returns the edge from \p Source into \p Consumer, or nullptr.
  const DataflowEdge *findEdge(const std::string &Source,
                               const std::string &Consumer) const;

  /// Timing entry for node \p Name; must exist.
  const NodeDataflow &nodeInfo(const std::string &Name) const;

  /// Total on-chip storage of all delay buffers, in elements
  /// (vector units * W).
  int64_t totalDelayBufferElements(int VectorWidth) const;

  /// Human-readable report of buffers and delays.
  std::string report() const;
};

/// Runs the full dataflow analysis over \p Compiled.
Expected<DataflowAnalysis>
analyzeDataflow(const CompiledProgram &Compiled,
                const compute::LatencyTable &Latencies = {});

/// The critical-path latency of every node's kernel under \p Latencies
/// (node order). It does not depend on the vectorization width.
std::vector<int64_t> circuitLatencies(const CompiledProgram &Compiled,
                                      const compute::LatencyTable &Latencies);

/// As above, with the nodes' circuit latencies given, e.g. computed once
/// by \c circuitLatencies for every width a program is viewed at.
Expected<DataflowAnalysis>
analyzeDataflow(const CompiledProgram &Compiled,
                const std::vector<int64_t> &CircuitLatencies);

} // namespace stencilflow

#endif // STENCILFLOW_CORE_DATAFLOWANALYSIS_H
