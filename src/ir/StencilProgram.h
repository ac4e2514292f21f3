//===- ir/StencilProgram.h - Stencil program DAG ------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil program: a directed acyclic graph of stencil operations on a
/// structured grid (paper Sec. II, Fig. 2). Nodes are stencil operations or
/// memory containers; edges are dependencies between stencils and memories.
/// Each stencil produces exactly one output; all stencils iterate over the
/// same iteration space.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_IR_STENCILPROGRAM_H
#define STENCILFLOW_IR_STENCILPROGRAM_H

#include "ir/Field.h"
#include "ir/StencilNode.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace stencilflow {

/// Feeds program output \p Output into input field \p Input at the start
/// of the next time step. Both must be full-rank fields of the same type.
/// Bindings describe the program's time loop; they are honored either by
/// the host loop (runtime/Iterate.h) or unrolled on-chip by
/// sdfg::unrollTimeSteps (temporal blocking).
struct IterationBinding {
  std::string Output;
  std::string Input;
};

/// A complete stencil program: iteration space, off-chip inputs, stencil
/// nodes, and the set of fields written back to off-chip memory.
class StencilProgram {
public:
  /// Program name (used in generated code and reports).
  std::string Name = "program";

  /// The global iteration space; 1, 2, or 3 dimensions. All stencils
  /// iterate over this space (Sec. II).
  Shape IterationSpace;

  /// Vectorization factor W (Sec. IV-C). Must divide the innermost extent.
  int VectorWidth = 1;

  /// Off-chip input fields.
  std::vector<Field> Inputs;

  /// Names of fields written back to off-chip memory. Fields produced by a
  /// stencil but not listed here stream directly to their consumers only.
  std::vector<std::string> Outputs;

  /// The stencil operations, in definition order (not necessarily
  /// topological).
  std::vector<StencilNode> Nodes;

  /// Output -> input feedback edges describing the program's time loop
  /// (empty for programs without one). Consumed by iterateReference (host
  /// loop through off-chip memory) and by sdfg::unrollTimeSteps (on-chip
  /// temporal blocking).
  std::vector<IterationBinding> TimeLoop;

  /// A copy; its nodes share their statement bodies, which are immutable
  /// once shared (ir/Expr.h, StencilCode).
  StencilProgram clone() const { return *this; }

  /// Returns the input field named \p Name, or nullptr.
  const Field *findInput(const std::string &Name) const;

  /// Returns the node named \p Name (producing field \p Name), or nullptr.
  const StencilNode *findNode(const std::string &Name) const;
  StencilNode *findNode(const std::string &Name);

  /// Returns the index of node \p Name, or -1.
  int nodeIndex(const std::string &Name) const;

  /// Returns true if \p Name is an input field or a node output.
  bool isFieldDefined(const std::string &Name) const {
    return findInput(Name) != nullptr || findNode(Name) != nullptr;
  }

  /// Element type of field \p Name (input or node output). The field must
  /// be defined.
  DataType fieldType(const std::string &Name) const;

  /// Dimension mask of field \p Name within the program iteration space.
  /// Node outputs are always full rank. The mask is stored, not built: the
  /// reference lives as long as the program and its inputs.
  const std::vector<bool> &fieldDimensionMask(const std::string &Name) const;

  /// Number of iteration-space dimensions field \p Name spans (the set
  /// bits of its dimension mask), without building the mask.
  size_t fieldRank(const std::string &Name) const;

  /// Shape of field \p Name.
  Shape fieldShape(const std::string &Name) const;

  /// Indices of nodes that read field \p Name.
  std::vector<size_t> consumersOf(const std::string &Name) const;

  /// Returns true if \p Name is written back to off-chip memory.
  bool isProgramOutput(const std::string &Name) const;

  /// Node indices in a topological order of the stencil DAG, or an error
  /// naming a node on a cycle.
  Expected<std::vector<size_t>> topologicalOrder() const;

  /// Full semantic validation. Requires access information to have been
  /// filled in by frontend::analyzeProgram.
  Error validate() const;

  /// The vectorization-width checks of \c validate alone, for \p Width:
  /// positive and dividing the innermost extent (Sec. IV-C). Requires a
  /// rank-1..3 iteration space.
  Error checkVectorWidth(int Width) const;

  /// Human-readable DAG summary for diagnostics.
  std::string summary() const;

  /// Conventional dimension names for codegen/printing: 3D -> {k, j, i},
  /// 2D -> {j, i}, 1D -> {i}.
  static std::vector<std::string> dimensionNames(size_t Rank);
};

} // namespace stencilflow

#endif // STENCILFLOW_IR_STENCILPROGRAM_H
