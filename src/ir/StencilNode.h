//===- ir/StencilNode.h - One stencil operation -------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stencil node of the program DAG (paper Sec. II): a code segment
/// evaluated at every point of the iteration space, reading one or more
/// input fields at constant offsets and producing exactly one output, with
/// boundary conditions describing out-of-bounds handling.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_IR_STENCILNODE_H
#define STENCILFLOW_IR_STENCILNODE_H

#include "ir/Boundary.h"
#include "ir/DataType.h"
#include "ir/Expr.h"
#include "ir/Shape.h"

#include <map>
#include <string>
#include <vector>

namespace stencilflow {

/// The set of accesses a stencil makes into one input field, as recovered by
/// semantic analysis. Offsets are unique and sorted by memory order.
struct FieldAccesses {
  std::string Field;
  std::vector<Offset> Offsets;
};

/// One stencil operation in the program DAG. Produces exactly one output
/// field named after the node.
struct StencilNode {
  /// Node name; also the name of the output field it produces.
  std::string Name;

  /// Output element type.
  DataType Type = DataType::Float32;

  /// The computation executed per cell. The final assignment's target must
  /// equal \c Name.
  StencilCode Code;

  /// Per-input boundary conditions (Constant or Copy). Inputs without an
  /// explicit entry default to constant 0.
  std::map<std::string, BoundaryCondition> Boundaries;

  /// True if out-of-bounds-reading outputs are dropped (shrink boundary
  /// condition, specified on the output).
  bool ShrinkOutput = false;

  /// Accesses per input field, filled in by semantic analysis
  /// (frontend::analyzeProgram). Order is deterministic: fields in first-use
  /// order, offsets sorted by linearized memory order.
  std::vector<FieldAccesses> Accesses;

  /// Returns the boundary condition for \p Field (constant 0 by default).
  BoundaryCondition boundaryFor(const std::string &Field) const {
    auto It = Boundaries.find(Field);
    return It == Boundaries.end() ? BoundaryCondition::constant(0.0)
                                  : It->second;
  }

  /// Returns the recovered accesses for \p Field, or nullptr if the node
  /// does not read it.
  const FieldAccesses *accessesFor(const std::string &Field) const {
    for (const FieldAccesses &FA : Accesses)
      if (FA.Field == Field)
        return &FA;
    return nullptr;
  }

  /// A copy; it shares the statement bodies, which are immutable once
  /// shared (ir/Expr.h, StencilCode).
  StencilNode clone() const { return *this; }
};

} // namespace stencilflow

#endif // STENCILFLOW_IR_STENCILNODE_H
