//===- frontend/ProgramLoader.h - JSON program descriptions ------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loader and writer for the JSON-based program-description format (paper
/// Sec. II, Lst. 1). Only the minimum information needed to instantiate the
/// stencil DAG is required; everything else defaults sensibly.
///
/// Format:
/// \code
/// {
///   "name": "laplace2d",                      // optional
///   "dimensions": [128, 128],                 // iteration space (1-3D)
///   "vectorization": 1,                       // optional, W (Sec. IV-C)
///   "inputs": {
///     "a": {
///       "data_type": "float32",               // optional
///       "dimensions": ["j", "i"],             // optional subset for
///                                             // lower-dimensional inputs
///       "data": {"kind": "random", "seed": 7} // optional data source;
///                                             // a seed above 2^53 is
///                                             // "0x..." hex text
///     }
///   },
///   "outputs": ["b"],
///   "program": {
///     "b": {
///       "computation":
///         "b = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
///       "data_type": "float32",               // optional
///       "boundary_conditions": {
///         "a": {"type": "constant", "value": 0.0}
///       },
///       "shrink": false                       // optional output shrink
///     }
///   }
/// }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_FRONTEND_PROGRAMLOADER_H
#define STENCILFLOW_FRONTEND_PROGRAMLOADER_H

#include "ir/StencilProgram.h"
#include "support/Error.h"
#include "support/Json.h"

#include <string>
#include <string_view>

namespace stencilflow {

/// Builds a fully analyzed stencil program from a parsed JSON description.
Expected<StencilProgram> programFromJson(const json::Value &Description);

/// Parses JSON text and builds a program.
Expected<StencilProgram> programFromJsonText(std::string_view Text);

/// Loads a program description from a file.
Expected<StencilProgram> loadProgramFile(const std::string &Path);

/// Serializes \p Program back to a JSON description (round-trippable).
json::Value programToJson(const StencilProgram &Program);

} // namespace stencilflow

#endif // STENCILFLOW_FRONTEND_PROGRAMLOADER_H
