//===- runtime/Validation.h - Result comparison -------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validation of simulated results against the reference execution
/// (paper Sec. VII: the framework transparently executes "... execution of
/// the program, and validation of results").
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_RUNTIME_VALIDATION_H
#define STENCILFLOW_RUNTIME_VALIDATION_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stencilflow {

/// Outcome of comparing one field.
struct ValidationReport {
  bool Passed = true;
  int64_t Mismatches = 0;
  int64_t FirstMismatch = -1;
  double MaxAbsoluteError = 0.0;
  std::string Summary;
};

/// Compares \p Actual against \p Expected. \p Tolerance is an absolute
/// bound; 0 demands bit-equality (the simulator evaluates the same
/// bytecode as the reference, so exact agreement is expected).
ValidationReport validateField(const std::string &Name,
                               const std::vector<double> &Actual,
                               const std::vector<double> &Expected,
                               double Tolerance = 0.0);

/// FNV-1a over the output fields' names and raw bit patterns, in
/// \p Order: a compact bit-exactness token (the fuzzer's comparator and
/// the serving protocol's \c outputs_crc). A name missing from \p Fields
/// contributes only its name.
uint64_t outputsCrc(const std::vector<std::string> &Order,
                    const std::map<std::string, std::vector<double>> &Fields);

} // namespace stencilflow

#endif // STENCILFLOW_RUNTIME_VALIDATION_H
