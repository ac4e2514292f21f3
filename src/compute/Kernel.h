//===- compute/Kernel.h - Compiled stencil kernels ----------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled stencil kernel: the node's code block lowered to bytecode
/// with constant folding and common-subexpression elimination (the paper
/// notes that fused code sections "increase the opportunity for common
/// subexpression elimination by the optimizing compiler", Sec. V-B — here
/// we are that compiler). Kernels expose:
///
///  - the unique (field, offset) input slots the computation reads;
///  - per-cell evaluation for the simulator and reference executor;
///  - the critical-path latency under a configurable latency table;
///  - the operation census used for arithmetic-intensity analysis.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_COMPUTE_KERNEL_H
#define STENCILFLOW_COMPUTE_KERNEL_H

#include "compute/Bytecode.h"
#include "ir/DataType.h"
#include "ir/StencilNode.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace stencilflow {
namespace compute {

/// One kernel input slot: a unique (field, offset) pair.
struct KernelInput {
  std::string Field;
  Offset Off;

  bool operator==(const KernelInput &Other) const = default;
};

/// Compilation options.
struct KernelOptions {
  bool EnableConstantFolding = true;
  bool EnableCSE = true;
};

/// A stencil node's computation compiled to straight-line bytecode.
class Kernel {
public:
  /// Compiles \p Node's code block. Semantic analysis must have run (bare
  /// names resolved, accesses recovered).
  static Expected<Kernel> compile(const StencilNode &Node,
                                  const KernelOptions &Options = {});

  /// The unique input slots, in deterministic order.
  const std::vector<KernelInput> &inputs() const { return Inputs; }

  /// Index of the slot for (\p Field, \p Off), or -1 if the kernel does not
  /// read it.
  int inputIndex(const std::string &Field, const Offset &Off) const;

  /// The instruction tape.
  const std::vector<Instruction> &instructions() const { return Code; }

  /// Register holding the stencil's output value.
  int outputRegister() const { return OutputRegister; }

  /// Element type used for rounding (Float32 rounds after every operation,
  /// matching per-op hardware rounding).
  DataType elementType() const { return Type; }

  /// Evaluates one cell. \p InputValues has one entry per input slot;
  /// \p Scratch must have at least instructions().size() entries and is
  /// reused across calls to avoid allocation.
  double evaluate(const double *InputValues, double *Scratch) const;

  /// Convenience wrapper that allocates scratch (slow path; tests only).
  double evaluate(const std::vector<double> &InputValues) const;

  /// Critical-path latency through the instruction DAG in cycles
  /// (Sec. IV-B).
  int64_t criticalPathLatency(const LatencyTable &Latencies) const;

  /// Operation counts (Sec. IX-A), counted once when the kernel is
  /// compiled.
  const OpCensus &census() const { return Census; }

  /// Disassembles the tape for debugging and golden tests.
  std::string dump() const;

private:
  std::vector<KernelInput> Inputs;
  std::vector<Instruction> Code;
  int OutputRegister = -1;
  DataType Type = DataType::Float32;
  OpCensus Census;
};

} // namespace compute
} // namespace stencilflow

#endif // STENCILFLOW_COMPUTE_KERNEL_H
