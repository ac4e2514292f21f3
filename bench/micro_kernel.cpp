//===- bench/micro_kernel.cpp - Kernel execution engine micro-benchmarks ------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings of the kernel execution tiers
// (compute/Engine.h) over representative stencil tapes:
//
//   * jacobi2d  — the 5-point Laplacian weighted sum (specializes into the
//                 weighted-sum chain evaluator),
//   * jacobi3d  — the 7-point Jacobi weighted sum,
//   * hdiff     — an hdiff-class tape with select/min/max/sqrt that cannot
//                 chain-specialize (the Specialized tier falls back to the
//                 fused batched tape).
//
// Every non-scalar benchmark first proves itself bit-exact against the
// scalar reference interpreter on a randomized probe set (NaN payloads
// excepted, see tests/engine_test.cpp) and aborts with SkipWithError on
// any mismatch — a speedup only counts when the bits agree.
//
// The checked-in baseline lives in bench/baselines/micro_kernel_baseline.json
// and is enforced by tools/check_perf.py in CI.
//
//===----------------------------------------------------------------------===//

#include "compute/Engine.h"
#include "compute/Kernel.h"
#include "frontend/Parser.h"
#include "frontend/SemanticAnalysis.h"
#include "ir/StencilProgram.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace stencilflow;
using namespace stencilflow::compute;

namespace {

/// Compiles a single-node program around \p Source into a Kernel.
Kernel makeKernel(const std::string &Source,
                  const std::vector<int64_t> &Extents,
                  DataType Type = DataType::Float32) {
  StencilProgram P;
  P.IterationSpace = Shape(Extents);
  Field Input;
  Input.Name = "a";
  Input.Type = Type;
  Input.DimensionMask = std::vector<bool>(P.IterationSpace.rank(), true);
  Input.Source = DataSource::random(7);
  P.Inputs.push_back(std::move(Input));
  StencilNode Node;
  Node.Name = "out";
  Node.Type = Type;
  auto Code = parseStencilCode(Source);
  if (!Code)
    std::abort();
  Node.Code = Code.takeValue();
  P.Nodes.push_back(std::move(Node));
  P.Outputs = {"out"};
  if (analyzeProgram(P))
    std::abort();
  auto Compiled = Kernel::compile(*P.findNode("out"), {});
  if (!Compiled)
    std::abort();
  return Compiled.takeValue();
}

const char *Jacobi2dSource =
    "out = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];";

const char *Jacobi3dSource =
    "out = 0.142857 * (a[0,0,0] + a[-1,0,0] + a[1,0,0] + a[0,-1,0] + "
    "a[0,1,0] + a[0,0,-1] + a[0,0,1]);";

// An hdiff-class tape: Laplacian plus flux limiting through compares and
// selects, with min/max/sqrt mixed in. No chain form exists, so this
// measures the fused batched tape under the Specialized tier.
const char *HdiffSource =
    "lap = a[-1, 0] + a[1, 0] + a[0, -1] + a[0, 1] - 4.0 * a[0, 0];"
    "flx = lap * (a[0, 1] - a[0, 0]);"
    "fly = lap * (a[1, 0] - a[0, 0]);"
    "fx = flx > 0.0 ? 0.0 : flx;"
    "fy = fly > 0.0 ? 0.0 : fly;"
    "out = a[0, 0] - 0.25 * (fx + fy) + sqrt(fabs(min(flx, max(fly, "
    "lap))));";

uint64_t bitsOf(double Value) {
  uint64_t Pattern;
  std::memcpy(&Pattern, &Value, sizeof(Pattern));
  return Pattern;
}

/// Verifies \p Eval matches the scalar reference bit-for-bit over a
/// randomized probe set (zeros included: the drain-padding case). Both-NaN
/// results compare equal regardless of payload.
bool verifyAgainstScalar(const Kernel &Krn, const KernelEvaluator &Eval,
                         int Lanes) {
  KernelEvaluator Ref = KernelEvaluator::compile(Krn, KernelEngine::Scalar,
                                                 Lanes);
  size_t NumInputs = Krn.inputs().size();
  std::vector<double> SoA(NumInputs * static_cast<size_t>(Lanes));
  std::vector<double> OutGot(static_cast<size_t>(Lanes));
  std::vector<double> OutWant(static_cast<size_t>(Lanes));
  std::vector<double> ScratchGot(Eval.scratchDoubles());
  std::vector<double> ScratchWant(Ref.scratchDoubles());
  Random Rng(1234);
  for (int Probe = 0; Probe != 64; ++Probe) {
    for (double &V : SoA)
      V = Probe == 0 ? 0.0 : Rng.nextDoubleInRange(-8.0, 8.0);
    Eval.evaluate(SoA.data(), OutGot.data(), ScratchGot.data());
    Ref.evaluate(SoA.data(), OutWant.data(), ScratchWant.data());
    for (int Lane = 0; Lane != Lanes; ++Lane) {
      if (std::isnan(OutGot[Lane]) && std::isnan(OutWant[Lane]))
        continue;
      if (bitsOf(OutGot[Lane]) != bitsOf(OutWant[Lane]))
        return false;
    }
  }
  return true;
}

/// Times one tier over one kernel at vector width \p Lanes. Items
/// processed counts lanes (cells) per evaluate, so rates compare directly
/// across tiers.
void runTier(benchmark::State &State, const Kernel &Krn, KernelEngine Tier,
             int Lanes) {
  KernelEvaluator Eval = KernelEvaluator::compile(Krn, Tier, Lanes);
  if (Tier != KernelEngine::Scalar && !verifyAgainstScalar(Krn, Eval, Lanes)) {
    State.SkipWithError("tier diverges from the scalar reference");
    return;
  }
  size_t NumInputs = Krn.inputs().size();
  std::vector<double> SoA(NumInputs * static_cast<size_t>(Lanes));
  Random Rng(99);
  for (double &V : SoA)
    V = Rng.nextDoubleInRange(-4.0, 4.0);
  std::vector<double> Out(static_cast<size_t>(Lanes));
  std::vector<double> Scratch(Eval.scratchDoubles());
  for (auto _ : State) {
    Eval.evaluate(SoA.data(), Out.data(), Scratch.data());
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * Lanes);
  State.SetLabel(std::string(kernelEngineName(Eval.tier())) +
                 (Eval.specialization().empty()
                      ? ""
                      : ":" + std::string(Eval.specialization())));
}

const Kernel &jacobi2d() {
  static Kernel Krn = makeKernel(Jacobi2dSource, {64, 64});
  return Krn;
}
const Kernel &jacobi3d() {
  static Kernel Krn = makeKernel(Jacobi3dSource, {16, 16, 16});
  return Krn;
}
const Kernel &hdiff() {
  static Kernel Krn = makeKernel(HdiffSource, {64, 64});
  return Krn;
}

void BM_Jacobi2D_Scalar(benchmark::State &State) {
  runTier(State, jacobi2d(), KernelEngine::Scalar, 8);
}
void BM_Jacobi2D_Specialized(benchmark::State &State) {
  runTier(State, jacobi2d(), KernelEngine::Specialized, 8);
}
BENCHMARK(BM_Jacobi2D_Scalar);
BENCHMARK(BM_Jacobi2D_Specialized);

void BM_Jacobi3D_Scalar(benchmark::State &State) {
  runTier(State, jacobi3d(), KernelEngine::Scalar, 8);
}
void BM_Jacobi3D_Specialized(benchmark::State &State) {
  runTier(State, jacobi3d(), KernelEngine::Specialized, 8);
}
BENCHMARK(BM_Jacobi3D_Scalar);
BENCHMARK(BM_Jacobi3D_Specialized);

void BM_Hdiff_Scalar(benchmark::State &State) {
  runTier(State, hdiff(), KernelEngine::Scalar, 8);
}
void BM_Hdiff_Specialized(benchmark::State &State) {
  runTier(State, hdiff(), KernelEngine::Specialized, 8);
}
BENCHMARK(BM_Hdiff_Scalar);
BENCHMARK(BM_Hdiff_Specialized);

// Scalar width 1: the serial pre-PR configuration, for reference.
void BM_Jacobi2D_ScalarW1(benchmark::State &State) {
  runTier(State, jacobi2d(), KernelEngine::Scalar, 1);
}
void BM_Jacobi2D_SpecializedW1(benchmark::State &State) {
  runTier(State, jacobi2d(), KernelEngine::Specialized, 1);
}
BENCHMARK(BM_Jacobi2D_ScalarW1);
BENCHMARK(BM_Jacobi2D_SpecializedW1);

} // namespace

BENCHMARK_MAIN();
