//===- examples/quickstart.cpp - Hello, StencilFlow ---------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: define a 2D Laplace stencil program in the JSON description
// format (paper Sec. II, Lst. 1), run the full pipeline through the
// stencilflow::Session facade — analysis, buffering, code generation,
// simulated hardware execution — and validate the result against the
// reference executor.
//
// Run:  ./quickstart [--size N] [--vectorize W] [--emit]
//
//===----------------------------------------------------------------------===//

#include "StencilFlow.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace stencilflow;

int main(int argc, char **argv) {
  auto Args = CommandLine::parse(argc, argv,
                                 {"size", "vectorize", "emit"});
  if (!Args) {
    std::fprintf(stderr, "error: %s\n", Args.message().c_str());
    return 1;
  }
  long long Size = 64, W = 1;
  Error Err = Args->read("size", Size);
  if (!Err)
    Err = Args->read("vectorize", W);
  if (Err) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  // A stencil program is a JSON description: iteration space, inputs with
  // data sources, and a DAG of stencil operations.
  std::string Json = formatString(R"({
    "name": "laplace2d",
    "dimensions": [%lld, %lld],
    "vectorization": %lld,
    "inputs": {
      "a": {"data_type": "float32", "data": {"kind": "random", "seed": 42}}
    },
    "outputs": ["b"],
    "program": {
      "b": {
        "computation":
          "b = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
        "boundary_conditions": {"a": {"type": "constant", "value": 0.0}}
      }
    }
  })",
                                  Size, Size, W);

  // The Session facade is the library's front door: load once, chain the
  // configuration, run.
  Expected<Session> S = Session::fromJsonText(Json);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  std::printf("%s\n", S->program().summary().c_str());

  S->unconstrainedMemory(true).emitCode(Args->has("emit"));

  Expected<PipelineResult> Result = S->run();
  if (!Result) {
    std::fprintf(stderr, "error: %s\n", Result.message().c_str());
    return 1;
  }

  std::printf("dataflow analysis:\n%s\n", Result->Dataflow.report().c_str());
  std::printf("expected cycles (Eq. 1): C = L + N = %lld + %lld = %lld\n",
              static_cast<long long>(Result->Runtime.LatencyCycles),
              static_cast<long long>(Result->Runtime.StreamedCycles),
              static_cast<long long>(Result->Runtime.TotalCycles));
  std::printf("simulated cycles:        %lld\n",
              static_cast<long long>(Result->Simulation.Stats.Cycles));
  std::printf("modeled frequency:       %.0f MHz\n", Result->FrequencyMHz);
  std::printf("resources:               %s\n",
              Result->Resources
                  .report(DeviceResources::stratix10GX2800())
                  .c_str());
  std::printf("simulated performance:   %.2f GOp/s\n",
              Result->simulatedOpsPerSecond() / 1e9);
  for (const ValidationReport &Report : Result->Validations)
    std::printf("validation: %s\n", Report.Summary.c_str());

  if (Args->has("emit"))
    for (const GeneratedSource &Source : Result->Sources)
      std::printf("\n===== %s =====\n%s", Source.FileName.c_str(),
                  Source.Source.c_str());

  return Result->ValidationPassed ? 0 : 1;
}
