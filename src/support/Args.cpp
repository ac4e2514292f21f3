//===- support/Args.cpp - Shared CLI argument surface --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace stencilflow;
using namespace stencilflow::cli;

ArgSet::ArgSet(std::string Tool, std::string Summary, std::string Positional)
    : Tool(std::move(Tool)), Summary(std::move(Summary)),
      Positional(std::move(Positional)) {}

ArgSet &ArgSet::flag(std::string Name, std::string Help) {
  Specs.push_back({std::move(Name), "", std::move(Help)});
  return *this;
}

ArgSet &ArgSet::option(std::string Name, std::string Value,
                       std::string Help) {
  Specs.push_back({std::move(Name), std::move(Value), std::move(Help)});
  return *this;
}

ArgSet &ArgSet::group(std::string Title) {
  Specs.push_back({"", "", std::move(Title)});
  return *this;
}

ArgSet &ArgSet::pack(const std::vector<ArgSpec> &Pack) {
  Specs.insert(Specs.end(), Pack.begin(), Pack.end());
  return *this;
}

std::string ArgSet::usageLine() const {
  std::string Usage = "usage: " + Tool;
  if (!Positional.empty())
    Usage += " " + Positional;
  Usage += " [flags] (--help lists them)";
  return Usage;
}

std::string ArgSet::helpText() const {
  std::string Text = usageLine() + "\n" + Summary + "\n";
  for (const ArgSpec &S : Specs) {
    if (S.Name.empty()) {
      Text += "\n" + S.Help + ":\n";
      continue;
    }
    std::string Left = "--" + S.Name;
    if (!S.Value.empty())
      Left += " <" + S.Value + ">";
    Text += formatString("  %-28s %s\n", Left.c_str(), S.Help.c_str());
  }
  Text += "\n" + exitCodeLegend();
  return Text;
}

Expected<CommandLine> ArgSet::parse(int Argc,
                                    const char *const *Argv) const {
  HelpShown = false;
  std::vector<std::string> Known;
  Known.reserve(Specs.size() + 1);
  Known.push_back("help");
  for (const ArgSpec &S : Specs)
    if (!S.Name.empty())
      Known.push_back(S.Name);

  Expected<CommandLine> Args = CommandLine::parse(Argc, Argv, Known);
  if (!Args)
    return Args.takeError().addContext(usageLine());
  if (Args->has("help")) {
    HelpShown = true;
    std::fputs(helpText().c_str(), stdout);
  }
  return Args;
}

const std::vector<ArgSpec> &cli::sessionFlagSpecs() {
  static const std::vector<ArgSpec> Specs = {
      {"", "", "pipeline"},
      {"fuse", "", "aggressive stencil fusion before analysis"},
      {"simplify", "", "algebraic simplification of every node's code"},
      {"vectorize", "W", "override the program's vectorization width"},
      {"temporal-degree", "T",
       "unroll T timesteps on-chip (requires time_loop bindings)"},
      {"constrained-memory", "",
       "model the finite memory controller (default is ideal memory)"},
      {"kernel-engine", "E", "kernel tier: scalar|specialized"},
      {"stall-timeout", "N", "progress watchdog threshold in cycles"},
  };
  return Specs;
}

const std::vector<ArgSpec> &cli::checkpointFlagSpecs() {
  static const std::vector<ArgSpec> Specs = {
      {"", "", "checkpoint/restart"},
      {"checkpoint-dir", "DIR", "enable crash-safe snapshots into DIR"},
      {"checkpoint-every", "N", "snapshot cadence in completed cycles"},
      {"checkpoint-every-seconds", "S", "snapshot cadence in wall seconds"},
      {"checkpoint-keep", "K", "snapshots retained (default 3)"},
      {"resume", "PATH", "resume from a snapshot file or directory"},
      {"crash-after-checkpoints", "N",
       "test hook: SIGKILL after the N-th snapshot"},
  };
  return Specs;
}

const std::vector<ArgSpec> &cli::tuneFlagSpecs() {
  static const std::vector<ArgSpec> Specs = {
      {"", "", "autotuner"},
      {"tune-budget", "N", "candidate budget for the design-space search"},
      {"tune-seed", "N", "beam-search PRNG seed (reproducible trajectory)"},
      {"tune-top-k", "N", "analytically best candidates to simulate"},
      {"tune-workers", "N",
       "threads for concurrent candidate simulation (0 = per core)"},
      {"tune-beam", "N", "beam width of the design-space search"},
      {"no-simulate", "",
       "rank by the analytic model alone (skip simulation)"},
  };
  return Specs;
}
