//===- support/Args.h - Shared CLI argument surface ---------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative layer every CLI (run_program, sf_tune, sf_serve) parses
/// its arguments through. Each tool registers its flags once — name, value
/// placeholder, one-line help — and gets for free:
///
///  - parsing via support/CommandLine.h with unknown-flag rejection,
///  - a uniform generated `--help` (usage line, grouped flag table, and
///    the shared process exit-code legend from support/Error.h),
///  - the *shared flag packs*: the session, checkpoint, and autotuner
///    knobs are defined here exactly once, so their names and help text
///    cannot drift between tools again (historically run_program said
///    `--tune-budget` while sf_tune said `--budget`; the `--tune-*`
///    spelling is now canonical everywhere).
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SUPPORT_ARGS_H
#define STENCILFLOW_SUPPORT_ARGS_H

#include "support/CommandLine.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace stencilflow {
namespace cli {

/// One registered flag: `--Name` (boolean when \p Value is empty, else
/// `--Name <Value>`), with its help line. A spec whose Name is empty is a
/// group header rendered as a section title in --help.
struct ArgSpec {
  std::string Name;
  std::string Value;
  std::string Help;
};

/// A tool's complete argument surface. Build it fluently, then call
/// \c parse().
class ArgSet {
public:
  /// \p Tool is the binary name; \p Summary the one-line description;
  /// \p Positional the usage-line placeholder for positional arguments
  /// (e.g. "<program.json>"), empty when the tool takes none.
  ArgSet(std::string Tool, std::string Summary,
         std::string Positional = "");

  /// Registers a boolean flag.
  ArgSet &flag(std::string Name, std::string Help);
  /// Registers a value-taking flag.
  ArgSet &option(std::string Name, std::string Value, std::string Help);
  /// Starts a titled group in the help output.
  ArgSet &group(std::string Title);
  /// Appends a pre-built pack (the shared specs below).
  ArgSet &pack(const std::vector<ArgSpec> &Specs);

  /// Parses argv. Handles `--help` itself: prints \c helpText() to stdout
  /// and returns an *empty-message* signal via \c HelpShown so the caller
  /// can exit 0. Unknown flags and malformed values are errors.
  Expected<CommandLine> parse(int Argc, const char *const *Argv) const;

  /// True when the last \c parse() consumed `--help`.
  bool helpShown() const { return HelpShown; }

  /// The generated usage line ("usage: tool <positional> [flags]").
  std::string usageLine() const;
  /// Full help: usage, summary, grouped flag table, exit-code legend.
  std::string helpText() const;

private:
  std::string Tool;
  std::string Summary;
  std::string Positional;
  std::vector<ArgSpec> Specs;
  mutable bool HelpShown = false;
};

//===----------------------------------------------------------------------===//
// Shared flag packs (single source of truth for cross-tool knobs)
//===----------------------------------------------------------------------===//

/// Session/pipeline knobs: --fuse --simplify --vectorize W
/// --temporal-degree T --constrained-memory --kernel-engine E
/// --stall-timeout N.
const std::vector<ArgSpec> &sessionFlagSpecs();

/// Checkpoint/restart knobs: --checkpoint-dir DIR --checkpoint-every N
/// --checkpoint-every-seconds S --checkpoint-keep K --resume PATH|DIR
/// --crash-after-checkpoints N.
const std::vector<ArgSpec> &checkpointFlagSpecs();

/// Autotuner knobs: --tune-budget N --tune-seed N --tune-top-k N
/// --tune-workers N --tune-beam N --no-simulate.
const std::vector<ArgSpec> &tuneFlagSpecs();

} // namespace cli
} // namespace stencilflow

#endif // STENCILFLOW_SUPPORT_ARGS_H
