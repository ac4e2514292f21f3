//===- support/CommandLine.h - Tiny flag parser ------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal command-line option parsing used by the examples and benchmark
/// harnesses: `--name=value` or `--name value` pairs plus positional
/// arguments. Unknown flags are reported as errors so typos do not silently
/// change experiments.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SUPPORT_COMMANDLINE_H
#define STENCILFLOW_SUPPORT_COMMANDLINE_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace stencilflow {

/// Parsed command-line options.
class CommandLine {
public:
  /// Parses argv. \p Known lists accepted flag names (without "--").
  static Expected<CommandLine> parse(int Argc, const char *const *Argv,
                                     const std::vector<std::string> &Known);

  /// Returns the string value of \p Flag, or \p Default when absent.
  std::string getString(const std::string &Flag,
                        const std::string &Default = "") const;

  /// Returns the integer value of \p Flag, or \p Default when absent. A
  /// value that is not entirely a base-10 integer is an InvalidInput error
  /// naming the flag.
  Expected<int64_t> getInt(const std::string &Flag, int64_t Default) const;

  /// Returns the double value of \p Flag, or \p Default when absent. A
  /// value that is not entirely a number is an InvalidInput error naming
  /// the flag.
  Expected<double> getDouble(const std::string &Flag, double Default) const;

  /// Stores the value of \p Flag in \p Out — read by \c getDouble for a
  /// floating-point \p T, else by \c getInt — when the flag was given,
  /// and leaves \p Out untouched otherwise.
  template <typename T> Error read(const std::string &Flag, T &Out) const {
    if (!has(Flag))
      return Error::success();
    auto Value = [&] {
      if constexpr (std::is_floating_point_v<T>)
        return getDouble(Flag, 0.0);
      else
        return getInt(Flag, 0);
    }();
    if (!Value)
      return Value.takeError();
    Out = static_cast<T>(*Value);
    return Error::success();
  }

  /// Returns true if \p Flag was given (with any or no value).
  bool has(const std::string &Flag) const { return Values.count(Flag) != 0; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
};

} // namespace stencilflow

#endif // STENCILFLOW_SUPPORT_COMMANDLINE_H
