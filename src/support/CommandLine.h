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
#include "support/StringUtils.h"

#include <cstdint>
#include <limits>
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
  /// floating-point \p T, else as an integer \p T must hold — when the
  /// flag was given, and leaves \p Out untouched otherwise. An integer
  /// outside \p T's range, such as a negative one for an unsigned \p T,
  /// is an InvalidInput error naming the flag ("must be an integer in
  /// [min, max]"), never a wrapped value.
  template <typename T> Error read(const std::string &Flag, T &Out) const {
    if (!has(Flag))
      return Error::success();
    if constexpr (std::is_floating_point_v<T>) {
      Expected<double> Value = getDouble(Flag, 0.0);
      if (!Value)
        return Value.takeError();
      Out = static_cast<T>(*Value);
    } else {
      static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                    "read() fills a number");
      using Wide = std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t>;
      Expected<Wide> Value = getInteger<Wide>(
          Flag, std::numeric_limits<T>::min(), std::numeric_limits<T>::max());
      if (!Value)
        return Value.takeError();
      Out = static_cast<T>(*Value);
    }
    return Error::success();
  }

  /// Appends each element of \p Flag's comma-separated value to \p Out,
  /// read by \c read's rule, when the flag was given. The first element
  /// that breaks the rule is the InvalidInput error naming the flag.
  template <typename T>
  Error readList(const std::string &Flag, std::vector<T> &Out) const {
    if (!has(Flag))
      return Error::success();
    CommandLine Element;
    for (const std::string &Text : splitString(getString(Flag), ',')) {
      Element.Values[Flag] = Text;
      T Value{};
      if (Error Err = Element.read(Flag, Value))
        return Err;
      Out.push_back(Value);
    }
    return Error::success();
  }

  /// Returns true if \p Flag was given (with any or no value).
  bool has(const std::string &Flag) const { return Values.count(Flag) != 0; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

private:
  /// The value of the given integer flag \p Flag, parsed as \p Wide
  /// (int64_t or uint64_t) and checked against [Min, Max].
  template <typename Wide>
  Expected<Wide> getInteger(const std::string &Flag, Wide Min,
                            Wide Max) const;

  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
};

} // namespace stencilflow

#endif // STENCILFLOW_SUPPORT_COMMANDLINE_H
