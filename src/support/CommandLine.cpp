//===- support/CommandLine.cpp - Tiny flag parser --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

using namespace stencilflow;

Expected<CommandLine>
CommandLine::parse(int Argc, const char *const *Argv,
                   const std::vector<std::string> &Known) {
  CommandLine Result;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!startsWith(Arg, "--")) {
      Result.Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body, Value;
    size_t Eq = Body.find('=');
    if (Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
    } else if (I + 1 < Argc && !startsWith(Argv[I + 1], "--")) {
      Value = Argv[++I];
    }
    if (std::find(Known.begin(), Known.end(), Name) == Known.end())
      return makeError("unknown flag '--" + Name + "'");
    Result.Values[Name] = Value;
  }
  return Result;
}

std::string CommandLine::getString(const std::string &Flag,
                                   const std::string &Default) const {
  auto It = Values.find(Flag);
  return It == Values.end() ? Default : It->second;
}

namespace {

/// Parses \p Text completely with \p Parse (a strtoll/strtod shape), or
/// fails naming \p Flag.
template <typename T, typename ParseFn>
Expected<T> parseNumber(const std::string &Flag, const std::string &Text,
                        const char *Kind, ParseFn Parse) {
  const char *Begin = Text.c_str();
  char *End = nullptr;
  errno = 0;
  T Value = Parse(Begin, &End);
  if (Text.empty() || End != Begin + Text.size() || errno == ERANGE)
    return makeError(ErrorCode::InvalidInput,
                     formatString("--%s: '%s' is not %s", Flag.c_str(),
                                  Text.c_str(), Kind));
  return Value;
}

} // namespace

Expected<int64_t> CommandLine::getInt(const std::string &Flag,
                                      int64_t Default) const {
  auto It = Values.find(Flag);
  if (It == Values.end())
    return Default;
  return parseNumber<int64_t>(
      Flag, It->second, "an integer",
      [](const char *S, char **End) { return std::strtoll(S, End, 10); });
}

Expected<double> CommandLine::getDouble(const std::string &Flag,
                                        double Default) const {
  auto It = Values.find(Flag);
  if (It == Values.end())
    return Default;
  return parseNumber<double>(
      Flag, It->second, "a number",
      [](const char *S, char **End) { return std::strtod(S, End); });
}
