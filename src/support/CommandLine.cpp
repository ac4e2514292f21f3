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
#include <utility>

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

template <typename Wide>
Expected<Wide> CommandLine::getInteger(const std::string &Flag, Wide Min,
                                       Wide Max) const {
  const std::string &Text = Values.at(Flag);
  const char *Begin = Text.c_str();
  char *End = nullptr;
  // strtoull accepts "-1" and wraps it to 2^64 - 1, so any text with a
  // minus sign parses signed.
  bool Signed =
      std::is_signed_v<Wide> || Text.find('-') != std::string::npos;
  errno = 0;
  long long S = Signed ? std::strtoll(Begin, &End, 10) : 0;
  unsigned long long U = Signed ? 0 : std::strtoull(Begin, &End, 10);
  if (Text.empty() || End != Begin + Text.size())
    return makeError(ErrorCode::InvalidInput,
                     formatString("--%s: '%s' is not an integer", Flag.c_str(),
                                  Text.c_str()));
  bool InRange = errno != ERANGE && (Signed ? std::cmp_greater_equal(S, Min) &&
                                                  std::cmp_less_equal(S, Max)
                                            : std::cmp_less_equal(U, Max));
  if (!InRange)
    return makeError(ErrorCode::InvalidInput,
                     formatString("--%s: '%s' must be an integer in [%s, %s]",
                                  Flag.c_str(), Text.c_str(),
                                  std::to_string(Min).c_str(),
                                  std::to_string(Max).c_str()));
  return Signed ? static_cast<Wide>(S) : static_cast<Wide>(U);
}

template Expected<int64_t>
CommandLine::getInteger<int64_t>(const std::string &, int64_t, int64_t) const;
template Expected<uint64_t>
CommandLine::getInteger<uint64_t>(const std::string &, uint64_t,
                                  uint64_t) const;

Expected<int64_t> CommandLine::getInt(const std::string &Flag,
                                      int64_t Default) const {
  if (!has(Flag))
    return Default;
  return getInteger<int64_t>(Flag, std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max());
}

Expected<double> CommandLine::getDouble(const std::string &Flag,
                                        double Default) const {
  auto It = Values.find(Flag);
  if (It == Values.end())
    return Default;
  const std::string &Text = It->second;
  const char *Begin = Text.c_str();
  char *End = nullptr;
  errno = 0;
  double Value = std::strtod(Begin, &End);
  if (Text.empty() || End != Begin + Text.size() || errno == ERANGE)
    return makeError(ErrorCode::InvalidInput,
                     formatString("--%s: '%s' is not a number", Flag.c_str(),
                                  Text.c_str()));
  return Value;
}
