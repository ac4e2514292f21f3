//===- compute/LatencyConfig.cpp - Latency tables from JSON --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "compute/LatencyConfig.h"

using namespace stencilflow;
using namespace stencilflow::compute;

Expected<OpCode> compute::parseOpCodeName(std::string_view Name) {
  for (size_t Index = 0; Index != NumOpCodes; ++Index)
    if (opCodeName(static_cast<OpCode>(Index)) == Name)
      return static_cast<OpCode>(Index);
  return makeError(ErrorCode::InvalidInput,
                   "unknown operation '" + std::string(Name) +
                       "' in latency configuration");
}

Expected<LatencyTable>
compute::latencyTableFromJson(const json::Value &Config) {
  if (!Config.isObject())
    return makeError(ErrorCode::InvalidInput,
                     "latency configuration must be a JSON object");
  LatencyTable Table;
  for (const auto &[Name, Value] : Config.getObject()) {
    Expected<OpCode> Op = parseOpCodeName(Name);
    if (!Op)
      return Op.takeError();
    std::optional<int64_t> Cycles =
        Value->isNumber() ? json::toInteger<int64_t>(Value->getNumber())
                          : std::nullopt;
    if (!Cycles || *Cycles < 0)
      return makeError(ErrorCode::InvalidInput,
                       "latency of '" + Name +
                           "' must be a non-negative integer");
    Table.setLatency(*Op, *Cycles);
  }
  return Table;
}

Expected<LatencyTable>
compute::latencyTableFromJsonText(std::string_view Text) {
  Expected<json::Value> Parsed = json::parse(Text);
  if (!Parsed)
    return Parsed.takeError().addContext("latency configuration");
  return latencyTableFromJson(*Parsed);
}
