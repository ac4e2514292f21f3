//===- runtime/Validation.cpp - Result comparison -----------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Validation.h"

#include "sim/Checkpoint.h"
#include "support/StringUtils.h"

#include <cmath>

using namespace stencilflow;

ValidationReport stencilflow::validateField(const std::string &Name,
                                            const std::vector<double> &Actual,
                                            const std::vector<double> &Expected,
                                            double Tolerance) {
  ValidationReport Report;
  if (Actual.size() != Expected.size()) {
    Report.Passed = false;
    Report.Summary = formatString(
        "field '%s': size mismatch (%zu vs %zu cells)", Name.c_str(),
        Actual.size(), Expected.size());
    return Report;
  }
  for (size_t Cell = 0, E = Actual.size(); Cell != E; ++Cell) {
    double A = Actual[Cell], B = Expected[Cell];
    bool Equal = (A == B) || (std::isnan(A) && std::isnan(B));
    double AbsErr = Equal ? 0.0 : std::fabs(A - B);
    if (!Equal && AbsErr > Tolerance) {
      if (Report.FirstMismatch < 0)
        Report.FirstMismatch = static_cast<int64_t>(Cell);
      ++Report.Mismatches;
      Report.MaxAbsoluteError = std::max(Report.MaxAbsoluteError, AbsErr);
    }
  }
  Report.Passed = Report.Mismatches == 0;
  if (Report.Passed)
    Report.Summary =
        formatString("field '%s': OK (%zu cells)", Name.c_str(),
                     Actual.size());
  else
    Report.Summary = formatString(
        "field '%s': %lld mismatching cell(s), first at %lld, max abs "
        "error %g",
        Name.c_str(), static_cast<long long>(Report.Mismatches),
        static_cast<long long>(Report.FirstMismatch),
        Report.MaxAbsoluteError);
  return Report;
}

uint64_t
stencilflow::outputsCrc(const std::vector<std::string> &Order,
                        const std::map<std::string, std::vector<double>> &Fields) {
  uint64_t Crc = sim::fnv1a(nullptr, 0);
  for (const std::string &Name : Order) {
    Crc = sim::fnv1a(Name.data(), Name.size(), Crc);
    auto It = Fields.find(Name);
    if (It == Fields.end())
      continue;
    Crc = sim::fnv1a(It->second.data(), It->second.size() * sizeof(double),
                     Crc);
  }
  return Crc;
}
