//===- tests/common/SimDigest.h - Exact simulation fingerprints --*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical fingerprints of a simulation outcome, for tests that pin the
/// simulator's exact results. A completed run is rendered as text —
/// cycles, termination, per-device memory bytes, network bytes, every
/// component's per-cause stall breakdown, every channel's capacity,
/// high-water mark and peak occupancy, every reliable link's counters, and
/// an FNV-1a hash of each output's bit patterns — with doubles printed in
/// hexadecimal so no rounding hides a change. A failed run is rendered as
/// its error code plus the structured failure report. The digest is the
/// FNV-1a hash of that text; a pin mismatch prints the text so the
/// difference can be read.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TESTS_COMMON_SIMDIGEST_H
#define STENCILFLOW_TESTS_COMMON_SIMDIGEST_H

#include "sim/Checkpoint.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <map>
#include <string>

namespace stencilflow {
namespace testing {

inline void appendStalls(std::string &Out, const char *Kind,
                         const std::map<std::string, sim::StallBreakdown> &M) {
  for (const auto &[Name, Stalls] : M) {
    Out += formatString("%s %s", Kind, Name.c_str());
    for (int Cause = 0; Cause < sim::NumStallCauses; ++Cause)
      Out += formatString(" %lld",
                          static_cast<long long>(Stalls.Counts[Cause]));
    Out += '\n';
  }
}

/// Canonical text of everything a completed run reports.
inline std::string simDigestText(const sim::SimResult &R) {
  const sim::SimStats &S = R.Stats;
  std::string Out = formatString("cycles %lld termination %s\n",
                                 static_cast<long long>(S.Cycles),
                                 sim::terminationReasonName(R.Termination));
  for (size_t Device = 0; Device != S.MemoryBytesMoved.size(); ++Device)
    Out += formatString("memory %zu %a\n", Device, S.MemoryBytesMoved[Device]);
  Out += formatString("network %a\n", S.NetworkBytesMoved);
  for (const auto &[Name, Stalls] : S.UnitStalls)
    Out += formatString("unit-stall-cycles %s %lld\n", Name.c_str(),
                        static_cast<long long>(Stalls.total()));
  appendStalls(Out, "unit", S.UnitStalls);
  appendStalls(Out, "reader", S.ReaderStalls);
  appendStalls(Out, "writer", S.WriterStalls);
  for (const auto &[Name, Channel] : S.Channels)
    Out += formatString(
        "channel %s capacity %lld high-water %lld peak %lld\n", Name.c_str(),
        static_cast<long long>(Channel.Capacity),
        static_cast<long long>(Channel.HighWater),
        static_cast<long long>(Channel.PeakOccupancy));
  for (const auto &[Name, L] : S.Links)
    Out += formatString("link %s tx %lld retx %lld corrupt %lld nack %lld "
                        "delivered %lld\n",
                        Name.c_str(), static_cast<long long>(L.Transmissions),
                        static_cast<long long>(L.Retransmissions),
                        static_cast<long long>(L.CorruptedVectors),
                        static_cast<long long>(L.Nacks),
                        static_cast<long long>(L.Delivered));
  for (const auto &[Name, Values] : R.Outputs)
    Out += formatString("output %s crc %016llx\n", Name.c_str(),
                        static_cast<unsigned long long>(sim::fnv1a(
                            Values.data(), Values.size() * sizeof(double))));
  return Out;
}

/// Canonical text of a failed run: error code plus the rendered report.
inline std::string simDigestText(const sim::SimFailure &F) {
  return formatString("failure %s\n", errorCodeName(F.code())) +
         F.report().render();
}

/// FNV-1a hash of \c simDigestText.
template <typename Outcome> uint64_t simDigest(const Outcome &O) {
  std::string Text = simDigestText(O);
  return sim::fnv1a(Text.data(), Text.size());
}

} // namespace testing
} // namespace stencilflow

#endif // STENCILFLOW_TESTS_COMMON_SIMDIGEST_H
