//===- tuner/Search.h - Deterministic design-space search ---------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The autotuner's search strategies, both deterministic so tuning runs
/// are reproducible and testable:
///
///  - \b exhaustive: when the space fits the candidate budget, every point
///    is costed, in enumeration order;
///  - \b seeded \b beam \b search: otherwise, a beam of the currently best
///    mappings expands along axis neighborhoods (one step along each of
///    the five axes), costing new points until the budget is spent or the
///    frontier stops producing unseen candidates. The initial beam is the
///    default mapping plus deterministically seeded random points
///    (support/Random, splitmix64), so identical (seed, space) inputs
///    yield bit-identical trajectories.
///
/// All ranking ties break on the candidate id string, never on pointer or
/// hash order.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_TUNER_SEARCH_H
#define STENCILFLOW_TUNER_SEARCH_H

#include "tuner/CostModel.h"
#include "tuner/DesignSpace.h"
#include "tuner/TuningReport.h"

#include <cstdint>
#include <string>
#include <vector>

namespace stencilflow {
namespace tuner {

/// Search strategy knobs.
struct SearchOptions {
  /// Maximum candidates the search may cost. Spaces up to this size are
  /// swept exhaustively; larger ones fall back to beam search.
  int CandidateBudget = 64;

  /// Beam width (survivors per round) of the beam search.
  int BeamWidth = 6;

  /// PRNG seed for the initial beam.
  uint64_t Seed = 0x5F3759DF;
};

/// What the search produced.
struct SearchResult {
  /// "exhaustive" or "beam".
  std::string Kind;

  /// Every costed candidate, in exploration order.
  std::vector<CandidateRecord> Records;
};

/// True when \p A ranks strictly before \p B in the analytic order the
/// search optimizes: feasible first, then (PredictedSeconds, Devices,
/// PeakUtilization), with the mapping id as the final deterministic
/// tie-break.
bool rankByPrediction(const CandidateRecord &A, const CandidateRecord &B);

/// Explores \p Space with \p Model. \p Default seeds the beam (it is
/// always costed, even exhaustively — it is part of every space by
/// construction of the axes); \p DefaultCost is its \c CostModel::cost,
/// which the caller has already computed.
SearchResult searchDesignSpace(const DesignSpace &Space,
                               const CostModel &Model,
                               const SearchOptions &Options,
                               const CandidateMapping &Default,
                               const CandidateCost &DefaultCost);

} // namespace tuner
} // namespace stencilflow

#endif // STENCILFLOW_TUNER_SEARCH_H
