//===- serve/PlanCache.h - Compiled-plan cache --------------------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's compiled-plan cache: repeat traffic for the same
/// (program, mapping, kernel engine) skips the pipeline's entire compile
/// half — parse, fusion, kernel compilation, dataflow/buffer analysis,
/// tuning, and partitioning — and goes straight to execution.
///
/// Keying is *syntactic*: the program fingerprint is an FNV-1a hash of the
/// canonical compact JSON rendering of the description, so a cache hit
/// never requires semantic analysis of the request. Two descriptions that
/// differ only in member order or whitespace hash differently — they
/// simply occupy two entries. The rest of the key covers every request
/// knob that changes the compiled plan (fusion, simplification, vector
/// width, device budget, target utilization, autotuning) plus the kernel
/// execution tier, so no knob can leak a stale plan across requests.
///
/// Entries are shared immutable plans (\c std::shared_ptr<const
/// CompiledPlan>): a plan evicted while a request still executes on it
/// stays alive until that request finishes. Bounded LRU; thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef STENCILFLOW_SERVE_PLANCACHE_H
#define STENCILFLOW_SERVE_PLANCACHE_H

#include "runtime/Pipeline.h"
#include "support/Json.h"

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace stencilflow {
namespace serve {

/// Stable 64-bit FNV-1a fingerprint of a JSON program description
/// (canonical compact rendering; insertion order preserved).
uint64_t fingerprintProgramJson(const json::Value &Description);

/// Everything that selects a distinct compiled plan: the program
/// fingerprint, the mapping knobs consumed by the compile half, whether
/// the mapping was autotuned, and the kernel execution tier. \c id() is
/// the canonical cache key; any field change changes it.
struct PlanKey {
  uint64_t ProgramHash = 0;
  bool Fuse = false;
  bool Simplify = false;
  /// Requested vectorization width; 0 keeps the program's own width.
  int VectorWidth = 0;
  /// Timesteps unrolled on-chip; appears in the id only when above 1 so
  /// keys of temporally-unblocked plans are unchanged.
  int TemporalDegree = 1;
  int MaxDevices = 8;
  double TargetUtilization = 0.85;
  compute::KernelEngine KernelExec = compute::KernelEngine::Specialized;
  /// Autotuned mapping (and the candidate budget the search ran with —
  /// different budgets may choose different mappings).
  bool Tuned = false;
  int TuneBudget = 0;

  /// Canonical key string, e.g. "p1a2b3c4d5e6f708-f1-s0-w4-d8-u850-
  /// kspecialized-t0b0".
  std::string id() const;

  friend bool operator==(const PlanKey &A, const PlanKey &B) {
    return A.id() == B.id();
  }
};

/// Thread-safe bounded LRU cache of shared immutable compiled plans.
/// Lookup/insert only — hit/miss accounting lives with the server's
/// ServeStats, which also counts requests that joined an in-flight
/// compilation.
class PlanCache {
public:
  explicit PlanCache(size_t Capacity = 64) : Capacity(Capacity) {}

  /// The cached plan for \p KeyId, or null. Refreshes LRU order.
  std::shared_ptr<const CompiledPlan> find(const std::string &KeyId);

  /// Inserts (or replaces) the plan for \p KeyId, evicting the least
  /// recently used entries beyond capacity.
  void insert(const std::string &KeyId,
              std::shared_ptr<const CompiledPlan> Plan);

  size_t size() const;
  size_t capacity() const { return Capacity; }
  int64_t evictions() const;

private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> Plan;
    std::list<std::string>::iterator LruIt;
  };

  mutable std::mutex Mutex;
  size_t Capacity;
  /// Most recently used at the front; values are key ids.
  std::list<std::string> Lru;
  std::map<std::string, Entry> Entries;
  int64_t Evictions = 0;
};

} // namespace serve
} // namespace stencilflow

#endif // STENCILFLOW_SERVE_PLANCACHE_H
