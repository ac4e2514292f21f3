//===- serve/PlanCache.cpp - Compiled-plan cache -------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/PlanCache.h"

#include "compute/Engine.h"
#include "sim/Checkpoint.h"
#include "support/StringUtils.h"

using namespace stencilflow;
using namespace stencilflow::serve;

uint64_t serve::fingerprintProgramJson(const json::Value &Description) {
  std::string Text = Description.toString();
  return sim::fnv1a(Text.data(), Text.size());
}

std::string PlanKey::id() const {
  // Utilization is quantized to 1/1000 so float formatting noise cannot
  // split keys that request the same value.
  std::string Id =
      formatString("p%016llx-f%d-s%d-w%d-d%d-u%d-k%s-t%d-b%d",
                   static_cast<unsigned long long>(ProgramHash),
                   Fuse ? 1 : 0, Simplify ? 1 : 0, VectorWidth, MaxDevices,
                   static_cast<int>(TargetUtilization * 1000.0 + 0.5),
                   compute::kernelEngineName(KernelExec), Tuned ? 1 : 0,
                   Tuned ? TuneBudget : 0);
  // Suffix only above 1: keys of temporally-unblocked plans are stable
  // across the introduction of the knob.
  if (TemporalDegree > 1)
    Id += formatString("-T%d", TemporalDegree);
  return Id;
}

std::shared_ptr<const CompiledPlan> PlanCache::find(const std::string &KeyId) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(KeyId);
  if (It == Entries.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Plan;
}

void PlanCache::insert(const std::string &KeyId,
                       std::shared_ptr<const CompiledPlan> Plan) {
  if (Capacity == 0 || !Plan)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(KeyId);
  if (It != Entries.end()) {
    It->second.Plan = std::move(Plan);
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return;
  }
  Lru.push_front(KeyId);
  Entries[KeyId] = Entry{std::move(Plan), Lru.begin()};
  while (Entries.size() > Capacity) {
    Entries.erase(Lru.back());
    Lru.pop_back();
    ++Evictions;
  }
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

int64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Evictions;
}
