#include "base/fault_point.h"

#include <utility>

#include "base/strings.h"

namespace ontorew {

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Arm(std::string_view point, FaultPointConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  PointState& state = points_[std::string(point)];
  if (!state.is_armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.is_armed = true;
  state.rng = Rng(config.seed);
  state.config = std::move(config);
}

void FaultRegistry::Disarm(std::string_view point) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(std::string(point));
  if (it == points_.end() || !it->second.is_armed) return;
  it->second.is_armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

void FaultRegistry::Reset() { ResetAll(); }

Status FaultRegistry::Check(std::string_view point) {
  // Decide under the lock, run the handler outside it (handlers may
  // block for a long time — that is their point).
  std::function<Status(std::string_view)> handler;
  Status injected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(std::string(point));
    if (it == points_.end()) return Status::Ok();
    PointState& state = it->second;
    ++state.hits;
    if (!state.is_armed) return Status::Ok();
    if (state.hits <= state.config.after) return Status::Ok();
    if (state.config.probability < 1.0 &&
        !state.rng.Bernoulli(state.config.probability)) {
      return Status::Ok();
    }
    ++state.trips;
    injected = Status(state.config.code,
                      state.config.message.empty()
                          ? StrCat("fault injected at ", point)
                          : state.config.message);
    handler = state.config.handler;
  }
  if (handler) {
    Status substituted = handler(point);
    return substituted;  // OK suppresses the fault; non-OK replaces it.
  }
  return injected;
}

std::int64_t FaultRegistry::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.hits;
}

std::int64_t FaultRegistry::trips(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(std::string(point));
  return it == points_.end() ? 0 : it->second.trips;
}

}  // namespace ontorew
