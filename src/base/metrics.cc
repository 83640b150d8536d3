#include "base/metrics.h"

#include <utility>
#include <vector>

#include "base/strings.h"

namespace ontorew {

std::int64_t MetricsSnapshot::Counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::int64_t MetricsSnapshot::Gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

std::int64_t MetricsSnapshot::TimerNs(std::string_view name) const {
  auto it = timers_ns.find(std::string(name));
  return it == timers_ns.end() ? 0 : it->second;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StrCat(name, " = ", value, "\n");
  }
  for (const auto& [name, value] : gauges) {
    out += StrCat(name, " = ", value, "\n");
  }
  for (const auto& [name, nanos] : timers_ns) {
    out += StrCat(name, " = ", static_cast<double>(nanos) / 1e6, " ms\n");
  }
  return out;
}

// Map nodes never move, so the handles returned below stay valid.
Counter& MetricsRegistry::RegisterCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Timer& MetricsRegistry::RegisterTimer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return timers_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::RegisterGauge(std::string_view name,
                                    std::function<std::int64_t()> read) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[std::string(name)] = std::move(read);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::vector<std::pair<std::string, std::function<std::int64_t()>>> gauges;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      if (counter.recorded()) snapshot.counters[name] = counter.value();
    }
    for (const auto& [name, timer] : timers_) {
      if (timer.recorded()) snapshot.timers_ns[name] = timer.value();
    }
    gauges.assign(gauges_.begin(), gauges_.end());
  }
  for (const auto& [name, read] : gauges) snapshot.gauges[name] = read();
  return snapshot;
}

}  // namespace ontorew
