#ifndef ONTOREW_BASE_METRICS_H_
#define ONTOREW_BASE_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

// A lightweight metrics registry: named monotonic counters and wall-time
// timers, thread-safe, snapshot-able. The serving layer records per-stage
// costs (rewrite, cache hit/miss, eval, minimize) here so benches and the
// CLI tools can report them without threading ad-hoc out-parameters
// through every call.
//
//   MetricsRegistry metrics;
//   metrics.Increment("rewrite_cache_miss");
//   {
//     ScopedTimer timer(&metrics, "rewrite_ns");
//     ... work ...
//   }
//   std::puts(metrics.Snapshot().ToString().c_str());

namespace ontorew {

// A point-in-time copy of every metric. Ordered maps so ToString() is
// deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  // Last-set value per gauge name (non-monotonic, e.g. `inflight`).
  std::map<std::string, std::int64_t> gauges;
  // Accumulated wall time per timer name, nanoseconds.
  std::map<std::string, std::int64_t> timers_ns;

  std::int64_t Counter(std::string_view name) const;
  std::int64_t Gauge(std::string_view name) const;
  std::int64_t TimerNs(std::string_view name) const;

  // One "name = value" line per metric; timers print in milliseconds.
  std::string ToString() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void Increment(std::string_view name, std::int64_t delta = 1);
  // Gauges are set, not accumulated (current in-flight requests, queue
  // depth, ...); AdjustGauge applies a signed delta to the current value.
  void SetGauge(std::string_view name, std::int64_t value);
  void AdjustGauge(std::string_view name, std::int64_t delta);
  void AddTimeNs(std::string_view name, std::int64_t nanos);

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, std::int64_t> timers_ns_;
};

// RAII wall-clock timer: accumulates the elapsed time into
// `registry->AddTimeNs(name)` on destruction. A null registry disables it.
// `name` is not copied: it must outlive the timer.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string_view name)
      : registry_(registry), name_(name),
        start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (registry_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_->AddTimeNs(
        name_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }

 private:
  MetricsRegistry* registry_;
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_METRICS_H_
