#ifndef ONTOREW_BASE_METRICS_H_
#define ONTOREW_BASE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

// A lightweight metrics registry: named counters, wall-time timers and
// gauges, thread-safe, snapshot-able. Metrics are registered once, at
// construction, and recorded through handles: one relaxed atomic add, no
// lock or allocation. Gauges read live state when Snapshot() runs. Stage
// timers ride on trace spans (base/trace.h).
//
//   MetricsRegistry metrics;
//   Counter& misses = metrics.RegisterCounter("rewrite_cache_miss");
//   Timer& rewrite_ns = metrics.RegisterTimer("rewrite_ns");
//   metrics.RegisterGauge("inflight", [&gate] { return gate.inflight(); });
//   misses.Increment();
//   {
//     TraceSpan span(trace_context, "rewrite", &rewrite_ns);
//     ... work ...
//   }
//   std::puts(metrics.Snapshot().ToString().c_str());

namespace ontorew {

// A point-in-time copy of every metric. Ordered maps so ToString() is
// deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  // Current value per gauge name (non-monotonic, e.g. `inflight`).
  std::map<std::string, std::int64_t> gauges;
  // Accumulated wall time per timer name, nanoseconds.
  std::map<std::string, std::int64_t> timers_ns;

  std::int64_t Counter(std::string_view name) const;
  std::int64_t Gauge(std::string_view name) const;
  std::int64_t TimerNs(std::string_view name) const;

  // One "name = value" line per metric; timers print in milliseconds.
  std::string ToString() const;
};

// A counter handle: a monotonic sum. It appears in snapshots once
// recorded to, even by a zero delta; a handle registered but never used
// stays out of them.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    if (delta != 0) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      touched_.store(true, std::memory_order_relaxed);
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  bool recorded() const {
    return touched_.load(std::memory_order_relaxed) || value() != 0;
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<bool> touched_{false};
};

// A timer handle: a Counter of nanoseconds, reported as a timer.
class Timer : public Counter {
 public:
  void AddNs(std::int64_t nanos) { Increment(nanos); }
};

class MetricsRegistry {
 public:
  // Registering a name again returns the same handle. Handles stay valid
  // for the registry's lifetime.
  Counter& RegisterCounter(std::string_view name);
  Timer& RegisterTimer(std::string_view name);
  // `read` runs on every Snapshot(), outside the registry's lock.
  // Registering a name again replaces it.
  void RegisterGauge(std::string_view name, std::function<std::int64_t()> read);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;  // Guards the maps, not the handles' sums.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Timer> timers_;
  std::map<std::string, std::function<std::int64_t()>> gauges_;
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_METRICS_H_
