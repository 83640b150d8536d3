#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.h"
#include "base/trace.h"
#include "gtest/gtest.h"

namespace ontorew {
namespace {

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry metrics;
  Counter& requests = metrics.RegisterCounter("requests");
  requests.Increment();
  requests.Increment();
  metrics.RegisterCounter("tuples").Increment(40);
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.Counter("requests"), 2);
  EXPECT_EQ(snapshot.Counter("tuples"), 40);
  EXPECT_EQ(snapshot.Counter("absent"), 0);
}

TEST(MetricsTest, TimersAccumulate) {
  MetricsRegistry metrics;
  Timer& stage = metrics.RegisterTimer("stage");
  stage.AddNs(1500);
  stage.AddNs(500);
  EXPECT_EQ(metrics.Snapshot().TimerNs("stage"), 2000);
  EXPECT_EQ(metrics.Snapshot().TimerNs("absent"), 0);
}

TEST(MetricsTest, RegisteringANameAgainReturnsTheSameHandle) {
  MetricsRegistry metrics;
  EXPECT_EQ(&metrics.RegisterCounter("n"), &metrics.RegisterCounter("n"));
  EXPECT_EQ(&metrics.RegisterTimer("t"), &metrics.RegisterTimer("t"));
}

TEST(MetricsTest, TraceSpanTimerRecordsElapsedTime) {
  MetricsRegistry metrics;
  Timer& work = metrics.RegisterTimer("work_ns");
  {
    // No trace attached: the span still times the stage.
    TraceSpan span(TraceContext(), "work", &work);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  const std::int64_t first = metrics.Snapshot().TimerNs("work_ns");
  EXPECT_GT(first, 0);
  {
    // Ending early records once; the destructor adds nothing more.
    Trace trace;
    TraceSpan span(TraceContext(&trace), "work", &work);
    span.End();
    const std::int64_t ended = metrics.Snapshot().TimerNs("work_ns");
    EXPECT_GE(ended, first);
    span.End();
    EXPECT_EQ(metrics.Snapshot().TimerNs("work_ns"), ended);
    EXPECT_EQ(trace.size(), 1u);
  }
  // A span without a timer records nothing into the registry.
  { TraceSpan untimed(TraceContext(), "ignored"); }
  EXPECT_EQ(metrics.Snapshot().timers_ns.size(), 1u);
}

TEST(MetricsTest, SnapshotIsAPointInTimeCopy) {
  MetricsRegistry metrics;
  Counter& n = metrics.RegisterCounter("n");
  n.Increment();
  MetricsSnapshot snapshot = metrics.Snapshot();
  n.Increment();
  EXPECT_EQ(snapshot.Counter("n"), 1);
  EXPECT_EQ(metrics.Snapshot().Counter("n"), 2);
}

TEST(MetricsTest, OnlyRecordedHandlesAppearInTheSnapshot) {
  MetricsRegistry metrics;
  metrics.RegisterCounter("unused");
  metrics.RegisterTimer("unused_ns");
  Counter& zero = metrics.RegisterCounter("zero");
  EXPECT_TRUE(metrics.Snapshot().counters.empty());
  EXPECT_TRUE(metrics.Snapshot().timers_ns.empty());
  // A zero delta still records: the name shows, with value 0.
  zero.Increment(0);
  MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters.count("zero"), 1u);
  EXPECT_EQ(snapshot.Counter("zero"), 0);
}

TEST(MetricsTest, ToStringIsDeterministicAndReadable) {
  MetricsRegistry metrics;
  metrics.RegisterCounter("b_counter").Increment(2);
  metrics.RegisterCounter("a_counter").Increment(1);
  metrics.RegisterTimer("z_timer").AddNs(2500000);  // 2.5 ms.
  std::string text = metrics.Snapshot().ToString();
  EXPECT_EQ(text,
            "a_counter = 1\n"
            "b_counter = 2\n"
            "z_timer = 2.5 ms\n");
}

TEST(MetricsTest, ConcurrentIncrementsAreNotLost) {
  // Handle increments race handle registration (of the same and of new
  // names), live gauge reads and Snapshot(): no add may be lost, and
  // every snapshot must see a monotonic count.
  MetricsRegistry metrics;
  std::atomic<std::int64_t> live{0};
  metrics.RegisterGauge("live", [&live] { return live.load(); });
  static constexpr int kThreads = 8;
  static constexpr int kPerThread = 2000;
  std::atomic<bool> done{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&metrics, &live, t] {
      Counter& shared = metrics.RegisterCounter("shared");
      Timer& timer = metrics.RegisterTimer("shared_ns");
      for (int i = 0; i < kPerThread; ++i) {
        shared.Increment();
        timer.AddNs(2);
        live.fetch_add(1);
        if (i % 100 == 0) {
          metrics.RegisterCounter("shared").Increment();
          metrics.RegisterCounter("thread_" + std::to_string(t)).Increment();
        }
        live.fetch_sub(1);
      }
    });
  }
  std::thread reader([&metrics, &done] {
    std::int64_t last = 0;
    while (!done.load()) {
      const MetricsSnapshot snapshot = metrics.Snapshot();
      const std::int64_t now = snapshot.Counter("shared");
      EXPECT_GE(now, last);
      EXPECT_GE(snapshot.Gauge("live"), 0);
      EXPECT_LE(snapshot.Gauge("live"), kThreads);
      last = now;
    }
  });
  for (std::thread& thread : pool) thread.join();
  done.store(true);
  reader.join();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  constexpr int kRegistrationsPerThread = kPerThread / 100;
  EXPECT_EQ(snapshot.Counter("shared"),
            kThreads * (kPerThread + kRegistrationsPerThread));
  EXPECT_EQ(snapshot.TimerNs("shared_ns"), 2 * kThreads * kPerThread);
  EXPECT_EQ(snapshot.Gauge("live"), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snapshot.Counter("thread_" + std::to_string(t)),
              kRegistrationsPerThread);
  }
}

// --- Metric gauges ----------------------------------------------------------

TEST(MetricsGaugeTest, GaugeReadsLiveStateAtSnapshot) {
  MetricsRegistry metrics;
  std::int64_t inflight = 3;
  metrics.RegisterGauge("inflight", [&inflight] { return inflight; });
  EXPECT_EQ(metrics.Snapshot().Gauge("inflight"), 3);
  inflight = 1;
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.Gauge("inflight"), 1);
  EXPECT_EQ(snapshot.Gauge("absent"), 0);
  EXPECT_NE(snapshot.ToString().find("inflight = 1"), std::string::npos);
  // Registering the name again replaces the reader.
  metrics.RegisterGauge("inflight", [] { return std::int64_t{0}; });
  EXPECT_EQ(metrics.Snapshot().Gauge("inflight"), 0);
  EXPECT_EQ(metrics.Snapshot().gauges.size(), 1u);
}

}  // namespace
}  // namespace ontorew
