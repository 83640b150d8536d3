// Unit tests for AdmissionGate (base/admission_gate.*), the one admission
// primitive behind AnswerEngine, each server tenant and the server.

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "base/admission_gate.h"
#include "base/deadline.h"
#include "base/status.h"
#include "gtest/gtest.h"

namespace ontorew {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// Long enough that a test finishing quickly proves the wait was cut
// short by the event under test, not by the timeout.
constexpr auto kLongTimeout = seconds(30);

TEST(AdmissionGateTest, UnlimitedCapacityAdmitsEveryRequest) {
  AdmissionGate gate(0, std::chrono::nanoseconds(0));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  }
  EXPECT_EQ(gate.inflight(), 1000u);
  for (int i = 0; i < 1000; ++i) gate.Release();
  EXPECT_EQ(gate.inflight(), 0u);
}

TEST(AdmissionGateTest, ZeroTimeoutShedsImmediately) {
  AdmissionGate gate(1, std::chrono::nanoseconds(0));
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  const Status shed = gate.Acquire(Deadline::Infinite());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("shed"), std::string::npos);
  // A refused request holds no slot.
  EXPECT_EQ(gate.inflight(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  gate.Release();
}

TEST(AdmissionGateTest, QueuedWaiterAdmittedWhenSlotFrees) {
  AdmissionGate gate(1, kLongTimeout);
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());

  std::atomic<bool> done{false};
  std::optional<Status> queued;
  std::thread waiter([&] {
    queued = gate.Acquire(Deadline::Infinite());
    done.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(done.load());  // Still queued behind the held slot.
  const auto start = Deadline::Clock::now();
  gate.Release();
  waiter.join();

  ASSERT_TRUE(queued.has_value());
  EXPECT_TRUE(queued->ok()) << *queued;
  EXPECT_LT(Deadline::Clock::now() - start, seconds(10));
  EXPECT_EQ(gate.inflight(), 1u);
  gate.Release();
}

TEST(AdmissionGateTest, RequestDeadlineBeforeTimeoutIsDeadlineExceeded) {
  AdmissionGate gate(1, kLongTimeout);
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  const auto start = Deadline::Clock::now();
  const Status expired = gate.Acquire(Deadline::AfterMillis(20));
  // The request's own budget ran out in the queue: not a shed.
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded) << expired;
  EXPECT_LT(Deadline::Clock::now() - start, seconds(10));
  EXPECT_EQ(gate.inflight(), 1u);
  gate.Release();
}

TEST(AdmissionGateTest, CloseWakesQueuedWaiters) {
  AdmissionGate gate(1, kLongTimeout);
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  std::vector<std::optional<Status>> results(3);
  std::vector<std::thread> waiters;
  for (auto& result : results) {
    waiters.emplace_back(
        [&gate, &result] { result = gate.Acquire(Deadline::Infinite()); });
  }
  std::this_thread::sleep_for(milliseconds(20));
  const auto start = Deadline::Clock::now();
  gate.Close();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_LT(Deadline::Clock::now() - start, seconds(10));
  for (const auto& result : results) {
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->code(), StatusCode::kResourceExhausted) << *result;
  }
  // A closed gate sheds at once instead of queueing.
  EXPECT_EQ(gate.Acquire(Deadline::Infinite()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_LT(Deadline::Clock::now() - start, seconds(10));
  EXPECT_EQ(gate.inflight(), 1u);
  gate.Release();
}

TEST(AdmissionGateTest, WaitIdleReturnsOnceLastSlotIsReleased) {
  AdmissionGate gate(0, std::chrono::nanoseconds(0));
  EXPECT_TRUE(gate.WaitIdle(std::chrono::nanoseconds(0)));
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
  EXPECT_FALSE(gate.WaitIdle(milliseconds(1)));

  std::thread releaser([&gate] {
    std::this_thread::sleep_for(milliseconds(20));
    gate.Release();
    std::this_thread::sleep_for(milliseconds(20));
    gate.Release();
  });
  const auto start = Deadline::Clock::now();
  EXPECT_TRUE(gate.WaitIdle(kLongTimeout));
  EXPECT_LT(Deadline::Clock::now() - start, seconds(10));
  EXPECT_EQ(gate.inflight(), 0u);
  releaser.join();
}

TEST(AdmissionGateTest, NeverAdmitsPastCapacityUnderContention) {
  constexpr std::size_t kCapacity = 2;
  AdmissionGate gate(kCapacity, kLongTimeout);
  std::atomic<std::size_t> inside{0};
  std::atomic<std::size_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(gate.Acquire(Deadline::Infinite()).ok());
        const std::size_t now = inside.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        inside.fetch_sub(1);
        gate.Release();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(peak.load(), kCapacity);
  EXPECT_EQ(gate.inflight(), 0u);
}

}  // namespace
}  // namespace ontorew
