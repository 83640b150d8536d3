// Unit tests for the cancellation/fault-injection base layer: Deadline,
// CancelToken, CancelScope (base/deadline.*) and the fault-point registry
// (base/fault_point.*), plus the new status codes and metric gauges they
// rely on.

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>

#include "base/deadline.h"
#include "base/fault_point.h"
#include "base/status.h"
#include "gtest/gtest.h"

namespace ontorew {
namespace {

using std::chrono::milliseconds;

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline infinite = Deadline::Infinite();
  EXPECT_TRUE(infinite.is_infinite());
  EXPECT_FALSE(infinite.expired());
  EXPECT_EQ(infinite.remaining(), Deadline::Clock::duration::max());
  // Default construction is infinite too.
  EXPECT_TRUE(Deadline().is_infinite());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline past = Deadline::After(milliseconds(-1));
  EXPECT_FALSE(past.is_infinite());
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), Deadline::Clock::duration::zero());
}

TEST(DeadlineTest, FutureDeadlineHasRemainingBudget) {
  Deadline future = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining(), milliseconds(59'000));
}

TEST(DeadlineTest, BudgetsPastTheClockRangeSaturate) {
  // 1e13 ms (~317 years) overflows a nanosecond steady_clock: it must read
  // as no deadline, not as one already in the past.
  for (std::int64_t millis :
       {std::int64_t{10'000'000'000'000},
        std::numeric_limits<std::int64_t>::max()}) {
    Deadline far = Deadline::AfterMillis(millis);
    EXPECT_TRUE(far.is_infinite()) << millis;
    EXPECT_FALSE(far.expired()) << millis;
  }
  EXPECT_TRUE(Deadline::After(Deadline::Clock::duration::max()).is_infinite());

  // A long but representable budget stays finite and unexpired.
  Deadline year = Deadline::AfterMillis(365LL * 24 * 3600 * 1000);
  EXPECT_FALSE(year.is_infinite());
  EXPECT_FALSE(year.expired());
}

TEST(DeadlineTest, EarlierPicksTheTighterDeadline) {
  Deadline loose = Deadline::AfterMillis(60'000);
  Deadline tight = Deadline::AfterMillis(1'000);
  EXPECT_EQ(Deadline::Earlier(loose, tight).time(), tight.time());
  EXPECT_EQ(Deadline::Earlier(tight, loose).time(), tight.time());
  // Infinite is the identity on either side.
  EXPECT_EQ(Deadline::Earlier(Deadline::Infinite(), tight).time(),
            tight.time());
  EXPECT_EQ(Deadline::Earlier(tight, Deadline::Infinite()).time(),
            tight.time());
  EXPECT_TRUE(
      Deadline::Earlier(Deadline::Infinite(), Deadline::Infinite())
          .is_infinite());
}

TEST(CancelTokenTest, CancelIsStickyAndVisibleAcrossThreads) {
  auto token = std::make_shared<CancelToken>();
  EXPECT_FALSE(token->cancelled());
  std::thread canceller([token] { token->Cancel(); });
  canceller.join();
  EXPECT_TRUE(token->cancelled());
}

TEST(CancelTokenTest, ChildReportsParentCancellation) {
  auto parent = std::make_shared<CancelToken>();
  CancelToken child(parent);
  EXPECT_FALSE(child.cancelled());
  parent->Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(CancelTokenTest, ChildCancellationDoesNotPropagateUp) {
  auto parent = std::make_shared<CancelToken>();
  auto child = std::make_shared<CancelToken>(parent);
  child->Cancel();
  EXPECT_TRUE(child->cancelled());
  EXPECT_FALSE(parent->cancelled());
}

TEST(CancelScopeTest, InertScopeAlwaysPasses) {
  CancelScope scope;
  EXPECT_FALSE(scope.active());
  EXPECT_TRUE(scope.Check("anywhere").ok());
}

TEST(CancelScopeTest, ExpiredDeadlineYieldsDeadlineExceeded) {
  CancelScope scope(Deadline::After(milliseconds(-1)));
  EXPECT_TRUE(scope.active());
  Status status = scope.Check("test site");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("test site"), std::string::npos);
}

TEST(CancelScopeTest, CancelledTokenYieldsCancelled) {
  auto token = std::make_shared<CancelToken>();
  CancelScope scope(Deadline::Infinite(), token);
  EXPECT_TRUE(scope.active());
  EXPECT_TRUE(scope.Check("site").ok());
  token->Cancel();
  EXPECT_EQ(scope.Check("site").code(), StatusCode::kCancelled);
}

TEST(CancelScopeTest, CancellationWinsOverExpiredDeadline) {
  // Both tripped: report Cancelled (the caller's explicit intent).
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  CancelScope scope(Deadline::After(milliseconds(-1)), token);
  EXPECT_EQ(scope.Check("site").code(), StatusCode::kCancelled);
}

TEST(CancelScopeTest, WithTokenShortCircuitsWithoutTouchingCaller) {
  auto caller = std::make_shared<CancelToken>();
  CancelScope outer(Deadline::Infinite(), caller);
  auto pool = std::make_shared<CancelToken>(caller);
  CancelScope inner = outer.WithToken(pool);
  pool->Cancel();
  EXPECT_EQ(inner.Check("worker").code(), StatusCode::kCancelled);
  EXPECT_TRUE(outer.Check("caller").ok());
}

TEST(StatusTest, NewCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
  EXPECT_EQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(DeadlineExceededError("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
}

// --- Fault points -----------------------------------------------------------

class FaultPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(FaultPointTest, UnarmedCheckIsOkAndRegistryUnarmed) {
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultRegistry::Global().armed());
  EXPECT_TRUE(CheckFaultPoint("nowhere").ok());
  EXPECT_EQ(FaultRegistry::Global().trips("nowhere"), 0);
}

TEST_F(FaultPointTest, ArmedPointTripsWithInjectedStatus) {
  FaultPointConfig config;
  config.code = StatusCode::kInternal;
  FaultRegistry::Global().Arm("test.point", config);
  EXPECT_TRUE(FaultRegistry::Global().armed());
  Status status = CheckFaultPoint("test.point");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("test.point"), std::string::npos);
  EXPECT_EQ(FaultRegistry::Global().hits("test.point"), 1);
  EXPECT_EQ(FaultRegistry::Global().trips("test.point"), 1);
  // Other points are unaffected.
  EXPECT_TRUE(CheckFaultPoint("other.point").ok());
}

TEST_F(FaultPointTest, AfterCountDelaysTheTrip) {
  FaultPointConfig config;
  config.after = 2;
  FaultRegistry::Global().Arm("test.after", config);
  EXPECT_TRUE(CheckFaultPoint("test.after").ok());   // hit 1
  EXPECT_TRUE(CheckFaultPoint("test.after").ok());   // hit 2
  EXPECT_FALSE(CheckFaultPoint("test.after").ok());  // hit 3 trips
  EXPECT_EQ(FaultRegistry::Global().hits("test.after"), 3);
  EXPECT_EQ(FaultRegistry::Global().trips("test.after"), 1);
}

TEST_F(FaultPointTest, ProbabilityIsDeterministicPerSeed) {
  FaultPointConfig config;
  config.probability = 0.5;
  config.seed = 42;
  FaultRegistry::Global().Arm("test.prob", config);
  int first_trips = 0;
  for (int i = 0; i < 100; ++i) {
    if (!CheckFaultPoint("test.prob").ok()) ++first_trips;
  }
  // Roughly half, and exactly reproducible on re-arm with the same seed.
  EXPECT_GT(first_trips, 20);
  EXPECT_LT(first_trips, 80);
  FaultRegistry::Global().Arm("test.prob", config);  // Re-arm resets RNG.
  int second_trips = 0;
  for (int i = 0; i < 100; ++i) {
    if (!CheckFaultPoint("test.prob").ok()) ++second_trips;
  }
  // Hit counts differ (they accumulate) but the trip pattern repeats.
  EXPECT_EQ(first_trips, second_trips);
}

TEST_F(FaultPointTest, DisarmStopsTrippingButKeepsCounting) {
  FaultRegistry::Global().Arm("test.disarm");
  EXPECT_FALSE(CheckFaultPoint("test.disarm").ok());
  FaultRegistry::Global().Disarm("test.disarm");
  EXPECT_FALSE(FaultRegistry::Global().armed());
  EXPECT_TRUE(CheckFaultPoint("test.disarm").ok());
  EXPECT_EQ(FaultRegistry::Global().trips("test.disarm"), 1);
}

TEST_F(FaultPointTest, HandlerCanSuppressOrReplaceTheFault) {
  FaultPointConfig suppress;
  suppress.handler = [](std::string_view) { return Status::Ok(); };
  FaultRegistry::Global().Arm("test.handler", suppress);
  EXPECT_TRUE(CheckFaultPoint("test.handler").ok());
  EXPECT_EQ(FaultRegistry::Global().trips("test.handler"), 1);

  FaultPointConfig replace;
  replace.handler = [](std::string_view) {
    return ResourceExhaustedError("replaced");
  };
  FaultRegistry::Global().Arm("test.handler", replace);
  Status status = CheckFaultPoint("test.handler");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "replaced");
}

TEST_F(FaultPointTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("test.scoped");
    EXPECT_FALSE(CheckFaultPoint("test.scoped").ok());
  }
  EXPECT_TRUE(CheckFaultPoint("test.scoped").ok());
}

TEST_F(FaultPointTest, ResetAllDisarmsEveryPointAndClearsCounts) {
  // A chaos harness arms many points; one ResetAll must quiesce them
  // ALL — per-point Disarm bookkeeping is exactly what harnesses get
  // wrong.
  for (const char* point : {"test.a", "test.b", "test.c"}) {
    FaultRegistry::Global().Arm(point, {.probability = 1.0});
    EXPECT_FALSE(CheckFaultPoint(point).ok());
  }
  EXPECT_TRUE(FaultRegistry::Global().armed());
  FaultRegistry::Global().ResetAll();
  EXPECT_FALSE(FaultRegistry::Global().armed());
  for (const char* point : {"test.a", "test.b", "test.c"}) {
    EXPECT_TRUE(CheckFaultPoint(point).ok());
    EXPECT_EQ(FaultRegistry::Global().trips(point), 0);
  }
}

TEST_F(FaultPointTest, FaultQuiesceBracketsAScopeCleanOnBothEnds) {
  // Leak a fault on purpose...
  FaultRegistry::Global().Arm("test.leaked", {.probability = 1.0});
  {
    // ...the guard's CONSTRUCTION already quiesces it (the scope starts
    // clean even when the previous test failed mid-chaos)...
    FaultQuiesce quiesce;
    EXPECT_FALSE(FaultRegistry::Global().armed());
    EXPECT_TRUE(CheckFaultPoint("test.leaked").ok());
    // ...and anything armed inside dies with the scope.
    FaultRegistry::Global().Arm("test.inner", {.probability = 1.0});
  }
  EXPECT_FALSE(FaultRegistry::Global().armed());
  EXPECT_TRUE(CheckFaultPoint("test.inner").ok());
}

}  // namespace
}  // namespace ontorew
