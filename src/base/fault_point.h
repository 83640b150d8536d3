#ifndef ONTOREW_BASE_FAULT_POINT_H_
#define ONTOREW_BASE_FAULT_POINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

// Fault injection: named points in production code paths that tests arm
// to make a specific step fail (or block) deterministically — the only
// honest way to prove "a mid-eval worker failure yields an error Status"
// without racing a real failure.
//
// A fault point is a call to CheckFaultPoint("eval.scan") at the place a
// fault should be injectable. Unarmed, the check is a single relaxed
// atomic load (the global armed count), so the points are free in
// production. Tests arm a point with a trigger:
//
//   FaultRegistry::Global().Arm("eval.scan",
//                               {.after = 100});       // 101st hit trips
//   FaultRegistry::Global().Arm("rewrite.step",
//                               {.probability = 0.01,  // ~1% of hits trip
//                                .seed = 7});
//
// and Disarm/Reset when done (tests should Reset in teardown — the
// registry is process-global). An armed point may also carry a handler,
// which runs on every trip and may block (to hold a request in-flight)
// or substitute its own Status.
//
// Points wired in this codebase (see DESIGN.md "Serving layer" and
// "Serving over the wire"):
//   rewrite.step   every saturation-loop iteration in RewriteUcq
//   chase.step     every trigger application in RunChase
//   eval.scan      every tuple examined by the CQ matcher
//   serve.admit    start of AnswerEngine::Serve, after the server
//                  admitted the request
//   backend.exec   entry of SqliteBackend::Execute
//   backend.busy   simulates SQLITE_BUSY before a scan's first step
//   server.accept  after accept() in the OntologyServer listener
//   server.read    every read() on a server connection

namespace ontorew {

struct FaultPointConfig {
  // Number of hits that pass before the point can trip (0 = trip on the
  // first hit).
  std::int64_t after = 0;
  // Once past `after`, each hit trips with this probability (1.0 = every
  // hit). Drawn from a per-point deterministic RNG seeded below.
  double probability = 1.0;
  std::uint64_t seed = 1;
  // The injected error.
  StatusCode code = StatusCode::kInternal;
  std::string message{};  // Defaults to "fault injected at <point>".
  // Optional: runs on every trip. A non-OK return replaces the injected
  // status; an OK return suppresses the fault (the handler can still
  // block, which is how tests hold a request in flight).
  std::function<Status(std::string_view point)> handler{};
};

class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  void Arm(std::string_view point, FaultPointConfig config = {});
  void Disarm(std::string_view point);
  // Disarms every point and clears all hit/trip counts — the one call
  // that guarantees nothing armed leaks into the next test, however many
  // points a harness armed. Prefer the FaultQuiesce fixture guard below
  // over calling this by hand.
  void ResetAll();
  // Alias for ResetAll(), kept for existing callers.
  void Reset();

  // True iff any point is armed (the production fast path's gate).
  bool armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // The slow path of CheckFaultPoint: counts the hit and trips per the
  // point's config. Unarmed points return OK (but still count hits, so
  // tests can assert a point was reached).
  Status Check(std::string_view point);

  // Times the point was passed / times it tripped (0 if never armed and
  // never hit while the registry was armed).
  std::int64_t hits(std::string_view point) const;
  std::int64_t trips(std::string_view point) const;

 private:
  struct PointState {
    FaultPointConfig config;
    bool is_armed = false;
    std::int64_t hits = 0;
    std::int64_t trips = 0;
    Rng rng{1};
  };

  std::atomic<int> armed_count_{0};
  mutable std::mutex mutex_;
  std::unordered_map<std::string, PointState> points_;
};

// The production-side check. Free (one relaxed load) while nothing is
// armed anywhere in the process.
inline Status CheckFaultPoint(std::string_view point) {
  FaultRegistry& registry = FaultRegistry::Global();
  if (!registry.armed()) return Status::Ok();
  return registry.Check(point);
}

// RAII arming for tests: disarms (and re-disarms the whole registry via
// Reset if requested) on scope exit, so a failing ASSERT cannot leak an
// armed fault into the next test.
class ScopedFault {
 public:
  ScopedFault(std::string_view point, FaultPointConfig config = {})
      : point_(point) {
    FaultRegistry::Global().Arm(point_, std::move(config));
  }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
  ~ScopedFault() { FaultRegistry::Global().Disarm(point_); }

 private:
  std::string point_;
};

// Whole-registry quiescence for tests and harnesses that arm MANY points
// (probabilistically, or via helpers that make per-point Disarm easy to
// miss): ResetAll() on construction AND destruction, so the scope starts
// clean and cannot leak an armed fault whichever way it exits. Use as a
// fixture member —
//
//   class SoakTest : public ::testing::Test {
//     FaultQuiesce quiesce_;  // First member: brackets every test body.
//   };
//
// or as a stack guard around a chaos block.
class FaultQuiesce {
 public:
  FaultQuiesce() { FaultRegistry::Global().ResetAll(); }
  FaultQuiesce(const FaultQuiesce&) = delete;
  FaultQuiesce& operator=(const FaultQuiesce&) = delete;
  ~FaultQuiesce() { FaultRegistry::Global().ResetAll(); }
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_FAULT_POINT_H_
