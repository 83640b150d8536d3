#ifndef ONTOREW_BASE_ADMISSION_GATE_H_
#define ONTOREW_BASE_ADMISSION_GATE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "base/deadline.h"
#include "base/status.h"

// A counting semaphore with a deadline-aware bounded queue: the one
// admission primitive of the serving stack. Each server tenant and the
// server itself own one (DESIGN.md §11); the engine behind them admits
// nothing.
//
// Acquire takes a free slot, or queues for up to the gate's timeout but
// never past the request's own deadline, then fails without a slot:
// ResourceExhausted when shed (the timeout elapsed or the gate closed;
// retry with backoff), DeadlineExceeded when the request's deadline ran
// out in the queue (retrying with it is hopeless). Callers count the two
// under their own metric names.
//
// The occupancy is one atomic, so inflight() never locks, and neither do
// Acquire/Release of an unlimited gate. The mutex only parks waiters.

namespace ontorew {

class AdmissionGate {
 public:
  // capacity 0 = unlimited; timeout 0 = shed at once when full.
  AdmissionGate(std::size_t capacity, std::chrono::nanoseconds timeout)
      : capacity_(capacity), timeout_(timeout) {}
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  // OK means a slot is held until the matching Release.
  Status Acquire(const Deadline& deadline);
  void Release();

  std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  // Blocks until no slot is held or `timeout` elapses; true when idle.
  bool WaitIdle(std::chrono::nanoseconds timeout);

  // Wakes every queued acquirer, which then sheds; later acquirers that
  // find the gate full shed at once instead of queueing.
  void Close();

 private:
  // Takes a slot if one is free, without locking.
  bool TryTake();

  const std::size_t capacity_;
  const std::chrono::nanoseconds timeout_;
  std::atomic<std::size_t> inflight_{0};
  // Threads parked on cv_; Release notifies only when there are any.
  std::atomic<std::size_t> parked_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool closed_ = false;  // Guarded by mutex_.
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_ADMISSION_GATE_H_
