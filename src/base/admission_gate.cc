#include "base/admission_gate.h"

#include "base/strings.h"

namespace ontorew {

// Every access to inflight_ and parked_ that pairs a parker with a
// releaser is sequentially consistent: a parker publishes parked_ before
// it re-reads inflight_, a releaser publishes inflight_ before it reads
// parked_, so at least one of them sees the other and no wakeup is lost.
bool AdmissionGate::TryTake() {
  std::size_t held = inflight_.load();
  while (capacity_ == 0 || held < capacity_) {
    if (inflight_.compare_exchange_weak(held, held + 1)) return true;
  }
  return false;
}

Status AdmissionGate::Acquire(const Deadline& deadline) {
  if (TryTake()) return Status::Ok();
  // Queue for a slot, but never past the request's own deadline.
  const Deadline give_up =
      Deadline::Earlier(Deadline::After(timeout_), deadline);
  bool taken = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.fetch_add(1);
    cv_.wait_until(lock, give_up.time(),
                   [&] { return closed_ || (taken = TryTake()); });
    parked_.fetch_sub(1);
  }
  if (taken) return Status::Ok();
  const std::string load =
      StrCat(inflight(), " requests in flight, max ", capacity_);
  if (deadline.expired()) {
    return DeadlineExceededError(
        StrCat("deadline expired while queued for admission (", load, ")"));
  }
  return ResourceExhaustedError(StrCat("shed: ", load));
}

void AdmissionGate::Release() {
  inflight_.fetch_sub(1);
  if (parked_.load() == 0) return;
  // Taking the mutex orders this wakeup after a parker's predicate check:
  // the parker is either still checking (and sees the freed slot) or
  // already waiting.
  { std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
}

bool AdmissionGate::WaitIdle(std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  parked_.fetch_add(1);
  const bool idle =
      cv_.wait_for(lock, timeout, [this] { return inflight_.load() == 0; });
  parked_.fetch_sub(1);
  return idle;
}

void AdmissionGate::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

}  // namespace ontorew
