#ifndef ONTOREW_BASE_DEADLINE_H_
#define ONTOREW_BASE_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string_view>

#include "base/status.h"

// Cooperative cancellation for the long-running loops in the system (the
// rewriter's saturation, chase rounds, tuple scans). Three pieces:
//
//  * Deadline — a steady-clock point in time (absolute, so it composes
//    across stages: the time the rewrite spends is automatically charged
//    against the evaluation that follows).
//  * CancelToken — a thread-safe flag an owner trips to abort work on
//    other threads. Tokens chain: a child constructed with a parent is
//    cancelled when either is, which lets a worker pool short-circuit its
//    siblings without touching the caller's token.
//  * CancelScope — the (deadline, token) pair threaded through options
//    structs. `Check(site)` returns DeadlineExceeded / Cancelled so loops
//    can simply OREW_RETURN_IF_ERROR it at their head.
//
// Checks cost a steady_clock read, so tight inner loops amortize them
// over a stride (see kCancelCheckStride).

namespace ontorew {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Default: no deadline (never expires).
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  static Deadline At(Clock::time_point when) { return Deadline(when); }
  // A budget reaching past the clock's range (about 292 years of
  // nanoseconds) saturates to Infinite() instead of overflowing into the
  // past. Clients send such budgets: the wire's deadline_ms is any int64.
  static Deadline After(Clock::duration budget) {
    const Clock::time_point now = Clock::now();
    if (budget > Clock::time_point::max() - now) return Infinite();
    return Deadline(now + budget);
  }
  static Deadline AfterMillis(std::int64_t millis) {
    using std::chrono::milliseconds;
    constexpr std::int64_t kMaxMillis =
        std::chrono::duration_cast<milliseconds>(Clock::duration::max())
            .count();
    if (millis > kMaxMillis) return Infinite();
    return After(milliseconds(millis));
  }

  bool is_infinite() const { return !has_deadline_; }
  bool expired() const { return has_deadline_ && Clock::now() >= when_; }

  // Time left; zero when expired, Clock::duration::max() when infinite.
  Clock::duration remaining() const {
    if (!has_deadline_) return Clock::duration::max();
    Clock::duration left = when_ - Clock::now();
    return left < Clock::duration::zero() ? Clock::duration::zero() : left;
  }

  // The absolute point in time; only meaningful when !is_infinite().
  Clock::time_point time() const { return when_; }

  // The earlier of two deadlines (infinite is the identity).
  static Deadline Earlier(const Deadline& a, const Deadline& b) {
    if (a.is_infinite()) return b;
    if (b.is_infinite()) return a;
    return At(a.when_ < b.when_ ? a.when_ : b.when_);
  }

 private:
  explicit Deadline(Clock::time_point when)
      : has_deadline_(true), when_(when) {}

  bool has_deadline_ = false;
  Clock::time_point when_{};
};

// A thread-safe cancellation flag, shared via shared_ptr. Cancellation is
// one-way: once tripped a token stays tripped. A token built with a
// parent reports cancelled when either itself or any ancestor is.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::shared_ptr<const CancelToken> parent)
      : parent_(std::move(parent)) {}

  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::shared_ptr<const CancelToken> parent_;
};

// How many inner-loop iterations (e.g. tuples scanned) to run between two
// cancellation checks. Chosen so the check overhead is invisible while a
// tripped deadline is still noticed within microseconds.
inline constexpr int kCancelCheckStride = 256;

// The (deadline, token) pair threaded through options structs. Default
// constructed it is inert: `active()` is false and `Check` always OK.
class CancelScope {
 public:
  CancelScope() = default;
  CancelScope(Deadline deadline,  // NOLINT(google-explicit-constructor)
              std::shared_ptr<const CancelToken> token = nullptr)
      : deadline_(deadline), token_(std::move(token)) {}

  const Deadline& deadline() const { return deadline_; }
  const std::shared_ptr<const CancelToken>& token() const { return token_; }

  // True iff a Check can ever fail — callers may skip strided checks
  // entirely for inert scopes.
  bool active() const {
    return !deadline_.is_infinite() || token_ != nullptr;
  }

  bool cancelled() const { return token_ != nullptr && token_->cancelled(); }
  bool expired() const { return deadline_.expired(); }

  // OK, or DeadlineExceeded / Cancelled naming `site` (e.g. "rewrite
  // saturation") so the error message says which loop was interrupted.
  Status Check(std::string_view site) const;

  // A scope with the same deadline whose token is a child of this scope's
  // token chained under `extra` — used by worker pools to short-circuit
  // siblings without cancelling the caller.
  CancelScope WithToken(std::shared_ptr<const CancelToken> extra) const {
    return CancelScope(deadline_, std::move(extra));
  }

 private:
  Deadline deadline_;
  std::shared_ptr<const CancelToken> token_;
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_DEADLINE_H_
