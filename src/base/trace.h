#ifndef ONTOREW_BASE_TRACE_H_
#define ONTOREW_BASE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "base/status.h"

// Request-scoped structured tracing: a Trace records a tree of timed
// spans (name, start, duration, string attributes) so a single slow
// request can be explained after the fact — which stage ate the budget,
// how many CQs the saturation generated per iteration, whether the cache
// hit, which backend ran the evaluation. This is the per-request
// complement of base/metrics, whose counters aggregate across requests.
//
// Cost model: tracing is opt-in per request. Every hook in the pipeline
// is gated on a TraceContext that is inert by default — a disabled hook
// is one pointer test, so the hot paths measured by bench_rewriting are
// unaffected when no Trace is attached (the CI bench-smoke job holds
// that line). With a Trace attached, each span costs one mutex-guarded
// append; span count is bounded by `max_spans` (excess spans are counted
// in dropped(), never recorded), so a divergent saturation cannot turn a
// trace into an allocation bomb.
//
//   Trace trace;
//   ServeOptions serve;
//   serve.trace = &trace;
//   auto result = engine.Serve(query, serve);
//   std::puts(trace.ToString().c_str());        // Indented tree.
//   WriteFile("trace.json", trace.ToJson());    // chrome://tracing.
//
// Thread safety: BeginSpan/EndSpan/AddAttribute may be called from any
// thread (the parallel evaluator and the saturation worker pool both
// record spans); one mutex serializes them. Span ids are indices into
// the trace's span table and never invalidate.

namespace ontorew {

// One recorded span. `duration_ns` is -1 while the span is open; a
// well-formed trace of a finished request has no open spans (the RAII
// TraceSpan guarantees EndSpan on every exit path, including error
// unwinds).
struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1 = a root span.
  std::string name;
  std::int64_t start_ns = 0;      // Offset from the trace's epoch.
  std::int64_t duration_ns = -1;  // -1 while open.
  std::uint64_t thread = 0;       // Hash of the starting thread's id.
  std::vector<std::pair<std::string, std::string>> attributes;
};

class Trace {
 public:
  using SpanId = int;
  // Parent value for root spans.
  static constexpr SpanId kNoParent = -1;
  // Returned by BeginSpan once max_spans is reached; every operation on
  // a dropped span (including starting children under it) is a no-op.
  static constexpr SpanId kDropped = -2;
  static constexpr std::size_t kDefaultMaxSpans = 4096;

  explicit Trace(std::size_t max_spans = kDefaultMaxSpans);
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Starts a span; returns its id, or kDropped when the span cap is hit
  // or `parent` is itself dropped.
  SpanId BeginSpan(std::string_view name, SpanId parent = kNoParent);
  // Closes the span (sets its duration). Idempotent; no-op on kDropped.
  void EndSpan(SpanId id);

  // Attaches "key=value" to a span. Later duplicates of a key are kept
  // in recording order (attributes are a log, not a map).
  void AddAttribute(SpanId id, std::string_view key, std::string_view value);
  void AddAttribute(SpanId id, std::string_view key, std::int64_t value);
  // Records a non-OK status as `status` + `error` attributes (no-op on OK
  // — spans are assumed successful unless annotated).
  void AnnotateStatus(SpanId id, const Status& status);

  // Point-in-time copy of every recorded span, in begin order.
  std::vector<SpanRecord> Snapshot() const;
  // Spans rejected because the cap was hit.
  std::size_t dropped() const;
  // Recorded spans so far.
  std::size_t size() const;

  // Human-readable indented tree, children under parents in begin order:
  //   serve 12.402ms
  //     admit 0.001ms
  //     rewrite 10.113ms cache=miss cqs_generated=52
  std::string ToString() const;

  // Chrome trace_event JSON ("X" complete events, microsecond units):
  // loadable in chrome://tracing / Perfetto. Span attributes become
  // args; the span's recording thread becomes its tid so parallel
  // workers render on parallel tracks. Open spans are emitted with
  // duration 0 and args.open = "true".
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  const std::chrono::steady_clock::time_point epoch_;
  const std::size_t max_spans_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_ = 0;
};

// A non-owning (trace, parent span) pair, threaded through options
// structs (RewriterOptions, ChaseOptions, ParallelEvalOptions,
// BackendExecOptions). Default-constructed it is inert: enabled() is
// false and spans started under it are no-ops.
class TraceContext {
 public:
  TraceContext() = default;
  explicit TraceContext(Trace* trace,
                        Trace::SpanId parent = Trace::kNoParent)
      : trace_(trace), parent_(parent) {}

  bool enabled() const { return trace_ != nullptr; }
  Trace* trace() const { return trace_; }
  Trace::SpanId parent() const { return parent_; }

 private:
  Trace* trace_ = nullptr;
  Trace::SpanId parent_ = Trace::kNoParent;
};

// RAII span: begins on construction, ends on destruction (every exit
// path, including error returns, closes the span — this is what makes
// traces of failed requests well-formed). Inert when the context is.
// Given a `timer` (base/metrics.h) it also adds its wall time to it when
// it ends, traced or not: one instrumentation point per stage.
class TraceSpan {
 public:
  TraceSpan(const TraceContext& context, std::string_view name,
            Timer* timer = nullptr)
      : trace_(context.trace()),
        id_(trace_ != nullptr ? trace_->BeginSpan(name, context.parent())
                              : Trace::kDropped),
        timer_(timer),
        start_(timer != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point()) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  bool enabled() const { return trace_ != nullptr && id_ != Trace::kDropped; }
  Trace::SpanId id() const { return id_; }

  // Context for starting children of this span.
  TraceContext context() const { return TraceContext(trace_, id_); }

  void Attr(std::string_view key, std::string_view value) {
    if (enabled()) trace_->AddAttribute(id_, key, value);
  }
  void Attr(std::string_view key, std::int64_t value) {
    if (enabled()) trace_->AddAttribute(id_, key, value);
  }
  void AnnotateStatus(const Status& status) {
    if (enabled()) trace_->AnnotateStatus(id_, status);
  }

  // Closes the span early (idempotent; the destructor is then a no-op).
  void End() {
    if (timer_ != nullptr) {
      timer_->AddNs(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
      timer_ = nullptr;
    }
    if (trace_ != nullptr) {
      trace_->EndSpan(id_);
      trace_ = nullptr;
    }
  }

 private:
  Trace* trace_ = nullptr;
  Trace::SpanId id_ = Trace::kDropped;
  Timer* timer_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ontorew

#endif  // ONTOREW_BASE_TRACE_H_
