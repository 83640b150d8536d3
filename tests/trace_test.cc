// Unit tests for the request-scoped tracing layer (base/trace): span
// nesting, attributes, status annotation, the span cap, the indented
// tree renderer, and the Chrome trace_event JSON export.

#include "base/trace.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/status.h"

namespace ontorew {
namespace {

bool HasAttr(const SpanRecord& span, std::string_view key,
             std::string_view value) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key && v == value) return true;
  }
  return false;
}

TEST(TraceTest, SpanNestingRecordsParentIds) {
  Trace trace;
  const Trace::SpanId root = trace.BeginSpan("serve");
  const Trace::SpanId child = trace.BeginSpan("rewrite", root);
  const Trace::SpanId grandchild = trace.BeginSpan("saturate", child);
  const Trace::SpanId sibling = trace.BeginSpan("eval", root);
  trace.EndSpan(grandchild);
  trace.EndSpan(child);
  trace.EndSpan(sibling);
  trace.EndSpan(root);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, Trace::kNoParent);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_EQ(spans[3].parent, root);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_ns, 0) << span.name << " left open";
  }
}

TEST(TraceTest, AttributesKeepDuplicatesInRecordingOrder) {
  Trace trace;
  const Trace::SpanId id = trace.BeginSpan("scan");
  trace.AddAttribute(id, "plan", "SCAN person");
  trace.AddAttribute(id, "plan", "SEARCH advisor USING INDEX");
  trace.AddAttribute(id, "rows", std::int64_t{42});
  trace.EndSpan(id);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const auto& attrs = spans[0].attributes;
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0], (std::pair<std::string, std::string>("plan",
                                                           "SCAN person")));
  EXPECT_EQ(attrs[1].second, "SEARCH advisor USING INDEX");
  EXPECT_EQ(attrs[2], (std::pair<std::string, std::string>("rows", "42")));
}

TEST(TraceTest, AnnotateStatusRecordsCodeAndMessageOnlyOnError) {
  Trace trace;
  const Trace::SpanId ok_span = trace.BeginSpan("fine");
  trace.AnnotateStatus(ok_span, Status::Ok());
  const Trace::SpanId bad_span = trace.BeginSpan("broken");
  trace.AnnotateStatus(bad_span, DeadlineExceededError("budget spent"));
  trace.EndSpan(bad_span);
  trace.EndSpan(ok_span);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].attributes.empty());
  EXPECT_TRUE(HasAttr(spans[1], "status", "DeadlineExceeded"));
  EXPECT_TRUE(HasAttr(spans[1], "error", "budget spent"));
}

TEST(TraceTest, EndSpanIsIdempotent) {
  Trace trace;
  const Trace::SpanId id = trace.BeginSpan("once");
  trace.EndSpan(id);
  const std::int64_t duration = trace.Snapshot()[0].duration_ns;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  trace.EndSpan(id);  // Must not stretch the recorded duration.
  EXPECT_EQ(trace.Snapshot()[0].duration_ns, duration);
}

TEST(TraceTest, SpanCapDropsExcessSpansAndTheirChildren) {
  Trace trace(/*max_spans=*/2);
  const Trace::SpanId a = trace.BeginSpan("a");
  const Trace::SpanId b = trace.BeginSpan("b", a);
  const Trace::SpanId c = trace.BeginSpan("c", a);  // Over the cap.
  EXPECT_EQ(c, Trace::kDropped);
  // Children of a dropped span are dropped too.
  const Trace::SpanId d = trace.BeginSpan("d", c);
  EXPECT_EQ(d, Trace::kDropped);
  // Operations on dropped spans are no-ops, not crashes.
  trace.AddAttribute(c, "k", "v");
  trace.EndSpan(c);
  trace.EndSpan(d);
  trace.EndSpan(b);
  trace.EndSpan(a);

  EXPECT_EQ(trace.size(), 2u);
  EXPECT_GE(trace.dropped(), 1u);
  EXPECT_NE(trace.ToString().find("spans dropped"), std::string::npos);
}

TEST(TraceTest, ForeignParentIdBecomesRoot) {
  Trace trace;
  // A parent id this trace never issued (e.g. leaked from another trace)
  // must not corrupt the tree.
  const Trace::SpanId id = trace.BeginSpan("orphan", /*parent=*/99);
  trace.EndSpan(id);
  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, Trace::kNoParent);
}

TEST(TraceTest, ToStringIndentsChildrenUnderParents) {
  Trace trace;
  const Trace::SpanId root = trace.BeginSpan("serve");
  trace.AddAttribute(root, "cache", "miss");
  const Trace::SpanId child = trace.BeginSpan("rewrite", root);
  trace.AddAttribute(child, "cqs_generated", std::int64_t{7});
  trace.EndSpan(child);
  trace.EndSpan(root);

  const std::string tree = trace.ToString();
  const std::size_t serve_pos = tree.find("serve");
  const std::size_t rewrite_pos = tree.find("\n  rewrite");
  ASSERT_NE(serve_pos, std::string::npos);
  ASSERT_NE(rewrite_pos, std::string::npos) << tree;
  EXPECT_LT(serve_pos, rewrite_pos);
  EXPECT_NE(tree.find("cache=miss"), std::string::npos);
  EXPECT_NE(tree.find("cqs_generated=7"), std::string::npos);
  EXPECT_EQ(tree.find("(open)"), std::string::npos);
}

TEST(TraceTest, OpenSpansAreMarkedInToString) {
  Trace trace;
  trace.BeginSpan("never-ended");
  EXPECT_NE(trace.ToString().find("(open)"), std::string::npos);
}

TEST(TraceTest, ToJsonEmitsTraceEventsWithEscapedAttributes) {
  Trace trace;
  const Trace::SpanId id = trace.BeginSpan("eval");
  trace.AddAttribute(id, "sql", "SELECT \"x\" FROM t\nWHERE a = '\\'");
  trace.AddAttribute(id, "ctrl", std::string_view("\x01", 1));
  trace.EndSpan(id);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"schema\": \"ontorew-trace/1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Quotes, backslashes, newlines and control bytes must be escaped.
  EXPECT_NE(json.find("SELECT \\\"x\\\" FROM t\\nWHERE a = '\\\\'"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\": 0"), std::string::npos);
  // No raw control characters survive into the output.
  for (char c : json) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n');
  }
}

TEST(TraceTest, ToJsonMarksOpenSpans) {
  Trace trace;
  trace.BeginSpan("open-one");
  EXPECT_NE(trace.ToJson().find("\"open\": \"true\""), std::string::npos);
}

TEST(TraceSpanTest, RaiiSpanEndsOnScopeExit) {
  Trace trace;
  {
    TraceSpan span(TraceContext(&trace), "scoped");
    span.Attr("k", "v");
    EXPECT_TRUE(span.enabled());
  }
  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_ns, 0);
  EXPECT_TRUE(HasAttr(spans[0], "k", "v"));
}

TEST(TraceSpanTest, ManualEndIsIdempotentWithDestructor) {
  Trace trace;
  {
    TraceSpan span(TraceContext(&trace), "scoped");
    span.End();
    span.End();  // Explicitly idempotent...
    span.Attr("late", "ignored");  // ...and attrs after End are dropped.
  }  // ...and the destructor is then a no-op.
  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].duration_ns, 0);
  EXPECT_TRUE(spans[0].attributes.empty());
}

TEST(TraceSpanTest, DisabledContextIsInert) {
  TraceContext inert;
  EXPECT_FALSE(inert.enabled());
  TraceSpan span(inert, "nothing");
  EXPECT_FALSE(span.enabled());
  span.Attr("k", "v");
  span.AnnotateStatus(InternalError("x"));
  span.End();  // All no-ops; must not crash.
}

TEST(TraceSpanTest, ContextChainsChildrenToParent) {
  Trace trace;
  TraceSpan parent(TraceContext(&trace), "parent");
  {
    TraceSpan child(parent.context(), "child");
    EXPECT_TRUE(child.enabled());
  }
  parent.End();
  const std::vector<SpanRecord> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
}

TEST(TraceTest, ConcurrentSpansFromManyThreadsAllRecorded) {
  Trace trace;
  const Trace::SpanId root = trace.BeginSpan("root");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trace, root] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(TraceContext(&trace, root), "work");
        span.Attr("i", static_cast<std::int64_t>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  trace.EndSpan(root);

  const std::vector<SpanRecord> spans = trace.Snapshot();
  EXPECT_EQ(spans.size(), 1u + kThreads * kSpansPerThread);
  EXPECT_EQ(trace.dropped(), 0u);
  for (const SpanRecord& span : spans) {
    EXPECT_GE(span.duration_ns, 0) << span.name << " left open";
    if (span.id != root) {
      EXPECT_EQ(span.parent, root);
    }
  }
  // The exporters must stay coherent on a big multi-threaded trace.
  EXPECT_NE(trace.ToJson().find("\"droppedSpans\": 0"), std::string::npos);
}

}  // namespace
}  // namespace ontorew
