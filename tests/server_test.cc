#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_point.h"
#include "base/status.h"
#include "base/strings.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/token_bucket.h"
#include "server/wire.h"

// The multi-tenant wire server (DESIGN.md §11): protocol parsing, the
// layered admission ladder (quota → tenant inflight → global slots with
// deadline-aware queueing), cross-tenant rewrite-cache sharing, full
// service under load, and graceful drain. Tests that need a request held
// in-flight pin it deterministically with the serve.admit fault point's
// blocking handler — no sleep-and-hope.

namespace ontorew {
namespace {

constexpr const char kUniversityProgram[] = R"(
  teaches(X, C) -> professor(X).
  professor(X) -> employee(X).
  employee(X) -> person(X).
)";
constexpr const char kUniversityFacts[] = R"(
  teaches(ada, logic101).
  professor(turing).
)";

// Parses a full serialized response (header + body + END) as a client
// would.
WireResponse MustParse(const std::string& serialized) {
  std::vector<std::string> lines;
  std::string_view rest = serialized;
  while (!rest.empty()) {
    std::size_t nl = rest.find('\n');
    lines.emplace_back(rest.substr(0, nl));
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  EXPECT_GE(lines.size(), 2u) << serialized;
  EXPECT_EQ(lines.back().empty() ? lines[lines.size() - 2] : lines.back(),
            kWireEnd)
      << serialized;
  std::string header = lines.front();
  std::vector<std::string> body;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i] == kWireEnd) break;
    body.push_back(lines[i]);
  }
  StatusOr<WireResponse> parsed = ParseWireResponse(header, std::move(body));
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " for: " << serialized;
  return parsed.ok() ? *std::move(parsed) : WireResponse{};
}

// Every server test starts and ends with a quiesced fault registry: a
// failing assertion in a chaos test must not leak an armed fault into
// the next one (the FaultQuiesce guard is the satellite this proves).
class ServerTest : public ::testing::Test {
 protected:
  FaultQuiesce quiesce_;
};

// --- Wire protocol ----------------------------------------------------------

TEST(WireTest, ParsesQueryWithAllOptions) {
  StatusOr<WireRequest> request = ParseWireRequest(
      "QUERY tenant=uni deadline_ms=250 trace=1 q(X) :- person(X).");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->verb, WireVerb::kQuery);
  EXPECT_EQ(request->tenant, "uni");
  EXPECT_EQ(request->deadline_ms, 250);
  EXPECT_TRUE(request->trace);
  EXPECT_EQ(request->query, "q(X) :- person(X).");
}

TEST(WireTest, QueryTextMayContainEqualsSigns) {
  // Only *recognized* key=value options are consumed; the first other
  // token starts the query, '=' and all.
  StatusOr<WireRequest> request =
      ParseWireRequest("QUERY tenant=uni q(X) :- label(X, \"a=b\").");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->query, "q(X) :- label(X, \"a=b\").");
}

TEST(WireTest, ControlVerbsParse) {
  for (const auto& [text, verb] :
       {std::pair<const char*, WireVerb>{"PING", WireVerb::kPing},
        {"STATS", WireVerb::kStats},
        {"TENANTS", WireVerb::kTenants}}) {
    StatusOr<WireRequest> request = ParseWireRequest(text);
    ASSERT_TRUE(request.ok()) << text;
    EXPECT_EQ(request->verb, verb);
  }
}

TEST(WireTest, TargetOptionParses) {
  StatusOr<WireRequest> cte = ParseWireRequest(
      "QUERY tenant=uni target=cte q(X) :- person(X).");
  ASSERT_TRUE(cte.ok()) << cte.status();
  EXPECT_EQ(cte->target, RewriteTarget::kCte);
  EXPECT_EQ(cte->query, "q(X) :- person(X).");

  StatusOr<WireRequest> ucq = ParseWireRequest(
      "QUERY tenant=uni target=ucq deadline_ms=50 q(X) :- person(X).");
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  EXPECT_EQ(ucq->target, RewriteTarget::kUcq);

  // Unset is the flat union.
  StatusOr<WireRequest> plain =
      ParseWireRequest("QUERY tenant=uni q(X) :- person(X).");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->target, RewriteTarget::kUcq);
}

TEST(WireTest, MalformedRequestsAreInvalidArgument) {
  for (const char* bad :
       {"FETCH tenant=uni q(X) :- r(X).",  // Unknown verb.
        "QUERY q(X) :- r(X).",             // No tenant.
        "QUERY tenant=uni",                // No query text.
        "QUERY tenant=uni target=csv q(X) :- r(X).",  // Unknown target.
        "QUERY tenant=uni deadline_ms=abc q(X) :- r(X)."}) {
    StatusOr<WireRequest> request = ParseWireRequest(bad);
    ASSERT_FALSE(request.ok()) << bad;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(IsRetryableStatusCode(request.status().code()));
  }
}

TEST(WireTest, OverlongNumbersAreInvalidArgumentNotOverflow) {
  StatusOr<WireRequest> max = ParseWireRequest(
      "QUERY tenant=a deadline_ms=9223372036854775807 q(X) :- p(X).");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->deadline_ms, std::numeric_limits<std::int64_t>::max());

  for (const char* digits :
       {"9223372036854775808", "99999999999999999999",
        "000000000000000000000000000009223372036854775808"}) {
    StatusOr<WireRequest> request = ParseWireRequest(
        std::string("QUERY tenant=a deadline_ms=") + digits + " q(X) :- p(X).");
    ASSERT_FALSE(request.ok()) << digits;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(request.status().message().find("overflows"), std::string::npos)
        << request.status();

    StatusOr<WireResponse> response = ParseWireResponse(
        std::string("ERR code=Unavailable retryable=1 retry_after_ms=") +
            digits + " busy",
        {});
    ASSERT_FALSE(response.ok()) << digits;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTest, ErrHeaderRoundTripsRetryableBit) {
  for (const Status& status :
       {ResourceExhaustedError("quota"), DeadlineExceededError("late"),
        UnavailableError("busy"), InvalidArgumentError("parse"),
        NotFoundError("tenant"), InternalError("bug")}) {
    const std::string header = FormatErrHeader(status, 25);
    StatusOr<WireResponse> response =
        ParseWireResponse(header, /*body=*/{});
    ASSERT_TRUE(response.ok()) << header;
    EXPECT_EQ(response->status.code(), status.code());
    EXPECT_EQ(response->status.message(), status.message());
    EXPECT_EQ(response->retryable, IsRetryableStatusCode(status.code()))
        << header;
    EXPECT_EQ(response->retry_after_ms, 25);
  }
}

TEST(WireTest, OkResponseSeparatesRowsFromInfoLines) {
  StatusOr<WireResponse> response = ParseWireResponse(
      "OK rows=2 cache=hit chase=0",
      {"(ada)", "(turing)", "# serve 1.2ms", "#   eval 0.9ms"});
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(response->rows, (std::vector<std::string>{"(ada)", "(turing)"}));
  EXPECT_EQ(response->info,
            (std::vector<std::string>{"serve 1.2ms", "  eval 0.9ms"}));
}

TEST(WireTest, OkRowCountMustMatchBody) {
  // A truncated body, a missing count and a count that is not a number
  // are malformed replies, never a short answer set.
  for (const char* header :
       {"OK rows=5 cache=hit", "OK cache=hit", "OK rows=one cache=hit",
        "OK rows= cache=hit", "OK rows=-1 cache=hit",
        "OK rows=99999999999999999999 cache=hit"}) {
    StatusOr<WireResponse> response = ParseWireResponse(header, {"(a)"});
    ASSERT_FALSE(response.ok()) << header;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << header;
  }
  // Info lines are not rows.
  StatusOr<WireResponse> response =
      ParseWireResponse("OK rows=1 cache=miss", {"(a)", "# serve 1ms"});
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->rows, (std::vector<std::string>{"(a)"}));
}

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucketTest, BurstThenRefillHint) {
  TokenBucket bucket(/*capacity=*/2, /*rate_per_sec=*/10);
  EXPECT_EQ(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
  EXPECT_EQ(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
  // Empty: the hint is the time until one token refills (~100ms at 10/s).
  const auto wait = bucket.TryAcquire();
  EXPECT_GT(wait, TokenBucket::Clock::duration::zero());
  EXPECT_LE(wait, std::chrono::milliseconds(150));
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket bucket(/*capacity=*/1, /*rate_per_sec=*/1000);
  EXPECT_EQ(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
  EXPECT_GT(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
}

TEST(TokenBucketTest, NonPositiveCapacityIsUnlimited) {
  TokenBucket bucket(/*capacity=*/0, /*rate_per_sec=*/0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bucket.TryAcquire(), TokenBucket::Clock::duration::zero());
  }
}

// --- End-to-end over TCP ----------------------------------------------------

TEST_F(ServerTest, ServesQueriesOverTcpWithSharedCacheAcrossTenants) {
  OntologyServer server;
  // Two tenants hosting the SAME ontology: cache keys embed the program
  // fingerprint, so the second tenant's first query is already a hit.
  for (const char* name : {"uni-a", "uni-b"}) {
    ASSERT_TRUE(server
                    .AddTenant({.name = name,
                                .program_text = kUniversityProgram,
                                .facts_text = kUniversityFacts})
                    .ok());
  }
  ASSERT_TRUE(server.Start().ok());

  StatusOr<ServerClient> connected = ServerClient::Connect(server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  ServerClient client = std::move(connected).value();
  ASSERT_TRUE(client.Ping().ok());

  StatusOr<WireResponse> first =
      client.Query("uni-a", "q(X) :- person(X).");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->status.ok()) << first->status;
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(first->rows,
            (std::vector<std::string>{"(ada)", "(turing)"}));

  StatusOr<WireResponse> second =
      client.Query("uni-a", "q(X) :- person(X).");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->rows, first->rows);

  // The twin tenant never computed this rewriting — the shared cache did.
  StatusOr<WireResponse> twin =
      client.Query("uni-b", "q(X) :- person(X).");
  ASSERT_TRUE(twin.ok());
  EXPECT_TRUE(twin->cache_hit);
  EXPECT_EQ(twin->rows, first->rows);
  EXPECT_GE(server.shared_cache_stats().hits, 2);

  EXPECT_TRUE(server.Shutdown(std::chrono::seconds(2)).ok());
}

TEST_F(ServerTest, SqliteTenantAnswersWithTraceOverTcp) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "reg",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .use_sqlite = true})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServerClient> connected = ServerClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  ServerClient client = std::move(connected).value();
  StatusOr<WireResponse> response = client.Query(
      "reg", "q(X) :- employee(X).", /*deadline_ms=*/0, /*trace=*/true);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_EQ(response->rows,
            (std::vector<std::string>{"(ada)", "(turing)"}));
  EXPECT_FALSE(response->info.empty());  // The span tree came back.
}

TEST_F(ServerTest, CteTargetRoundTripsWithoutAliasingCacheEntries) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .use_sqlite = true})
                  .ok());
  // person(X) expands four ways under the ontology, so the joined query
  // below saturates into a union with a genuinely shared teaches-slot —
  // the CTE target factors it instead of shipping the flat UNION.
  const char* line = "QUERY tenant=uni %s q(X) :- teaches(X, C), person(X).";
  auto query = [&](const char* target_opt) {
    std::string request(line);
    request.replace(request.find("%s"), 2, target_opt);
    return MustParse(server.ServeLine(request));
  };

  const WireResponse flat = query("");
  ASSERT_TRUE(flat.status.ok()) << flat.status;
  EXPECT_FALSE(flat.cache_hit);
  EXPECT_EQ(flat.rows, std::vector<std::string>{"(ada)"});

  // The cte entry is keyed separately: no aliasing with the flat one,
  // same answers through the WITH-CTE execution path.
  const WireResponse cte = query("target=cte");
  ASSERT_TRUE(cte.status.ok()) << cte.status;
  EXPECT_FALSE(cte.cache_hit);
  EXPECT_EQ(cte.rows, flat.rows);

  // Warm repeats hit their own target's entry; an explicit target=ucq is
  // the default entry, already cached by the first query.
  EXPECT_TRUE(query("target=cte").cache_hit);
  EXPECT_TRUE(query("target=ucq").cache_hit);

  const WireResponse bad = query("target=csv");
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(bad.retryable);
}

TEST_F(ServerTest, ErrorTaxonomyOnTheWire) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  // In-process: ServeLine is the whole server minus the sockets.
  const WireResponse unknown = MustParse(
      server.ServeLine("QUERY tenant=ghost q(X) :- person(X)."));
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(unknown.retryable);

  const WireResponse malformed =
      MustParse(server.ServeLine("QUERY tenant=uni q(X) :- ~~nope"));
  EXPECT_EQ(malformed.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(malformed.retryable);

  const WireResponse bad_verb = MustParse(server.ServeLine("HELO"));
  EXPECT_EQ(bad_verb.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, QuotaShedIsRetryableWithServerBackoffHint) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .quota = {.qps = 5, .burst = 2}})
                  .ok());
  // Burn the burst.
  for (int i = 0; i < 2; ++i) {
    const WireResponse ok =
        MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
    ASSERT_TRUE(ok.status.ok()) << ok.status;
  }
  const WireResponse shed =
      MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.retryable);
  // The hint is the bucket's exact refill time (~200ms at 5 qps), not a
  // generic constant.
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_LE(shed.retry_after_ms, 250);
  EXPECT_GE(server.metrics().Snapshot().Counter("server_shed_quota"), 1);
}

TEST_F(ServerTest, RetryingClientOutlivesQuotaShed) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .quota = {.qps = 20, .burst = 1}})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  RetryPolicy policy;
  policy.max_attempts = 8;
  RetryingClient client(server.port(), policy);
  // Back-to-back queries exceed the 1-token burst; the retry loop honours
  // the server's retry_after hint and every request ultimately succeeds.
  for (int i = 0; i < 3; ++i) {
    StatusOr<WireResponse> response =
        client.Query("uni", "q(X) :- person(X).");
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->status.ok()) << response->status;
    EXPECT_EQ(response->rows.size(), 2u);
  }
  EXPECT_GE(client.retries(), 1);
}

// Holds one admitted request in flight via the serve.admit fault point.
struct HeldRequest {
  std::promise<void> reached_promise;
  std::promise<void> release_promise;
  std::future<void> reached = reached_promise.get_future();
  std::shared_future<void> release = release_promise.get_future().share();
  std::atomic<bool> fired{false};

  FaultPointConfig Config() {
    FaultPointConfig hold;
    hold.handler = [this](std::string_view) {
      if (!fired.exchange(true)) {  // Only the first request blocks.
        reached_promise.set_value();
        release.wait();
      }
      return Status::Ok();
    };
    return hold;
  }
};

TEST_F(ServerTest, TenantInflightCapShedsConcurrentRequests) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .quota = {.max_inflight = 1}})
                  .ok());
  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<WireResponse> first;
  std::thread holder([&] {
    first = MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  });
  held.reached.wait();

  const WireResponse shed =
      MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.retryable);
  EXPECT_GE(
      server.metrics().Snapshot().Counter("server_shed_tenant_inflight"), 1);

  held.release_promise.set_value();
  holder.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->status.ok()) << first->status;
  EXPECT_EQ(first->rows.size(), 2u);  // The held request lost nothing.
}

TEST_F(ServerTest, QueueDeadlineExpiryIsDeadlineExceededNotShed) {
  OntologyServerOptions options;
  options.max_inflight_global = 1;
  options.admission_timeout = std::chrono::seconds(10);
  OntologyServer server(options);
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<WireResponse> first;
  std::thread holder([&] {
    first = MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  });
  held.reached.wait();

  // The slot is taken and the admission timeout is far away: this
  // request's own 50ms budget dies in the queue. That is the CALLER's
  // deadline — DeadlineExceeded — not a server shed.
  const WireResponse queued = MustParse(server.ServeLine(
      "QUERY tenant=uni deadline_ms=50 q(X) :- person(X)."));
  EXPECT_EQ(queued.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(queued.retryable);
  const MetricsSnapshot snapshot = server.metrics().Snapshot();
  EXPECT_GE(snapshot.Counter("server_queue_deadline"), 1);
  EXPECT_EQ(snapshot.Counter("server_shed_global"), 0);

  held.release_promise.set_value();
  holder.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->status.ok()) << first->status;
}

TEST_F(ServerTest, TraceIsServedWithEveryGlobalSlotBusy) {
  OntologyServerOptions options;
  options.max_inflight_global = 2;
  OntologyServer server(options);
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<WireResponse> first;
  std::thread holder([&] {
    first = MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  });
  held.reached.wait();

  // The traced request takes the second of two slots: load does not
  // strip what the client asked for, so it gets its rows and its span
  // tree.
  const WireResponse traced = MustParse(
      server.ServeLine("QUERY tenant=uni trace=1 q(X) :- person(X)."));
  ASSERT_TRUE(traced.status.ok()) << traced.status;
  EXPECT_EQ(traced.rows, (std::vector<std::string>{"(ada)", "(turing)"}));
  EXPECT_FALSE(traced.info.empty());

  held.release_promise.set_value();
  holder.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->status.ok()) << first->status;
}

TEST_F(ServerTest, FullLoadStillServesAndPublishesTheMinimizedRewriting) {
  OntologyServerOptions options;
  options.max_inflight_global = 2;
  OntologyServer server(options);
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<WireResponse> first;
  std::thread holder([&] {
    first =
        MustParse(server.ServeLine("QUERY tenant=uni q(X) :- employee(X)."));
  });
  held.reached.wait();

  // Every request below runs with both global slots busy. A cold miss still rewrites completely and publishes the result, so
  // the repeat is a cache hit with the same rows.
  const char* cold = "QUERY tenant=uni q(X) :- person(X).";
  const WireResponse miss = MustParse(server.ServeLine(cold));
  ASSERT_TRUE(miss.status.ok()) << miss.status;
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.rows, (std::vector<std::string>{"(ada)", "(turing)"}));
  const WireResponse hit = MustParse(server.ServeLine(cold));
  ASSERT_TRUE(hit.status.ok()) << hit.status;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.rows, miss.rows);

  held.release_promise.set_value();
  holder.join();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->status.ok()) << first->status;
}

TEST_F(ServerTest, FarFutureDeadlineIsNoDeadline) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  // 1e13 ms overflows the nanosecond steady clock; the budget saturates
  // to "no deadline" instead of wrapping into the past.
  const WireResponse far = MustParse(server.ServeLine(
      "QUERY tenant=uni deadline_ms=10000000000000 q(X) :- person(X)."));
  ASSERT_TRUE(far.status.ok()) << far.status;
  EXPECT_EQ(far.rows, (std::vector<std::string>{"(ada)", "(turing)"}));
}

TEST_F(ServerTest, GracefulDrainShedsNewWorkAndFinishesInflight) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<StatusOr<WireResponse>> inflight;
  std::thread holder([&] {
    StatusOr<ServerClient> connected = ServerClient::Connect(port);
    ASSERT_TRUE(connected.ok());
    ServerClient client = std::move(connected).value();
    inflight = client.Query("uni", "q(X) :- person(X).");
  });
  held.reached.wait();

  std::optional<Status> drained;
  std::thread shutdown([&] {
    drained = server.Shutdown(std::chrono::seconds(5));
  });
  // Give the drain a moment to flip the listener into shed mode.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // New work during the drain: an immediate retryable shed, never a hang.
  StatusOr<ServerClient> late_conn = ServerClient::Connect(port);
  if (late_conn.ok()) {
    ServerClient late = std::move(late_conn).value();
    StatusOr<WireResponse> shed = late.Query("uni", "q(X) :- person(X).");
    if (shed.ok()) {
      EXPECT_FALSE(shed->status.ok());
      EXPECT_TRUE(shed->retryable) << shed->status;
    }  // A dropped connection is the other legal outcome.
  }

  // The inflight request finishes with FULL answers: drain ≠ data loss.
  held.release_promise.set_value();
  holder.join();
  shutdown.join();
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->ok()) << *drained;
  ASSERT_TRUE(inflight.has_value());
  ASSERT_TRUE(inflight->ok()) << inflight->status();
  ASSERT_TRUE((*inflight)->status.ok()) << (*inflight)->status;
  EXPECT_EQ((*inflight)->rows,
            (std::vector<std::string>{"(ada)", "(turing)"}));
}

TEST_F(ServerTest, DrainDeadlineCancelsStragglersWithRetryableError) {
  OntologyServer server;  // No Start: in-process requests only.
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  HeldRequest held;
  ScopedFault fault("serve.admit", held.Config());
  std::optional<WireResponse> straggler;
  std::thread holder([&] {
    straggler =
        MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."));
  });
  held.reached.wait();

  // The straggler ignores the 50ms drain budget, so Shutdown cancels it
  // through the server-wide token and reports the overrun.
  std::optional<Status> drained;
  std::thread shutdown([&] {
    drained = server.Shutdown(std::chrono::milliseconds(50));
  });
  shutdown.join();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->code(), StatusCode::kDeadlineExceeded);

  held.release_promise.set_value();
  holder.join();
  ASSERT_TRUE(straggler.has_value());
  // Cancelled mid-drain maps to the retryable "server went away", never
  // a partial answer set.
  EXPECT_FALSE(straggler->status.ok());
  EXPECT_EQ(straggler->status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(straggler->retryable);
  EXPECT_TRUE(straggler->rows.empty());
}

TEST_F(ServerTest, StatsAndTenantsVerbs) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  ASSERT_TRUE(
      MustParse(server.ServeLine("QUERY tenant=uni q(X) :- person(X)."))
          .status.ok());
  const WireResponse stats = MustParse(server.ServeLine("STATS"));
  ASSERT_TRUE(stats.status.ok());
  EXPECT_FALSE(stats.info.empty());

  const WireResponse tenants = MustParse(server.ServeLine("TENANTS"));
  ASSERT_TRUE(tenants.status.ok());
  ASSERT_EQ(tenants.info.size(), 1u);
  EXPECT_NE(tenants.info[0].find("uni"), std::string::npos);
  // The backend is named as in its metrics and spans.
  EXPECT_NE(tenants.info[0].find("backend=inmemory"), std::string::npos)
      << tenants.info[0];
}

TEST_F(ServerTest, LargeRepliesSpanManyReadsOnOneConnection) {
  // 2500 teaching facts. Constants are interned in the order the facts
  // list them, and that order is also their text order, so the server's
  // answer order is the text order of the expected rows.
  constexpr int kFacts = 2500;
  std::string facts;
  std::vector<std::string> pairs;
  std::vector<std::string> people;
  for (int i = 0; i < kFacts; ++i) {
    char person[8];
    char course[8];
    std::snprintf(person, sizeof(person), "p%04d", i);
    std::snprintf(course, sizeof(course), "c%04d", i);
    facts += StrCat("teaches(", person, ", ", course, ").\n");
    pairs.push_back(StrCat("(", person, ", ", course, ")"));
    people.push_back(StrCat("(", person, ")"));
  }
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = facts})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  StatusOr<ServerClient> connected = ServerClient::Connect(server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();
  ServerClient client = std::move(connected).value();

  // Each reply is 17-35 KB, several of the client's 4096-byte reads; the
  // second starts on the connection the first one left behind.
  StatusOr<WireResponse> taught =
      client.Query("uni", "q(X, C) :- teaches(X, C).");
  ASSERT_TRUE(taught.ok()) << taught.status();
  ASSERT_TRUE(taught->status.ok()) << taught->status;
  EXPECT_EQ(taught->rows, pairs);
  StatusOr<WireResponse> persons = client.Query("uni", "q(X) :- person(X).");
  ASSERT_TRUE(persons.ok()) << persons.status();
  ASSERT_TRUE(persons->status.ok()) << persons->status;
  EXPECT_EQ(persons->rows, people);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, AnswersEveryLineOfOneSend) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // A server that leaves a line unanswered fails the test, not hangs it.
  const timeval read_timeout{.tv_sec = 10, .tv_usec = 0};
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                       sizeof(read_timeout)),
            0);

  // Four requests and a blank line in one send: the server's reads see
  // several lines at once and must answer each, in order.
  const std::string requests =
      "PING\n\nPING\r\nQUERY tenant=uni q(X) :- person(X).\nPING\n";
  ASSERT_EQ(send(fd, requests.data(), requests.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(requests.size()));
  const std::string want =
      "OK rows=0 cache=none\nEND\n"
      "OK rows=0 cache=none\nEND\n"
      "OK rows=2 cache=miss\n(ada)\n(turing)\nEND\n"
      "OK rows=0 cache=none\nEND\n";
  std::string received;
  char chunk[256];
  while (received.size() < want.size()) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  close(fd);
  EXPECT_EQ(received, want);
}

TEST_F(ServerTest, AddTenantValidation) {
  OntologyServer server;
  EXPECT_EQ(server.AddTenant({.name = ""}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  EXPECT_EQ(server
                .AddTenant({.name = "uni",
                            .program_text = kUniversityProgram,
                            .facts_text = kUniversityFacts})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.AddTenant({.name = "bad", .program_text = "r(X ->"})
                .code(),
            StatusCode::kInvalidArgument);
  // Rate quotas that could never admit a request (no whole token) or
  // never refill (what --burst without --qps builds), and non-finite ones.
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<TenantQuota> bad_quotas = {
      {.qps = 1000, .burst = 0.5}, {.qps = 0, .burst = 3},
      {.qps = -1, .burst = 3},     {.qps = kNaN, .burst = 3},
      {.qps = kInf, .burst = 3},   {.qps = 10, .burst = kInf}};
  for (std::size_t i = 0; i < bad_quotas.size(); ++i) {
    const TenantQuota& quota = bad_quotas[i];
    // A fresh name each time, so no case passes as a duplicate.
    EXPECT_EQ(server
                  .AddTenant({.name = "bad-quota-" + std::to_string(i),
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .quota = quota})
                  .code(),
              StatusCode::kInvalidArgument)
        << "qps=" << quota.qps << " burst=" << quota.burst;
  }
  // burst <= 0 disables the rate quota whatever qps says.
  EXPECT_TRUE(server
                  .AddTenant({.name = "no-quota",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .quota = {.qps = kNaN, .burst = 0}})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server
                .AddTenant({.name = "late",
                            .program_text = kUniversityProgram,
                            .facts_text = kUniversityFacts})
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, ConnectionFaultsNeverLeakSlotsOrCrash) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "uni",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts})
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  // Every accept drops the connection; every read tears. Clients see
  // transport errors (typed Unavailable), the server sheds slots cleanly.
  FaultRegistry::Global().Arm("server.accept", {.probability = 1.0});
  for (int i = 0; i < 5; ++i) {
    StatusOr<ServerClient> connected = ServerClient::Connect(server.port());
    if (!connected.ok()) continue;
    ServerClient client = std::move(connected).value();
    StatusOr<WireResponse> response =
        client.Query("uni", "q(X) :- person(X).");
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_GE(server.metrics().Snapshot().Counter("server_accept_faults"), 1);
  FaultRegistry::Global().ResetAll();

  // Disarmed: the same server serves again — nothing leaked.
  StatusOr<ServerClient> connected = ServerClient::Connect(server.port());
  ASSERT_TRUE(connected.ok());
  ServerClient client = std::move(connected).value();
  StatusOr<WireResponse> response =
      client.Query("uni", "q(X) :- person(X).");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(server.inflight(), 0u);
}

TEST_F(ServerTest, SqliteBusyIsRetryableAndRetryingClientRidesItOut) {
  OntologyServer server;
  ASSERT_TRUE(server
                  .AddTenant({.name = "reg",
                              .program_text = kUniversityProgram,
                              .facts_text = kUniversityFacts,
                              .use_sqlite = true})
                  .ok());
  // A burst of three synthetic SQLITE_BUSY hits. The backend does not
  // wait them out: each fails its request with the retryable
  // Unavailable, and the client decides to come back.
  // Atomic: server workers trip it while this thread reads it.
  std::atomic<int> busy_left{3};
  FaultPointConfig burst;
  burst.handler = [&busy_left](std::string_view) {
    if (busy_left > 0) {
      --busy_left;
      return InternalError("synthetic SQLITE_BUSY");
    }
    return Status::Ok();
  };
  FaultRegistry::Global().Arm("backend.busy", burst);
  const std::string busy =
      server.ServeLine("QUERY tenant=reg q(X) :- person(X).");
  EXPECT_TRUE(busy.starts_with("ERR code=Unavailable retryable=1")) << busy;
  EXPECT_EQ(busy_left, 2);

  // Over TCP, RetryingClient backs off from the other two and gets the
  // exact answer on its third attempt.
  ASSERT_TRUE(server.Start().ok());
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  RetryingClient client(server.port(), policy);
  StatusOr<WireResponse> response = client.Query("reg", "q(X) :- person(X).");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->status.ok()) << response->status;
  EXPECT_EQ(response->rows, (std::vector<std::string>{"(ada)", "(turing)"}));
  EXPECT_EQ(client.retries(), 2);
  EXPECT_EQ(busy_left, 0);
}

}  // namespace
}  // namespace ontorew
