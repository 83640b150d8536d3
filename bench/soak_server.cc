// Chaos soak harness for the multi-tenant OntologyServer (DESIGN.md
// §11): many client threads fire tens of thousands of mixed requests at
// a real TCP server while fault points misfire ~1% of the time —
// connections dropped right after accept (server.accept), reads torn
// mid-stream (server.read), backend executions failing (backend.exec),
// synthetic SQLITE_BUSY contention (backend.busy), saturation steps and
// tuple scans erroring (rewrite.step, eval.scan). The process then
// drains the server while requests are still inflight.
//
// The harness FAILS (exit 1) on any robustness violation:
//   * an OK response whose rows differ from the fault-free answer set
//     (a partial answer leaked through a mid-request fault);
//   * an error whose wire `retryable` bit contradicts its status code,
//     or a malformed-query / unknown-tenant probe that came back as
//     anything but non-retryable InvalidArgument / NotFound;
//   * unbounded tail latency (p99 over the bound — a hang, not a slow
//     request);
//   * SQLITE_BUSY contention left unproven: the busy fault must have
//     tripped, each trip reaching the client as a retryable Unavailable
//     that the RetryingClient rides out, and the sqlite tenant must still
//     have answered, every OK exact.
// Zero crashes is the implicit check: the soak finishing IS the result.
//
//   soak_server --requests=20000 --threads=8 --seed=1 --fault-rate=0.01
//
// Keep --seed fixed in CI so failures replay.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_point.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace ontorew {
namespace {

struct SoakOptions {
  std::int64_t requests = 20000;
  int threads = 8;
  std::uint64_t seed = 1;
  double fault_rate = 0.01;
  double busy_rate = 0.05;
  std::int64_t p99_bound_ms = 5000;
};

struct Probe {
  std::string tenant;
  std::string query;
  // Fault-free answer rows (sorted), captured before chaos starts. An OK
  // response during chaos must match exactly — certain-answer semantics
  // admit no partial sets.
  std::vector<std::string> expected_rows;
  bool sqlite = false;
};

// A violation log that keeps the first few messages (the rest only
// counts — a broken invariant usually fires thousands of times).
class Violations {
 public:
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
    if (messages_.size() < 10) messages_.push_back(std::move(message));
  }
  std::int64_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }
  void Print() const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& message : messages_) {
      std::fprintf(stderr, "VIOLATION: %s\n", message.c_str());
    }
    if (count_ > static_cast<std::int64_t>(messages_.size())) {
      std::fprintf(stderr, "... and %lld more\n",
                   static_cast<long long>(
                       count_ - static_cast<std::int64_t>(messages_.size())));
    }
  }

 private:
  mutable std::mutex mutex_;
  std::int64_t count_ = 0;
  std::vector<std::string> messages_;
};

struct Tally {
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> ok_exact{0};
  std::atomic<std::int64_t> err_retryable{0};
  std::atomic<std::int64_t> err_permanent{0};
  std::atomic<std::int64_t> transport{0};
  std::atomic<std::int64_t> sqlite_ok{0};
  // RetryingClient::retries() summed over the client threads.
  std::atomic<std::int64_t> client_retries{0};
  std::mutex latency_mutex;
  std::vector<std::int64_t> latencies_ms;
  std::mutex code_mutex;
  std::map<std::string, std::int64_t> by_code;
};

void AddTenants(OntologyServer* server, double qps_all) {
  // Four tenants, two of them hosting the SAME ontology text (so the
  // shared rewrite cache gets genuine cross-tenant hits), one on SQLite
  // (so backend.exec / backend.busy bite a real storage path).
  const char* kUniversity = R"(
    teaches(X, C) -> professor(X).
    professor(X) -> employee(X).
    employee(X) -> person(X).
    enrolled(S, C) -> student(S).
    student(S) -> person(S).
  )";
  const char* kUniversityFacts = R"(
    teaches(ada, logic101).
    professor(turing).
    enrolled(kurt, logic101).
    enrolled(emmy, algebra1).
  )";
  const char* kLibrary = R"(
    borrows(P, B) -> member(P).
    member(P) -> person(P).
  )";
  const char* kLibraryFacts = R"(
    borrows(ada, tractatus).
    borrows(kurt, principia).
    member(emmy).
  )";

  TenantQuota quota;
  quota.qps = qps_all;
  quota.burst = qps_all > 0 ? qps_all : 0;

  TenantSpec uni{.name = "uni-a",
                 .program_text = kUniversity,
                 .facts_text = kUniversityFacts,
                 .quota = quota};
  TenantSpec uni_twin{.name = "uni-b",
                      .program_text = kUniversity,
                      .facts_text = kUniversityFacts,
                      .quota = quota};
  TenantSpec lib{.name = "library",
                 .program_text = kLibrary,
                 .facts_text = kLibraryFacts,
                 .quota = quota};
  TenantSpec reg{.name = "registry",
                 .program_text = kUniversity,
                 .facts_text = kUniversityFacts,
                 .quota = quota,
                 .use_sqlite = true};
  for (TenantSpec* spec : {&uni, &uni_twin, &lib, &reg}) {
    Status status = server->AddTenant(std::move(*spec));
    if (!status.ok()) {
      std::fprintf(stderr, "AddTenant: %s\n", status.ToString().c_str());
      std::exit(2);
    }
  }
}

std::vector<Probe> BuildProbes() {
  std::vector<Probe> probes;
  for (const char* tenant : {"uni-a", "uni-b", "registry"}) {
    const bool sqlite = std::strcmp(tenant, "registry") == 0;
    probes.push_back({tenant, "q(X) :- person(X).", {}, sqlite});
    probes.push_back({tenant, "q(X) :- professor(X).", {}, sqlite});
    probes.push_back({tenant, "q(S, C) :- enrolled(S, C).", {}, sqlite});
    probes.push_back({tenant, "q(X) :- student(X).", {}, sqlite});
  }
  probes.push_back({"library", "q(P) :- person(P).", {}, false});
  probes.push_back({"library", "q(P) :- member(P).", {}, false});
  probes.push_back({"library", "q(P, B) :- borrows(P, B).", {}, false});
  return probes;
}

// One client thread: fires randomized requests through a RetryingClient
// until the shared budget runs out, checking every response.
void ClientThread(int port, std::uint64_t seed,
                  const std::vector<Probe>& probes,
                  std::atomic<std::int64_t>* budget,
                  std::atomic<bool>* draining, Tally* tally,
                  Violations* violations) {
  Rng rng(seed | 1);
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.jitter_seed = seed;
  RetryingClient client(port, policy);
  ServerClient raw;  // For PING/STATS/TENANTS sprinkles.

  while (budget->fetch_sub(1, std::memory_order_acq_rel) > 0) {
    const std::uint64_t roll = rng.Next() % 100;
    const auto start = std::chrono::steady_clock::now();

    if (roll < 2) {  // Malformed query: MUST come back non-retryable.
      StatusOr<WireResponse> response =
          client.Query("uni-a", "q(X) :- broken ~~ syntax");
      if (response.ok() && (response->status.code() !=
                                StatusCode::kInvalidArgument ||
                            response->retryable)) {
        violations->Add(StrCat("malformed query answered with ",
                               StatusCodeName(response->status.code()),
                               " retryable=", response->retryable));
      }
    } else if (roll < 4) {  // Unknown tenant: non-retryable NotFound.
      StatusOr<WireResponse> response =
          client.Query("no-such-tenant", "q(X) :- person(X).");
      if (response.ok() &&
          !(response->status.code() == StatusCode::kNotFound &&
            !response->retryable) &&
          // During drain the server may shed before tenant lookup.
          !(draining->load() && response->retryable)) {
        violations->Add(StrCat("unknown tenant answered with ",
                               StatusCodeName(response->status.code())));
      }
    } else if (roll < 6) {  // Control verbs.
      if (!raw.connected()) {
        StatusOr<ServerClient> fresh = ServerClient::Connect(port);
        if (fresh.ok()) raw = std::move(fresh).value();
      }
      if (raw.connected()) {
        const char* verb = roll == 4 ? "STATS" : "TENANTS";
        StatusOr<WireResponse> response = raw.Roundtrip(verb);
        (void)response;  // Transport faults here are chaos, not failures.
      }
    } else {  // A real query against a known probe.
      const Probe& probe = probes[rng.Next() % probes.size()];
      const std::uint64_t deadline_roll = rng.Next() % 10;
      // Mostly roomy deadlines; some tight ones to exercise queue-side
      // expiry; some absent.
      const std::int64_t deadline_ms =
          deadline_roll < 2 ? 0 : (deadline_roll < 4 ? 5 : 500);
      const bool trace = (rng.Next() % 20) == 0;
      StatusOr<WireResponse> response =
          client.Query(probe.tenant, probe.query, deadline_ms, trace);
      if (!response.ok()) {
        // Transport failure after all retries — legal under connection
        // chaos, but it must be typed Unavailable.
        tally->transport.fetch_add(1);
        if (response.status().code() != StatusCode::kUnavailable) {
          violations->Add(StrCat("transport failure typed ",
                                 StatusCodeName(response.status().code())));
        }
      } else if (response->status.ok()) {
        tally->ok.fetch_add(1);
        if (probe.sqlite) tally->sqlite_ok.fetch_add(1);
        std::vector<std::string> rows = response->rows;
        std::sort(rows.begin(), rows.end());
        if (rows == probe.expected_rows) {
          tally->ok_exact.fetch_add(1);
        } else {
          violations->Add(StrCat(
              "partial/wrong answers for ", probe.tenant, " '", probe.query,
              "': got ", rows.size(), " rows, want ",
              probe.expected_rows.size()));
        }
      } else {
        // Typed error: the wire retryable bit must match the code.
        if (response->retryable !=
            IsRetryableStatusCode(response->status.code())) {
          violations->Add(
              StrCat("retryable bit ", response->retryable, " for code ",
                     StatusCodeName(response->status.code())));
        }
        (response->retryable ? tally->err_retryable : tally->err_permanent)
            .fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(tally->code_mutex);
          ++tally->by_code[std::string(
              StatusCodeName(response->status.code()))];
        }
      }
    }

    const auto elapsed = std::chrono::steady_clock::now() - start;
    const std::int64_t ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count();
    std::lock_guard<std::mutex> lock(tally->latency_mutex);
    tally->latencies_ms.push_back(ms);
  }
  tally->client_retries.fetch_add(client.retries());
}

int Run(const SoakOptions& options) {
  FaultQuiesce quiesce;  // Starts clean, cannot leak armed faults.

  OntologyServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = options.threads;
  server_options.max_inflight_global = 16;
  server_options.admission_timeout = std::chrono::milliseconds(50);
  server_options.shared_cache_capacity = 4;  // Keep rewrite.step hot.
  OntologyServer server(server_options);
  AddTenants(&server, /*qps_all=*/0);  // Quotas exercised in tests, not here.
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "Start: %s\n", started.ToString().c_str());
    return 2;
  }
  std::printf("soak: server on 127.0.0.1:%d\n", server.port());

  // Capture fault-free expectations first.
  std::vector<Probe> probes = BuildProbes();
  {
    StatusOr<ServerClient> warm = ServerClient::Connect(server.port());
    if (!warm.ok()) {
      std::fprintf(stderr, "warmup connect: %s\n",
                   warm.status().ToString().c_str());
      return 2;
    }
    ServerClient client = std::move(warm).value();
    for (Probe& probe : probes) {
      StatusOr<WireResponse> response =
          client.Query(probe.tenant, probe.query);
      if (!response.ok() || !response->status.ok()) {
        std::fprintf(stderr, "warmup %s '%s' failed\n", probe.tenant.c_str(),
                     probe.query.c_str());
        return 2;
      }
      probe.expected_rows = response->rows;
      std::sort(probe.expected_rows.begin(), probe.expected_rows.end());
    }
  }

  // Arm the chaos: every layer of the stack misbehaves at once.
  FaultRegistry& faults = FaultRegistry::Global();
  const double p = options.fault_rate;
  faults.Arm("server.accept", {.probability = p, .seed = options.seed + 1});
  faults.Arm("server.read", {.probability = p, .seed = options.seed + 2});
  faults.Arm("backend.exec", {.probability = p, .seed = options.seed + 3});
  faults.Arm("rewrite.step",
             {.probability = p / 10, .seed = options.seed + 4});
  faults.Arm("eval.scan", {.probability = p / 50, .seed = options.seed + 5});
  // Synthetic SQLITE_BUSY contention, well above the fault rate: each trip
  // fails its request with a retryable Unavailable, and the clients'
  // RetryingClient backs off and resends.
  faults.Arm("backend.busy",
             {.probability = options.busy_rate, .seed = options.seed + 6});

  Tally tally;
  Violations violations;
  std::atomic<std::int64_t> budget{options.requests};
  std::atomic<bool> draining{false};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    clients.emplace_back(ClientThread, server.port(),
                         options.seed * 1000003 + i, std::cref(probes),
                         &budget, &draining, &tally, &violations);
  }

  // Drain while the tail of the soak is still inflight: the last ~2% of
  // requests land on a draining server and must shed cleanly.
  while (budget.load(std::memory_order_acquire) >
         options.requests / 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  draining.store(true);
  const Status drained = server.Shutdown(std::chrono::seconds(5));
  for (std::thread& thread : clients) thread.join();

  // ---- Verdict ---- (read trip counts before quiesce clears them)
  const std::int64_t busy_trips = faults.trips("backend.busy");
  std::sort(tally.latencies_ms.begin(), tally.latencies_ms.end());
  const std::int64_t p99 =
      tally.latencies_ms.empty()
          ? 0
          : tally.latencies_ms[static_cast<std::size_t>(
                static_cast<double>(tally.latencies_ms.size() - 1) * 0.99)];

  std::printf("soak: %lld requests, ok=%lld (exact=%lld) retryable=%lld "
              "permanent=%lld transport=%lld\n",
              static_cast<long long>(options.requests),
              static_cast<long long>(tally.ok.load()),
              static_cast<long long>(tally.ok_exact.load()),
              static_cast<long long>(tally.err_retryable.load()),
              static_cast<long long>(tally.err_permanent.load()),
              static_cast<long long>(tally.transport.load()));
  {
    std::lock_guard<std::mutex> lock(tally.code_mutex);
    for (const auto& [code, count] : tally.by_code) {
      std::printf("soak:   err %s = %lld\n", code.c_str(),
                  static_cast<long long>(count));
    }
  }
  std::printf("soak: p99=%lldms busy_trips=%lld client_retries=%lld "
              "sqlite_ok=%lld drain=%s\n",
              static_cast<long long>(p99),
              static_cast<long long>(busy_trips),
              static_cast<long long>(tally.client_retries.load()),
              static_cast<long long>(tally.sqlite_ok.load()),
              drained.ToString().c_str());
  const RewriteCacheStats cache = server.shared_cache_stats();
  std::printf("soak: shared cache hits=%lld misses=%lld evictions=%lld\n",
              static_cast<long long>(cache.hits),
              static_cast<long long>(cache.misses),
              static_cast<long long>(cache.evictions));

  int failures = 0;
  if (violations.count() > 0) {
    violations.Print();
    ++failures;
  }
  if (tally.ok.load() == 0) {
    std::fprintf(stderr, "FAIL: no request ever succeeded\n");
    ++failures;
  }
  if (p99 > options.p99_bound_ms) {
    std::fprintf(stderr, "FAIL: p99 %lldms exceeds bound %lldms\n",
                 static_cast<long long>(p99),
                 static_cast<long long>(options.p99_bound_ms));
    ++failures;
  }
  if (busy_trips == 0) {
    std::fprintf(stderr,
                 "FAIL: backend.busy never tripped — contention untested\n");
    ++failures;
  }
  if (tally.sqlite_ok.load() == 0) {
    std::fprintf(stderr,
                 "FAIL: no sqlite-tenant success — busy retry unproven\n");
    ++failures;
  }
  std::printf(failures == 0 ? "soak: PASS\n" : "soak: FAIL\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ontorew

int main(int argc, char** argv) {
  ontorew::SoakOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--requests=")) {
      options.requests = std::atoll(v);
    } else if (const char* v = value_of("--threads=")) {
      options.threads = std::atoi(v);
    } else if (const char* v = value_of("--seed=")) {
      options.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char* v = value_of("--fault-rate=")) {
      options.fault_rate = std::atof(v);
    } else if (const char* v = value_of("--busy-rate=")) {
      options.busy_rate = std::atof(v);
    } else if (const char* v = value_of("--p99-bound-ms=")) {
      options.p99_bound_ms = std::atoll(v);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--requests=N] [--threads=N] [--seed=N] "
                   "[--fault-rate=F] [--busy-rate=F] [--p99-bound-ms=N]\n",
                   argv[0]);
      return 2;
    }
  }
  return ontorew::Run(options);
}
