// serve_bench: the program behind servebench/run.py (see README.md beside
// this file). One process serves one run of one workload:
//
//   1. generates the workload's instance and request streams from --seed;
//   2. computes the expected answers with the chase oracle (untimed);
//   3. sets up an in-process OntologyServer on loopback with two tenants
//      on the same ontology, `inmemory` (built-in evaluator) and `sqlite`
//      (use_sqlite), several times, and keeps the last (setup_s);
//   4. with --trace-out, replays a fixed prefix of the request stream on
//      one thread, timing each layer's public function, and writes the
//      spans as Chrome trace_event JSON;
//   5. drives the server closed-loop for --seconds from one client thread
//      holding one ServerClient per tenant, one request in flight, without
//      retries, checking every reply;
//   6. prints one metric per line and, as its last line, a JSON report.
//
// The end-to-end timings are process CPU time (client and server threads
// together), not wall time: on a shared VM host, wall time also counts
// the moments the host runs other guests and the delays in waking an idle
// vCPU, which vary far more between runs than the program's own work.
// Wall-clock equivalents are printed as metadata.
//
//   serve_bench --workload warm_lookup --seed 1 --seconds 10
//               [--trace-out trace.json]
//
// Exit status: 0 when every request succeeded, every answer matched the
// oracle and every percentile had enough samples behind it; 1 otherwise;
// 2 on bad arguments.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "backend/sqlite_backend.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "db/facts_io.h"
#include "db/value.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "serving/answer_engine.h"
#include "serving/parallel_eval.h"
#include "serving/rewrite_cache.h"
#include "workload/university.h"

namespace ontorew {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NanosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// CPU time of the whole process, every thread, in nanoseconds. The kernel
// leaves out the time the host gave this vCPU to another guest (steal).
std::int64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

constexpr int kTenants = 2;
constexpr int kInMemoryTenant = 0;
constexpr int kSqliteTenant = 1;
constexpr std::array<const char*, kTenants> kTenantNames = {"inmemory",
                                                            "sqlite"};

// Server shape: one client thread plus two workers stay within the four
// hardware threads the benchmark is calibrated on. Evaluation runs inline
// on the worker (one evaluator thread): the default fan-out would start up
// to four more threads per request and oversubscribe the cores.
constexpr int kServerWorkers = 2;
constexpr int kEvalThreads = 1;
// Setups per run; setup_s is their median.
constexpr int kSetups = 7;
// Requests in the traced replay, alternating tenants. 1000 is the
// fewest that leaves ten samples beyond the p99 of rewriting.saturate_ms.
constexpr int kReplayRequests = 1000;

// --- Workloads ---------------------------------------------------------------

using Rows = std::vector<std::string>;

struct Workload {
  std::string name;
  std::string program_text;
  std::string facts_text;
  // Distinct query texts per tenant, and the order in which that tenant's
  // client cycles through them (indices into `queries`).
  std::array<std::vector<std::string>, kTenants> queries;
  std::array<std::vector<int>, kTenants> stream;
  // The tenant of each request of the timed window, cycled. Three
  // `inmemory` requests to one `sqlite` request: with equal shares the
  // pooled median would sit on the boundary between the faster tenant's
  // slowest replies and the slower tenant's fastest ones.
  std::vector<int> tenant_pattern = {kInMemoryTenant, kInMemoryTenant,
                                     kInMemoryTenant, kSqliteTenant};
  // Warm workloads serve every distinct query once during setup, so the
  // timed requests all hit the rewrite cache.
  bool prime = false;
};

// bench_backends' scaling: scale 10 is UniversityInstanceOptions' default.
UniversityInstanceOptions ScaledInstance(int scale) {
  UniversityInstanceOptions options;
  options.num_professors = 2 * scale;
  options.num_lecturers = 3 * scale;
  options.num_students = 40 * scale;
  options.num_phd_students = 4 * scale;
  options.num_courses = 5 * scale;
  return options;
}

void Shuffle(std::vector<int>* items, Rng* rng) {
  for (int i = static_cast<int>(items->size()) - 1; i > 0; --i) {
    std::swap((*items)[static_cast<std::size_t>(i)],
              (*items)[static_cast<std::size_t>(rng->Uniform(i + 1))]);
  }
}

std::vector<int> Iota(int n) {
  std::vector<int> items(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) items[static_cast<std::size_t>(i)] = i;
  return items;
}

// `k` distinct values of [0, n), in random order.
std::vector<int> Sample(int n, int k, Rng* rng) {
  std::vector<int> items = Iota(n);
  Shuffle(&items, rng);
  items.resize(static_cast<std::size_t>(std::min(n, k)));
  return items;
}

// Fills program/facts text with a university instance at `scale` plus a
// `knows` ring among the students (each knows the next two), and returns
// the course constants the data mentions.
std::vector<std::string> MakeInstance(int scale, Rng* rng, Workload* w) {
  Vocabulary vocab;
  const TgdProgram program = UniversityOntology(&vocab);
  const UniversityInstanceOptions options = ScaledInstance(scale);
  Database db = UniversityInstance(options, rng, &vocab);
  const PredicateId knows = vocab.MustPredicate("knows", 2);
  const auto student = [&vocab, &options](int i) {
    return Value::Constant(vocab.InternConstant(
        StrCat("stud", i % options.num_students)));
  };
  for (int i = 0; i < options.num_students; ++i) {
    db.Insert(knows, {student(i), student(i + 1)});
    db.Insert(knows, {student(i), student(i + 2)});
  }
  w->program_text = ToString(program, vocab);
  w->facts_text = FactsToString(db, vocab);

  std::vector<std::string> courses;
  for (const Tuple& tuple :
       db.Find(vocab.MustPredicate("enrolled", 2))->tuples()) {
    courses.push_back(ToString(tuple[1], vocab));
  }
  std::sort(courses.begin(), courses.end());
  courses.erase(std::unique(courses.begin(), courses.end()), courses.end());
  return courses;
}

// Scale 10; per tenant 80 selective queries with constants (20 of each
// shape), cycled in a seeded order, all primed.
Workload WarmLookup(Rng* rng) {
  Workload w;
  w.name = "warm_lookup";
  w.prime = true;
  const int scale = 10;
  const std::vector<std::string> courses = MakeInstance(scale, rng, &w);
  const UniversityInstanceOptions options = ScaledInstance(scale);
  constexpr int kPerShape = 20;
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::string>& pool = w.queries[static_cast<std::size_t>(t)];
    for (int i : Sample(options.num_professors, kPerShape, rng)) {
      pool.push_back(StrCat("q(C) :- teaches(prof", i, ", C)."));
    }
    for (int i :
         Sample(static_cast<int>(courses.size()), kPerShape, rng)) {
      pool.push_back(StrCat("q(S) :- enrolled(S, ",
                            courses[static_cast<std::size_t>(i)], ")."));
    }
    for (int i : Sample(options.num_phd_students, kPerShape, rng)) {
      pool.push_back(StrCat("q(X) :- advises(X, phd", i, ")."));
    }
    for (int i : Sample(options.num_students, kPerShape, rng)) {
      pool.push_back(StrCat("q() :- person(stud", i, ")."));
    }
    w.stream[static_cast<std::size_t>(t)] =
        Iota(static_cast<int>(pool.size()));
    Shuffle(&w.stream[static_cast<std::size_t>(t)], rng);
  }
  return w;
}

// Scale 20; four join or wide queries on both tenants, in a fixed
// five-slot rotation whose starting point the seed picks. person(X) takes
// two slots: with an odd number of equal slots the median lands inside
// one query's latency cluster, not on the boundary between two, where
// one request more or less would flip it.
Workload WarmJoin(Rng* rng) {
  Workload w;
  w.name = "warm_join";
  w.prime = true;
  MakeInstance(20, rng, &w);
  const std::vector<std::string> pool = {
      "q(X0) :- person(X0), knows(X0, X1), person(X1).",
      "q(S) :- enrolled(S, C), teaches(T, C), faculty(T).",
      "q(X) :- person(X).",
      "q(X, C) :- advises(X, Y), enrolled(Y, C), course(C).",
  };
  const std::vector<int> rotation = {0, 2, 1, 2, 3};
  for (std::size_t t = 0; t < kTenants; ++t) {
    w.queries[t] = pool;
    const std::size_t start = static_cast<std::size_t>(
        rng->Uniform(static_cast<int>(rotation.size())));
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      w.stream[t].push_back(rotation[(start + i) % rotation.size()]);
    }
  }
  return w;
}

// Scale 1; every chain c1(X0), r1(X0,X1), c2(X1), r2(X1,X2), c3(X2) over
// the ontology's 7 concepts and 4 roles (5488 shapes), shuffled and split
// disjointly between the tenants. More shapes than the shared cache's 512
// entries, so every request misses and every insert evicts.
Workload ColdRewrite(Rng* rng) {
  Workload w;
  w.name = "cold_rewrite";
  MakeInstance(1, rng, &w);
  const std::vector<std::string> concepts = {
      "professor", "lecturer", "faculty", "person",
      "student",   "course",   "phd"};
  const std::vector<std::string> roles = {"teaches", "enrolled", "advises",
                                          "knows"};
  std::vector<std::string> shapes;
  for (const std::string& c1 : concepts) {
    for (const std::string& r1 : roles) {
      for (const std::string& c2 : concepts) {
        for (const std::string& r2 : roles) {
          for (const std::string& c3 : concepts) {
            shapes.push_back(StrCat("q(X0) :- ", c1, "(X0), ", r1,
                                    "(X0, X1), ", c2, "(X1), ", r2,
                                    "(X1, X2), ", c3, "(X2)."));
          }
        }
      }
    }
  }
  std::vector<int> order = Iota(static_cast<int>(shapes.size()));
  Shuffle(&order, rng);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t t = i % kTenants;
    w.queries[t].push_back(shapes[static_cast<std::size_t>(order[i])]);
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    w.stream[t] = Iota(static_cast<int>(w.queries[t].size()));
  }
  return w;
}

std::optional<Workload> MakeWorkload(std::string_view name,
                                     std::uint64_t seed) {
  Rng rng(seed);
  if (name == "warm_lookup") return WarmLookup(&rng);
  if (name == "warm_join") return WarmJoin(&rng);
  if (name == "cold_rewrite") return ColdRewrite(&rng);
  return std::nullopt;
}

const std::string& QueryAt(const Workload& w, int tenant, std::size_t k,
                           int* index = nullptr) {
  const std::vector<int>& stream = w.stream[static_cast<std::size_t>(tenant)];
  const int q = stream[k % stream.size()];
  if (index != nullptr) *index = q;
  return w.queries[static_cast<std::size_t>(tenant)]
                  [static_cast<std::size_t>(q)];
}

// --- Chase oracle ------------------------------------------------------------

using Expected = std::array<std::vector<Rows>, kTenants>;

// cert(q, P, D) for every distinct query: the instance is chased once and
// each query evaluated over the chase with null-carrying tuples dropped,
// rendered and sorted.
StatusOr<Expected> ComputeOracle(const Workload& w) {
  Vocabulary vocab;
  OREW_ASSIGN_OR_RETURN(TgdProgram program,
                        ParseProgram(w.program_text, &vocab));
  OREW_ASSIGN_OR_RETURN(Database db, ParseFacts(w.facts_text, &vocab));
  ChaseResult chased = RunChase(program, db);
  OREW_RETURN_IF_ERROR(chased.status);
  if (!chased.terminated) {
    return InternalError("the oracle's chase did not reach a fixpoint");
  }
  EvalOptions eval;
  eval.drop_tuples_with_nulls = true;
  Expected expected;
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (const std::string& text : w.queries[t]) {
      OREW_ASSIGN_OR_RETURN(ConjunctiveQuery cq, ParseQuery(text, &vocab));
      OREW_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                            TryEvaluate(cq, chased.db, eval));
      Rows rows;
      rows.reserve(answers.size());
      for (const Tuple& tuple : answers) {
        rows.push_back(ToString(tuple, vocab));
      }
      std::sort(rows.begin(), rows.end());
      expected[t].push_back(std::move(rows));
    }
  }
  return expected;
}

bool SameRows(Rows got, const Rows& want) {
  std::sort(got.begin(), got.end());
  return got == want;
}

// Outcome counts of a set of requests.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t error_replies = 0;
  std::int64_t transport_failures = 0;
  std::int64_t mismatches = 0;
  std::int64_t rows = 0;  // Answer rows across the OK replies.
  std::string first_failure;

  std::int64_t failed() const {
    return error_replies + transport_failures + mismatches;
  }
  void Note(std::string what) {
    if (first_failure.empty()) first_failure = std::move(what);
  }
  void Add(const Outcomes& other) {
    attempted += other.attempted;
    ok += other.ok;
    error_replies += other.error_replies;
    transport_failures += other.transport_failures;
    mismatches += other.mismatches;
    rows += other.rows;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
  // Classifies one client reply against the oracle's rows.
  void Record(StatusOr<WireResponse> reply, const Rows& want,
              std::string_view what) {
    ++attempted;
    if (!reply.ok()) {
      ++transport_failures;
      Note(StrCat(what, ": ", reply.status().ToString()));
    } else if (!reply->status.ok()) {
      ++error_replies;
      Note(StrCat(what, ": ", reply->status.ToString()));
    } else {
      ++ok;
      rows += static_cast<std::int64_t>(reply->rows.size());
      if (!SameRows(std::move(reply->rows), want)) {
        ++mismatches;
        Note(StrCat(what, ": answers differ from the chase oracle"));
      }
    }
  }
};

// --- Setup -------------------------------------------------------------------

struct PrimedReply {
  int tenant;
  int query;
  StatusOr<WireResponse> reply;
};

// A started server with one connected client per tenant. Members are
// destroyed in reverse order: the clients hang up before the server
// shuts down.
struct Deployment {
  std::unique_ptr<OntologyServer> server;
  std::array<ServerClient, kTenants> clients;
};

// AddTenant x 2, Start, connect, then the priming pass: a PING per client
// and, on warm workloads, every distinct query once per tenant. Priming
// replies land in `primed` and are checked by the caller, outside the
// timed section.
StatusOr<std::unique_ptr<Deployment>> Deploy(
    const Workload& w, std::vector<PrimedReply>* primed) {
  auto d = std::make_unique<Deployment>();
  OntologyServerOptions options;
  options.num_workers = kServerWorkers;
  d->server = std::make_unique<OntologyServer>(options);
  for (int t = 0; t < kTenants; ++t) {
    TenantSpec spec;
    spec.name = kTenantNames[static_cast<std::size_t>(t)];
    spec.program_text = w.program_text;
    spec.facts_text = w.facts_text;
    spec.use_sqlite = t == kSqliteTenant;
    spec.engine.num_threads = kEvalThreads;
    OREW_RETURN_IF_ERROR(d->server->AddTenant(std::move(spec)));
  }
  OREW_RETURN_IF_ERROR(d->server->Start());
  for (std::size_t t = 0; t < kTenants; ++t) {
    OREW_ASSIGN_OR_RETURN(d->clients[t],
                          ServerClient::Connect(d->server->port()));
    OREW_RETURN_IF_ERROR(d->clients[t].Ping());
    if (!w.prime) continue;
    for (std::size_t q = 0; q < w.queries[t].size(); ++q) {
      primed->push_back(PrimedReply{
          static_cast<int>(t), static_cast<int>(q),
          d->clients[t].Query(kTenantNames[t], w.queries[t][q])});
    }
  }
  return d;
}

// Sets up kSetups times and keeps the last deployment; the others are
// torn down outside the timed section. Each setup's process CPU time goes
// to `setup_cpu_ns` and its wall time to `setup_wall_ns`; the priming
// replies are checked into `priming`.
StatusOr<std::unique_ptr<Deployment>> SetUpRepeatedly(
    const Workload& w, const Expected& expected,
    std::vector<std::int64_t>* setup_cpu_ns,
    std::vector<std::int64_t>* setup_wall_ns, Outcomes* priming) {
  std::unique_ptr<Deployment> live;
  for (int i = 0; i < kSetups; ++i) {
    live.reset();
    std::vector<PrimedReply> primed;
    const Clock::time_point start = Clock::now();
    const std::int64_t cpu_start = ProcessCpuNanos();
    OREW_ASSIGN_OR_RETURN(live, Deploy(w, &primed));
    setup_cpu_ns->push_back(ProcessCpuNanos() - cpu_start);
    setup_wall_ns->push_back(NanosBetween(start, Clock::now()));
    for (PrimedReply& p : primed) {
      const std::size_t t = static_cast<std::size_t>(p.tenant);
      const std::size_t q = static_cast<std::size_t>(p.query);
      priming->Record(std::move(p.reply), expected[t][q],
                      StrCat("priming ", w.queries[t][q]));
    }
  }
  return live;
}

// --- Closed-loop clients -----------------------------------------------------

// The samples of the timed window. Every request has a CPU latency (the
// process's CPU time from send to reply: client, kernel and server work)
// and a wall latency; `cpu_ns` keeps the order the requests were sent in.
struct WindowRun {
  Outcomes outcomes;
  std::vector<std::int64_t> cpu_ns;
  std::array<std::vector<std::int64_t>, kTenants> tenant_cpu_ns;
  std::array<std::vector<std::int64_t>, kTenants> tenant_wall_ns;
  std::vector<std::int64_t> per_second;  // Replies ended in each second.
  std::int64_t wall_ns = 0;              // The window, start to last reply.

  std::size_t SampleBytes() const {
    std::size_t n = cpu_ns.capacity();
    for (std::size_t t = 0; t < kTenants; ++t) {
      n += tenant_cpu_ns[t].capacity() + tenant_wall_ns[t].capacity();
    }
    return n * sizeof(std::int64_t);
  }
};

// The closed loop: one client thread sends the requests in the workload's
// tenant pattern, each tenant's on its own connection from request
// `next[tenant]` of its stream on, and waits for every reply before the
// next, until `seconds` have passed. One request is in flight at a time,
// so its CPU time is its own. No retries: a transport failure reconnects
// and moves on to the next request.
WindowRun RunTimedWindow(Deployment* d, const Workload& w,
                         const Expected& expected,
                         std::array<std::size_t, kTenants> next,
                         double seconds) {
  WindowRun run;
  run.cpu_ns.reserve(1 << 18);
  run.per_second.resize(static_cast<std::size_t>(std::ceil(seconds)) + 1);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < stop_at; ++i) {
    const int tenant = w.tenant_pattern[i % w.tenant_pattern.size()];
    const std::size_t t = static_cast<std::size_t>(tenant);
    int q = 0;
    const std::string& text = QueryAt(w, tenant, next[t]++, &q);
    const Clock::time_point wall_start = Clock::now();
    const std::int64_t cpu_start = ProcessCpuNanos();
    StatusOr<WireResponse> reply = d->clients[t].Query(kTenantNames[t], text);
    const std::int64_t cpu = ProcessCpuNanos() - cpu_start;
    const Clock::time_point wall_end = Clock::now();
    run.cpu_ns.push_back(cpu);
    run.tenant_cpu_ns[t].push_back(cpu);
    run.tenant_wall_ns[t].push_back(NanosBetween(wall_start, wall_end));
    run.wall_ns = NanosBetween(start, wall_end);
    ++run.per_second[std::min(run.per_second.size() - 1,
                              static_cast<std::size_t>(run.wall_ns /
                                                       1000000000))];
    const bool transport_failed = !reply.ok();
    run.outcomes.Record(std::move(reply),
                        expected[t][static_cast<std::size_t>(q)], text);
    if (transport_failed) {
      StatusOr<ServerClient> fresh = ServerClient::Connect(d->server->port());
      if (!fresh.ok()) break;
      d->clients[t] = std::move(fresh).value();
    }
  }
  return run;
}

// --- Traced replay -----------------------------------------------------------

// One timed call. Spans of one request share `request`; `parent` indexes
// the request's root span. `on_path` marks calls that the server itself
// makes for this request, whose sum is compared with ServeLine.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
  int request;
  int tenant;
  bool on_path;
};

// Spans are kept in memory and written once, after the replay. Not
// base/trace.h's Trace: its BeginSpan allocates the span after reading
// the start time, which would inflate the sub-microsecond layers (wire
// parse, cache lookup). SpanLog reads the clock right around the call and
// records afterwards; its JSON has the shape Trace::ToJson emits.
class SpanLog {
 public:
  int OpenRequest(int request, int tenant) {
    spans_.push_back(Span{"request", Now(), -1, -1, request, tenant, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = Now(); }

  // Times fn() as a child of the request span `parent`.
  template <typename Fn>
  auto Time(const char* name, int parent, bool on_path, Fn&& fn) {
    const std::int64_t start = Now();
    auto result = fn();
    const std::int64_t end = Now();
    const Span& root = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(
        Span{name, start, end, parent, root.request, root.tenant, on_path});
    return result;
  }

  std::vector<std::int64_t> Durations(std::string_view name) const {
    std::vector<std::int64_t> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(span.end_ns - span.start_ns);
    }
    return out;
  }
  std::int64_t OnPathNs() const {
    std::int64_t sum = 0;
    for (const Span& span : spans_) {
      if (span.on_path) sum += span.end_ns - span.start_ns;
    }
    return sum;
  }

  // Chrome trace_event JSON: "X" complete events in microseconds, one
  // track, the request id and parent span in args.
  std::string ToChromeJson() const {
    std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n  {\"name\": \"%s\", \"cat\": \"servebench\", \"ph\": \"X\", "
          "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
          "{\"span_id\": %zu, \"parent\": %d, \"request\": %d, "
          "\"tenant\": \"%s\", \"on_path\": %d}}",
          i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
          s.request, kTenantNames[static_cast<std::size_t>(s.tenant)],
          s.on_path ? 1 : 0);
      out += buf;
    }
    out += "\n]}\n";
    return out;
  }

 private:
  std::int64_t Now() const { return NanosBetween(epoch_, Clock::now()); }

  const Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// The replay's own copy of one tenant: parsed exactly as the server
// parses it, with its own engine (and SQLite backend) on a rewrite cache
// shared between the two replay tenants, as the server shares one.
struct ReplayTenant {
  Vocabulary vocab;
  std::shared_ptr<SqliteBackend> sqlite;
  std::unique_ptr<AnswerEngine> engine;
};

// Parses the tenant and, on warm workloads, primes its engine as the
// server's was primed.
Status InitReplayTenant(const Workload& w, int tenant,
                        std::shared_ptr<RewriteCache> cache,
                        ReplayTenant* out) {
  OREW_ASSIGN_OR_RETURN(TgdProgram program,
                        ParseProgram(w.program_text, &out->vocab));
  OREW_ASSIGN_OR_RETURN(Database db, ParseFacts(w.facts_text, &out->vocab));
  AnswerEngineOptions options;
  options.shared_cache = std::move(cache);
  options.num_threads = kEvalThreads;
  if (tenant == kSqliteTenant) {
    out->sqlite = std::make_shared<SqliteBackend>(&out->vocab);
    options.backend = out->sqlite;
  }
  out->engine = std::make_unique<AnswerEngine>(
      std::move(program), std::move(db), std::move(options));
  if (!w.prime) return Status::Ok();
  for (const std::string& text : w.queries[static_cast<std::size_t>(tenant)]) {
    OREW_ASSIGN_OR_RETURN(ConjunctiveQuery cq, ParseQuery(text, &out->vocab));
    OREW_RETURN_IF_ERROR(
        out->engine->Serve(UnionOfCqs(std::move(cq))).status());
  }
  return Status::Ok();
}

// Per-request counts the replay collects beside its spans.
struct ReplayCounts {
  std::vector<std::int64_t> reply_bytes;
  std::vector<std::int64_t> steps;
  std::vector<std::int64_t> generated;
  std::int64_t kept_sum = 0;
  std::int64_t generated_sum = 0;
  std::int64_t dag_calls = 0;
  std::int64_t dag_fallbacks = 0;
  std::vector<std::int64_t> sql_bytes;
  std::vector<std::int64_t> tuples_examined;
  std::int64_t examined_sum = 0;
  std::int64_t matches_sum = 0;
};

// Splits a ServeLine reply into header and body lines (up to END).
StatusOr<WireResponse> ParseReply(const std::string& reply) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < reply.size()) {
    std::size_t nl = reply.find('\n', pos);
    if (nl == std::string::npos) nl = reply.size();
    std::string line = reply.substr(pos, nl - pos);
    pos = nl + 1;
    if (line == kWireEnd) break;
    lines.push_back(std::move(line));
  }
  if (lines.empty()) return InternalError("empty ServeLine reply");
  const std::string header = lines.front();
  lines.erase(lines.begin());
  return ParseWireResponse(header, lines);
}

// Replays the first kReplayRequests requests of the timed window's
// sequence (the same tenant pattern and streams), leaving each tenant's
// next stream position in `next`. For each request: the whole server
// without sockets (ServeLine), then each layer's public function in the
// order ServeLine calls them, then the off-path functions (the DAG
// rewriter, SQL emission on its own, the in-process engine).
Status Replay(OntologyServer* server, const Workload& w,
              const Expected& expected,
              std::array<ReplayTenant, kTenants>* tenants,
              RewriteCache* cache, SpanLog* log, ReplayCounts* counts,
              Outcomes* outcomes, std::array<std::size_t, kTenants>* next) {
  ParallelEvalOptions eval_options;
  eval_options.num_threads = kEvalThreads;
  eval_options.eval.drop_tuples_with_nulls = true;
  BackendExecOptions exec_options;
  exec_options.drop_tuples_with_nulls = true;
  exec_options.num_threads = kEvalThreads;

  for (int r = 0; r < kReplayRequests; ++r) {
    const int tenant = w.tenant_pattern[static_cast<std::size_t>(r) %
                                        w.tenant_pattern.size()];
    const std::size_t t = static_cast<std::size_t>(tenant);
    int q = 0;
    const std::string& text = QueryAt(w, tenant, (*next)[t]++, &q);
    const Rows& want = expected[t][static_cast<std::size_t>(q)];
    const std::string line =
        StrCat("QUERY tenant=", kTenantNames[t], " ", text);
    ReplayTenant& rt = (*tenants)[t];
    const TgdProgram& program = rt.engine->program();

    const int root = log->OpenRequest(r, tenant);
    const std::string reply =
        log->Time("server.serve_line", root, false,
                  [&] { return server->ServeLine(line); });
    counts->reply_bytes.push_back(static_cast<std::int64_t>(reply.size()));
    StatusOr<WireResponse> served = ParseReply(reply);
    const bool cache_miss =
        served.ok() && served->status.ok() && !served->cache_hit;
    outcomes->Record(std::move(served), want, StrCat("replay ", text));

    StatusOr<WireRequest> request =
        log->Time("server.wire_parse", root, true,
                  [&] { return ParseWireRequest(line); });
    if (!request.ok()) return request.status();
    StatusOr<ConjunctiveQuery> parsed = log->Time(
        "logic.parse_query", root, true,
        [&] { return ParseQuery(request->query, &rt.vocab); });
    if (!parsed.ok()) return parsed.status();
    const UnionOfCqs query(std::move(parsed).value());
    const std::string key =
        log->Time("serving.cache_key", root, true,
                  [&] { return rt.engine->CacheKey(query); });
    const std::shared_ptr<const CachedRewriting> cached = log->Time(
        "serving.cache_lookup", root, true, [&] { return cache->Lookup(key); });
    StatusOr<RewriteResult> rewritten =
        log->Time("rewriting.saturate", root, cache_miss,
                  [&] { return RewriteUcq(query, program); });
    if (!rewritten.ok()) return rewritten.status();
    counts->steps.push_back(rewritten->steps);
    counts->generated.push_back(rewritten->generated);
    counts->kept_sum += rewritten->ucq.size();
    counts->generated_sum += rewritten->generated;
    StatusOr<DagRewriteResult> dag =
        log->Time("rewriting.dag", root, false,
                  [&] { return RewriteToDatalog(query, program); });
    if (!dag.ok()) return dag.status();
    ++counts->dag_calls;
    if (dag->fallback) ++counts->dag_fallbacks;

    const UnionOfCqs& ucq = cached != nullptr && cached->ucq.has_value()
                                ? *cached->ucq
                                : rewritten->ucq;
    EvalStats stats;
    StatusOr<std::vector<Tuple>> answers =
        [&]() -> StatusOr<std::vector<Tuple>> {
      if (tenant == kSqliteTenant) {
        // SQL emission runs again inside Execute, so it is off the path.
        StatusOr<std::string> sql =
            log->Time("rewriting.emit", root, false,
                      [&] { return UcqToSql(ucq, rt.vocab); });
        if (!sql.ok()) return sql.status();
        counts->sql_bytes.push_back(static_cast<std::int64_t>(sql->size()));
        return log->Time("backend.sqlite.exec", root, true, [&] {
          return rt.sqlite->Execute(ucq, exec_options, &stats);
        });
      }
      return log->Time("db.eval", root, true, [&] {
        return ParallelEvaluate(ucq, rt.engine->db(), eval_options, &stats);
      });
    }();
    if (!answers.ok()) return answers.status();
    if (tenant == kInMemoryTenant) {
      counts->tuples_examined.push_back(stats.tuples_examined);
      counts->examined_sum += stats.tuples_examined;
      counts->matches_sum += stats.matches;
    }
    Rows rows = log->Time("render.rows", root, true, [&] {
      Rows rendered;
      rendered.reserve(answers->size());
      for (const Tuple& tuple : *answers) {
        rendered.push_back(ToString(tuple, rt.vocab));
      }
      return rendered;
    });
    if (!SameRows(std::move(rows), want)) {
      return InternalError(
          StrCat("replayed layers disagree with the chase oracle on ", text));
    }
    if (tenant == kInMemoryTenant) {
      StatusOr<AnswerResult> result =
          log->Time("serving.engine_serve", root, false,
                    [&] { return rt.engine->Serve(query); });
      if (!result.ok()) return result.status();
      if (result->answers != *answers) {
        return InternalError(
            StrCat("AnswerEngine::Serve disagrees with the replay on ", text));
      }
    }
    log->Close(root);
  }
  return Status::Ok();
}

// --- Statistics and the report ---------------------------------------------

// Nearest-rank percentile; nullopt when fewer than ten samples lie beyond
// it (the percentile would then rest on too few requests).
std::optional<double> Percentile(std::vector<std::int64_t> samples,
                                 double q) {
  const std::size_t n = samples.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

double Ratio(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::int64_t samples) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  // A percentile of nanosecond samples, scaled to `unit` by `per_unit`
  // nanoseconds; a failure instead when the samples cannot support it.
  void AddPercentile(std::string name, const std::vector<std::int64_t>& ns,
                     double q, std::string unit, double per_unit) {
    std::optional<double> value = Percentile(ns, q);
    if (!value.has_value()) {
      Fail(StrCat(name, ": ", ns.size(),
                  " samples leave fewer than 10 beyond p",
                  static_cast<int>(q * 100)));
      return;
    }
    Add(std::move(name), *value / per_unit, std::move(unit),
        static_cast<std::int64_t>(ns.size()));
  }
  std::optional<double> Value(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return std::nullopt;
  }
  void Meta(std::string key, std::string value) {
    meta_.emplace_back(std::move(key), std::move(value));
  }
  void Fail(std::string why) { failures_.push_back(std::move(why)); }
  bool failed() const { return !failures_.empty(); }

  // Human-readable lines, then the JSON report as the last line.
  void Print(const Outcomes& outcomes) const {
    for (const auto& [key, value] : meta_) {
      std::printf("# %s: %s\n", key.c_str(), value.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %s = %.9g %s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
    for (const std::string& f : failures_) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    std::string json = StrCat("{\"attempted\": ", outcomes.attempted,
                              ", \"failed\": ", outcomes.failed(),
                              ", \"mismatches\": ", outcomes.mismatches,
                              ", \"meta\": {");
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      json += StrCat(i == 0 ? "" : ", ", "\"", JsonEscape(meta_[i].first),
                     "\": \"", JsonEscape(meta_[i].second), "\"");
    }
    json += "}, \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      json += StrCat(i == 0 ? "" : ", ", "\"", JsonEscape(m.name),
                     "\": {\"value\": ", buf, ", \"unit\": \"",
                     JsonEscape(m.unit), "\", \"samples\": ", m.samples, "}");
    }
    json += "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      json += StrCat(i == 0 ? "" : ", ", "\"", JsonEscape(failures_[i]), "\"");
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::int64_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> failures_;
};

std::int64_t SumShed(const MetricsSnapshot& snapshot) {
  std::int64_t sum = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("server_shed_", 0) == 0 || name == "server_queue_deadline") {
      sum += value;
    }
  }
  return sum;
}

std::string CounterDeltas(const MetricsSnapshot& before,
                          const MetricsSnapshot& after) {
  std::vector<std::string> parts;
  for (const auto& [name, value] : after.counters) {
    const std::int64_t delta = value - before.Counter(name);
    if (delta != 0) parts.push_back(StrCat(name, "=", delta));
  }
  return parts.empty() ? "(none)" : StrJoin(parts, " ");
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

// Resident set after free heap pages are handed back to the OS. The peak
// depends on whether two large saturations happened to overlap in time;
// this reads what the server keeps: tenants, cache entries, buffers.
double SettledRssMb() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(statm, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(statm);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Adds the per-layer metrics of the traced replay.
void ReportLayers(const SpanLog& log, const ReplayCounts& counts,
                  Report* report) {
  constexpr double kUs = 1e3;
  constexpr double kMs = 1e6;
  const auto p50 = [&](const char* span, std::string name, std::string unit,
                       double per_unit) {
    report->AddPercentile(std::move(name), log.Durations(span), 0.5,
                          std::move(unit), per_unit);
  };
  const auto median_count = [&](std::string name,
                                const std::vector<std::int64_t>& values,
                                std::string unit) {
    report->AddPercentile(std::move(name), values, 0.5, std::move(unit), 1.0);
  };
  p50("server.serve_line", "server.serve_line_us", "us", kUs);
  p50("server.wire_parse", "server.wire_parse_us", "us", kUs);
  median_count("server.reply_bytes", counts.reply_bytes, "B");
  p50("logic.parse_query", "logic.parse_query_us", "us", kUs);
  p50("serving.cache_key", "serving.cache_key_us", "us", kUs);
  p50("serving.cache_lookup", "serving.cache_lookup_us", "us", kUs);
  p50("serving.engine_serve", "serving.engine_serve_us", "us", kUs);
  p50("rewriting.saturate", "rewriting.saturate_ms.p50", "ms", kMs);
  report->AddPercentile("rewriting.saturate_ms.p99",
                        log.Durations("rewriting.saturate"), 0.99, "ms", kMs);
  median_count("rewriting.steps", counts.steps, "count");
  median_count("rewriting.generated", counts.generated, "count");
  report->Add("rewriting.kept_ratio",
              Ratio(counts.kept_sum, counts.generated_sum), "1",
              static_cast<std::int64_t>(counts.generated.size()));
  p50("rewriting.dag", "rewriting.dag_ms", "ms", kMs);
  report->Add("rewriting.dag_fallback_ratio",
              Ratio(counts.dag_fallbacks, counts.dag_calls), "1",
              counts.dag_calls);
  p50("rewriting.emit", "rewriting.emit_us", "us", kUs);
  median_count("rewriting.sql_bytes", counts.sql_bytes, "B");
  p50("backend.sqlite.exec", "backend.sqlite.exec_ms", "ms", kMs);
  p50("db.eval", "db.eval_ms", "ms", kMs);
  median_count("db.tuples_examined", counts.tuples_examined, "count");
  report->Add("db.match_ratio", Ratio(counts.matches_sum, counts.examined_sum),
              "1", static_cast<std::int64_t>(counts.tuples_examined.size()));
  p50("render.rows", "render.rows_us", "us", kUs);
  std::int64_t serve_line_ns = 0;
  const std::vector<std::int64_t> serve_lines =
      log.Durations("server.serve_line");
  for (std::int64_t ns : serve_lines) serve_line_ns += ns;
  report->Add("trace.unattributed_share",
              1.0 - Ratio(log.OnPathNs(), serve_line_ns), "1",
              static_cast<std::int64_t>(serve_lines.size()));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;  // Empty: no traced replay.
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

int Run(const Args& args) {
  std::optional<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  Report report;
  Outcomes outcomes;
  report.Meta("workload", w.name);
  report.Meta("seed", StrCat(args.seed));
  report.Meta("hardware_concurrency",
              StrCat(std::thread::hardware_concurrency()));
  report.Meta("build_type", SERVEBENCH_BUILD_TYPE);
  report.Meta("threads", StrCat("1 client (", kTenants, " connections) + ",
                                kServerWorkers, " server workers"));
  report.Meta("timing", "process CPU time");

  StatusOr<Expected> oracle = ComputeOracle(w);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  const Expected& expected = *oracle;

  std::vector<std::int64_t> setup_cpu_ns;
  std::vector<std::int64_t> setup_wall_ns;
  Outcomes priming;
  StatusOr<std::unique_ptr<Deployment>> deployed =
      SetUpRepeatedly(w, expected, &setup_cpu_ns, &setup_wall_ns, &priming);
  if (!deployed.ok()) {
    std::fprintf(stderr, "setup: %s\n", deployed.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Deployment> live = std::move(deployed).value();
  if (priming.failed() > 0) {
    report.Fail(StrCat("priming: ", priming.failed(), " of ",
                       priming.attempted, " replies failed; first: ",
                       priming.first_failure));
  }
  OntologyServer& server = *live->server;

  // Each tenant's next request in its stream: the timed window continues
  // where the replay stopped.
  std::array<std::size_t, kTenants> next_request{};
  SpanLog log;
  ReplayCounts counts;
  const bool traced = !args.trace_out.empty();
  if (traced) {
    auto cache = std::make_shared<RewriteCache>(
        OntologyServerOptions().shared_cache_capacity);
    std::array<ReplayTenant, kTenants> tenants;
    Status status;
    for (int t = 0; t < kTenants && status.ok(); ++t) {
      status = InitReplayTenant(w, t, cache,
                                &tenants[static_cast<std::size_t>(t)]);
    }
    if (status.ok()) {
      status = Replay(&server, w, expected, &tenants, cache.get(), &log,
                      &counts, &outcomes, &next_request);
    }
    if (!status.ok()) report.Fail(StrCat("replay: ", status.ToString()));
    std::ofstream out(args.trace_out);
    out << log.ToChromeJson();
    if (!out) report.Fail(StrCat("cannot write ", args.trace_out));
  }

  const MetricsSnapshot metrics_before = server.metrics().Snapshot();
  const RewriteCacheStats cache_before = server.shared_cache_stats();
  const WindowRun run =
      RunTimedWindow(live.get(), w, expected, next_request, args.seconds);
  const double peak_rss_mb = PeakRssMb();
  // The client's per-request samples grow with throughput; subtracting
  // them leaves the server's footprint.
  const double rss_mb =
      SettledRssMb() -
      static_cast<double>(run.SampleBytes()) / (1024.0 * 1024.0);
  const MetricsSnapshot metrics_after = server.metrics().Snapshot();
  const RewriteCacheStats cache_after = server.shared_cache_stats();

  const std::vector<std::int64_t>& all_ns = run.cpu_ns;
  const Outcomes& timed = run.outcomes;
  outcomes.Add(timed);
  std::int64_t cpu_sum_ns = 0;
  for (std::int64_t ns : all_ns) cpu_sum_ns += ns;
  for (std::size_t t = 0; t < kTenants; ++t) {
    report.Meta(StrCat("samples.", kTenantNames[t]),
                StrCat(run.tenant_cpu_ns[t].size()));
  }
  // Replies completed in each second of the window: a host stall or a
  // warm-up shows here, not in the percentiles.
  report.Meta("replies_per_second", StrJoin(run.per_second, " "));

  // The same run in wall time, for comparison; not gated.
  const double window_s = static_cast<double>(run.wall_ns) / 1e9;
  report.Meta("window_s", StrCat(window_s));
  report.Meta("wall qps", StrCat(static_cast<double>(timed.ok) / window_s));
  for (std::size_t t = 0; t < kTenants; ++t) {
    if (std::optional<double> p50 = Percentile(run.tenant_wall_ns[t], 0.5)) {
      report.Meta(StrCat("wall p50_ms.", kTenantNames[t]),
                  StrCat(*p50 / 1e6));
    }
  }
  report.Meta("window cpu_s / wall_s",
              StrCat(static_cast<double>(cpu_sum_ns) /
                     static_cast<double>(run.wall_ns)));
  report.Meta("peak_rss_mb", StrCat(peak_rss_mb));
  report.Meta("server.metrics delta",
              CounterDeltas(metrics_before, metrics_after));
  const std::int64_t hits = cache_after.hits - cache_before.hits;
  const std::int64_t misses = cache_after.misses - cache_before.misses;
  const std::int64_t evictions = cache_after.evictions - cache_before.evictions;
  report.Meta("shared_cache delta", StrCat("hits=", hits, " misses=", misses,
                                           " evictions=", evictions));
  report.Meta("requests",
              StrCat("attempted=", timed.attempted, " ok=", timed.ok,
                     " error_replies=", timed.error_replies,
                     " transport_failures=", timed.transport_failures,
                     " oracle_mismatches=", timed.mismatches,
                     " rows_per_reply=", Ratio(timed.rows, timed.ok)));
  if (outcomes.failed() > 0) {
    report.Fail(StrCat(outcomes.failed(), " failed requests; first: ",
                       outcomes.first_failure));
  }

  // End-to-end metrics, untraced, in process CPU time.
  report.Add("qps",
             static_cast<double>(timed.ok) /
                 (static_cast<double>(cpu_sum_ns) / 1e9),
             "1/s", timed.ok);
  report.AddPercentile("p50_ms", all_ns, 0.5, "ms", 1e6);
  report.AddPercentile("p99_ms", all_ns, 0.99, "ms", 1e6);
  for (std::size_t t = 0; t < kTenants; ++t) {
    report.AddPercentile(StrCat("p50_ms.", kTenantNames[t]),
                         run.tenant_cpu_ns[t], 0.5, "ms", 1e6);
  }
  const double error_ratio = Ratio(timed.failed(), timed.attempted);
  report.Add("error_ratio", error_ratio, "1", timed.attempted);
  report.Add("ok_ratio", 1.0 - error_ratio, "1", timed.attempted);
  const auto median_setup_s = [](std::vector<std::int64_t> ns) {
    std::nth_element(ns.begin(), ns.begin() + kSetups / 2, ns.end());
    return static_cast<double>(ns[kSetups / 2]) / 1e9;
  };
  report.Add("setup_s", median_setup_s(setup_cpu_ns), "s", kSetups);
  report.Meta("wall setup_s", StrCat(median_setup_s(setup_wall_ns)));
  report.Add("rss_mb", rss_mb, "MB", 1);

  // Per-layer metrics from the traced replay plus the timed window's
  // counters.
  if (traced) {
    ReportLayers(log, counts, &report);
    const std::optional<double> client_p50 = report.Value("p50_ms");
    const std::optional<double> serve_line =
        report.Value("server.serve_line_us");
    if (client_p50.has_value() && serve_line.has_value()) {
      report.Add("server.transport_us", *client_p50 * 1e3 - *serve_line, "us",
                 static_cast<std::int64_t>(all_ns.size()));
    }
  }
  const std::int64_t shed = SumShed(metrics_after) - SumShed(metrics_before);
  report.Add("server.shed", static_cast<double>(shed), "count",
             timed.attempted);
  report.Add("serving.cache_hit_ratio", Ratio(hits, hits + misses), "1",
             hits + misses);
  report.Add("serving.cache_evictions", static_cast<double>(evictions), "count",
             hits + misses);

  report.Print(outcomes);
  return report.failed() ? 1 : 0;
}

}  // namespace
}  // namespace ontorew

int main(int argc, char** argv) {
  std::optional<ontorew::Args> args = ontorew::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload warm_lookup|warm_join|"
                 "cold_rewrite [--seed N] [--seconds S] [--trace-out FILE]\n");
    return 2;
  }
  return ontorew::Run(*args);
}
