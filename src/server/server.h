#ifndef ONTOREW_SERVER_SERVER_H_
#define ONTOREW_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/admission_gate.h"
#include "base/deadline.h"
#include "base/metrics.h"
#include "base/status.h"
#include "logic/vocabulary.h"
#include "server/token_bucket.h"
#include "serving/answer_engine.h"
#include "serving/rewrite_cache.h"

// A multi-tenant ontology server (DESIGN.md §11 "Serving over the
// wire"): one process hosts many named tenants, each its own AnswerEngine
// over a program and database fixed when the tenant is added, and
// answers the newline-delimited protocol of server/wire.h over loopback
// TCP. Because rewritings are data-independent and cache keys
// embed the program fingerprint, all tenants share ONE RewriteCache —
// tenants hosting the same ontology warm each other, distinct programs
// can never collide.
//
// Admission is layered, cheapest rejection first:
//   1. per-tenant token bucket (qps/burst)     -> ResourceExhausted,
//      retry_after_ms = the bucket's exact refill time;
//   2. per-tenant inflight cap                 -> ResourceExhausted;
//   3. global inflight slots, with a bounded   -> ResourceExhausted, or
//      deadline-aware queue                       DeadlineExceeded when
//                                                 the REQUEST's deadline
//                                                 expired while queued
//                                                 (the caller ran out of
//                                                 budget; the server did
//                                                 not shed it).
// Layers 2 and 3 are the same AdmissionGate (base/admission_gate.h): the
// tenant gate never queues (timeout 0), the global gate queues for
// admission_timeout. They are the only admission in the stack — a
// tenant's AnswerEngine serves whatever the server admits. All three
// layers are retryable on the wire; parse errors and unknown tenants are
// not (see IsRetryableStatusCode).
//
// Overload degrades in one way only: the admission layers above shed
// requests, with structured retry-after errors. Every admitted request is
// served in full — the complete, minimized rewriting (a miss publishes it
// to the shared cache), and its span tree when it asked for trace=1 — so
// load never changes what a reply holds.
//
// Shutdown(drain) is a graceful drain: new requests get a retryable
// Unavailable shed response immediately, inflight requests get up to the
// drain deadline to finish, stragglers past it are cancelled through a
// server-wide CancelToken chained into every request's ServeOptions.
//
// Fault points (chaos testing, see base/fault_point.h): server.accept
// trips drop a just-accepted connection; server.read trips kill a
// connection mid-stream. Both model flaky clients/networks — the server
// must shrug, never crash or leak a slot.
//
// Metrics (server-level; each tenant engine keeps its own registry):
//   counters  server_requests, server_responses_ok, server_responses_err,
//             server_shed_quota, server_shed_tenant_inflight,
//             server_shed_global, server_queue_deadline,
//             server_shed_draining, server_shed_queue_full,
//             server_accept_faults, server_read_faults
//   gauges    server_inflight (read live from the global gate at
//             Snapshot time)

namespace ontorew {

struct TenantQuota {
  // Sustained requests/second refilled into the bucket. With burst > 0
  // it must be finite and > 0: a bucket that never refills would shed
  // every request after the first `burst` as retryable, forever.
  // Ignored when burst <= 0.
  double qps = 0;
  // Bucket capacity — how many requests may arrive back-to-back before
  // the rate limit bites. <= 0 disables the rate quota; otherwise it
  // must be finite and >= 1, since a bucket that never holds a whole
  // token admits nothing. AddTenant rejects other values as
  // InvalidArgument.
  double burst = 0;
  // Concurrent requests for this tenant; 0 = unlimited (the global cap
  // still applies).
  std::size_t max_inflight = 0;
};

struct TenantSpec {
  std::string name{};
  // Parser-syntax TGD program and ground facts (see logic/parser.h,
  // db/facts_io.h).
  std::string program_text{};
  std::string facts_text{};
  TenantQuota quota{};
  // Evaluate through a per-tenant in-memory SqliteBackend instead of the
  // engine's default InMemoryBackend. SQLite serializes on one
  // connection, so the server also holds the tenant's vocabulary lock
  // across the whole Serve (SQL emission and row decoding read the
  // vocabulary).
  bool use_sqlite = false;
  // Per-tenant engine tuning. shared_cache, and (when use_sqlite) the
  // backend, are overwritten by the server. The rewriting itself is the
  // same for every tenant (see AnswerEngineOptions::max_cqs).
  AnswerEngineOptions engine{};
};

struct OntologyServerOptions {
  // TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back from
  // port() after Start).
  int port = 0;
  int num_workers = 4;
  // Global concurrent-request slots across all tenants; 0 = unlimited.
  std::size_t max_inflight_global = 32;
  // How long a request may queue for a global slot before shedding.
  std::chrono::nanoseconds admission_timeout = std::chrono::milliseconds(100);
  // Capacity of the cross-tenant shared rewrite cache.
  std::size_t shared_cache_capacity = 512;
};

class OntologyServer {
 public:
  explicit OntologyServer(OntologyServerOptions options = {});
  ~OntologyServer();  // Implies Shutdown with a short drain.
  OntologyServer(const OntologyServer&) = delete;
  OntologyServer& operator=(const OntologyServer&) = delete;

  // Registers a tenant. InvalidArgument on empty/duplicate names, a rate
  // quota outside TenantQuota's ranges, or program/facts that do not
  // parse; FailedPrecondition after Start (the tenant table is immutable
  // while serving).
  Status AddTenant(TenantSpec spec);

  // Binds, listens and spawns the acceptor + worker threads. Internal
  // errors surface here (socket/bind failures), not as crashes later.
  Status Start();

  // The bound port (after a successful Start).
  int port() const { return port_; }

  // Graceful drain: immediately sheds new work with retryable
  // Unavailable, waits up to `drain_deadline` for inflight requests,
  // then cancels stragglers via the server-wide token and joins every
  // thread. OK when the drain completed in time, DeadlineExceeded when
  // stragglers had to be cancelled (the server is fully stopped either
  // way). Idempotent.
  Status Shutdown(std::chrono::nanoseconds drain_deadline =
                      std::chrono::seconds(2));

  MetricsRegistry& metrics() { return metrics_; }
  RewriteCacheStats shared_cache_stats() const {
    return shared_cache_->stats();
  }
  std::size_t inflight() const { return gate_.inflight(); }
  std::vector<std::string> tenant_names() const;

  // Direct (in-process) request service: parses and answers one request
  // line and returns the full wire response (header + body + END). This
  // is the whole server minus the sockets — the soak harness drives it
  // from many threads without TCP nondeterminism, and HandleConnection
  // is a thin line-framing loop around it.
  std::string ServeLine(std::string_view line);

 private:
  struct Tenant {
    explicit Tenant(const TenantSpec& spec)
        : name(spec.name),
          gate(spec.quota.max_inflight, std::chrono::nanoseconds(0)),
          use_sqlite(spec.use_sqlite) {}

    std::string name;
    // Vocabulary is NOT thread-safe; vocab_mutex guards every parse and
    // render. For sqlite tenants it is held across the whole Serve (SQL
    // emission and row decoding read the vocabulary inside Execute).
    Vocabulary vocab;
    std::mutex vocab_mutex;
    std::unique_ptr<AnswerEngine> engine;
    std::unique_ptr<TokenBucket> bucket;  // Null: no rate quota.
    AdmissionGate gate;                   // Layer 2: never queues.
    bool use_sqlite = false;
  };

  // One wire response, ready to serialize.
  struct Reply {
    Status status;  // OK or the error for the ERR header.
    std::int64_t retry_after_ms = 0;
    std::string cache = "none";  // "hit" | "miss" | "none".
    std::size_t row_count = 0;
    std::string body;  // row_count rendered rows, each ending in '\n'.
    std::vector<std::string> info;
    std::string Serialize() const;
  };
  // An error reply; a retryable status carries the default backoff hint.
  static Reply ErrorReply(Status status);

  // One open client connection, owned by the queue between service
  // rounds. Workers multiplex: a worker pops a connection, services at
  // most one read round (answering every complete line it produced),
  // then requeues it — so N workers serve arbitrarily many connections
  // fairly instead of parking one worker per connection forever.
  struct Connection {
    int fd = -1;
    std::string buffer;  // Bytes read past the last complete line.
  };

  void AcceptLoop();
  void WorkerLoop();
  // Reads once and answers every complete line; returns false when the
  // connection is done (EOF, error, injected read fault, oversized
  // line) and has been closed.
  bool ServiceReadable(Connection* conn);

  Reply HandleQuery(const struct WireRequest& request);
  // Answers a query holding its tenant and global admission slots.
  Reply ServeAdmitted(Tenant& tenant, const WireRequest& request,
                      const Deadline& deadline);
  Reply HandleStats();
  Reply HandleTenants();

  OntologyServerOptions options_;
  AdmissionGate gate_;  // Layer 3: the global slots.
  std::shared_ptr<RewriteCache> shared_cache_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::shared_ptr<CancelToken> drain_cancel_ =
      std::make_shared<CancelToken>();

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Connection>> pending_connections_;

  // Metric handles, registered once (names: see the top of this file).
  MetricsRegistry metrics_;
  Counter& requests_ = metrics_.RegisterCounter("server_requests");
  Counter& responses_ok_ = metrics_.RegisterCounter("server_responses_ok");
  Counter& responses_err_ = metrics_.RegisterCounter("server_responses_err");
  Counter& shed_quota_ = metrics_.RegisterCounter("server_shed_quota");
  Counter& shed_tenant_inflight_ =
      metrics_.RegisterCounter("server_shed_tenant_inflight");
  Counter& shed_global_ = metrics_.RegisterCounter("server_shed_global");
  Counter& queue_deadline_ = metrics_.RegisterCounter("server_queue_deadline");
  Counter& shed_draining_ = metrics_.RegisterCounter("server_shed_draining");
  Counter& shed_queue_full_ =
      metrics_.RegisterCounter("server_shed_queue_full");
  Counter& accept_faults_ = metrics_.RegisterCounter("server_accept_faults");
  Counter& read_faults_ = metrics_.RegisterCounter("server_read_faults");
};

}  // namespace ontorew

#endif  // ONTOREW_SERVER_SERVER_H_
