#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "backend/sqlite_backend.h"
#include "base/fault_point.h"
#include "base/strings.h"
#include "base/trace.h"
#include "db/facts_io.h"
#include "db/value.h"
#include "logic/parser.h"
#include "server/wire.h"

namespace ontorew {
namespace {

// Largest buffered request line; beyond this the connection is dropped
// (a line protocol with no line breaks is an attack, not a client).
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Poll granularities: how quickly the acceptor notices stop and a worker
// notices drain/stop on an idle connection.
constexpr int kAcceptPollMillis = 100;
constexpr int kConnPollMillis = 50;

// Accepted connections queued for a worker; beyond this the acceptor
// sheds the connection with a retryable error.
constexpr std::size_t kMaxQueuedConnections = 64;

// The retry_after_ms hint attached to sheds that have no better number
// (quota sheds use the bucket's exact refill time instead).
constexpr std::int64_t kDefaultRetryAfterMs = 25;

constexpr char kDrainingMessage[] = "server is draining — retry after backoff";

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) {
    std::size_t nl = text.find('\n');
    lines.emplace_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::int64_t CeilMillis(std::chrono::steady_clock::duration d) {
  if (d <= std::chrono::steady_clock::duration::zero()) return 0;
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  if (std::chrono::milliseconds(ms) < d) ++ms;
  return ms < 1 ? 1 : ms;
}

}  // namespace

std::string OntologyServer::Reply::Serialize() const {
  std::string out;
  if (status.ok()) {
    out = FormatOkHeader(row_count, cache);
    out += body;
    for (const std::string& line : info) {
      out += "# ";
      out += line;
      out += '\n';
    }
  } else {
    out = FormatErrHeader(status, retry_after_ms);
  }
  out += kWireEnd;
  out += '\n';
  return out;
}

OntologyServer::OntologyServer(OntologyServerOptions options)
    : options_(options),
      gate_(options.max_inflight_global, options.admission_timeout),
      shared_cache_(
          std::make_shared<RewriteCache>(options.shared_cache_capacity)) {
  metrics_.RegisterGauge("server_inflight", [this] {
    return static_cast<std::int64_t>(gate_.inflight());
  });
}

OntologyServer::~OntologyServer() {
  Status ignored = Shutdown(std::chrono::milliseconds(200));
  (void)ignored;
}

Status OntologyServer::AddTenant(TenantSpec spec) {
  if (started_.load(std::memory_order_acquire)) {
    return FailedPreconditionError(
        "tenants must be added before the server starts");
  }
  if (spec.name.empty()) {
    return InvalidArgumentError("tenant name must be non-empty");
  }
  if (tenants_.count(spec.name) != 0) {
    return InvalidArgumentError(StrCat("duplicate tenant '", spec.name, "'"));
  }
  const TenantQuota& quota = spec.quota;
  if (quota.burst > 0 &&
      (!std::isfinite(quota.burst) || !std::isfinite(quota.qps) ||
       quota.burst < 1 || quota.qps <= 0)) {
    return InvalidArgumentError(StrCat(
        "tenant '", spec.name, "' quota: with burst > 0, burst must be a "
        "finite number >= 1 and qps a finite number > 0 (got burst=",
        quota.burst, ", qps=", quota.qps, ")"));
  }

  auto tenant = std::make_unique<Tenant>(spec);

  StatusOr<TgdProgram> program =
      ParseProgram(spec.program_text, &tenant->vocab);
  if (!program.ok()) {
    return Status(program.status().code(),
                  StrCat("tenant '", spec.name,
                         "' program: ", program.status().message()));
  }
  StatusOr<Database> db = ParseFacts(spec.facts_text, &tenant->vocab);
  if (!db.ok()) {
    return Status(db.status().code(),
                  StrCat("tenant '", spec.name,
                         "' facts: ", db.status().message()));
  }

  AnswerEngineOptions engine_options = spec.engine;
  engine_options.shared_cache = shared_cache_;
  if (spec.use_sqlite) {
    engine_options.backend = std::make_shared<SqliteBackend>(&tenant->vocab);
  }
  tenant->engine = std::make_unique<AnswerEngine>(
      *std::move(program), *std::move(db), std::move(engine_options));

  if (spec.quota.burst > 0) {
    tenant->bucket =
        std::make_unique<TokenBucket>(spec.quota.burst, spec.quota.qps);
  }
  tenants_.emplace(spec.name, std::move(tenant));
  return Status::Ok();
}

Status OntologyServer::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return FailedPreconditionError("server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(StrCat("socket(): ", std::strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = InternalError(StrCat("bind(127.0.0.1:", options_.port,
                                         "): ", std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, static_cast<int>(kMaxQueuedConnections)) != 0) {
    Status status = InternalError(StrCat("listen(): ", std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int workers = options_.num_workers < 1 ? 1 : options_.num_workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

Status OntologyServer::Shutdown(std::chrono::nanoseconds drain_deadline) {
  if (stopping_.load(std::memory_order_acquire)) return Status::Ok();
  draining_.store(true, std::memory_order_release);

  // Phase 1: let inflight requests finish within the drain budget. New
  // requests are already being shed (draining_ is checked before
  // admission), so the global gate can only empty.
  const bool drained = gate_.WaitIdle(drain_deadline);
  const std::size_t stragglers = gate_.inflight();

  // Phase 2: force-cancel stragglers through the server-wide token that
  // every request's ServeOptions chains. Cancellation is cooperative and
  // checked at stride inside every loop, so the joins below are bounded.
  if (!drained) drain_cancel_->Cancel();

  stopping_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  gate_.Close();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Close anything still queued but never picked up.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const auto& conn : pending_connections_) close(conn->fd);
    pending_connections_.clear();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!drained) {
    return DeadlineExceededError(
        StrCat("drain deadline exceeded; ", stragglers,
               " inflight request(s) were cancelled"));
  }
  return Status::Ok();
}

std::vector<std::string> OntologyServer::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

OntologyServer::Reply OntologyServer::ErrorReply(Status status) {
  Reply reply;
  if (IsRetryableStatusCode(status.code())) {
    reply.retry_after_ms = kDefaultRetryAfterMs;
  }
  reply.status = std::move(status);
  return reply;
}

std::string OntologyServer::ServeLine(std::string_view line) {
  requests_.Increment();
  Reply reply;
  StatusOr<WireRequest> request = ParseWireRequest(line);
  if (!request.ok()) {
    reply.status = request.status();
  } else {
    switch (request->verb) {
      case WireVerb::kPing:
        break;  // Empty OK.
      case WireVerb::kStats:
        reply = HandleStats();
        break;
      case WireVerb::kTenants:
        reply = HandleTenants();
        break;
      case WireVerb::kQuery:
        reply = HandleQuery(*request);
        break;
    }
  }
  (reply.status.ok() ? responses_ok_ : responses_err_).Increment();
  return reply.Serialize();
}

OntologyServer::Reply OntologyServer::HandleQuery(
    const WireRequest& request) {
  if (draining_.load(std::memory_order_acquire)) {
    shed_draining_.Increment();
    return ErrorReply(UnavailableError(kDrainingMessage));
  }
  auto it = tenants_.find(request.tenant);
  if (it == tenants_.end()) {
    return ErrorReply(
        NotFoundError(StrCat("unknown tenant '", request.tenant, "'")));
  }
  Tenant& tenant = *it->second;

  // The request's whole budget, fixed on arrival: queueing for admission
  // below burns it down.
  const Deadline deadline = request.deadline_ms > 0
                                ? Deadline::AfterMillis(request.deadline_ms)
                                : Deadline::Infinite();

  // Layer 1: the tenant's token bucket. Cheapest check first; the shed
  // carries the bucket's exact refill time as the backoff hint.
  if (tenant.bucket != nullptr) {
    const auto wait = tenant.bucket->TryAcquire();
    if (wait > TokenBucket::Clock::duration::zero()) {
      shed_quota_.Increment();
      Reply reply = ErrorReply(ResourceExhaustedError(
          StrCat("tenant '", tenant.name, "' rate quota exceeded")));
      if (wait != TokenBucket::Clock::duration::max()) {
        reply.retry_after_ms = CeilMillis(wait);
      }
      return reply;
    }
  }

  // Layer 2: the tenant's inflight cap. Its gate never queues, so the
  // only refusal is a shed.
  Status admitted = tenant.gate.Acquire(Deadline::Infinite());
  if (!admitted.ok()) {
    shed_tenant_inflight_.Increment();
    return ErrorReply(Status(admitted.code(), StrCat("tenant '", tenant.name,
                                                     "' ", admitted.message())));
  }

  // Layer 3: a global slot, queueing deadline-aware.
  admitted = gate_.Acquire(deadline);
  if (!admitted.ok()) {
    tenant.gate.Release();
    (admitted.code() == StatusCode::kDeadlineExceeded ? queue_deadline_
                                                      : shed_global_)
        .Increment();
    return ErrorReply(
        Status(admitted.code(), StrCat("server ", admitted.message())));
  }
  Reply reply = ServeAdmitted(tenant, request, deadline);
  gate_.Release();
  tenant.gate.Release();
  return reply;
}

OntologyServer::Reply OntologyServer::ServeAdmitted(
    Tenant& tenant, const WireRequest& request, const Deadline& deadline) {
  ServeOptions serve;
  serve.deadline = deadline;
  serve.cancel = drain_cancel_;
  serve.target = request.target;
  Trace trace;
  if (request.trace) serve.trace = &trace;

  // Vocabulary is not thread-safe: parse and render under the tenant's
  // vocab lock. SQLite tenants keep it across Serve — SQL emission and
  // row decoding read the vocabulary inside Execute (the single
  // connection serializes those requests anyway).
  std::unique_lock<std::mutex> vocab_lock(tenant.vocab_mutex);
  StatusOr<ConjunctiveQuery> parsed =
      ParseQuery(request.query, &tenant.vocab);
  if (!parsed.ok()) return ErrorReply(parsed.status());
  UnionOfCqs query(*std::move(parsed));
  if (!tenant.use_sqlite) vocab_lock.unlock();

  StatusOr<AnswerResult> result = tenant.engine->Serve(query, serve);
  if (!result.ok()) {
    // A request cancelled by the drain token did nothing wrong: report
    // the retryable "server went away", not a non-retryable Cancelled.
    if (result.status().code() == StatusCode::kCancelled &&
        draining_.load(std::memory_order_acquire)) {
      return ErrorReply(UnavailableError("request cancelled: server draining"));
    }
    return ErrorReply(result.status());
  }

  if (!vocab_lock.owns_lock()) vocab_lock.lock();
  Reply reply;
  reply.cache = result->cache_hit ? "hit" : "miss";
  reply.row_count = result->answers.size();
  for (const Tuple& tuple : result->answers) {
    AppendTuple(tuple, tenant.vocab, &reply.body);
    reply.body += '\n';
  }
  vocab_lock.unlock();
  if (request.trace) reply.info = SplitLines(trace.ToString());
  return reply;
}

OntologyServer::Reply OntologyServer::HandleStats() {
  Reply reply;
  reply.info = SplitLines(metrics_.Snapshot().ToString());
  const RewriteCacheStats cache = shared_cache_->stats();
  reply.info.push_back(StrCat("shared_cache hits=", cache.hits,
                              " misses=", cache.misses,
                              " evictions=", cache.evictions,
                              " size=", cache.size));
  return reply;
}

OntologyServer::Reply OntologyServer::HandleTenants() {
  Reply reply;
  for (const auto& [name, tenant] : tenants_) {
    reply.info.push_back(StrCat(name, " inflight=", tenant->gate.inflight(),
                                " backend=",
                                tenant->engine->options().backend->name()));
  }
  return reply;
}

void OntologyServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Chaos: a connection dropped right after accept — the client sees a
    // reset and retries; the server must not leak the fd or a slot.
    if (!CheckFaultPoint("server.accept").ok()) {
      accept_faults_.Increment();
      close(fd);
      continue;
    }
    if (draining_.load(std::memory_order_acquire) ||
        stopping_.load(std::memory_order_acquire)) {
      shed_draining_.Increment();
      WriteAll(fd, ErrorReply(UnavailableError(kDrainingMessage)).Serialize());
      close(fd);
      continue;
    }
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_connections_.size() < kMaxQueuedConnections) {
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        pending_connections_.push_back(std::move(conn));
        queued = true;
      }
    }
    if (queued) {
      queue_cv_.notify_one();
    } else {
      shed_queue_full_.Increment();
      WriteAll(fd, ErrorReply(ResourceExhaustedError(
                                  "connection queue full — retry with backoff"))
                       .Serialize());
      close(fd);
    }
  }
}

void OntologyServer::WorkerLoop() {
  // Workers multiplex: each grabs a fair share of the live connections,
  // polls the whole batch at once (so a request on ANY of them wakes the
  // worker immediately), services the readable ones, and requeues the
  // rest. A fixed pool thus serves arbitrarily many connections without
  // parking one thread per connection forever — which would starve every
  // connection past the Nth.
  const std::size_t workers =
      static_cast<std::size_t>(options_.num_workers < 1
                                   ? 1
                                   : options_.num_workers);
  for (;;) {
    std::vector<std::unique_ptr<Connection>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(kConnPollMillis),
                         [this] {
                           return !pending_connections_.empty() ||
                                  stopping_.load(std::memory_order_acquire);
                         });
      if (stopping_.load(std::memory_order_acquire)) {
        for (const auto& conn : pending_connections_) close(conn->fd);
        pending_connections_.clear();
        return;
      }
      if (pending_connections_.empty()) continue;
      std::size_t share =
          (pending_connections_.size() + workers - 1) / workers;
      share = std::min<std::size_t>(std::max<std::size_t>(share, 1), 64);
      while (share-- > 0 && !pending_connections_.empty()) {
        batch.push_back(std::move(pending_connections_.front()));
        pending_connections_.pop_front();
      }
    }

    std::vector<pollfd> pfds;
    pfds.reserve(batch.size());
    for (const auto& conn : batch) {
      pfds.push_back(pollfd{conn->fd, POLLIN, 0});
    }
    poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kConnPollMillis);

    const bool draining = draining_.load(std::memory_order_acquire);
    std::vector<std::unique_ptr<Connection>> keep;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool readable =
          (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if (readable) {
        if (ServiceReadable(batch[i].get())) keep.push_back(std::move(batch[i]));
      } else if (draining) {
        // Idle during drain: nothing more to answer — hang up so the
        // client reconnects elsewhere.
        close(batch[i]->fd);
      } else {
        keep.push_back(std::move(batch[i]));
      }
    }
    if (!keep.empty()) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      for (auto& conn : keep) pending_connections_.push_back(std::move(conn));
    }
  }
}

bool OntologyServer::ServiceReadable(Connection* conn) {
  const int fd = conn->fd;
  char chunk[4096];
  const ssize_t n = read(fd, chunk, sizeof(chunk));
  if (n <= 0) {  // EOF or error: client went away.
    close(fd);
    return false;
  }
  // Chaos: a read torn mid-stream — drop the connection, never parse a
  // half-delivered request.
  if (!CheckFaultPoint("server.read").ok()) {
    read_faults_.Increment();
    close(fd);
    return false;
  }
  conn->buffer.append(chunk, static_cast<std::size_t>(n));
  if (conn->buffer.size() > kMaxLineBytes) {
    close(fd);
    return false;
  }
  const bool written = ConsumeLines(&conn->buffer, [&](std::string_view line) {
    return line.find_first_not_of(" \t\r") == std::string_view::npos ||
           WriteAll(fd, ServeLine(line));
  });
  if (!written) close(fd);
  return written;
}

}  // namespace ontorew
