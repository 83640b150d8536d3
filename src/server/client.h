#ifndef ONTOREW_SERVER_CLIENT_H_
#define ONTOREW_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/rng.h"
#include "base/status.h"
#include "server/wire.h"

// Client side of the wire protocol (server/wire.h): a blocking
// line-oriented client plus a retrying wrapper that implements the
// protocol's contract — honour the `retryable` bit, prefer the server's
// retry_after_ms hint over its own exponential backoff, give up on
// non-retryable errors immediately.

namespace ontorew {

// One TCP connection to a loopback OntologyServer. Not thread-safe (one
// request inflight at a time — the protocol is strictly request/reply).
class ServerClient {
 public:
  ServerClient() = default;
  ~ServerClient();
  ServerClient(ServerClient&& other) noexcept;
  ServerClient& operator=(ServerClient&& other) noexcept;
  ServerClient(const ServerClient&) = delete;
  ServerClient& operator=(const ServerClient&) = delete;

  // Connects to 127.0.0.1:port. Unavailable (retryable) on failure — the
  // server may simply not be up yet.
  static StatusOr<ServerClient> Connect(int port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  // Sends one request line and reads the response through its END
  // marker. A non-OK *return status* is a transport failure (connection
  // dropped, malformed response) and closes the connection — always
  // Unavailable, hence retryable: the protocol is read-only, so a
  // resend is safe. A successfully parsed ERR response returns OK here,
  // with the error inside WireResponse::status.
  StatusOr<WireResponse> Roundtrip(std::string_view request_line);

  // Convenience formatters over Roundtrip. `target` (when set) appends
  // "target=ucq|cte" to the request.
  StatusOr<WireResponse> Query(std::string_view tenant,
                               std::string_view query_text,
                               std::int64_t deadline_ms = 0,
                               bool trace = false,
                               std::optional<RewriteTarget> target = {});
  Status Ping();

 private:
  explicit ServerClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  // Bytes read past the last END.
};

struct RetryPolicy {
  int max_attempts = 6;
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{200};
  // Deterministic full jitter (tests and the soak harness need
  // reproducible schedules).
  std::uint64_t jitter_seed = 1;
};

// A client that reconnects and retries per RetryPolicy. Retries exactly
// when the failure says to: transport errors and responses whose
// `retryable` bit is set. The backoff for attempt k is
// min(initial * 2^k, max) with full jitter, raised to the server's
// retry_after_ms hint when one was sent — the server knows its own
// refill schedule better than the client's guess.
class RetryingClient {
 public:
  explicit RetryingClient(int port, RetryPolicy policy = {})
      : port_(port), policy_(policy), rng_(policy.jitter_seed | 1) {}

  // The final response (possibly an ERR after exhausting attempts), or a
  // transport-level status when no attempt ever got a response.
  StatusOr<WireResponse> Query(std::string_view tenant,
                               std::string_view query_text,
                               std::int64_t deadline_ms = 0,
                               bool trace = false,
                               std::optional<RewriteTarget> target = {});

  // Retries performed since construction (attempts beyond each first).
  std::int64_t retries() const { return retries_; }

 private:
  std::chrono::milliseconds BackoffFor(int attempt,
                                       std::int64_t server_hint_ms);

  int port_;
  RetryPolicy policy_;
  Rng rng_;  // Jitter draws.
  std::int64_t retries_ = 0;
  ServerClient client_;
};

}  // namespace ontorew

#endif  // ONTOREW_SERVER_CLIENT_H_
