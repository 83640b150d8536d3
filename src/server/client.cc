#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "base/strings.h"

namespace ontorew {
namespace {

Status TransportError(std::string_view what) {
  return UnavailableError(StrCat("transport: ", what));
}

bool SendAll(int fd, std::string_view data) {
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

}  // namespace

ServerClient::~ServerClient() { Close(); }

ServerClient::ServerClient(ServerClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

ServerClient& ServerClient::operator=(ServerClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void ServerClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

StatusOr<ServerClient> ServerClient::Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return TransportError(StrCat("socket(): ", std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = TransportError(
        StrCat("connect(127.0.0.1:", port, "): ", std::strerror(errno)));
    close(fd);
    return status;
  }
  return ServerClient(fd);
}

StatusOr<WireResponse> ServerClient::Roundtrip(std::string_view request_line) {
  if (fd_ < 0) return TransportError("not connected");
  std::string line(request_line);
  if (line.empty() || line.back() != '\n') line += '\n';
  if (!SendAll(fd_, line)) {
    Close();
    return TransportError("send failed (connection reset?)");
  }

  // Read lines until the END marker; anything past it stays buffered for
  // the next roundtrip (the server never pipelines, but a read can).
  std::optional<std::string> header;
  std::vector<std::string> body;
  char chunk[4096];
  for (;;) {
    const bool more = ConsumeLines(&buffer_, [&](std::string_view received) {
      if (!received.empty() && received.back() == '\r') {
        received.remove_suffix(1);
      }
      if (received == kWireEnd) return false;
      if (header.has_value()) {
        body.emplace_back(received);
      } else {
        header.emplace(received);
      }
      return true;
    });
    if (!more) break;
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Close();
      return TransportError("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  if (!header.has_value()) {
    Close();
    return TransportError("empty response (no header before END)");
  }
  StatusOr<WireResponse> parsed =
      ParseWireResponse(*header, std::move(body));
  if (!parsed.ok()) {
    Close();
    return TransportError(
        StrCat("malformed response: ", parsed.status().message()));
  }
  return parsed;
}

StatusOr<WireResponse> ServerClient::Query(std::string_view tenant,
                                           std::string_view query_text,
                                           std::int64_t deadline_ms,
                                           bool trace,
                                           std::optional<RewriteTarget> target) {
  std::string line = StrCat("QUERY tenant=", tenant);
  if (deadline_ms > 0) line += StrCat(" deadline_ms=", deadline_ms);
  if (trace) line += " trace=1";
  if (target.has_value()) {
    line += StrCat(" target=", RewriteTargetName(*target));
  }
  line += StrCat(" ", query_text);
  return Roundtrip(line);
}

Status ServerClient::Ping() {
  StatusOr<WireResponse> response = Roundtrip("PING");
  if (!response.ok()) return response.status();
  return response->status;
}

std::chrono::milliseconds RetryingClient::BackoffFor(
    int attempt, std::int64_t server_hint_ms) {
  std::int64_t backoff_ms = policy_.initial_backoff.count();
  for (int i = 0; i < attempt && backoff_ms < policy_.max_backoff.count();
       ++i) {
    backoff_ms *= 2;
  }
  backoff_ms = std::min<std::int64_t>(backoff_ms, policy_.max_backoff.count());
  // Full jitter halves the thundering herd; the floor stays at half the
  // nominal backoff so retries still spread out.
  if (backoff_ms > 1) {
    const std::int64_t half = backoff_ms / 2;
    backoff_ms = half + static_cast<std::int64_t>(
                            rng_.Next() %
                            static_cast<std::uint64_t>(backoff_ms - half + 1));
  }
  // The server's hint is authoritative when larger: it knows the quota
  // refill schedule; the client only knows it was told to go away.
  return std::chrono::milliseconds(std::max(backoff_ms, server_hint_ms));
}

StatusOr<WireResponse> RetryingClient::Query(std::string_view tenant,
                                             std::string_view query_text,
                                             std::int64_t deadline_ms,
                                             bool trace,
                                             std::optional<RewriteTarget> target) {
  Status last_transport = UnavailableError("no attempt made");
  const int attempts = policy_.max_attempts < 1 ? 1 : policy_.max_attempts;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++retries_;
    std::int64_t hint_ms = 0;
    if (!client_.connected()) {
      StatusOr<ServerClient> fresh = ServerClient::Connect(port_);
      if (!fresh.ok()) {
        last_transport = fresh.status();
        std::this_thread::sleep_for(BackoffFor(attempt, 0));
        continue;
      }
      client_ = std::move(fresh).value();
    }
    StatusOr<WireResponse> response =
        client_.Query(tenant, query_text, deadline_ms, trace, target);
    if (response.ok()) {
      if (response->status.ok() || !response->retryable) return response;
      // A structured retryable error: back off (honouring the server's
      // hint) and resend.
      hint_ms = response->retry_after_ms;
      if (attempt + 1 >= attempts) return response;  // Out of attempts.
    } else {
      last_transport = response.status();
      if (attempt + 1 >= attempts) break;
    }
    std::this_thread::sleep_for(BackoffFor(attempt, hint_ms));
  }
  return last_transport;
}

}  // namespace ontorew
