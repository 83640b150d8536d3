#ifndef ONTOREW_SERVER_WIRE_H_
#define ONTOREW_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "rewriting/datalog.h"

// The newline-delimited wire protocol of the OntologyServer (DESIGN.md
// §11 "Serving over the wire"). One request per line; one response per
// request, terminated by an "END" line so clients can stream-read:
//
//   request   := query | "PING" | "STATS" | "TENANTS"
//   query     := "QUERY" SP opts SP query-text
//   opts      := ("tenant=" name) [SP "deadline_ms=" int] [SP "trace=1"]
//                [SP "target=" ("ucq"|"cte")]
//   response  := header NL body* ["# " info]* "END" NL
//   header    := "OK rows=" int " cache=" ("hit"|"miss"|"none")
//              | "ERR code=" CodeName " retryable=" ("0"|"1")
//                " retry_after_ms=" int SP message
//
// `query-text` is a conjunctive query in the parser's text syntax
// ("q(X) :- r(X, Y)."); everything from the first token that is not a
// recognized key=value option to end-of-line is the query, so constants
// containing '=' stay intact. OK bodies carry one rendered answer tuple
// per line ("(alice, logic101)"), and `rows=` counts them; '#'-prefixed
// info lines carry traces and stats. A row never starts with '#' (tuples
// render as "(...)") and never holds a line break (the lexer rejects one
// inside a string literal). Error messages are newline-sanitized into
// one line. Parsers skip header keys they do not know.
//
// The status taxonomy is the headline: `retryable` tells the client —
// mechanically, not by parsing prose — whether backing off and resending
// the same request can succeed (ResourceExhausted quota/admission sheds,
// DeadlineExceeded, Unavailable storage contention or a draining server)
// or never will (parse errors, unknown tenants, semantic failures). See
// IsRetryableStatusCode in base/status.h.

namespace ontorew {

enum class WireVerb { kQuery, kPing, kStats, kTenants };

struct WireRequest {
  WireVerb verb = WireVerb::kPing;
  std::string tenant;            // QUERY only.
  std::int64_t deadline_ms = 0;  // 0 = no deadline.
  bool trace = false;            // Request a span-tree dump.
  // Rewrite target ("target=ucq|cte", default ucq): cte asks the engine
  // to factor the rewriting and run it as WITH-CTE SQL (see
  // ServeOptions::target).
  RewriteTarget target = RewriteTarget::kUcq;
  std::string query;             // Raw query text, QUERY only.
};

// Parses one request line. InvalidArgument (non-retryable) on malformed
// input: unknown verb, missing tenant=, bad deadline, bad target.
StatusOr<WireRequest> ParseWireRequest(std::string_view line);

// One parsed response (client side). For transport-level failures the
// client synthesizes status=Unavailable with retryable=true — a dropped
// connection is transient by assumption and safe to retry because the
// protocol is read-only.
struct WireResponse {
  Status status;  // OK, or the error reconstructed from the ERR header.
  bool retryable = false;
  std::int64_t retry_after_ms = 0;
  bool cache_hit = false;
  std::vector<std::string> rows;  // Rendered answer tuples, sorted.
  std::vector<std::string> info;  // '#'-stripped info lines (trace/stats).
};

// --- Serialization (server side) -------------------------------------------

// "OK rows=3 cache=hit\n". `cache` is "hit"/"miss"/"none" (none: no
// rewrite happened, e.g. PING/STATS).
std::string FormatOkHeader(std::size_t rows, std::string_view cache);

// "ERR code=... retryable=... retry_after_ms=... <message>\n" with the
// retryable bit derived from the status code. `retry_after_ms` is the
// server's backoff hint (0 = client's choice). The message is everything
// after retry_after_ms, newline-sanitized, so ParseWireResponse reads it
// back as written.
std::string FormatErrHeader(const Status& status, std::int64_t retry_after_ms);

inline constexpr std::string_view kWireEnd = "END";

// --- Parsing (client side) -------------------------------------------------

// Parses the header line plus body lines (everything before "END"). Row
// lines are moved, not copied, into WireResponse::rows.
// InvalidArgument on a malformed header, including an OK header whose
// `rows=` is missing, not a number, or not the count of body lines that
// do not start with '#' (a truncated body).
StatusOr<WireResponse> ParseWireResponse(std::string_view header,
                                         std::vector<std::string> body);

// --- Line framing (both ends) -----------------------------------------------

// Hands every complete line of *buffer to `on_line` in order, without its
// '\n', until `on_line` returns false. Then erases, in one move, the
// prefix holding the lines it handed out; a trailing partial line stays.
// Returns false when `on_line` stopped early. The view passed to
// `on_line` points into *buffer and is valid only during the call.
template <typename OnLine>
bool ConsumeLines(std::string* buffer, OnLine&& on_line) {
  std::size_t start = 0;
  std::size_t nl = 0;
  bool more = true;
  while (more && (nl = buffer->find('\n', start)) != std::string::npos) {
    more = on_line(std::string_view(buffer->data() + start, nl - start));
    start = nl + 1;
  }
  buffer->erase(0, start);
  return more;
}

// Inverse of StatusCodeName; kInternal for unknown names.
StatusCode StatusCodeFromName(std::string_view name);

}  // namespace ontorew

#endif  // ONTOREW_SERVER_WIRE_H_
