#include "server/wire.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "base/strings.h"

namespace ontorew {
namespace {

// Splits off the next space-delimited token; consumes leading spaces.
std::string_view NextToken(std::string_view* rest) {
  while (!rest->empty() && rest->front() == ' ') rest->remove_prefix(1);
  std::size_t end = rest->find(' ');
  std::string_view token = rest->substr(0, end);
  rest->remove_prefix(end == std::string_view::npos ? rest->size() : end);
  return token;
}

// Newlines inside messages would desynchronize the line protocol.
std::string SanitizeLine(std::string_view text) {
  std::string out(text);
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::replace(out.begin(), out.end(), '\r', ' ');
  return out;
}

bool ConsumeKey(std::string_view token, std::string_view key,
                std::string_view* value) {
  if (token.size() <= key.size() || token.compare(0, key.size(), key) != 0 ||
      token[key.size()] != '=') {
    return false;
  }
  *value = token.substr(key.size() + 1);
  return true;
}

// A non-negative decimal. The bound is checked before the multiply, so a
// digit run of any length is a typed error, never a signed overflow.
StatusOr<std::int64_t> ParseInt(std::string_view text, std::string_view what) {
  if (text.empty()) return InvalidArgumentError(StrCat("empty ", what));
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError(StrCat("bad ", what, ": '", text, "'"));
    }
    const int digit = c - '0';
    if (value > (kMax - digit) / 10) {
      return InvalidArgumentError(StrCat(what, " overflows"));
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

StatusOr<WireRequest> ParseWireRequest(std::string_view line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.remove_suffix(1);
  }
  std::string_view rest = line;
  std::string_view verb = NextToken(&rest);
  WireRequest request;
  if (verb == "PING") {
    request.verb = WireVerb::kPing;
    return request;
  }
  if (verb == "STATS") {
    request.verb = WireVerb::kStats;
    return request;
  }
  if (verb == "TENANTS") {
    request.verb = WireVerb::kTenants;
    return request;
  }
  if (verb != "QUERY") {
    return InvalidArgumentError(
        StrCat("unknown verb '", SanitizeLine(verb),
               "' (expected QUERY/PING/STATS/TENANTS)"));
  }
  request.verb = WireVerb::kQuery;

  // key=value options until the first token that is none of them; that
  // token starts the query text (which may itself contain '=' inside
  // quoted constants — only *recognized* keys are consumed).
  for (;;) {
    std::string_view probe = rest;
    std::string_view token = NextToken(&probe);
    if (token.empty()) break;
    std::string_view value;
    if (ConsumeKey(token, "tenant", &value)) {
      request.tenant = std::string(value);
    } else if (ConsumeKey(token, "deadline_ms", &value)) {
      OREW_ASSIGN_OR_RETURN(request.deadline_ms,
                            ParseInt(value, "deadline_ms"));
    } else if (ConsumeKey(token, "trace", &value)) {
      request.trace = value == "1";
    } else if (ConsumeKey(token, "target", &value)) {
      // Unknown target names are a hard (non-retryable) parse error:
      // silently falling back to the default would hide client typos.
      if (value == "ucq") {
        request.target = RewriteTarget::kUcq;
      } else if (value == "cte") {
        request.target = RewriteTarget::kCte;
      } else {
        return InvalidArgumentError(StrCat("bad target: '",
                                           SanitizeLine(value),
                                           "' (expected ucq|cte)"));
      }
    } else {
      break;  // Query text begins here.
    }
    rest = probe;
  }
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (request.tenant.empty()) {
    return InvalidArgumentError("QUERY needs tenant=<name>");
  }
  if (rest.empty()) {
    return InvalidArgumentError("QUERY carries no query text");
  }
  request.query = std::string(rest);
  return request;
}

std::string FormatOkHeader(std::size_t rows, std::string_view cache) {
  return StrCat("OK rows=", rows, " cache=", cache, "\n");
}

std::string FormatErrHeader(const Status& status,
                            std::int64_t retry_after_ms) {
  // The parser skips the spaces before the message, so the message is
  // written without them: it then reads back exactly as written.
  std::string message = SanitizeLine(status.message());
  message.erase(0, message.find_first_not_of(' '));
  return StrCat("ERR code=", StatusCodeName(status.code()),
                " retryable=", IsRetryableStatusCode(status.code()) ? 1 : 0,
                " retry_after_ms=", retry_after_ms, " ", message, "\n");
}

StatusCode StatusCodeFromName(std::string_view name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    if (StatusCodeName(static_cast<StatusCode>(c)) == name) {
      return static_cast<StatusCode>(c);
    }
  }
  return StatusCode::kInternal;
}

StatusOr<WireResponse> ParseWireResponse(std::string_view header,
                                         std::vector<std::string> body) {
  std::string_view rest = header;
  while (!rest.empty() && (rest.back() == '\r' || rest.back() == '\n')) {
    rest.remove_suffix(1);
  }
  std::string_view kind = NextToken(&rest);
  WireResponse response;
  if (kind == "OK") {
    std::optional<std::int64_t> rows;
    for (;;) {
      std::string_view token = NextToken(&rest);
      if (token.empty()) break;
      std::string_view value;
      if (ConsumeKey(token, "rows", &value)) {
        OREW_ASSIGN_OR_RETURN(rows, ParseInt(value, "rows"));
      } else if (ConsumeKey(token, "cache", &value)) {
        response.cache_hit = value == "hit";
      }
    }
    if (!rows.has_value()) {
      return InvalidArgumentError("OK header carries no rows=");
    }
    response.rows.reserve(body.size());
    for (std::string& line : body) {
      if (!line.empty() && line.front() == '#') {
        std::string_view info = line;
        info.remove_prefix(1);
        if (!info.empty() && info.front() == ' ') info.remove_prefix(1);
        response.info.emplace_back(info);
      } else {
        response.rows.push_back(std::move(line));
      }
    }
    if (*rows != static_cast<std::int64_t>(response.rows.size())) {
      return InvalidArgumentError(StrCat("OK header says rows=", *rows,
                                         " but the body holds ",
                                         response.rows.size()));
    }
    return response;
  }
  if (kind != "ERR") {
    return InvalidArgumentError(
        StrCat("malformed response header: '", SanitizeLine(header), "'"));
  }
  StatusCode code = StatusCode::kInternal;
  for (;;) {
    std::string_view probe = rest;
    std::string_view token = NextToken(&probe);
    if (token.empty()) break;
    std::string_view value;
    if (ConsumeKey(token, "code", &value)) {
      code = StatusCodeFromName(value);
    } else if (ConsumeKey(token, "retryable", &value)) {
      response.retryable = value == "1";
    } else if (ConsumeKey(token, "retry_after_ms", &value)) {
      StatusOr<std::int64_t> parsed = ParseInt(value, "retry_after_ms");
      if (!parsed.ok()) return parsed.status();
      response.retry_after_ms = *parsed;
      // FormatErrHeader writes it last: the message follows, even when it
      // starts with something that looks like an option.
      rest = probe;
      break;
    } else {
      break;  // Message text begins here.
    }
    rest = probe;
  }
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (code == StatusCode::kOk) {
    return InvalidArgumentError("ERR header carries code=OK");
  }
  response.status = Status(code, std::string(rest));
  return response;
}

}  // namespace ontorew
