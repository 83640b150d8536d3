// Seeded mutation fuzzing of the wire codec (server/wire.h): request
// lines through ParseWireRequest, and FormatOkHeader / FormatErrHeader
// outputs through ParseWireResponse. Every mutated input must give
// either a typed InvalidArgument error or a parse that survives a
// format -> parse round trip unchanged. Numbers get their own mutations
// (digit runs, overlong values) and their own oracle: an accepted number
// is exactly the one its digits denote, and a deadline the server would
// take from it is never already expired. Labeled `fuzz` (ctest -L fuzz);
// the sanitizer job runs it under ASan+UBSan, where any overflow aborts.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "base/deadline.h"
#include "base/rng.h"
#include "base/status.h"
#include "gtest/gtest.h"
#include "server/wire.h"

namespace ontorew {
namespace {

constexpr int kRequestRuns = 20000;
constexpr int kResponseRuns = 20000;
constexpr int kNumberRuns = 5000;

const std::vector<std::string>& RequestSeeds() {
  static const std::vector<std::string> seeds = {
      "QUERY tenant=uni q(X) :- person(X).",
      "QUERY tenant=uni deadline_ms=250 trace=1 q(X) :- person(X).",
      "QUERY tenant=uni target=cte deadline_ms=50 q(X) :- teaches(X, C).",
      "QUERY tenant=a target=ucq q(X) :- label(X, \"a=b\").",
      "QUERY tenant=a deadline_ms=9223372036854775807 q() :- r(\"c\", X).",
      "PING",
      "STATS",
      "TENANTS",
  };
  return seeds;
}

// Header lines as the server writes them, plus the bodies they precede.
struct ResponseSeed {
  std::string header;
  std::vector<std::string> body;
};

std::vector<ResponseSeed> ResponseSeeds() {
  std::vector<ResponseSeed> seeds;
  seeds.push_back({FormatOkHeader(2, "hit"), {"(ada)", "(turing)"}});
  seeds.push_back({FormatOkHeader(0, "none"), {}});
  seeds.push_back(
      {FormatOkHeader(1, "miss"), {"(ada)", "# serve 1.2ms", "#  x"}});
  for (const Status& status :
       {ResourceExhaustedError("tenant 'uni' rate quota exceeded"),
        DeadlineExceededError("rewrite saturation: deadline exceeded"),
        UnavailableError("server is draining"), InvalidArgumentError("parse"),
        NotFoundError("unknown tenant 'x'"), InternalError("")}) {
    seeds.push_back({FormatErrHeader(status, 25), {}});
    seeds.push_back({FormatErrHeader(status, 9223372036854775807), {}});
  }
  return seeds;
}

// A run of 1..40 decimal digits; long runs overflow int64.
std::string DigitRun(Rng& rng) {
  std::string digits;
  const int length = rng.UniformIn(1, 40);
  for (int i = 0; i < length; ++i) {
    digits.push_back(static_cast<char>('0' + rng.Uniform(10)));
  }
  return digits;
}

// One random edit of `text`.
std::string Mutate(std::string text, Rng& rng) {
  static constexpr std::string_view kAlphabet =
      " =0123456789QUERYtenant_msdlirgucq()\":-,.#\r\n\t\x01\xff";
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(
        rng.Uniform(static_cast<int>(text.size() + extra)));
  };
  switch (rng.Uniform(8)) {
    case 0:  // Flip one byte.
      if (!text.empty()) text[pos(0)] ^= static_cast<char>(1 << rng.Uniform(8));
      break;
    case 1:  // Insert a byte.
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos(1)),
                  kAlphabet[static_cast<std::size_t>(
                      rng.Uniform(static_cast<int>(kAlphabet.size())))]);
      break;
    case 2:  // Delete a span.
      if (!text.empty()) {
        const std::size_t at = pos(0);
        text.erase(at, static_cast<std::size_t>(rng.UniformIn(1, 8)));
      }
      break;
    case 3:  // Truncate.
      text.resize(pos(1));
      break;
    case 4:  // Duplicate a span somewhere else.
      if (!text.empty()) {
        const std::size_t at = pos(0);
        const std::string span =
            text.substr(at, static_cast<std::size_t>(rng.UniformIn(1, 16)));
        text.insert(pos(1), span);
      }
      break;
    case 5:  // Insert a digit run.
      text.insert(pos(1), DigitRun(rng));
      break;
    case 6: {  // Replace the digits after some '=' with an overlong number.
      const std::size_t eq = text.find('=', pos(1));
      if (eq == std::string::npos) break;
      std::size_t end = eq + 1;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      text.replace(eq + 1, end - eq - 1, DigitRun(rng));
      break;
    }
    default:  // Insert a whole option token.
      static const char* const kOptions[] = {
          " deadline_ms=", " retry_after_ms=", " trace=1", " target=cte",
          " target=", " tenant=", " rows=", " code=OK", " code=Cancelled"};
      std::string option = kOptions[rng.Uniform(9)];
      if (option.back() == '=') option += DigitRun(rng);
      text.insert(pos(1), option);
      break;
  }
  return text;
}

// The canonical request line: every option spelled out.
std::string FormatRequest(const WireRequest& request) {
  switch (request.verb) {
    case WireVerb::kPing:
      return "PING";
    case WireVerb::kStats:
      return "STATS";
    case WireVerb::kTenants:
      return "TENANTS";
    case WireVerb::kQuery:
      break;
  }
  return "QUERY tenant=" + request.tenant +
         " deadline_ms=" + std::to_string(request.deadline_ms) +
         " trace=" + (request.trace ? "1" : "0") +
         " target=" + std::string(RewriteTargetName(request.target)) + " " +
         request.query;
}

// The deadline the server derives from a request (HandleQuery): a budget
// of a second or more must not be already spent when it is taken.
void ExpectDeadlineNotSpent(std::int64_t deadline_ms,
                            const std::string& input) {
  if (deadline_ms < 1000) return;
  const Deadline deadline = Deadline::AfterMillis(deadline_ms);
  EXPECT_FALSE(deadline.expired())
      << "deadline_ms=" << deadline_ms << " from: " << input;
}

void CheckRequest(const std::string& line) {
  StatusOr<WireRequest> parsed = ParseWireRequest(line);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_FALSE(parsed.status().message().empty()) << line;
    return;
  }
  EXPECT_GE(parsed->deadline_ms, 0) << line;
  ExpectDeadlineNotSpent(parsed->deadline_ms, line);
  const std::string canonical = FormatRequest(*parsed);
  StatusOr<WireRequest> again = ParseWireRequest(canonical);
  ASSERT_TRUE(again.ok()) << again.status() << "\n  input: " << line
                          << "\n  canonical: " << canonical;
  EXPECT_EQ(again->verb, parsed->verb) << line;
  EXPECT_EQ(again->tenant, parsed->tenant) << line;
  EXPECT_EQ(again->deadline_ms, parsed->deadline_ms) << line;
  EXPECT_EQ(again->trace, parsed->trace) << line;
  EXPECT_EQ(again->target, parsed->target) << line;
  EXPECT_EQ(again->query, parsed->query) << line;
}

// Re-serializes a parsed response as the server would.
std::string FormatHeader(const WireResponse& response) {
  if (response.status.ok()) {
    return FormatOkHeader(response.rows.size(),
                          response.cache_hit ? "hit" : "miss");
  }
  return FormatErrHeader(response.status, response.retry_after_ms);
}

// What an error message reads as after one format -> parse pass: line
// breaks become spaces, and the spaces before it are skipped.
std::string ExpectedMessage(std::string_view message) {
  std::string out(message);
  for (char& c : out) {
    if (c == '\r' || c == '\n') c = ' ';
  }
  out.erase(0, out.find_first_not_of(' '));
  return out;
}

std::vector<std::string> FormatBody(const WireResponse& response) {
  std::vector<std::string> body = response.rows;
  for (const std::string& info : response.info) body.push_back("# " + info);
  return body;
}

// The value of the last space-delimited `rows=` token of `header`, read
// with std::from_chars; nullopt when there is none or it is not exactly
// a non-negative decimal.
std::optional<std::int64_t> HeaderRows(std::string_view header) {
  std::optional<std::int64_t> rows;
  while (!header.empty()) {
    const std::size_t space = header.find(' ');
    const std::string_view token = header.substr(0, space);
    header.remove_prefix(space == std::string_view::npos ? header.size()
                                                         : space + 1);
    if (token.substr(0, 5) != "rows=") continue;
    std::int64_t value = 0;
    const std::string_view digits = token.substr(5);
    const std::from_chars_result result = std::from_chars(
        digits.data(), digits.data() + digits.size(), value);
    rows.reset();
    if (result.ec == std::errc() && digits.front() != '-' &&
        result.ptr == digits.data() + digits.size()) {
      rows = value;
    }
  }
  return rows;
}

void CheckResponse(const std::string& header,
                   const std::vector<std::string>& body) {
  StatusOr<WireResponse> parsed = ParseWireResponse(header, body);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << header;
    EXPECT_FALSE(parsed.status().message().empty()) << header;
    return;
  }
  EXPECT_GE(parsed->retry_after_ms, 0) << header;
  if (parsed->status.ok()) {
    // An accepted OK header counts exactly the rows it arrived with.
    std::string_view line = header;
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.remove_suffix(1);
    }
    EXPECT_EQ(HeaderRows(line),
              std::optional<std::int64_t>(
                  static_cast<std::int64_t>(parsed->rows.size())))
        << header;
  }
  const std::string canonical = FormatHeader(*parsed);
  StatusOr<WireResponse> again =
      ParseWireResponse(canonical, FormatBody(*parsed));
  ASSERT_TRUE(again.ok()) << again.status() << "\n  input: " << header
                          << "\n  canonical: " << canonical;
  EXPECT_EQ(again->status.code(), parsed->status.code()) << header;
  EXPECT_EQ(again->status.message(),
            ExpectedMessage(parsed->status.message()))
      << header;
  EXPECT_EQ(again->retry_after_ms, parsed->retry_after_ms) << header;
  EXPECT_EQ(again->cache_hit, parsed->cache_hit) << header;
  EXPECT_EQ(again->rows, parsed->rows) << header;
  EXPECT_EQ(again->info, parsed->info) << header;
  // After one pass the serialization is a fixpoint.
  EXPECT_EQ(FormatHeader(*again), canonical) << header;
}

TEST(WireFuzzTest, MutatedRequestsAreTypedErrorsOrRoundTripStable) {
  Rng rng(0xf022'0001);
  const std::vector<std::string>& seeds = RequestSeeds();
  for (const std::string& seed : seeds) CheckRequest(seed);
  ASSERT_FALSE(::testing::Test::HasFailure()) << "a seed line failed";
  for (int run = 0; run < kRequestRuns; ++run) {
    std::string line =
        seeds[static_cast<std::size_t>(rng.Uniform(
            static_cast<int>(seeds.size())))];
    const int edits = rng.UniformIn(1, 4);
    for (int e = 0; e < edits; ++e) line = Mutate(std::move(line), rng);
    CheckRequest(line);
    if (::testing::Test::HasFailure()) {
      FAIL() << "run " << run << " input: " << line;
    }
  }
}

TEST(WireFuzzTest, MutatedResponseHeadersAreTypedErrorsOrRoundTripStable) {
  Rng rng(0xf022'0002);
  const std::vector<ResponseSeed> seeds = ResponseSeeds();
  for (const ResponseSeed& seed : seeds) CheckResponse(seed.header, seed.body);
  ASSERT_FALSE(::testing::Test::HasFailure()) << "a seed header failed";
  for (int run = 0; run < kResponseRuns; ++run) {
    const ResponseSeed& seed = seeds[static_cast<std::size_t>(
        rng.Uniform(static_cast<int>(seeds.size())))];
    std::string header = seed.header;
    const int edits = rng.UniformIn(1, 4);
    for (int e = 0; e < edits; ++e) header = Mutate(std::move(header), rng);
    CheckResponse(header, seed.body);
    if (::testing::Test::HasFailure()) {
      FAIL() << "run " << run << " header: " << header;
    }
  }
}

// Numbers against an independent oracle (std::from_chars): a digit run
// parses to exactly its value, or fails as "overflows" exactly when it
// does not fit in int64 — never a wrapped value.
TEST(WireFuzzTest, DigitRunsParseExactlyOrOverflowTyped) {
  Rng rng(0xf022'0003);
  for (int run = 0; run < kNumberRuns; ++run) {
    const std::string digits = DigitRun(rng);
    std::int64_t want = 0;
    const std::from_chars_result reference =
        std::from_chars(digits.data(), digits.data() + digits.size(), want);
    const bool fits = reference.ec == std::errc();

    const std::string line =
        "QUERY tenant=a deadline_ms=" + digits + " q(X) :- p(X).";
    StatusOr<WireRequest> request = ParseWireRequest(line);
    StatusOr<WireResponse> response = ParseWireResponse(
        "ERR code=Unavailable retryable=1 retry_after_ms=" + digits + " busy",
        {});
    if (fits) {
      ASSERT_TRUE(request.ok()) << request.status() << " for " << digits;
      EXPECT_EQ(request->deadline_ms, want) << digits;
      ExpectDeadlineNotSpent(request->deadline_ms, line);
      ASSERT_TRUE(response.ok()) << response.status() << " for " << digits;
      EXPECT_EQ(response->retry_after_ms, want) << digits;
    } else {
      ASSERT_FALSE(request.ok()) << digits << " parsed as "
                                 << request->deadline_ms;
      EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(request.status().message().find("overflows"),
                std::string::npos)
          << request.status();
      ASSERT_FALSE(response.ok()) << digits << " parsed as "
                                  << response->retry_after_ms;
      EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace ontorew
