// ontology_server: the multi-tenant wire server (DESIGN.md §11).
//
//   ontology_server --demo --port=7411
//   ontology_server --tenant=uni:uni.tgd:uni.facts --workers=8
//
// Tenants come from --tenant=name:program-file:facts-file (repeatable)
// and/or --demo (two built-in toy ontologies). SIGINT/SIGTERM trigger a
// graceful drain: inflight requests finish (up to --drain-ms), new ones
// are shed with a retryable error, then the process exits 0. A numeric
// flag must be a whole number in range (a finite number for --qps and
// --burst); anything else is a usage error, exit status 2.

#include <cctype>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "base/strings.h"
#include "server/server.h"

namespace {

// The most worker threads --workers may ask for.
constexpr int kMaxWorkers = 1024;
constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

ontorew::StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return ontorew::NotFoundError(
        ontorew::StrCat("cannot open '", path, "'"));
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

constexpr const char kDemoUniversityProgram[] = R"(
# A toy university ontology (cf. workload/university.cc).
teaches(X, C) -> professor(X).
professor(X) -> employee(X).
employee(X) -> person(X).
enrolled(S, C) -> student(S).
student(S) -> person(S).
)";

constexpr const char kDemoUniversityFacts[] = R"(
teaches(ada, logic101).
professor(turing).
enrolled(kurt, logic101).
)";

constexpr const char kDemoLibraryProgram[] = R"(
borrows(P, B) -> member(P).
member(P) -> person(P).
)";

constexpr const char kDemoLibraryFacts[] = R"(
borrows(ada, tractatus).
borrows(kurt, principia).
)";

// Parses all of `text` as a base-10 integer in [min, max].
template <typename Int>
bool ParseIntFlag(const char* text, Int min, Int max, Int* out) {
  const char* end = text + std::strlen(text);
  Int value{};
  const auto [ptr, error] = std::from_chars(text, end, value);
  if (error != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

// Parses all of `text` as a finite decimal number.
bool ParseDoubleFlag(const char* text, double* out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N] [--workers=N] [--demo] [--sqlite]\n"
      "          [--qps=N] [--burst=N] [--tenant-inflight=N]\n"
      "          [--max-inflight=N] [--drain-ms=N]\n"
      "          [--tenant=name:program-file:facts-file]...\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using ontorew::OntologyServer;
  using ontorew::OntologyServerOptions;
  using ontorew::Status;
  using ontorew::TenantSpec;

  OntologyServerOptions options;
  options.port = 7411;
  long drain_ms = 2000;
  bool demo = false;
  bool use_sqlite = false;
  ontorew::TenantQuota quota;
  std::vector<std::string> tenant_args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    bool valid = true;
    if (const char* v = value_of("--port=")) {
      valid = ParseIntFlag(v, 0, 65535, &options.port);
    } else if (const char* v = value_of("--workers=")) {
      valid = ParseIntFlag(v, 1, kMaxWorkers, &options.num_workers);
    } else if (const char* v = value_of("--max-inflight=")) {
      valid = ParseIntFlag(v, std::size_t{0}, kSizeMax,
                           &options.max_inflight_global);
    } else if (const char* v = value_of("--drain-ms=")) {
      valid = ParseIntFlag(v, 0L, std::numeric_limits<long>::max(),
                           &drain_ms);
    } else if (const char* v = value_of("--qps=")) {
      valid = ParseDoubleFlag(v, &quota.qps);
    } else if (const char* v = value_of("--burst=")) {
      valid = ParseDoubleFlag(v, &quota.burst);
    } else if (const char* v = value_of("--tenant-inflight=")) {
      valid = ParseIntFlag(v, std::size_t{0}, kSizeMax, &quota.max_inflight);
    } else if (const char* v = value_of("--tenant=")) {
      tenant_args.emplace_back(v);
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--sqlite") {
      use_sqlite = true;
    } else {
      return Usage(argv[0]);
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value for %s\n",
                   arg.substr(0, arg.find('=')).c_str());
      return Usage(argv[0]);
    }
  }
  if (!demo && tenant_args.empty()) {
    std::fprintf(stderr, "no tenants: pass --demo and/or --tenant=...\n");
    return Usage(argv[0]);
  }

  OntologyServer server(options);
  auto add = [&server](TenantSpec spec) -> bool {
    const Status status = server.AddTenant(std::move(spec));
    if (!status.ok()) {
      std::fprintf(stderr, "AddTenant: %s\n", status.ToString().c_str());
      return false;
    }
    return true;
  };

  if (demo) {
    TenantSpec uni{.name = "university",
                   .program_text = kDemoUniversityProgram,
                   .facts_text = kDemoUniversityFacts,
                   .quota = quota,
                   .use_sqlite = use_sqlite};
    TenantSpec lib{.name = "library",
                   .program_text = kDemoLibraryProgram,
                   .facts_text = kDemoLibraryFacts,
                   .quota = quota,
                   .use_sqlite = use_sqlite};
    if (!add(std::move(uni)) || !add(std::move(lib))) return 1;
  }
  for (const std::string& spec_arg : tenant_args) {
    const std::size_t first = spec_arg.find(':');
    const std::size_t second =
        first == std::string::npos ? first : spec_arg.find(':', first + 1);
    if (second == std::string::npos) {
      std::fprintf(stderr,
                   "--tenant wants name:program-file:facts-file, got '%s'\n",
                   spec_arg.c_str());
      return 2;
    }
    TenantSpec spec;
    spec.name = spec_arg.substr(0, first);
    spec.quota = quota;
    spec.use_sqlite = use_sqlite;
    auto program = ReadWholeFile(spec_arg.substr(first + 1, second - first - 1));
    if (!program.ok()) {
      std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
      return 1;
    }
    spec.program_text = *std::move(program);
    auto facts = ReadWholeFile(spec_arg.substr(second + 1));
    if (!facts.ok()) {
      std::fprintf(stderr, "%s\n", facts.status().ToString().c_str());
      return 1;
    }
    spec.facts_text = *std::move(facts);
    if (!add(std::move(spec))) return 1;
  }

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "Start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ontology_server listening on 127.0.0.1:%d (%zu tenant(s))\n",
              server.port(), server.tenant_names().size());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("draining (up to %ld ms)...\n", drain_ms);
  std::fflush(stdout);
  const Status drained = server.Shutdown(std::chrono::milliseconds(drain_ms));
  std::printf("shutdown: %s\n", drained.ToString().c_str());
  return 0;
}
