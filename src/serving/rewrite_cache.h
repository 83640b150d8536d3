#ifndef ONTOREW_SERVING_REWRITE_CACHE_H_
#define ONTOREW_SERVING_REWRITE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "logic/query.h"
#include "rewriting/datalog.h"

// A thread-safe LRU cache of computed rewritings, shareable across
// AnswerEngines. Keys embed the owning program's structural fingerprint
// (see AnswerEngine::CacheKey), so one cache can safely serve MANY
// engines: two tenants hosting the *same* ontology hash to the same
// fingerprint and share every rewriting; tenants with different programs
// can never collide. This is the server's cross-tenant sharing mechanism
// (DESIGN.md "Serving over the wire") — N replicas of a popular ontology
// pay for each query's saturation once, not N times.
//
// Values are shared_ptr<const CachedRewriting>: entries stay valid after
// eviction for requests still holding them. Keys are also qualified by
// the rewrite target (RewriteTargetName in AnswerEngine::CacheKey), so a
// flat-UCQ entry and a factored-Datalog entry for the same query never
// alias — they cache different artifacts.

namespace ontorew {

// One cached rewriting — exactly one artifact per target. Flat-UCQ keys
// hold the union and no Datalog program; RewriteTarget::kCte keys hold
// the factored Datalog program and NO flat union (the DAG rewriter never
// materializes it — an entry whose program implies 9^6 disjuncts must
// not pin them in the cache). Consumers that need a flat union for a cte
// entry unfold the program on demand.
struct CachedRewriting {
  std::optional<UnionOfCqs> ucq;
  std::optional<DatalogProgram> datalog;
};

// Cumulative cache statistics (monotonic except `size`).
struct RewriteCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::size_t size = 0;
};

class RewriteCache {
 public:
  // capacity == 0 disables the cache (Lookup always misses, Insert is a
  // pass-through that caches nothing).
  explicit RewriteCache(std::size_t capacity) : capacity_(capacity) {}
  RewriteCache(const RewriteCache&) = delete;
  RewriteCache& operator=(const RewriteCache&) = delete;

  // The cached rewriting for `key` (marked most-recently-used), or null
  // on a miss. Hit/miss counters move accordingly.
  std::shared_ptr<const CachedRewriting> Lookup(const std::string& key);

  // Inserts `value` under `key` and returns the canonical entry: when a
  // concurrent miss on the same key won the race, the existing entry wins
  // and is returned instead (both callers then evaluate the same
  // rewriting object). `evictions` (optional) receives how many entries
  // this insert pushed out.
  std::shared_ptr<const CachedRewriting> Insert(
      const std::string& key, std::shared_ptr<const CachedRewriting> value,
      std::int64_t* evictions = nullptr);

  RewriteCacheStats stats() const;

 private:
  // MRU-first entry list; the map points into it for O(1) lookup+splice.
  using Entry = std::pair<std::string, std::shared_ptr<const CachedRewriting>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  RewriteCacheStats stats_;
};

}  // namespace ontorew

#endif  // ONTOREW_SERVING_REWRITE_CACHE_H_
