#ifndef ONTOREW_BACKEND_SQLITE_BACKEND_H_
#define ONTOREW_BACKEND_SQLITE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "logic/vocabulary.h"
#include "rewriting/sql.h"

// Opaque handles; <sqlite3.h> stays out of this header.
struct sqlite3;
struct sqlite3_stmt;

// The paper's architecture made real: the rewriting is a plain UCQ, so it
// can run on an actual SQL engine over the original extensional data.
// SqliteBackend loads a Database into system libsqlite3 (in-memory by
// default, or a file) in one transaction and executes UCQs via UcqToSql
// and factored programs via DatalogToCteSql, both rendered with integer
// constants and this backend's table resolver (rewriting/sql.h).
//
// Physical design (see DESIGN.md "Backends"):
//  * Every cell is an INTEGER. A constant is stored as its ConstantId —
//    the emitter spells query constants the same way — and a labeled
//    null N_i as -(i+1), so SQL equality equates nulls exactly when their
//    ids match, the join semantics of the in-memory evaluator. Distinct
//    constants are distinct integers, whatever their spelling (`a` and
//    `"a"` stay two values). A result cell decodes with
//    sqlite3_column_int64; a non-negative cell that is not a constant id
//    of the vocabulary is an Internal error.
//  * Each relation with tuples is a WITHOUT ROWID table keyed on all of
//    its columns (relations are sets), with one secondary index per
//    column after the first. ANALYZE (sampling at most 1000 rows per
//    index) runs inside the load transaction, so the planner joins
//    through the indexes instead of building automatic ones per request.
//  * A predicate with no table — unknown, or with no stored tuples — is
//    emitted as an empty inline relation: the read path runs no DDL.
//  * Prepared statements of the last kStatementCacheCapacity distinct SQL
//    texts are cached (LRU). A statement is reset on every exit path and
//    its counters read with the reset flag, so nothing carries over from
//    one request to the next; Load finalizes them all.
//
// Deadlines/cancellation map onto sqlite3_progress_handler: while a
// statement runs, the handler polls the request's CancelScope every few
// thousand VM instructions and interrupts the statement when it trips,
// surfacing DeadlineExceeded/Cancelled — never a partial answer set.
//
// Lock contention is typed, not waited out: SQLITE_BUSY / SQLITE_LOCKED
// from any exec, prepare, bind or step (another connection to a file
// database holds a conflicting lock) surface at once as Unavailable,
// which the wire marks retryable; the client's RetryingClient backs off
// and resends (server/client.h). Nothing in this backend sleeps or
// retries; sqlite3_busy_timeout stays unset, since it would sleep inside
// sqlite3_step, under the connection mutex, blind to the request
// deadline. The "backend.busy" fault point, checked once before a scan's
// first step, injects that same Unavailable against any database.
//
// One connection serves one statement at a time: Load and Execute
// serialize on an internal mutex (the engine above fans parallelism
// across requests, not within a connection), so the connection is opened
// without SQLite's own mutex.

namespace ontorew {

struct SqliteBackendOptions {
  // ":memory:" (the default) keeps the database private to the process;
  // any other value is a filesystem path.
  std::string path = ":memory:";
};

class SqliteBackend : public Backend {
 public:
  // Distinct SQL texts whose prepared statements stay cached.
  static constexpr std::size_t kStatementCacheCapacity = 16;

  // `vocab` must outlive the backend; result cells decode to its ids.
  explicit SqliteBackend(Vocabulary* vocab, SqliteBackendOptions options = {});
  ~SqliteBackend() override;
  SqliteBackend(const SqliteBackend&) = delete;
  SqliteBackend& operator=(const SqliteBackend&) = delete;

  std::string_view name() const override { return "sqlite"; }

  // Finalizes every cached statement, drops every table from a previous
  // Load, and creates, fills, indexes and ANALYZEs one table per
  // predicate with stored facts, in one transaction. Predicates without
  // facts (including the program's) get no table. Errors: Unavailable
  // when another connection holds a conflicting lock, Internal on other
  // SQLite failures (including a failed open in the constructor). A
  // failed Load rolls its transaction back and leaves the backend
  // unloaded.
  Status Load(const TgdProgram& program,
              std::shared_ptr<const Database> db) override;

  // Emits the UCQ as SQL and executes it. A predicate without a table is
  // an empty relation, as in the in-memory evaluator. Errors:
  // FailedPrecondition before a successful Load, InvalidArgument on
  // invalid queries, DeadlineExceeded/Cancelled when options.cancel trips
  // mid-statement, an injected "backend.exec" fault, Unavailable on lock
  // contention or an injected "backend.busy" fault (see the top of this
  // file), Internal on other SQLite failures.
  StatusOr<std::vector<Tuple>> Execute(const UnionOfCqs& ucq,
                                       const BackendExecOptions& options,
                                       EvalStats* stats = nullptr) override;

  // Native execution of a factored rewriting: emits the program as ONE
  // WITH-CTE SQL statement (rewriting/cte_sql.h) and runs it through the
  // same prepared-statement scan as Execute — the flat union is never
  // materialized, in SQL text or anywhere else. Same errors as Execute;
  // the "emit" trace span records sql_bytes, cte_count and rules.
  StatusOr<std::vector<Tuple>> ExecuteDatalog(
      const DatalogProgram& program, const BackendExecOptions& options,
      EvalStats* stats = nullptr) override;

  // Tuples stored across all tables (COUNT(*) sweep), for tests/benches.
  StatusOr<std::int64_t> StoredTuples();

  // Prepared statements currently cached (at most
  // kStatementCacheCapacity), for tests.
  std::size_t cached_statements();

  // Lowers SQLITE_LIMIT_COMPOUND_SELECT on this connection so tests can
  // exercise the oversized-union chunking in Execute and the unfold
  // fallback in ExecuteDatalog without building 500-disjunct programs.
  Status SetCompoundSelectLimitForTest(int limit);

 private:
  // Executes `sql` (one or more statements). Callers hold mutex_.
  Status RunSql(const std::string& sql);
  // Prepares `sql`; the caller finalizes. Callers hold mutex_.
  StatusOr<sqlite3_stmt*> Prepare(const std::string& sql,
                                  unsigned int flags = 0);
  // The cached statement for `sql`, prepared and cached (evicting the
  // least recently used one) on a miss. Callers hold mutex_.
  StatusOr<sqlite3_stmt*> CachedStatement(const std::string& sql);
  // Finalizes and forgets every cached statement. Callers hold mutex_.
  void ClearStatementCache();
  // Scans one emitted SQL query on its cached statement: progress-handler
  // cancellation, EXPLAIN-plan capture on the "scan" span, row decoding,
  // sort+dedup. Callers hold mutex_ and have checked loaded_. Shared by
  // Execute (UNION SQL) and ExecuteDatalog (CTE SQL).
  StatusOr<std::vector<Tuple>> RunQuerySql(const std::string& sql, int arity,
                                           const BackendExecOptions& options,
                                           EvalStats* stats);

  Vocabulary* vocab_;
  SqliteBackendOptions options_;
  sqlite3* conn_ = nullptr;
  Status open_status_;

  std::mutex mutex_;  // Serializes Load/Execute on the connection.
  bool loaded_ = false;
  // Quoted table name of each predicate with stored tuples; guarded by
  // mutex_, like everything below.
  std::unordered_map<PredicateId, std::string> tables_;
  // Integer constants, tables_ names, empty relations for the rest.
  SqlRendering rendering_;

  struct CachedStmt {
    std::string sql;
    sqlite3_stmt* stmt;
  };
  std::list<CachedStmt> statements_;  // Most recently used first.
  std::unordered_map<std::string_view, std::list<CachedStmt>::iterator>
      statement_index_;  // Keys view statements_' sql strings.
};

}  // namespace ontorew

#endif  // ONTOREW_BACKEND_SQLITE_BACKEND_H_
