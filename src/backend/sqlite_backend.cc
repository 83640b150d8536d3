#include "backend/sqlite_backend.h"

#include <sqlite3.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/fault_point.h"
#include "base/strings.h"
#include "rewriting/cte_sql.h"
#include "rewriting/sql.h"

namespace ontorew {
namespace {

// VM instructions between two progress-handler polls of the cancel scope
// (SQLite's N for sqlite3_progress_handler).
constexpr int kProgressPollInstructions = 1000;

// Stored form of a value: a constant as its id, labeled null N_i as
// -(i+1), so the two never collide in a column.
std::int64_t EncodeCell(Value value) {
  return value.is_null() ? -static_cast<std::int64_t>(value.id()) - 1
                         : value.id();
}

// The one mapping from a SQLite result code to a Status. Busy/locked
// (the low byte strips SQLite's extended detail) means another connection
// holds a conflicting lock right now: transient, so Unavailable, which the
// wire marks retryable and the client backs off from. Any other code is
// Internal. `conn` supplies the message; null falls back to the code's
// generic text.
Status SqliteError(int rc, sqlite3* conn, std::string_view what) {
  std::string message =
      StrCat("sqlite: ", what, ": ",
             conn != nullptr ? sqlite3_errmsg(conn) : sqlite3_errstr(rc));
  const int primary = rc & 0xff;
  return primary == SQLITE_BUSY || primary == SQLITE_LOCKED
             ? UnavailableError(std::move(message))
             : InternalError(std::move(message));
}

// Rewinds a cached statement and zeroes its counters on every exit path,
// so a scan cut short leaves nothing behind for the next request.
class StmtReset {
 public:
  explicit StmtReset(sqlite3_stmt* stmt) : stmt_(stmt) {}
  StmtReset(const StmtReset&) = delete;
  StmtReset& operator=(const StmtReset&) = delete;
  ~StmtReset() {
    sqlite3_reset(stmt_);
    sqlite3_stmt_status(stmt_, SQLITE_STMTSTATUS_FULLSCAN_STEP, 1);
  }

 private:
  sqlite3_stmt* stmt_;
};

// One finalize on every exit path.
class StmtGuard {
 public:
  explicit StmtGuard(sqlite3_stmt* stmt) : stmt_(stmt) {}
  StmtGuard(const StmtGuard&) = delete;
  StmtGuard& operator=(const StmtGuard&) = delete;
  ~StmtGuard() { sqlite3_finalize(stmt_); }

 private:
  sqlite3_stmt* stmt_;
};

// Polls the request's cancel scope from SQLite's VM; nonzero interrupts
// the running statement.
int ProgressPoll(void* scope) {
  return static_cast<const CancelScope*>(scope)->Check("sqlite.exec").ok()
             ? 0
             : 1;
}

// Uninstalls the progress handler on every exit path.
class ProgressGuard {
 public:
  ProgressGuard(sqlite3* conn, const CancelScope& scope, int instructions)
      : conn_(conn), installed_(scope.active()) {
    if (installed_) {
      sqlite3_progress_handler(conn_, instructions, &ProgressPoll,
                               const_cast<CancelScope*>(&scope));
    }
  }
  ProgressGuard(const ProgressGuard&) = delete;
  ProgressGuard& operator=(const ProgressGuard&) = delete;
  ~ProgressGuard() {
    if (installed_) sqlite3_progress_handler(conn_, 0, nullptr, nullptr);
  }

 private:
  sqlite3* conn_;
  bool installed_;
};

}  // namespace

SqliteBackend::SqliteBackend(Vocabulary* vocab, SqliteBackendOptions options)
    : vocab_(vocab), options_(std::move(options)) {
  rendering_.constants = SqlConstantForm::kIntegerId;
  rendering_.table = [this](PredicateId p) {
    auto it = tables_.find(p);
    return it != tables_.end() ? it->second
                               : SqlEmptyRelation(vocab_->PredicateArity(p));
  };
  // mutex_ serializes every use of the connection, so SQLite's own
  // per-connection mutex would only add cost.
  const int rc =
      sqlite3_open_v2(options_.path.c_str(), &conn_,
                      SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE |
                          SQLITE_OPEN_NOMUTEX,
                      nullptr);
  if (rc != SQLITE_OK) {
    open_status_ = InternalError(StrCat(
        "sqlite: cannot open '", options_.path, "': ",
        conn_ != nullptr ? sqlite3_errmsg(conn_) : sqlite3_errstr(rc)));
    sqlite3_close(conn_);
    conn_ = nullptr;
  }
}

SqliteBackend::~SqliteBackend() {
  ClearStatementCache();
  sqlite3_close(conn_);
}

Status SqliteBackend::RunSql(const std::string& sql) {
  const int rc = sqlite3_exec(conn_, sql.c_str(), nullptr, nullptr, nullptr);
  return rc == SQLITE_OK ? Status::Ok()
                         : SqliteError(rc, conn_, StrCat("exec: ", sql));
}

StatusOr<sqlite3_stmt*> SqliteBackend::Prepare(const std::string& sql,
                                               unsigned int flags) {
  sqlite3_stmt* stmt = nullptr;
  const int rc = sqlite3_prepare_v3(conn_, sql.c_str(),
                                    static_cast<int>(sql.size()) + 1, flags,
                                    &stmt, nullptr);
  if (rc != SQLITE_OK) return SqliteError(rc, conn_, StrCat("prepare: ", sql));
  return stmt;
}

StatusOr<sqlite3_stmt*> SqliteBackend::CachedStatement(
    const std::string& sql) {
  auto it = statement_index_.find(sql);
  if (it != statement_index_.end()) {
    statements_.splice(statements_.begin(), statements_, it->second);
    return it->second->stmt;
  }
  OREW_ASSIGN_OR_RETURN(sqlite3_stmt * stmt,
                        Prepare(sql, SQLITE_PREPARE_PERSISTENT));
  statements_.push_front(CachedStmt{sql, stmt});
  statement_index_.emplace(statements_.front().sql, statements_.begin());
  if (statements_.size() > kStatementCacheCapacity) {
    statement_index_.erase(statements_.back().sql);
    sqlite3_finalize(statements_.back().stmt);
    statements_.pop_back();
  }
  return stmt;
}

void SqliteBackend::ClearStatementCache() {
  statement_index_.clear();
  for (const CachedStmt& cached : statements_) sqlite3_finalize(cached.stmt);
  statements_.clear();
}

// The program fixes no schema here: only predicates with stored tuples get
// a table, and the rendering spells every other one as an empty relation.
Status SqliteBackend::Load(const TgdProgram& /*program*/,
                           std::shared_ptr<const Database> data) {
  const Database& db = *data;
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  loaded_ = false;
  ClearStatementCache();

  // Replace, don't merge: drop the previous schema entirely (a table's
  // indexes go with it).
  for (const auto& [p, table] : tables_) {
    OREW_RETURN_IF_ERROR(RunSql(StrCat("DROP TABLE IF EXISTS ", table, ";")));
  }
  tables_.clear();

  std::vector<PredicateId> predicates;
  for (PredicateId p : db.PredicatesPresent()) {
    if (db.Find(p)->size() > 0) predicates.push_back(p);
  }
  // Index names share the tables' namespace; pick a prefix no table name
  // starts with (CtePrefixFor does the same for CTE names).
  std::string index_prefix = "orw_idx_";
  for (int salt = 0;; ++salt) {
    const bool clash = std::any_of(
        predicates.begin(), predicates.end(), [&](PredicateId p) {
          return vocab_->PredicateName(p).starts_with(index_prefix);
        });
    if (!clash) break;
    index_prefix = StrCat("orw_idx", salt, "_");
  }

  OREW_RETURN_IF_ERROR(RunSql("BEGIN;"));
  Status status = Status::Ok();
  for (PredicateId p : predicates) {
    const Relation& relation = *db.Find(p);
    const int arity = relation.arity();
    std::string table = SqlIdentifier(vocab_->PredicateName(p));
    // A 0-ary predicate stores one sentinel column no query references.
    std::vector<std::string> columns;
    for (int j = 0; j < std::max(arity, 1); ++j) {
      columns.push_back(StrCat("c", arity == 0 ? 0 : j + 1));
    }
    std::vector<std::string> defs;
    std::vector<std::string> holes;
    for (const std::string& column : columns) {
      defs.push_back(StrCat(column, " INTEGER NOT NULL"));
      holes.push_back(arity == 0 ? "1" : "?");
    }
    status = RunSql(StrCat("CREATE TABLE ", table, " (", StrJoin(defs, ", "),
                           ", PRIMARY KEY (", StrJoin(columns, ", "),
                           ")) WITHOUT ROWID;"));
    if (!status.ok()) break;
    tables_.emplace(p, table);

    const std::string insert = StrCat("INSERT INTO ", table, " VALUES (",
                                      StrJoin(holes, ", "), ");");
    StatusOr<sqlite3_stmt*> stmt_or = Prepare(insert);
    if (!stmt_or.ok()) {
      status = stmt_or.status();
      break;
    }
    sqlite3_stmt* stmt = *stmt_or;
    StmtGuard guard(stmt);
    for (const Tuple& tuple : relation.tuples()) {
      for (int j = 0; j < arity; ++j) {
        const int rc = sqlite3_bind_int64(
            stmt, j + 1, EncodeCell(tuple[static_cast<std::size_t>(j)]));
        if (rc != SQLITE_OK) {
          status = SqliteError(rc, conn_, "bind");
          break;
        }
      }
      if (!status.ok()) break;
      // A failed step (busy included) ends the load; the surrounding
      // transaction rolls back, so it stays all-or-nothing.
      const int rc = sqlite3_step(stmt);
      if (rc != SQLITE_DONE) {
        status = SqliteError(rc, conn_, "insert step");
        break;
      }
      sqlite3_reset(stmt);
    }
    if (!status.ok()) break;
    // Indexes are built after the rows, in one sorted pass each.
    for (int j = 1; j < arity; ++j) {
      status = RunSql(StrCat("CREATE INDEX ", index_prefix, p, "_c", j + 1,
                             " ON ", table, " (c", j + 1, ");"));
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
  }
  // A sample of each index is enough for the planner's row estimates and
  // keeps ANALYZE from scanning large relations in full.
  if (status.ok()) status = RunSql("PRAGMA analysis_limit = 1000; ANALYZE;");
  if (!status.ok()) {
    (void)RunSql("ROLLBACK;");
    tables_.clear();
    return status;
  }
  OREW_RETURN_IF_ERROR(RunSql("COMMIT;"));
  loaded_ = true;
  return Status::Ok();
}

StatusOr<std::vector<Tuple>> SqliteBackend::Execute(
    const UnionOfCqs& ucq, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded_) {
    return FailedPreconditionError("SqliteBackend: Execute before Load");
  }
  OREW_RETURN_IF_ERROR(options.cancel.Check("sqlite.exec"));
  OREW_RETURN_IF_ERROR(CheckFaultPoint("backend.exec"));

  // An empty union would produce zero chunks below and silently return
  // zero rows; keep it an error, as UcqToSql reports for a whole union.
  OREW_RETURN_IF_ERROR(ucq.Validate());

  // SQLite refuses compound SELECTs wider than SQLITE_LIMIT_COMPOUND_SELECT
  // (500 by default) — a saturated union like university_q3's 1000
  // disjuncts cannot even be *prepared* as one statement. Oversized
  // unions are split into limit-sized chunks, each executed separately,
  // and the answer sets merged; the all-or-nothing contract holds because
  // any chunk failure discards everything.
  const int compound_limit =
      sqlite3_limit(conn_, SQLITE_LIMIT_COMPOUND_SELECT, -1);
  const int chunk_size =
      compound_limit > 0 ? compound_limit : ucq.size();

  TraceSpan emit_span(options.trace, "emit");
  std::vector<std::string> sqls;
  std::int64_t sql_bytes = 0;
  for (int start = 0; start < ucq.size(); start += chunk_size) {
    const auto first = ucq.disjuncts().begin() + start;
    const auto last = ucq.disjuncts().begin() +
                      std::min(start + chunk_size, ucq.size());
    StatusOr<std::string> sql_or =
        UcqToSql(UnionOfCqs(std::vector<ConjunctiveQuery>(first, last)),
                 *vocab_, rendering_);
    if (!sql_or.ok()) {
      emit_span.AnnotateStatus(sql_or.status());
      return sql_or.status();
    }
    sql_bytes += static_cast<std::int64_t>(sql_or->size());
    sqls.push_back(std::move(sql_or).value());
  }
  emit_span.Attr("sql_bytes", sql_bytes);
  emit_span.Attr("disjuncts",
                 static_cast<std::int64_t>(ucq.disjuncts().size()));
  if (sqls.size() > 1) {
    emit_span.Attr("chunks", static_cast<std::int64_t>(sqls.size()));
  }
  emit_span.End();

  if (sqls.size() == 1) return RunQuerySql(sqls[0], ucq.arity(), options, stats);
  std::vector<Tuple> answers;
  for (const std::string& sql : sqls) {
    OREW_ASSIGN_OR_RETURN(std::vector<Tuple> part,
                          RunQuerySql(sql, ucq.arity(), options, stats));
    answers.insert(answers.end(), part.begin(), part.end());
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

StatusOr<std::vector<Tuple>> SqliteBackend::ExecuteDatalog(
    const DatalogProgram& program, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_RETURN_IF_ERROR(open_status_);
  // Each CTE body and the top-level union is one compound SELECT, capped
  // by SQLITE_LIMIT_COMPOUND_SELECT. Factored programs stay far below the
  // default 500, but a pathological one falls back to the unfolded union,
  // which Execute chunks transparently.
  // The fallback call must happen with mutex_ released: it unfolds the
  // program and re-enters Execute, which locks the same non-recursive
  // mutex_ — returning from inside the guarded block would self-deadlock.
  bool fallback = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const int compound_limit =
        sqlite3_limit(conn_, SQLITE_LIMIT_COMPOUND_SELECT, -1);
    std::size_t widest = program.output.size();
    for (const DatalogAux& aux : program.aux) {
      widest = std::max(widest, aux.rules.size());
    }
    fallback = compound_limit > 0 &&
               widest > static_cast<std::size_t>(compound_limit);
  }
  if (fallback) return Backend::ExecuteDatalog(program, options, stats);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded_) {
    return FailedPreconditionError("SqliteBackend: ExecuteDatalog before "
                                   "Load");
  }
  OREW_RETURN_IF_ERROR(options.cancel.Check("sqlite.exec"));
  OREW_RETURN_IF_ERROR(CheckFaultPoint("backend.exec"));

  TraceSpan emit_span(options.trace, "emit");
  StatusOr<std::string> sql_or =
      DatalogToCteSql(program, *vocab_, rendering_);
  if (!sql_or.ok()) {
    emit_span.AnnotateStatus(sql_or.status());
    return sql_or.status();
  }
  std::string sql = std::move(sql_or).value();
  emit_span.Attr("sql_bytes", static_cast<std::int64_t>(sql.size()));
  emit_span.Attr("cte_count", static_cast<std::int64_t>(program.cte_count()));
  emit_span.Attr("rules", static_cast<std::int64_t>(program.total_rules()));
  emit_span.End();

  return RunQuerySql(sql, program.arity, options, stats);
}

StatusOr<std::vector<Tuple>> SqliteBackend::RunQuerySql(
    const std::string& sql, int arity, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_ASSIGN_OR_RETURN(sqlite3_stmt * stmt, CachedStatement(sql));
  StmtReset reset(stmt);
  ProgressGuard progress(conn_, options.cancel,
                         kProgressPollInstructions);

  TraceSpan scan_span(options.trace, "scan");
  if (scan_span.enabled()) {
    // Attach SQLite's own plan to the scan span, one "plan" attribute per
    // EXPLAIN QUERY PLAN row — the difference between "SCAN t" and
    // "SEARCH t USING INDEX" is exactly what a slow traced request needs.
    const std::string explain_sql = StrCat("EXPLAIN QUERY PLAN ", sql);
    sqlite3_stmt* plan = nullptr;
    if (sqlite3_prepare_v2(conn_, explain_sql.c_str(), -1, &plan, nullptr) ==
        SQLITE_OK) {
      StmtGuard plan_guard(plan);
      while (sqlite3_step(plan) == SQLITE_ROW) {
        const unsigned char* detail = sqlite3_column_text(plan, 3);
        scan_span.Attr(
            "plan",
            detail != nullptr ? reinterpret_cast<const char*>(detail) : "");
      }
    }
  }

  // Cells at or beyond this bound are not constants of the vocabulary.
  const std::int64_t num_constants = vocab_->num_constants();
  std::vector<Tuple> answers;
  std::int64_t rows_matched = 0;
  // An armed "backend.busy" fault trips exactly like a busy first step:
  // the same retryable Unavailable, with nothing stepped.
  if (!CheckFaultPoint("backend.busy").ok()) {
    Status busy = SqliteError(SQLITE_BUSY, nullptr, "step");
    scan_span.AnnotateStatus(busy);
    return busy;
  }
  for (;;) {
    const int rc = sqlite3_step(stmt);
    if (rc == SQLITE_DONE) break;
    if (rc == SQLITE_INTERRUPT) {
      Status tripped = options.cancel.Check("sqlite.exec");
      Status interrupted =
          tripped.ok() ? CancelledError("sqlite: statement interrupted")
                       : tripped;
      scan_span.AnnotateStatus(interrupted);
      return interrupted;
    }
    if (rc != SQLITE_ROW) {
      Status step_error = SqliteError(rc, conn_, "step");
      scan_span.AnnotateStatus(step_error);
      return step_error;
    }
    ++rows_matched;
    Tuple tuple;
    tuple.reserve(static_cast<std::size_t>(arity));
    bool has_null = false;
    for (int j = 0; j < arity; ++j) {
      const std::int64_t cell = sqlite3_column_int64(stmt, j);
      if (cell < 0) {
        has_null = true;
        tuple.push_back(Value::Null(static_cast<std::int32_t>(-(cell + 1))));
        continue;
      }
      if (cell >= num_constants) {
        Status unknown = InternalError(
            StrCat("sqlite: result cell ", cell,
                   " is not a constant id of the vocabulary"));
        scan_span.AnnotateStatus(unknown);
        return unknown;
      }
      tuple.push_back(Value::Constant(static_cast<ConstantId>(cell)));
    }
    if (has_null && options.drop_tuples_with_nulls) continue;
    answers.push_back(std::move(tuple));
  }
  if (stats != nullptr) stats->matches += rows_matched;
  const int fullscan_steps =
      sqlite3_stmt_status(stmt, SQLITE_STMTSTATUS_FULLSCAN_STEP, 1);
  if (stats != nullptr) stats->tuples_examined += fullscan_steps;

  // SQL's UNION already deduplicates; sort in Value order (and
  // deduplicate, for merged chunks) so the result is byte-identical to the
  // in-memory path.
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  scan_span.Attr("fullscan_steps", static_cast<std::int64_t>(fullscan_steps));
  scan_span.Attr("rows", static_cast<std::int64_t>(answers.size()));
  return answers;
}

StatusOr<std::int64_t> SqliteBackend::StoredTuples() {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [p, table] : tables_) {
    OREW_ASSIGN_OR_RETURN(
        sqlite3_stmt * stmt,
        Prepare(StrCat("SELECT COUNT(*) FROM ", table, ";")));
    StmtGuard guard(stmt);
    const int rc = sqlite3_step(stmt);
    if (rc != SQLITE_ROW) return SqliteError(rc, conn_, "count step");
    total += sqlite3_column_int64(stmt, 0);
  }
  return total;
}

std::size_t SqliteBackend::cached_statements() {
  std::lock_guard<std::mutex> lock(mutex_);
  return statements_.size();
}

Status SqliteBackend::SetCompoundSelectLimitForTest(int limit) {
  OREW_RETURN_IF_ERROR(open_status_);
  std::lock_guard<std::mutex> lock(mutex_);
  sqlite3_limit(conn_, SQLITE_LIMIT_COMPOUND_SELECT, limit);
  return Status::Ok();
}

}  // namespace ontorew
