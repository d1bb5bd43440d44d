// Execution of the SODA SQL subset against the in-memory catalog.
//
// The executor is a pipelined, order-preserving evaluator built for
// result snippets (the paper shows each interpretation as at most twenty
// tuples):
//   1. resolution: FROM entries, WHERE columns and the output spec are
//      resolved before any row is read, so every error surfaces first;
//   2. a static join plan: seed from the first FROM table, then bind the
//      first table in FROM order that an unused equi-join connects to
//      the bound set (a cross product only when none does). The plan
//      depends on the statement alone, never on the data;
//   3. predicate pushdown: a single-table filter runs as its table is
//      scanned or its hash side built; a multi-table filter runs at the
//      first step that binds all of its tables;
//   4. a depth-first walk over the plan: hash sides are built lazily on
//      first probe over the filtered rows, keyed by value, and every
//      step visits its rows in ascending row order — so tuples stream
//      out in exactly the order a materialized left-deep join yields;
//   5. the consumer: projection with DISTINCT, which stops the walk once
//      LIMIT rows are out unless the statement orders, groups or
//      aggregates; otherwise a stable ORDER BY sort or grouping
//      and aggregation (COUNT/SUM/AVG/MIN/MAX) over the stream.
//
// Equality everywhere — join keys, GROUP BY, DISTINCT, COUNT(DISTINCT)
// and the WHERE comparisons — is Value::Compare() == 0 (NULL never
// joins; NULL compares UNKNOWN in WHERE).
//
// Its role in the reproduction is the role Oracle played in the paper: run
// the generated statements and the gold standard and hand back tuple sets.

#ifndef SODA_SQL_EXECUTOR_H_
#define SODA_SQL_EXECUTOR_H_

#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "storage/table.h"

namespace soda {

/// Per-statement execution statistics. The engine's snippet path feeds
/// these into its MetricsSink ("executor.rows" / "executor.tables" /
/// "executor.rows_scanned" distributions) to make runaway generated
/// statements — the paper's cross-product candidates — visible at the
/// fleet level. Every field is deterministic for a given statement and
/// database.
struct ExecStats {
  size_t rows_output = 0;     // rows of the returned result
  size_t tables = 0;          // FROM entries the statement touched
  size_t rows_scanned = 0;    // base rows read by scans and hash builds
  size_t tuples_emitted = 0;  // joined tuples that passed every predicate
  bool early_stopped = false;  // the walk stopped once LIMIT rows were out
};

/// Stateless query executor bound to a catalog. Execute/ExecuteSql are
/// const and keep all evaluation state on the stack, so one Executor is
/// safe to share across threads — the SodaEngine runs concurrent snippet
/// execution through a single instance.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Runs `stmt` and materializes the full result. `stats` (optional)
  /// receives execution statistics on success.
  Result<ResultSet> Execute(const SelectStatement& stmt,
                            ExecStats* stats = nullptr) const;

  /// Convenience: parse + execute.
  Result<ResultSet> ExecuteSql(std::string_view sql) const;

 private:
  const Database* db_;
};

/// SQL LIKE pattern matching ('%' multi-char wildcard, '_' single char).
/// Exposed for tests.
bool SqlLikeMatch(const std::string& text, const std::string& pattern);

}  // namespace soda

#endif  // SODA_SQL_EXECUTOR_H_
