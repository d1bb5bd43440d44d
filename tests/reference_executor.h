// ReferenceExecutor — the materializing SQL evaluator kept as a test
// oracle for sql/executor.
//
// It is the executor as it was before the pipelined evaluator replaced
// it: hash-join the whole FROM list left-deep, then filter every tuple,
// then group, sort, project, apply DISTINCT and cut at LIMIT. Slow but
// obviously in step with SQL semantics, which is what an oracle is for.
// The code is a verbatim copy with one deliberate edit: join keys,
// GROUP BY, DISTINCT and COUNT(DISTINCT) compare values with
// Value::Compare instead of their rendered SQL literals, matching the
// fixed production executor. It lives under tests/ only; nothing in the
// library links it.

#ifndef SODA_TESTS_REFERENCE_EXECUTOR_H_
#define SODA_TESTS_REFERENCE_EXECUTOR_H_

#include <string_view>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "sql/result_set.h"
#include "storage/table.h"

namespace soda {

class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const Database* db) : db_(db) {}

  /// Runs `stmt` and materializes the full result. `stats` (optional)
  /// receives rows_output and tables on success; the work counters stay
  /// zero.
  Result<ResultSet> Execute(const SelectStatement& stmt,
                            ExecStats* stats = nullptr) const;

  /// Convenience: parse + execute.
  Result<ResultSet> ExecuteSql(std::string_view sql) const;

 private:
  const Database* db_;
};

}  // namespace soda

#endif  // SODA_TESTS_REFERENCE_EXECUTOR_H_
