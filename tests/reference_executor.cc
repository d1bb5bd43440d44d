// The pre-pipeline executor, kept as the oracle of the executor tests
// (see reference_executor.h).

#include "reference_executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace soda {

namespace {

// A tuple in flight: one row index per FROM entry (SIZE_MAX = not joined
// yet). Values are fetched lazily from the base tables, so wide
// intermediate results stay cheap.
using TupleIds = std::vector<size_t>;
constexpr size_t kUnset = static_cast<size_t>(-1);

// Resolved FROM entry.
struct FromEntry {
  std::string qualifier;  // alias or table name (original case)
  const Table* table = nullptr;
};

// Resolved column: which FROM entry, which column index.
struct ResolvedColumn {
  size_t from_index = 0;
  size_t column_index = 0;
};

class Evaluation {
 public:
  Evaluation(const Database* db, const SelectStatement& stmt)
      : db_(db), stmt_(stmt) {}

  Result<ResultSet> Run() {
    SODA_RETURN_NOT_OK(ResolveFrom());
    SODA_RETURN_NOT_OK(PartitionPredicates());
    SODA_RETURN_NOT_OK(JoinTables());
    SODA_RETURN_NOT_OK(ApplyFilters());
    if (!stmt_.group_by.empty() || stmt_.HasAggregates()) {
      return ProduceAggregated();
    }
    return ProduceProjected();
  }

 private:
  // ---- resolution -------------------------------------------------------

  Status ResolveFrom() {
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("FROM list is empty");
    }
    for (const auto& ref : stmt_.from) {
      const Table* t = db_->FindTable(ref.table);
      if (t == nullptr) {
        return Status::NotFound("unknown table '" + ref.table + "'");
      }
      std::string qualifier = ref.qualifier();
      for (const auto& existing : from_) {
        if (EqualsFolded(existing.qualifier, qualifier)) {
          return Status::InvalidArgument("duplicate table qualifier '" +
                                         qualifier + "'");
        }
      }
      from_.push_back(FromEntry{qualifier, t});
    }
    return Status::OK();
  }

  Result<ResolvedColumn> ResolveColumn(const ColumnRef& ref) const {
    if (!ref.table.empty()) {
      for (size_t i = 0; i < from_.size(); ++i) {
        if (EqualsFolded(from_[i].qualifier, ref.table) ||
            EqualsFolded(from_[i].table->name(), ref.table)) {
          int col = from_[i].table->ColumnIndex(ref.column);
          if (col < 0) {
            return Status::NotFound("table '" + ref.table +
                                    "' has no column '" + ref.column + "'");
          }
          return ResolvedColumn{i, static_cast<size_t>(col)};
        }
      }
      return Status::NotFound("unknown table qualifier '" + ref.table + "'");
    }
    // Unqualified: must resolve to exactly one table in scope.
    ResolvedColumn found;
    int hits = 0;
    for (size_t i = 0; i < from_.size(); ++i) {
      int col = from_[i].table->ColumnIndex(ref.column);
      if (col >= 0) {
        found = ResolvedColumn{i, static_cast<size_t>(col)};
        ++hits;
      }
    }
    if (hits == 0) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    if (hits > 1) {
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    }
    return found;
  }

  Value FetchColumn(const TupleIds& tuple, const ResolvedColumn& rc) const {
    size_t row = tuple[rc.from_index];
    if (row == kUnset) return Value::Null();
    return from_[rc.from_index].table->row(row)[rc.column_index];
  }

  // ---- predicate partitioning -------------------------------------------

  struct JoinCondition {
    ResolvedColumn left;
    ResolvedColumn right;
  };
  struct Filter {
    const Predicate* pred;
    // Resolved operands when the side is a column.
    std::optional<ResolvedColumn> lhs_col;
    std::optional<ResolvedColumn> rhs_col;
  };

  Status PartitionPredicates() {
    for (const auto& pred : stmt_.where) {
      bool both_columns = pred.lhs.kind == Expr::Kind::kColumn &&
                          pred.rhs.kind == Expr::Kind::kColumn;
      if (both_columns && pred.op == CompareOp::kEq) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn l, ResolveColumn(pred.lhs.column));
        SODA_ASSIGN_OR_RETURN(ResolvedColumn r, ResolveColumn(pred.rhs.column));
        if (l.from_index != r.from_index) {
          joins_.push_back(JoinCondition{l, r});
          continue;
        }
      }
      Filter f;
      f.pred = &pred;
      if (pred.lhs.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(pred.lhs.column));
        f.lhs_col = rc;
      } else if (pred.lhs.kind == Expr::Kind::kAggregate) {
        return Status::InvalidArgument("aggregates not allowed in WHERE");
      }
      if (pred.rhs.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(pred.rhs.column));
        f.rhs_col = rc;
      } else if (pred.rhs.kind == Expr::Kind::kAggregate) {
        return Status::InvalidArgument("aggregates not allowed in WHERE");
      }
      filters_.push_back(std::move(f));
    }
    return Status::OK();
  }

  // ---- joining -----------------------------------------------------------

  Status JoinTables() {
    std::vector<bool> joined(from_.size(), false);

    // Seed with the first FROM table.
    tuples_.clear();
    tuples_.reserve(from_[0].table->num_rows());
    for (size_t r = 0; r < from_[0].table->num_rows(); ++r) {
      TupleIds t(from_.size(), kUnset);
      t[0] = r;
      tuples_.push_back(std::move(t));
    }
    joined[0] = true;
    size_t joined_count = 1;

    std::vector<bool> join_used(joins_.size(), false);

    while (joined_count < from_.size()) {
      // Find the next table (FROM order) connected to the joined set.
      size_t next = kUnset;
      std::vector<size_t> applicable;  // indexes into joins_
      for (size_t candidate = 0; candidate < from_.size() && next == kUnset;
           ++candidate) {
        if (joined[candidate]) continue;
        applicable.clear();
        for (size_t j = 0; j < joins_.size(); ++j) {
          if (join_used[j]) continue;
          const auto& jc = joins_[j];
          bool connects =
              (jc.left.from_index == candidate &&
               joined[jc.right.from_index]) ||
              (jc.right.from_index == candidate && joined[jc.left.from_index]);
          if (connects) applicable.push_back(j);
        }
        if (!applicable.empty()) next = candidate;
      }

      if (next == kUnset) {
        // No connecting condition: cross product with the first unjoined
        // table (the paper's generator never emits this, but gold queries
        // and hand-written SQL may).
        for (size_t candidate = 0; candidate < from_.size(); ++candidate) {
          if (!joined[candidate]) {
            next = candidate;
            break;
          }
        }
        CrossJoin(next);
      } else {
        HashJoin(next, applicable, &join_used);
      }
      joined[next] = true;
      ++joined_count;
    }

    // Join conditions not consumed while connecting (e.g. a second edge
    // between two already-joined tables) become residual filters.
    for (size_t j = 0; j < joins_.size(); ++j) {
      if (!join_used[j]) residual_joins_.push_back(joins_[j]);
    }
    if (!residual_joins_.empty()) {
      std::vector<TupleIds> kept;
      kept.reserve(tuples_.size());
      for (auto& t : tuples_) {
        bool keep = true;
        for (const auto& jc : residual_joins_) {
          Value a = FetchColumn(t, jc.left);
          Value b = FetchColumn(t, jc.right);
          if (a.is_null() || b.is_null() || a.Compare(b) != 0) {
            keep = false;
            break;
          }
        }
        if (keep) kept.push_back(std::move(t));
      }
      tuples_ = std::move(kept);
    }
    return Status::OK();
  }

  void CrossJoin(size_t next) {
    const Table* t = from_[next].table;
    std::vector<TupleIds> out;
    out.reserve(tuples_.size() * std::max<size_t>(t->num_rows(), 1));
    for (const auto& tuple : tuples_) {
      for (size_t r = 0; r < t->num_rows(); ++r) {
        TupleIds extended = tuple;
        extended[next] = r;
        out.push_back(std::move(extended));
      }
    }
    tuples_ = std::move(out);
  }

  void HashJoin(size_t next, const std::vector<size_t>& applicable,
                std::vector<bool>* join_used) {
    const Table* t = from_[next].table;

    // Key columns on the new table side / on the existing side.
    std::vector<size_t> new_cols;
    std::vector<ResolvedColumn> old_cols;
    for (size_t j : applicable) {
      const auto& jc = joins_[j];
      if (jc.left.from_index == next) {
        new_cols.push_back(jc.left.column_index);
        old_cols.push_back(jc.right);
      } else {
        new_cols.push_back(jc.right.column_index);
        old_cols.push_back(jc.left);
      }
      (*join_used)[j] = true;
    }

    auto has_null = [](const std::vector<Value>& vals) {
      for (const auto& v : vals) {
        if (v.is_null()) return true;
      }
      return false;
    };

    // Build on the new table, keyed by value (Value::Compare order).
    std::map<std::vector<Value>, std::vector<size_t>> build;
    std::vector<Value> key_vals(new_cols.size());
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (size_t k = 0; k < new_cols.size(); ++k) {
        key_vals[k] = t->row(r)[new_cols[k]];
      }
      if (has_null(key_vals)) continue;  // NULL never joins
      build[key_vals].push_back(r);
    }

    // Probe with existing tuples.
    std::vector<TupleIds> out;
    out.reserve(tuples_.size());
    for (const auto& tuple : tuples_) {
      for (size_t k = 0; k < old_cols.size(); ++k) {
        key_vals[k] = FetchColumn(tuple, old_cols[k]);
      }
      if (has_null(key_vals)) continue;
      auto it = build.find(key_vals);
      if (it == build.end()) continue;
      for (size_t r : it->second) {
        TupleIds extended = tuple;
        extended[next] = r;
        out.push_back(std::move(extended));
      }
    }
    tuples_ = std::move(out);
  }

  // ---- filtering -----------------------------------------------------------

  static bool EvalCompare(const Value& a, CompareOp op, const Value& b) {
    if (op == CompareOp::kLike) {
      if (a.type() != ValueType::kString || b.type() != ValueType::kString) {
        return false;
      }
      return SqlLikeMatch(a.AsString(), b.AsString());
    }
    if (a.is_null() || b.is_null()) return false;  // SQL: NULL compares UNKNOWN
    int c = a.Compare(b);
    switch (op) {
      case CompareOp::kEq:
        return c == 0;
      case CompareOp::kNe:
        return c != 0;
      case CompareOp::kLt:
        return c < 0;
      case CompareOp::kLe:
        return c <= 0;
      case CompareOp::kGt:
        return c > 0;
      case CompareOp::kGe:
        return c >= 0;
      case CompareOp::kLike:
        return false;  // handled above
    }
    return false;
  }

  Status ApplyFilters() {
    if (filters_.empty()) return Status::OK();
    std::vector<TupleIds> kept;
    kept.reserve(tuples_.size());
    for (auto& tuple : tuples_) {
      bool keep = true;
      for (const auto& f : filters_) {
        Value lhs = f.lhs_col.has_value() ? FetchColumn(tuple, *f.lhs_col)
                                          : f.pred->lhs.literal;
        Value rhs = f.rhs_col.has_value() ? FetchColumn(tuple, *f.rhs_col)
                                          : f.pred->rhs.literal;
        if (!EvalCompare(lhs, f.pred->op, rhs)) {
          keep = false;
          break;
        }
      }
      if (keep) kept.push_back(std::move(tuple));
    }
    tuples_ = std::move(kept);
    return Status::OK();
  }

  // ---- output: flat projection ---------------------------------------------

  struct OutputSpec {
    std::vector<std::string> names;
    // One evaluator per output column; kUnset from_index means literal.
    std::vector<Expr> exprs;
    std::vector<std::optional<ResolvedColumn>> resolved;
  };

  Result<OutputSpec> BuildFlatOutput() {
    OutputSpec spec;
    if (stmt_.select_star()) {
      for (size_t i = 0; i < from_.size(); ++i) {
        const Table* t = from_[i].table;
        for (size_t c = 0; c < t->num_columns(); ++c) {
          spec.names.push_back(from_[i].qualifier + "." +
                               t->columns()[c].name);
          spec.exprs.push_back(Expr::MakeColumn(from_[i].qualifier,
                                                t->columns()[c].name));
          spec.resolved.push_back(ResolvedColumn{i, c});
        }
      }
      return spec;
    }
    for (const auto& item : stmt_.items) {
      if (item.expr.kind == Expr::Kind::kStar) {
        return Status::InvalidArgument("'*' must be the only select item");
      }
      spec.names.push_back(item.alias.empty() ? item.expr.ToString()
                                              : item.alias);
      spec.exprs.push_back(item.expr);
      if (item.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(item.expr.column));
        spec.resolved.push_back(rc);
      } else {
        spec.resolved.push_back(std::nullopt);
      }
    }
    return spec;
  }

  Result<ResultSet> ProduceProjected() {
    SODA_ASSIGN_OR_RETURN(OutputSpec spec, BuildFlatOutput());

    // Resolve order keys.
    std::vector<std::optional<ResolvedColumn>> order_cols;
    for (const auto& o : stmt_.order_by) {
      if (o.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.expr.column));
        order_cols.push_back(rc);
      } else if (o.expr.kind == Expr::Kind::kLiteral) {
        order_cols.push_back(std::nullopt);
      } else {
        return Status::InvalidArgument(
            "aggregate in ORDER BY requires GROUP BY");
      }
    }

    // Sort tuple ids first, then project (stable & cheap).
    if (!stmt_.order_by.empty()) {
      std::stable_sort(
          tuples_.begin(), tuples_.end(),
          [&](const TupleIds& a, const TupleIds& b) {
            for (size_t k = 0; k < order_cols.size(); ++k) {
              Value va = order_cols[k] ? FetchColumn(a, *order_cols[k])
                                       : stmt_.order_by[k].expr.literal;
              Value vb = order_cols[k] ? FetchColumn(b, *order_cols[k])
                                       : stmt_.order_by[k].expr.literal;
              int c = va.Compare(vb);
              if (c != 0) return stmt_.order_by[k].descending ? c > 0 : c < 0;
            }
            return false;
          });
    }

    ResultSet rs;
    rs.column_names = spec.names;
    rs.rows.reserve(tuples_.size());
    for (const auto& tuple : tuples_) {
      std::vector<Value> row;
      row.reserve(spec.exprs.size());
      for (size_t c = 0; c < spec.exprs.size(); ++c) {
        if (spec.resolved[c].has_value()) {
          row.push_back(FetchColumn(tuple, *spec.resolved[c]));
        } else {
          row.push_back(spec.exprs[c].literal);
        }
      }
      rs.rows.push_back(std::move(row));
    }
    ApplyDistinctAndLimit(&rs);
    return rs;
  }

  // ---- output: aggregation --------------------------------------------------

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool sum_valid = false;
    Value min, max;
    std::set<Value> distinct_seen;  // only used for DISTINCT aggs
  };

  Result<ResultSet> ProduceAggregated() {
    // Resolve group-by keys.
    std::vector<ResolvedColumn> group_cols;
    for (const auto& g : stmt_.group_by) {
      SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(g));
      group_cols.push_back(rc);
    }

    // Collect every aggregate expression mentioned in SELECT or ORDER BY.
    std::vector<Expr> aggs;
    auto intern_agg = [&](const Expr& e) -> size_t {
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (aggs[i] == e) return i;
      }
      aggs.push_back(e);
      return aggs.size() - 1;
    };
    // Validate select items: each is an aggregate or a grouped column.
    struct OutCol {
      bool is_agg;
      size_t agg_index = 0;          // when is_agg
      ResolvedColumn group_col{};    // when !is_agg
      std::string name;
    };
    std::vector<OutCol> out_cols;
    if (stmt_.select_star()) {
      return Status::InvalidArgument("SELECT * cannot be combined with "
                                     "GROUP BY / aggregates");
    }
    for (const auto& item : stmt_.items) {
      OutCol oc;
      oc.name = item.alias.empty() ? item.expr.ToString() : item.alias;
      if (item.expr.is_aggregate()) {
        oc.is_agg = true;
        oc.agg_index = intern_agg(item.expr);
      } else if (item.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(item.expr.column));
        bool grouped = false;
        for (const auto& gc : group_cols) {
          if (gc.from_index == rc.from_index &&
              gc.column_index == rc.column_index) {
            grouped = true;
            break;
          }
        }
        if (!grouped) {
          return Status::InvalidArgument(
              "column '" + item.expr.column.ToString() +
              "' must appear in GROUP BY");
        }
        oc.is_agg = false;
        oc.group_col = rc;
      } else {
        return Status::InvalidArgument(
            "literal select items not supported with GROUP BY");
      }
      out_cols.push_back(std::move(oc));
    }

    struct OrderKey {
      bool is_agg;
      size_t agg_index = 0;
      ResolvedColumn group_col{};
      bool descending;
    };
    std::vector<OrderKey> order_keys;
    for (const auto& o : stmt_.order_by) {
      OrderKey k;
      k.descending = o.descending;
      if (o.expr.is_aggregate()) {
        k.is_agg = true;
        k.agg_index = intern_agg(o.expr);
      } else if (o.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.expr.column));
        k.is_agg = false;
        k.group_col = rc;
      } else {
        return Status::InvalidArgument("unsupported ORDER BY expression");
      }
      order_keys.push_back(k);
    }

    // Resolve aggregate arguments.
    std::vector<std::optional<ResolvedColumn>> agg_args(aggs.size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (!aggs[i].agg_star) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                              ResolveColumn(aggs[i].column));
        agg_args[i] = rc;
      }
    }

    // Group.
    struct Group {
      std::vector<Value> key_values;
      TupleIds representative;
      std::vector<AggState> states;
    };
    std::map<std::vector<Value>, Group> groups;
    for (const auto& tuple : tuples_) {
      std::vector<Value> key_values;
      key_values.reserve(group_cols.size());
      for (const auto& gc : group_cols) {
        key_values.push_back(FetchColumn(tuple, gc));
      }
      auto [it, inserted] = groups.try_emplace(key_values);
      Group& g = it->second;
      if (inserted) {
        g.key_values = std::move(key_values);
        g.representative = tuple;
        g.states.resize(aggs.size());
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        AggState& st = g.states[i];
        if (aggs[i].agg_star) {
          ++st.count;
          continue;
        }
        Value v = FetchColumn(tuple, *agg_args[i]);
        if (v.is_null()) continue;
        if (aggs[i].agg_distinct &&
            !st.distinct_seen.insert(v).second) {
          continue;  // DISTINCT: this value was already aggregated
        }
        ++st.count;
        if (v.IsNumeric()) {
          st.sum += v.NumericValue();
          st.sum_valid = true;
        }
        if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
        if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
      }
    }
    // Aggregate query with no GROUP BY over an empty input still yields one
    // row (COUNT(*) = 0), per SQL semantics.
    if (groups.empty() && group_cols.empty()) {
      Group g;
      g.states.resize(aggs.size());
      g.representative.assign(from_.size(), kUnset);
      groups.emplace(std::vector<Value>{}, std::move(g));
    }
    // Groups are emitted ascending by their rendered key, ties (values
    // that render alike) in Value::Compare order.
    std::vector<Group*> ordered;
    std::vector<std::string> rendered;
    for (auto& [key_values, g] : groups) {
      std::string key;
      for (const Value& v : key_values) {
        key += v.ToSqlLiteral();
        key += '\x1f';
      }
      ordered.push_back(&g);
      rendered.push_back(std::move(key));
    }
    std::vector<size_t> by_key(ordered.size());
    for (size_t i = 0; i < by_key.size(); ++i) by_key[i] = i;
    std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
      return rendered[a] < rendered[b];
    });

    auto finalize = [](const Expr& agg, const AggState& st) -> Value {
      switch (agg.agg) {
        case AggFunc::kCount:
          return Value::Int(st.count);
        case AggFunc::kSum:
          if (st.count == 0 || !st.sum_valid) return Value::Null();
          return Value::Real(st.sum);
        case AggFunc::kAvg:
          if (st.count == 0 || !st.sum_valid) return Value::Null();
          return Value::Real(st.sum / static_cast<double>(st.count));
        case AggFunc::kMin:
          return st.min;
        case AggFunc::kMax:
          return st.max;
      }
      return Value::Null();
    };

    // Produce one output row per group plus its order keys.
    struct OutRow {
      std::vector<Value> cells;
      std::vector<Value> order_values;
    };
    std::vector<OutRow> out_rows;
    out_rows.reserve(groups.size());
    for (size_t i : by_key) {
      Group& g = *ordered[i];
      OutRow row;
      for (const auto& oc : out_cols) {
        if (oc.is_agg) {
          row.cells.push_back(finalize(aggs[oc.agg_index],
                                       g.states[oc.agg_index]));
        } else {
          row.cells.push_back(FetchColumn(g.representative, oc.group_col));
        }
      }
      for (const auto& k : order_keys) {
        if (k.is_agg) {
          row.order_values.push_back(
              finalize(aggs[k.agg_index], g.states[k.agg_index]));
        } else {
          row.order_values.push_back(
              FetchColumn(g.representative, k.group_col));
        }
      }
      out_rows.push_back(std::move(row));
    }

    if (!order_keys.empty()) {
      std::stable_sort(out_rows.begin(), out_rows.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t k = 0; k < order_keys.size(); ++k) {
                           int c = a.order_values[k].Compare(b.order_values[k]);
                           if (c != 0) {
                             return order_keys[k].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }

    ResultSet rs;
    for (const auto& oc : out_cols) rs.column_names.push_back(oc.name);
    rs.rows.reserve(out_rows.size());
    for (auto& r : out_rows) rs.rows.push_back(std::move(r.cells));
    ApplyDistinctAndLimit(&rs);
    return rs;
  }

  void ApplyDistinctAndLimit(ResultSet* rs) const {
    if (stmt_.distinct) {
      std::vector<std::vector<Value>> unique;
      std::set<std::vector<Value>> seen;
      unique.reserve(rs->rows.size());
      for (auto& row : rs->rows) {
        if (!seen.insert(row).second) continue;
        unique.push_back(std::move(row));
      }
      rs->rows = std::move(unique);
    }
    if (stmt_.limit.has_value() &&
        rs->rows.size() > static_cast<size_t>(*stmt_.limit)) {
      rs->rows.resize(static_cast<size_t>(*stmt_.limit));
    }
  }

  const Database* db_;
  const SelectStatement& stmt_;
  std::vector<FromEntry> from_;
  std::vector<JoinCondition> joins_;
  std::vector<JoinCondition> residual_joins_;
  std::vector<Filter> filters_;
  std::vector<TupleIds> tuples_;
};

}  // namespace

Result<ResultSet> ReferenceExecutor::Execute(const SelectStatement& stmt,
                                             ExecStats* stats) const {
  Evaluation eval(db_, stmt);
  Result<ResultSet> rs = eval.Run();
  if (stats != nullptr && rs.ok()) {
    stats->rows_output = rs->rows.size();
    stats->tables = stmt.from.size();
  }
  return rs;
}

Result<ResultSet> ReferenceExecutor::ExecuteSql(std::string_view sql) const {
  SODA_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return Execute(stmt);
}

}  // namespace soda
