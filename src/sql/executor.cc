#include "sql/executor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace soda {

namespace {

// A tuple in flight: one row id per FROM entry (kUnset = not bound).
// Cells are read from the base tables by reference, on demand.
using RowId = uint32_t;
constexpr RowId kUnset = static_cast<RowId>(-1);
constexpr size_t kNone = static_cast<size_t>(-1);

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

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

// Folds one value hash into a running tuple hash.
size_t MixHash(size_t seed, size_t hash) {
  uint64_t x = (static_cast<uint64_t>(seed) ^ hash) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(x ^ (x >> 29));
}

// Dense ids for the distinct value tuples of a fixed width, under
// Value::Compare() == 0 equality. A probe reads its values through
// `at(i)`, so a lookup that finds its tuple copies nothing.
class TupleSet {
 public:
  explicit TupleSet(size_t width) : width_(width) {}

  // The id of the tuple equal to (at(0), ..., at(width - 1)), interning
  // a copy when it is new; `.second` is true on insertion.
  template <typename At>
  std::pair<size_t, bool> Intern(At at) {
    size_t hash = 0;
    for (size_t i = 0; i < width_; ++i) hash = MixHash(hash, at(i).Hash());
    auto [lo, hi] = ids_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      size_t i = 0;
      while (i < width_ && value(it->second, i).Compare(at(i)) == 0) ++i;
      if (i == width_) return {it->second, false};
    }
    for (size_t i = 0; i < width_; ++i) values_.push_back(at(i));
    ids_.emplace(hash, size_);
    return {size_++, true};
  }

  size_t size() const { return size_; }
  const Value& value(size_t id, size_t i) const {
    return values_[id * width_ + i];
  }

 private:
  size_t width_;
  size_t size_ = 0;
  std::vector<Value> values_;                    // width_ per tuple
  std::unordered_multimap<size_t, size_t> ids_;  // tuple hash -> id
};

bool EvalCompare(const Value& a, CompareOp op, const Value& b) {
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

class Evaluation {
 public:
  Evaluation(const Database* db, const SelectStatement& stmt)
      : db_(db), stmt_(stmt) {}

  // Resolves everything the statement names before a row is read, so
  // every error surfaces first; then plans and runs.
  Result<ResultSet> Run() {
    SODA_RETURN_NOT_OK(ResolveFrom());
    SODA_RETURN_NOT_OK(PartitionPredicates());
    if (!stmt_.group_by.empty() || stmt_.HasAggregates()) {
      SODA_ASSIGN_OR_RETURN(AggregateSpec spec, BuildAggregateSpec());
      Plan();
      return ProduceAggregated(spec);
    }
    SODA_ASSIGN_OR_RETURN(OutputSpec spec, BuildFlatOutput());
    Plan();
    return ProduceProjected(spec);
  }

  const ExecStats& stats() const { return stats_; }

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

  const Value& Cell(const RowId* tuple, const ResolvedColumn& rc) const {
    RowId row = tuple[rc.from_index];
    if (row == kUnset) return NullValue();
    return from_[rc.from_index].table->row(row)[rc.column_index];
  }

  // ---- predicate partitioning -------------------------------------------

  struct JoinCondition {
    ResolvedColumn left;
    ResolvedColumn right;
  };
  // A WHERE conjunct evaluated per tuple: a filter, or an equi-join left
  // over once its tables were already connected.
  struct Filter {
    CompareOp op = CompareOp::kEq;
    std::optional<ResolvedColumn> lhs_col;  // else *lhs_literal
    std::optional<ResolvedColumn> rhs_col;  // else *rhs_literal
    const Value* lhs_literal = nullptr;
    const Value* rhs_literal = nullptr;
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
      f.op = pred.op;
      f.lhs_literal = &pred.lhs.literal;
      f.rhs_literal = &pred.rhs.literal;
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
      filters_.push_back(f);
    }
    return Status::OK();
  }

  const Value& Operand(const std::optional<ResolvedColumn>& col,
                       const Value* literal) const {
    return col.has_value() ? Cell(tuple_.data(), *col) : *literal;
  }

  bool Passes(const Filter& f) const {
    return EvalCompare(Operand(f.lhs_col, f.lhs_literal), f.op,
                       Operand(f.rhs_col, f.rhs_literal));
  }

  // Single-table filters of `table` against its row in tuple_.
  bool PassesTableFilters(size_t table) const {
    for (const Filter* f : table_filters_[table]) {
      if (!Passes(*f)) return false;
    }
    return true;
  }

  // ---- join planning ------------------------------------------------------

  // One step of the plan binds one FROM entry: by a scan (the seed, or a
  // cross product) when `build_cols` is empty, else by hash lookup. The
  // access state is built on the step's first visit.
  struct Step {
    size_t table = 0;
    std::vector<size_t> build_cols;          // key columns of `table`
    std::vector<ResolvedColumn> probe_cols;  // the same keys, bound side
    std::vector<const Filter*> checks;       // complete once `table` binds
    bool ready = false;
    // Cross product: the filtered rows. Hash side: the filtered rows
    // with non-NULL keys, grouped by bucket, ascending within a bucket.
    std::vector<RowId> rows;
    std::vector<size_t> hashes;   // hash side: key hash per entry of rows
    std::vector<size_t> offsets;  // hash side: bucket b holds
                                  // rows[offsets[b], offsets[b + 1])
    size_t mask = 0;
    std::vector<const Value*> probe;  // the current probe key
  };

  // The join sequence depends on the statement only: seed with FROM[0],
  // then bind the first table in FROM order that an unused equi-join
  // connects to the bound set, consuming every such join as a hash key;
  // when none connects, cross the first unbound table. The output order
  // of the walk is lexicographic over row ids in this sequence, which is
  // why the sequence must never adapt to the data.
  void Plan() {
    const size_t n = from_.size();
    tuple_.assign(n, kUnset);
    std::vector<bool> bound(n, false);
    std::vector<bool> join_used(joins_.size(), false);
    std::vector<size_t> step_of(n, 0);
    steps_.resize(1);
    bound[0] = true;
    std::vector<size_t> applicable;  // indexes into joins_
    while (steps_.size() < n) {
      size_t next = kNone;
      for (size_t candidate = 0; candidate < n && next == kNone;
           ++candidate) {
        if (bound[candidate]) continue;
        applicable.clear();
        for (size_t j = 0; j < joins_.size(); ++j) {
          if (join_used[j]) continue;
          const auto& jc = joins_[j];
          bool connects =
              (jc.left.from_index == candidate && bound[jc.right.from_index]) ||
              (jc.right.from_index == candidate && bound[jc.left.from_index]);
          if (connects) applicable.push_back(j);
        }
        if (!applicable.empty()) next = candidate;
      }
      if (next == kNone) {
        // No connecting condition: cross product with the first unbound
        // table (the paper's generator never emits this, but gold
        // queries and hand-written SQL may).
        applicable.clear();
        next = static_cast<size_t>(
            std::find(bound.begin(), bound.end(), false) - bound.begin());
      }
      Step step;
      step.table = next;
      for (size_t j : applicable) {
        const auto& jc = joins_[j];
        bool left_is_new = jc.left.from_index == next;
        step.build_cols.push_back(left_is_new ? jc.left.column_index
                                              : jc.right.column_index);
        step.probe_cols.push_back(left_is_new ? jc.right : jc.left);
        join_used[j] = true;
      }
      step.probe.resize(step.probe_cols.size());
      bound[next] = true;
      step_of[next] = steps_.size();
      steps_.push_back(std::move(step));
    }

    // Joins not consumed while connecting become filters.
    for (size_t j = 0; j < joins_.size(); ++j) {
      if (join_used[j]) continue;
      Filter f;
      f.lhs_col = joins_[j].left;
      f.rhs_col = joins_[j].right;
      filters_.push_back(f);
    }
    // Push each filter to where its tables are first all bound.
    table_filters_.resize(n);
    for (const Filter& f : filters_) {
      if (!f.lhs_col.has_value() && !f.rhs_col.has_value()) {
        if (!Passes(f)) never_ = true;
        continue;
      }
      size_t a = f.lhs_col ? f.lhs_col->from_index : f.rhs_col->from_index;
      size_t b = f.rhs_col ? f.rhs_col->from_index : a;
      if (a == b) {
        table_filters_[a].push_back(&f);
      } else {
        steps_[std::max(step_of[a], step_of[b])].checks.push_back(&f);
      }
    }
  }

  // ---- the walk -----------------------------------------------------------

  // First visit of a cross or hash step: one pass over its table, with
  // the table's own filters applied.
  void Prepare(Step* step) {
    step->ready = true;
    const Table* t = from_[step->table].table;
    const size_t num_rows = t->num_rows();
    stats_.rows_scanned += num_rows;
    RowId& slot = tuple_[step->table];  // not bound yet at this step
    if (step->build_cols.empty()) {
      for (RowId r = 0; r < num_rows; ++r) {
        slot = r;
        if (PassesTableFilters(step->table)) step->rows.push_back(r);
      }
      return;
    }
    std::vector<std::pair<size_t, RowId>> keyed;
    for (RowId r = 0; r < num_rows; ++r) {
      slot = r;
      if (!PassesTableFilters(step->table)) continue;
      const Row& row = t->row(r);
      size_t hash = 0;
      bool null_key = false;
      for (size_t col : step->build_cols) {
        null_key = null_key || row[col].is_null();  // NULL never joins
        hash = MixHash(hash, row[col].Hash());
      }
      if (!null_key) keyed.emplace_back(hash, r);
    }
    const size_t buckets =
        std::bit_ceil(std::max<size_t>(1, 2 * keyed.size()));
    step->mask = buckets - 1;
    step->offsets.assign(buckets + 1, 0);
    for (const auto& [hash, r] : keyed) {
      ++step->offsets[(hash & step->mask) + 1];
    }
    std::partial_sum(step->offsets.begin(), step->offsets.end(),
                     step->offsets.begin());
    std::vector<size_t> fill(step->offsets.begin(), step->offsets.end() - 1);
    step->rows.resize(keyed.size());
    step->hashes.resize(keyed.size());
    for (const auto& [hash, r] : keyed) {
      size_t at = fill[hash & step->mask]++;
      step->rows[at] = r;
      step->hashes[at] = hash;
    }
  }

  // Depth-first over the plan from step `s`. Every step visits its rows
  // in ascending row order, so full tuples reach `sink` in the order a
  // materialized left-deep join over the same steps would list them.
  // Returns false once the sink asks to stop.
  template <typename Sink>
  bool Walk(size_t s, Sink& sink) {
    if (s == steps_.size()) {
      ++stats_.tuples_emitted;
      return sink(tuple_.data());
    }
    Step& step = steps_[s];
    const size_t table = step.table;
    auto bind = [&](RowId r) {
      tuple_[table] = r;
      for (const Filter* f : step.checks) {
        if (!Passes(*f)) return true;
      }
      return Walk(s + 1, sink);
    };
    if (s == 0) {
      // The seed scan streams, so a walk cut at LIMIT reads no further.
      const size_t num_rows = from_[table].table->num_rows();
      for (RowId r = 0; r < num_rows; ++r) {
        ++stats_.rows_scanned;
        tuple_[table] = r;
        if (PassesTableFilters(table) && !bind(r)) return false;
      }
      return true;
    }
    if (!step.ready) Prepare(&step);
    if (step.build_cols.empty()) {
      for (RowId r : step.rows) {
        if (!bind(r)) return false;
      }
      return true;
    }
    size_t hash = 0;
    for (size_t k = 0; k < step.probe_cols.size(); ++k) {
      const Value& v = Cell(tuple_.data(), step.probe_cols[k]);
      if (v.is_null()) return true;  // NULL never joins
      step.probe[k] = &v;
      hash = MixHash(hash, v.Hash());
    }
    const Table* t = from_[table].table;
    const size_t bucket = hash & step.mask;
    for (size_t i = step.offsets[bucket]; i < step.offsets[bucket + 1]; ++i) {
      if (step.hashes[i] != hash) continue;
      const Row& row = t->row(step.rows[i]);
      size_t k = 0;
      while (k < step.build_cols.size() &&
             row[step.build_cols[k]].Compare(*step.probe[k]) == 0) {
        ++k;
      }
      if (k == step.build_cols.size() && !bind(step.rows[i])) return false;
    }
    return true;
  }

  // Runs the walk unless a constant predicate already rejected every
  // tuple; returns false when the sink stopped it.
  template <typename Sink>
  bool WalkAll(Sink& sink) {
    return never_ || Walk(0, sink);
  }

  // ---- output: flat projection ---------------------------------------------

  struct OutputSpec {
    std::vector<std::string> names;
    std::vector<std::optional<ResolvedColumn>> resolved;  // column items
    std::vector<const Value*> literals;                   // other items
    std::vector<std::optional<ResolvedColumn>> order;     // none: literal
  };

  Result<OutputSpec> BuildFlatOutput() const {
    OutputSpec spec;
    if (stmt_.select_star()) {
      for (size_t i = 0; i < from_.size(); ++i) {
        const Table* t = from_[i].table;
        for (size_t c = 0; c < t->num_columns(); ++c) {
          spec.names.push_back(from_[i].qualifier + "." +
                               t->columns()[c].name);
          spec.resolved.push_back(ResolvedColumn{i, c});
          spec.literals.push_back(nullptr);
        }
      }
    } else {
      for (const auto& item : stmt_.items) {
        if (item.expr.kind == Expr::Kind::kStar) {
          return Status::InvalidArgument("'*' must be the only select item");
        }
        spec.names.push_back(item.alias.empty() ? item.expr.ToString()
                                                : item.alias);
        spec.literals.push_back(&item.expr.literal);
        if (item.expr.kind == Expr::Kind::kColumn) {
          SODA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                                ResolveColumn(item.expr.column));
          spec.resolved.push_back(rc);
        } else {
          spec.resolved.push_back(std::nullopt);
        }
      }
    }
    for (const auto& o : stmt_.order_by) {
      if (o.expr.kind == Expr::Kind::kColumn) {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.expr.column));
        spec.order.push_back(rc);
      } else if (o.expr.kind == Expr::Kind::kLiteral) {
        spec.order.push_back(std::nullopt);  // a constant key never orders
      } else {
        return Status::InvalidArgument(
            "aggregate in ORDER BY requires GROUP BY");
      }
    }
    return spec;
  }

  Result<ResultSet> ProduceProjected(const OutputSpec& spec) {
    ResultSet rs;
    rs.column_names = spec.names;
    const size_t width = spec.names.size();
    const bool limited = stmt_.limit.has_value() && *stmt_.limit >= 0;
    const size_t limit = limited ? static_cast<size_t>(*stmt_.limit) : 0;
    if (limited && limit == 0) {
      stats_.early_stopped = true;
      return rs;
    }
    TupleSet seen(width);  // DISTINCT
    // Appends the output row of `tuple`; false once LIMIT rows are out.
    auto emit = [&](const RowId* tuple) {
      auto cell = [&](size_t c) -> const Value& {
        return spec.resolved[c] ? Cell(tuple, *spec.resolved[c])
                                : *spec.literals[c];
      };
      if (stmt_.distinct && !seen.Intern(cell).second) return true;
      std::vector<Value> row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) row.push_back(cell(c));
      rs.rows.push_back(std::move(row));
      return !limited || rs.rows.size() < limit;
    };
    if (spec.order.empty()) {
      stats_.early_stopped = !WalkAll(emit);
      return rs;
    }

    // ORDER BY: collect the stream with its sort keys, order it, emit.
    std::vector<size_t> key_items;  // the ORDER BY items that are columns
    for (size_t k = 0; k < spec.order.size(); ++k) {
      if (spec.order[k].has_value()) key_items.push_back(k);
    }
    const size_t n = from_.size();
    const size_t nk = key_items.size();
    std::vector<RowId> ids;          // n per tuple, in stream order
    std::vector<const Value*> keys;  // nk per tuple
    auto collect = [&](const RowId* tuple) {
      ids.insert(ids.end(), tuple, tuple + n);
      for (size_t k : key_items) keys.push_back(&Cell(tuple, *spec.order[k]));
      return true;
    };
    WalkAll(collect);
    std::vector<size_t> order(ids.size() / n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t j = 0; j < nk; ++j) {
        int c = keys[a * nk + j]->Compare(*keys[b * nk + j]);
        if (c != 0) {
          return stmt_.order_by[key_items[j]].descending ? c > 0 : c < 0;
        }
      }
      return false;
    });
    for (size_t i : order) {
      if (!emit(&ids[i * n])) break;
    }
    return rs;
  }

  // ---- output: aggregation --------------------------------------------------

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool sum_valid = false;
    Value min, max;
    TupleSet distinct_seen{1};  // only used for DISTINCT aggs
  };
  struct OutCol {
    bool is_agg;
    size_t agg_index = 0;        // when is_agg
    ResolvedColumn group_col{};  // when !is_agg
    std::string name;
  };
  struct OrderKey {
    bool is_agg;
    size_t agg_index = 0;
    ResolvedColumn group_col{};
    bool descending;
  };
  struct AggregateSpec {
    std::vector<ResolvedColumn> group_cols;
    std::vector<Expr> aggs;  // every aggregate of SELECT and ORDER BY
    std::vector<std::optional<ResolvedColumn>> agg_args;  // none: COUNT(*)
    std::vector<OutCol> out_cols;
    std::vector<OrderKey> order_keys;
  };

  Result<AggregateSpec> BuildAggregateSpec() const {
    AggregateSpec spec;
    for (const auto& g : stmt_.group_by) {
      SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(g));
      spec.group_cols.push_back(rc);
    }
    auto intern_agg = [&](const Expr& e) -> size_t {
      for (size_t i = 0; i < spec.aggs.size(); ++i) {
        if (spec.aggs[i] == e) return i;
      }
      spec.aggs.push_back(e);
      return spec.aggs.size() - 1;
    };
    // Validate select items: each is an aggregate or a grouped column.
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
        for (const auto& gc : spec.group_cols) {
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
      spec.out_cols.push_back(std::move(oc));
    }
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
      spec.order_keys.push_back(k);
    }
    for (const Expr& agg : spec.aggs) {
      if (agg.agg_star) {
        spec.agg_args.push_back(std::nullopt);
      } else {
        SODA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(agg.column));
        spec.agg_args.push_back(rc);
      }
    }
    return spec;
  }

  Result<ResultSet> ProduceAggregated(const AggregateSpec& spec) {
    const size_t n = from_.size();
    const size_t num_aggs = spec.aggs.size();
    TupleSet groups(spec.group_cols.size());
    std::vector<RowId> reps;       // each group's first tuple, n ids each
    std::vector<AggState> states;  // num_aggs per group
    auto accumulate = [&](const RowId* tuple) {
      auto [g, inserted] = groups.Intern([&](size_t i) -> const Value& {
        return Cell(tuple, spec.group_cols[i]);
      });
      if (inserted) {
        reps.insert(reps.end(), tuple, tuple + n);
        states.resize(states.size() + num_aggs);
      }
      for (size_t i = 0; i < num_aggs; ++i) {
        AggState& st = states[g * num_aggs + i];
        if (spec.aggs[i].agg_star) {
          ++st.count;
          continue;
        }
        const Value& v = Cell(tuple, *spec.agg_args[i]);
        if (v.is_null()) continue;
        if (spec.aggs[i].agg_distinct &&
            !st.distinct_seen.Intern([&](size_t) -> const Value& { return v; })
                 .second) {
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
      return true;
    };
    WalkAll(accumulate);
    size_t num_groups = groups.size();
    // Aggregate query with no GROUP BY over an empty input still yields one
    // row (COUNT(*) = 0), per SQL semantics.
    if (num_groups == 0 && spec.group_cols.empty()) {
      num_groups = 1;
      reps.assign(n, kUnset);
      states.resize(num_aggs);
    }

    // Groups come out ascending by their rendered key; values that
    // render alike (1234567.0 and 1234568.0 both print 1.23457e+06) are
    // still distinct groups, ordered by Value::Compare.
    std::vector<std::string> rendered(num_groups);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t i = 0; i < spec.group_cols.size(); ++i) {
        rendered[g] += groups.value(g, i).ToSqlLiteral();
        rendered[g] += '\x1f';
      }
    }
    std::vector<size_t> by_key(num_groups);
    std::iota(by_key.begin(), by_key.end(), size_t{0});
    std::sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
      if (rendered[a] != rendered[b]) return rendered[a] < rendered[b];
      for (size_t i = 0; i < spec.group_cols.size(); ++i) {
        int c = groups.value(a, i).Compare(groups.value(b, i));
        if (c != 0) return c < 0;
      }
      return a < b;
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

    // One output row per group plus its order keys.
    struct OutRow {
      std::vector<Value> cells;
      std::vector<Value> order_values;
    };
    std::vector<OutRow> out_rows;
    out_rows.reserve(num_groups);
    for (size_t g : by_key) {
      const RowId* rep = &reps[g * n];
      const AggState* st = &states[g * num_aggs];
      OutRow row;
      for (const auto& oc : spec.out_cols) {
        row.cells.push_back(oc.is_agg ? finalize(spec.aggs[oc.agg_index],
                                                 st[oc.agg_index])
                                      : Cell(rep, oc.group_col));
      }
      for (const auto& k : spec.order_keys) {
        row.order_values.push_back(
            k.is_agg ? finalize(spec.aggs[k.agg_index], st[k.agg_index])
                     : Cell(rep, k.group_col));
      }
      out_rows.push_back(std::move(row));
    }

    if (!spec.order_keys.empty()) {
      std::stable_sort(out_rows.begin(), out_rows.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t k = 0; k < spec.order_keys.size(); ++k) {
                           int c = a.order_values[k].Compare(b.order_values[k]);
                           if (c != 0) {
                             return spec.order_keys[k].descending ? c > 0
                                                                  : c < 0;
                           }
                         }
                         return false;
                       });
    }

    ResultSet rs;
    for (const auto& oc : spec.out_cols) rs.column_names.push_back(oc.name);
    rs.rows.reserve(out_rows.size());
    TupleSet seen(spec.out_cols.size());  // DISTINCT
    for (auto& r : out_rows) {
      if (stmt_.distinct &&
          !seen.Intern([&](size_t c) -> const Value& { return r.cells[c]; })
               .second) {
        continue;
      }
      rs.rows.push_back(std::move(r.cells));
    }
    if (stmt_.limit.has_value() && *stmt_.limit >= 0 &&
        rs.rows.size() > static_cast<size_t>(*stmt_.limit)) {
      rs.rows.resize(static_cast<size_t>(*stmt_.limit));
    }
    return rs;
  }

  const Database* db_;
  const SelectStatement& stmt_;
  std::vector<FromEntry> from_;
  std::vector<JoinCondition> joins_;
  std::vector<Filter> filters_;  // fixed once Plan() takes pointers into it
  std::vector<Step> steps_;
  std::vector<std::vector<const Filter*>> table_filters_;  // per FROM entry
  bool never_ = false;           // a constant predicate is false
  std::vector<RowId> tuple_;     // the walk's current tuple
  ExecStats stats_;
};

}  // namespace

bool SqlLikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking over the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<ResultSet> Executor::Execute(const SelectStatement& stmt,
                                    ExecStats* stats) const {
  Evaluation eval(db_, stmt);
  Result<ResultSet> rs = eval.Run();
  if (stats != nullptr && rs.ok()) {
    *stats = eval.stats();
    stats->rows_output = rs->rows.size();
    stats->tables = stmt.from.size();
  }
  return rs;
}

Result<ResultSet> Executor::ExecuteSql(std::string_view sql) const {
  SODA_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return Execute(stmt);
}

}  // namespace soda
