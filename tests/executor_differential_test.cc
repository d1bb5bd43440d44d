// Differential oracle for the SQL executor: every statement runs on the
// pipelined Executor and on ReferenceExecutor (the materializing
// evaluator it replaced), and the two must agree on the column names and
// the ordered rows, or on the error status. The statements are
//   - seeded random SELECTs over the mini-bank and the enterprise
//     warehouse: 1-4 tables along foreign keys, cross products, filters
//     on one table and across tables, LIKE, NULL literals, <>,
//     GROUP BY / aggregates / DISTINCT / ORDER BY, LIMIT 0, 1, 20 or
//     none, plus a few statements that must fail;
//   - every statement SODA generates for the Table 2 workload and the
//     paper's mini-bank queries, in snippet form (LIMIT capped as
//     Soda::ExecuteSnippet does) and in full.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/soda.h"
#include "datasets/enterprise.h"
#include "datasets/minibank.h"
#include "eval/workload.h"
#include "pattern/library.h"
#include "reference_executor.h"
#include "sql/executor.h"

namespace soda {
namespace {

// Random statements per database; fixed, so a run is reproducible.
constexpr size_t kRandomStatements = 500;
// The reference materializes every joined tuple, so a statement grows
// only while its estimated join size stays below this.
constexpr double kMaxJoinedTuples = 2000;

// Empty when both executors agree, else a description of the first
// difference.
std::string Disagreement(const Result<ResultSet>& got,
                         const Result<ResultSet>& want) {
  if (got.ok() != want.ok()) {
    return "status: got " + got.status().ToString() + ", want " +
           want.status().ToString();
  }
  if (!got.ok()) {
    return got.status().ToString() == want.status().ToString()
               ? ""
               : "error: got " + got.status().ToString() + ", want " +
                     want.status().ToString();
  }
  if (got->column_names != want->column_names) return "column names differ";
  if (got->rows.size() != want->rows.size()) {
    return "row count: got " + std::to_string(got->rows.size()) + ", want " +
           std::to_string(want->rows.size());
  }
  for (size_t r = 0; r < got->rows.size(); ++r) {
    const auto& a = got->rows[r];
    const auto& b = want->rows[r];
    bool same = a.size() == b.size();
    for (size_t c = 0; same && c < a.size(); ++c) {
      same = a[c].type() == b[c].type() && a[c].Compare(b[c]) == 0;
    }
    if (!same) {
      return "row " + std::to_string(r) + ": got " + ResultSet::RowKey(a) +
             ", want " + ResultSet::RowKey(b);
    }
  }
  return "";
}

// Runs `stmt` on both executors; counts and reports a mismatch.
class Differ {
 public:
  explicit Differ(const Database* db) : executor_(db), reference_(db) {}

  void Check(const SelectStatement& stmt) {
    ++statements_;
    Result<ResultSet> got = executor_.Execute(stmt);
    Result<ResultSet> want = reference_.Execute(stmt);
    if (!want.ok()) ++errors_;
    std::string diff = Disagreement(got, want);
    if (diff.empty()) return;
    ++mismatches_;
    ADD_FAILURE() << diff << "\n  " << stmt.ToSql();
  }

  size_t statements() const { return statements_; }
  size_t mismatches() const { return mismatches_; }
  size_t errors() const { return errors_; }

 private:
  Executor executor_;
  ReferenceExecutor reference_;
  size_t statements_ = 0;
  size_t mismatches_ = 0;
  size_t errors_ = 0;
};

// A join edge: from_table.from_column = to_table.to_column.
struct Edge {
  const Table* a;
  size_t a_col;
  const Table* b;
  size_t b_col;
};

// Generates random SELECTs over one database.
class StatementGenerator {
 public:
  StatementGenerator(const Database* db, const WarehouseModel& model,
                     uint64_t seed)
      : rng_(seed) {
    for (const Table* t : db->tables()) {
      (t->num_rows() > 0 ? tables_ : empty_).push_back(t);
    }
    for (const ForeignKeySpec& fk : model.foreign_keys()) {
      const Table* a = db->FindTable(fk.from_table);
      const Table* b = db->FindTable(fk.to_table);
      if (a == nullptr || b == nullptr || a->num_rows() == 0 ||
          b->num_rows() == 0) {
        continue;
      }
      int ac = a->ColumnIndex(fk.from_column);
      int bc = b->ColumnIndex(fk.to_column);
      if (ac < 0 || bc < 0) continue;
      edges_.push_back(Edge{a, static_cast<size_t>(ac), b,
                            static_cast<size_t>(bc)});
    }
  }

  SelectStatement Next() {
    SelectStatement stmt;
    from_.clear();
    BuildFrom(&stmt);
    AddFilters(&stmt);
    if (rng_.Chance(0.3)) {
      BuildAggregate(&stmt);
    } else {
      BuildProjection(&stmt);
    }
    switch (rng_.Below(5)) {
      case 0:
        stmt.limit = 0;
        break;
      case 1:
        stmt.limit = 1;
        break;
      case 2:
      case 3:
        stmt.limit = 20;
        break;
      default:
        break;  // no LIMIT
    }
    if (rng_.Chance(0.04)) Break(&stmt);
    return stmt;
  }

 private:
  struct Bound {
    std::string qualifier;
    const Table* table;
  };

  ColumnRef Col(size_t f, size_t c) const {
    return ColumnRef{from_[f].qualifier,
                     from_[f].table->columns()[c].name};
  }
  ColumnRef RandomCol(size_t* f_out = nullptr, size_t* c_out = nullptr) {
    size_t f = rng_.Below(from_.size());
    size_t c = rng_.Below(from_[f].table->num_columns());
    if (f_out != nullptr) *f_out = f;
    if (c_out != nullptr) *c_out = c;
    return Col(f, c);
  }
  size_t Add(SelectStatement* stmt, const Table* t) {
    std::string q = "t" + std::to_string(from_.size());
    from_.push_back(Bound{q, t});
    stmt->from.push_back(TableRef{t->name(), q});
    return from_.size() - 1;
  }
  static Predicate Pred(Expr lhs, CompareOp op, Expr rhs) {
    Predicate p;
    p.lhs = std::move(lhs);
    p.op = op;
    p.rhs = std::move(rhs);
    return p;
  }

  // 1-4 tables grown along foreign keys (either direction, self-joins
  // through aliases included), now and then a cross-product table, and
  // rarely an empty one.
  void BuildFrom(SelectStatement* stmt) {
    const size_t want = 1 + rng_.Below(4);
    if (!empty_.empty() && rng_.Chance(0.03)) {
      Add(stmt, rng_.Pick(empty_));
    } else if (edges_.empty() || rng_.Chance(0.1)) {
      Add(stmt, rng_.Pick(tables_));
    } else {
      const Edge& e = rng_.Pick(edges_);
      Add(stmt, rng_.Chance(0.5) ? e.a : e.b);
    }
    // An empty table counts as one row: the join order may bind it last.
    auto rows = [](const Table* t) {
      return std::max(1.0, static_cast<double>(t->num_rows()));
    };
    double estimate = rows(from_[0].table);
    while (from_.size() < want) {
      if (!empty_.empty() && rng_.Chance(0.03)) {
        Add(stmt, rng_.Pick(empty_));
        continue;
      }
      if (rng_.Chance(0.12)) {
        std::vector<const Table*> fits;
        for (const Table* t : tables_) {
          if (estimate * rows(t) <= kMaxJoinedTuples) fits.push_back(t);
        }
        if (fits.empty()) break;
        const Table* t = rng_.Pick(fits);
        Add(stmt, t);
        estimate *= rows(t);
        continue;
      }
      // Edges touching a bound table, as (bound index, edge, bound is a,
      // estimated fan-out): a row of the referencing side `a` meets at
      // most one row of `b`; the other way round meets rows(a)/rows(b).
      struct Touch {
        size_t bound;
        const Edge* edge;
        bool bound_is_a;
        double fanout;
      };
      std::vector<Touch> touches;
      for (size_t f = 0; f < from_.size(); ++f) {
        for (const Edge& e : edges_) {
          double back = std::max(1.0, rows(e.a) / rows(e.b));
          if (e.a == from_[f].table) touches.push_back({f, &e, true, 1.0});
          if (e.b == from_[f].table && estimate * back <= kMaxJoinedTuples) {
            touches.push_back({f, &e, false, back});
          }
        }
      }
      if (touches.empty()) break;
      const Touch& t = rng_.Pick(touches);
      estimate *= t.fanout;
      const Table* other = t.bound_is_a ? t.edge->b : t.edge->a;
      size_t other_col = t.bound_is_a ? t.edge->b_col : t.edge->a_col;
      size_t bound_col = t.bound_is_a ? t.edge->a_col : t.edge->b_col;
      size_t added = Add(stmt, other);
      Expr lhs = Expr::MakeColumn(Col(t.bound, bound_col));
      Expr rhs = Expr::MakeColumn(Col(added, other_col));
      if (rng_.Chance(0.5)) std::swap(lhs, rhs);
      stmt->where.push_back(Pred(std::move(lhs), CompareOp::kEq,
                                 std::move(rhs)));
    }
    // Keep the join conditions anywhere in the WHERE list.
    for (size_t i = stmt->where.size(); i > 1; --i) {
      std::swap(stmt->where[i - 1], stmt->where[rng_.Below(i)]);
    }
  }

  // A literal for column c of FROM entry f: usually a value it holds.
  Value Literal(size_t f, size_t c) {
    const Table* t = from_[f].table;
    if (t->num_rows() == 0 || rng_.Chance(0.08)) return Value::Null();
    return t->row(rng_.Below(t->num_rows()))[c];
  }

  std::string LikePattern(const std::string& text) {
    switch (rng_.Below(4)) {
      case 0:
        return text.substr(0, rng_.Below(text.size() + 1)) + "%";
      case 1: {
        size_t from = rng_.Below(text.size() + 1);
        return "%" + text.substr(from, 1 + rng_.Below(3)) + "%";
      }
      case 2: {
        std::string p = text;
        if (!p.empty()) p[rng_.Below(p.size())] = '_';
        return p;
      }
      default:
        return "%";
    }
  }

  void AddFilters(SelectStatement* stmt) {
    static constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                         CompareOp::kLt, CompareOp::kLe,
                                         CompareOp::kGt, CompareOp::kGe};
    const size_t count = rng_.Below(4);
    for (size_t i = 0; i < count; ++i) {
      size_t f, c;
      ColumnRef col = RandomCol(&f, &c);
      switch (rng_.Below(6)) {
        case 0: {  // LIKE on a string column's value
          Value v = Literal(f, c);
          if (v.type() == ValueType::kString) {
            v = Value::Str(LikePattern(v.AsString()));
          }
          stmt->where.push_back(Pred(Expr::MakeColumn(col), CompareOp::kLike,
                                     Expr::MakeLiteral(std::move(v))));
          break;
        }
        case 1: {  // column against column, same table or across tables
          size_t g, d;
          ColumnRef other = RandomCol(&g, &d);
          if (from_[g].table->columns()[d].type !=
              from_[f].table->columns()[c].type) {
            other = Col(f, rng_.Below(from_[f].table->num_columns()));
          }
          stmt->where.push_back(Pred(Expr::MakeColumn(col), rng_.Pick(Ops()),
                                     Expr::MakeColumn(other)));
          break;
        }
        case 2:  // literal on the left
          stmt->where.push_back(Pred(Expr::MakeLiteral(Literal(f, c)),
                                     kOps[rng_.Below(6)],
                                     Expr::MakeColumn(col)));
          break;
        case 3:  // a constant predicate
          stmt->where.push_back(Pred(Expr::MakeLiteral(Value::Int(1)),
                                     rng_.Chance(0.7) ? CompareOp::kEq
                                                      : CompareOp::kNe,
                                     Expr::MakeLiteral(Value::Int(1))));
          break;
        default:
          stmt->where.push_back(Pred(Expr::MakeColumn(col),
                                     kOps[rng_.Below(6)],
                                     Expr::MakeLiteral(Literal(f, c))));
          break;
      }
    }
  }

  static const std::vector<CompareOp>& Ops() {
    static const std::vector<CompareOp> ops = {
        CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kGe,
        CompareOp::kLike};
    return ops;
  }

  void BuildProjection(SelectStatement* stmt) {
    stmt->distinct = rng_.Chance(0.2);
    if (rng_.Chance(0.15)) {
      stmt->items.push_back(SelectItem{Expr::MakeStar(), ""});
    } else {
      const size_t count = 1 + rng_.Below(4);
      for (size_t i = 0; i < count; ++i) {
        SelectItem item;
        if (rng_.Chance(0.1)) {
          item.expr = Expr::MakeLiteral(Value::Str("k"));
          item.alias = "lit" + std::to_string(i);
        } else {
          item.expr = Expr::MakeColumn(RandomCol());
          if (rng_.Chance(0.2)) item.alias = "c" + std::to_string(i);
        }
        stmt->items.push_back(std::move(item));
      }
    }
    const size_t keys = rng_.Below(3);
    for (size_t i = 0; i < keys; ++i) {
      OrderItem o;
      o.expr = rng_.Chance(0.1) ? Expr::MakeLiteral(Value::Int(1))
                                : Expr::MakeColumn(RandomCol());
      o.descending = rng_.Chance(0.5);
      stmt->order_by.push_back(std::move(o));
    }
  }

  void BuildAggregate(SelectStatement* stmt) {
    stmt->distinct = rng_.Chance(0.1);
    const size_t groups = rng_.Below(3);
    for (size_t i = 0; i < groups; ++i) {
      ColumnRef g = RandomCol();
      stmt->group_by.push_back(g);
      stmt->items.push_back(SelectItem{Expr::MakeColumn(g), ""});
    }
    static constexpr AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,
                                         AggFunc::kAvg, AggFunc::kMin,
                                         AggFunc::kMax};
    const size_t aggs = 1 + rng_.Below(3);
    for (size_t i = 0; i < aggs; ++i) {
      Expr e = rng_.Chance(0.3)
                   ? Expr::MakeCountStar()
                   : Expr::MakeAggregate(kFuncs[rng_.Below(5)], RandomCol());
      if (!e.agg_star && e.agg == AggFunc::kCount) {
        e.agg_distinct = rng_.Chance(0.5);
      }
      stmt->items.push_back(SelectItem{e, "a" + std::to_string(i)});
    }
    if (rng_.Chance(0.6)) {
      OrderItem o;
      const SelectItem& by = rng_.Pick(stmt->items);
      o.expr = by.expr;
      o.descending = rng_.Chance(0.5);
      stmt->order_by.push_back(std::move(o));
    }
  }

  // Makes the statement invalid in one of the ways the executor reports.
  void Break(SelectStatement* stmt) {
    switch (rng_.Below(4)) {
      case 0:
        stmt->where.push_back(Pred(Expr::MakeColumn("t0", "no_such_column"),
                                   CompareOp::kEq,
                                   Expr::MakeLiteral(Value::Int(1))));
        break;
      case 1:
        stmt->where.push_back(Pred(
            Expr::MakeCountStar(), CompareOp::kGt,
            Expr::MakeLiteral(Value::Int(1))));
        break;
      case 2:
        stmt->items.push_back(
            SelectItem{Expr::MakeColumn("", "no_such_column"), ""});
        break;
      default:
        stmt->from.push_back(stmt->from[0]);  // duplicate qualifier
        break;
    }
  }

  Rng rng_;
  std::vector<const Table*> tables_;  // with rows
  std::vector<const Table*> empty_;
  std::vector<Edge> edges_;
  std::vector<Bound> from_;
};

// The statement exactly as Soda::ExecuteSnippet runs it.
SelectStatement SnippetForm(SelectStatement stmt, size_t snippet_rows) {
  if (!stmt.limit.has_value() || *stmt.limit < 0 ||
      *stmt.limit > static_cast<int64_t>(snippet_rows)) {
    stmt.limit = static_cast<int64_t>(snippet_rows);
  }
  return stmt;
}

// Every statement SODA generates for `queries`, in snippet and full form.
void CheckGenerated(const Database* db, const MetadataGraph* graph,
                    const std::vector<std::string>& queries, Differ* differ) {
  SodaConfig config;
  config.execute_snippets = false;
  config.top_n = config.max_interpretations;
  auto soda = Soda::Create(db, graph, CreditSuissePatternLibrary(), config);
  ASSERT_TRUE(soda.ok()) << soda.status();
  size_t generated = 0;
  for (const std::string& query : queries) {
    auto output = (*soda)->Search(query);
    if (!output.ok()) continue;
    for (const SodaResult& result : output->results) {
      ++generated;
      differ->Check(SnippetForm(result.statement, config.snippet_rows));
      differ->Check(result.statement);
    }
  }
  EXPECT_GT(generated, 0u);
}

class ExecutorDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bank = BuildMiniBank();
    ASSERT_TRUE(bank.ok()) << bank.status();
    bank_ = bank.value().release();
    auto warehouse = BuildEnterpriseWarehouse();
    ASSERT_TRUE(warehouse.ok()) << warehouse.status();
    warehouse_ = warehouse.value().release();
  }
  static void TearDownTestSuite() {
    delete bank_;
    delete warehouse_;
    bank_ = nullptr;
    warehouse_ = nullptr;
  }

  static MiniBank* bank_;
  static EnterpriseWarehouse* warehouse_;
};

MiniBank* ExecutorDifferentialTest::bank_ = nullptr;
EnterpriseWarehouse* ExecutorDifferentialTest::warehouse_ = nullptr;

TEST_F(ExecutorDifferentialTest, RandomStatementsOnMiniBank) {
  Differ differ(&bank_->db);
  StatementGenerator gen(&bank_->db, bank_->model, 20120827);
  for (size_t i = 0; i < kRandomStatements; ++i) differ.Check(gen.Next());
  std::printf("minibank: %zu statements (%zu errors), %zu mismatches\n",
              differ.statements(), differ.errors(), differ.mismatches());
  EXPECT_EQ(differ.mismatches(), 0u);
  EXPECT_GT(differ.errors(), 0u);
}

TEST_F(ExecutorDifferentialTest, RandomStatementsOnEnterprise) {
  Differ differ(&warehouse_->db);
  StatementGenerator gen(&warehouse_->db, warehouse_->model, 1343);
  for (size_t i = 0; i < kRandomStatements; ++i) differ.Check(gen.Next());
  std::printf("enterprise: %zu statements (%zu errors), %zu mismatches\n",
              differ.statements(), differ.errors(), differ.mismatches());
  EXPECT_EQ(differ.mismatches(), 0u);
  EXPECT_GT(differ.errors(), 0u);
}

TEST_F(ExecutorDifferentialTest, GeneratedStatementsForTheWorkloads) {
  Differ enterprise(&warehouse_->db);
  std::vector<std::string> table2;
  for (const BenchmarkQuery& q : EnterpriseWorkload()) {
    table2.push_back(q.keywords);
  }
  CheckGenerated(&warehouse_->db, &warehouse_->graph, table2, &enterprise);

  Differ minibank(&bank_->db);
  CheckGenerated(&bank_->db, &bank_->graph,
                 {"Sara Guttinger", "customers Zürich financial instruments",
                  "salary >= 500000",
                  "sum (amount) group by (transaction date)",
                  "wealthy customers", "trading volume", "top 5 salary",
                  "count() individuals group by (city)"},
                 &minibank);
  std::printf("generated: %zu enterprise + %zu mini-bank statements, "
              "%zu mismatches\n",
              enterprise.statements(), minibank.statements(),
              enterprise.mismatches() + minibank.mismatches());
  EXPECT_EQ(enterprise.mismatches() + minibank.mismatches(), 0u);
}

}  // namespace
}  // namespace soda
