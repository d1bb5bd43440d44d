#include "sql/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

#include "common/date.h"
#include "common/strings.h"

namespace soda {

namespace {

enum class TokenKind {
  kIdentifier,
  kInteger,
  kFloat,
  kString,
  kSymbol,  // punctuation and comparison operators
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;    // identifier/symbol text (identifiers keep case)
  std::string folded;  // lowercase identifier for keyword matching
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      if (pos_ >= sql_.size()) break;
      char c = sql_[pos_];
      Token t;
      t.offset = pos_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        t.kind = TokenKind::kIdentifier;
        size_t start = pos_;
        while (pos_ < sql_.size() &&
               (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
                sql_[pos_] == '_')) {
          ++pos_;
        }
        t.text = std::string(sql_.substr(start, pos_ - start));
        t.folded = ToLower(t.text);
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < sql_.size() &&
                  std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
        // Numeric literal; a leading '-' is treated as a signed literal
        // (the subset has no arithmetic, so no ambiguity with binary
        // minus can arise).
        size_t start = pos_;
        if (c == '-') ++pos_;
        bool has_dot = false;
        while (pos_ < sql_.size() &&
               (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
                sql_[pos_] == '.')) {
          if (sql_[pos_] == '.') {
            if (has_dot) break;
            has_dot = true;
          }
          ++pos_;
        }
        t.text = std::string(sql_.substr(start, pos_ - start));
        const char* first = t.text.data();
        const char* last = first + t.text.size();
        std::from_chars_result parsed;
        if (has_dot) {
          t.kind = TokenKind::kFloat;
          parsed = std::from_chars(first, last, t.double_value);
        } else {
          t.kind = TokenKind::kInteger;
          parsed = std::from_chars(first, last, t.int_value);
        }
        if (parsed.ec != std::errc() || parsed.ptr != last) {
          return Status::ParseError("numeric literal out of range: " +
                                    t.text);
        }
      } else if (c == '\'') {
        t.kind = TokenKind::kString;
        ++pos_;
        std::string value;
        bool closed = false;
        while (pos_ < sql_.size()) {
          if (sql_[pos_] == '\'') {
            if (pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '\'') {
              value.push_back('\'');
              pos_ += 2;
            } else {
              ++pos_;
              closed = true;
              break;
            }
          } else {
            value.push_back(sql_[pos_]);
            ++pos_;
          }
        }
        if (!closed) {
          return Status::ParseError("unterminated string literal");
        }
        t.text = std::move(value);
      } else {
        t.kind = TokenKind::kSymbol;
        // Two-character operators first.
        if (pos_ + 1 < sql_.size()) {
          std::string two(sql_.substr(pos_, 2));
          if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
            t.text = two;
            pos_ += 2;
            tokens.push_back(std::move(t));
            continue;
          }
        }
        static const std::string kSingles = "(),.*=<>;";
        if (kSingles.find(c) == std::string::npos) {
          return Status::ParseError(StrFormat(
              "unexpected character '%c' at offset %zu", c, pos_));
        }
        t.text = std::string(1, c);
        ++pos_;
      }
      tokens.push_back(std::move(t));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.offset = sql_.size();
    tokens.push_back(end);
    return tokens;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < sql_.size()) {
      if (std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
        ++pos_;
      } else if (sql_[pos_] == '-' && pos_ + 1 < sql_.size() &&
                 sql_[pos_ + 1] == '-') {
        while (pos_ < sql_.size() && sql_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view sql_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    SelectStatement stmt;
    SODA_RETURN_NOT_OK(ExpectKeyword("select"));
    if (AcceptKeyword("distinct")) stmt.distinct = true;
    SODA_RETURN_NOT_OK(ParseSelectList(&stmt));
    SODA_RETURN_NOT_OK(ExpectKeyword("from"));
    SODA_RETURN_NOT_OK(ParseTableList(&stmt));
    if (AcceptKeyword("where")) {
      SODA_RETURN_NOT_OK(ParsePredicates(&stmt));
    }
    if (AcceptKeyword("group")) {
      SODA_RETURN_NOT_OK(ExpectKeyword("by"));
      SODA_RETURN_NOT_OK(ParseGroupBy(&stmt));
    }
    if (AcceptKeyword("order")) {
      SODA_RETURN_NOT_OK(ExpectKeyword("by"));
      SODA_RETURN_NOT_OK(ParseOrderBy(&stmt));
    }
    if (AcceptKeyword("limit")) {
      if (Current().kind != TokenKind::kInteger) {
        return Status::ParseError("expected integer after LIMIT");
      }
      if (Current().int_value < 0) {
        return Status::ParseError("LIMIT must not be negative");
      }
      stmt.limit = Current().int_value;
      Advance();
    }
    AcceptSymbol(";");
    if (Current().kind != TokenKind::kEnd) {
      return Status::ParseError("unexpected trailing input at '" +
                                Current().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Peek(size_t n = 1) const {
    size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool AcceptKeyword(const std::string& kw) {
    if (Current().kind == TokenKind::kIdentifier && Current().folded == kw) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError("expected keyword '" + ToUpper(kw) +
                                "' near '" + Current().text + "'");
    }
    return Status::OK();
  }

  bool AcceptSymbol(const std::string& sym) {
    if (Current().kind == TokenKind::kSymbol && Current().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Status::ParseError("expected '" + sym + "' near '" +
                                Current().text + "'");
    }
    return Status::OK();
  }

  static bool IsAggName(const std::string& folded, AggFunc* out) {
    if (folded == "count") {
      *out = AggFunc::kCount;
    } else if (folded == "sum") {
      *out = AggFunc::kSum;
    } else if (folded == "avg") {
      *out = AggFunc::kAvg;
    } else if (folded == "min") {
      *out = AggFunc::kMin;
    } else if (folded == "max") {
      *out = AggFunc::kMax;
    } else {
      return false;
    }
    return true;
  }

  Result<ColumnRef> ParseColumnRef() {
    if (Current().kind != TokenKind::kIdentifier) {
      return Status::ParseError("expected column name near '" +
                                Current().text + "'");
    }
    std::string first = Current().text;
    Advance();
    if (AcceptSymbol(".")) {
      if (Current().kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected column name after '.'");
      }
      std::string second = Current().text;
      Advance();
      return ColumnRef{first, second};
    }
    return ColumnRef{"", first};
  }

  Result<Expr> ParseExpr() {
    const Token& t = Current();
    if (t.kind == TokenKind::kInteger) {
      Advance();
      return Expr::MakeLiteral(Value::Int(t.int_value));
    }
    if (t.kind == TokenKind::kFloat) {
      Advance();
      return Expr::MakeLiteral(Value::Real(t.double_value));
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return Expr::MakeLiteral(Value::Str(t.text));
    }
    if (t.kind == TokenKind::kIdentifier) {
      AggFunc agg;
      if (t.folded == "date" && Peek().kind == TokenKind::kString) {
        Advance();
        SODA_ASSIGN_OR_RETURN(Date d, Date::Parse(Current().text));
        Advance();
        return Expr::MakeLiteral(Value::DateV(d));
      }
      if (t.folded == "null") {
        Advance();
        return Expr::MakeLiteral(Value::Null());
      }
      if (t.folded == "true" || t.folded == "false") {
        bool b = t.folded == "true";
        Advance();
        return Expr::MakeLiteral(Value::Bool(b));
      }
      if (IsAggName(t.folded, &agg) && Peek().kind == TokenKind::kSymbol &&
          Peek().text == "(") {
        Advance();  // agg name
        Advance();  // '('
        Expr e;
        if (AcceptSymbol("*")) {
          if (agg != AggFunc::kCount) {
            return Status::ParseError("only COUNT may take '*'");
          }
          e = Expr::MakeCountStar();
        } else {
          bool distinct = AcceptKeyword("distinct");
          SODA_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
          e = Expr::MakeAggregate(agg, std::move(ref));
          e.agg_distinct = distinct;
        }
        SODA_RETURN_NOT_OK(ExpectSymbol(")"));
        return e;
      }
      SODA_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      return Expr::MakeColumn(std::move(ref));
    }
    return Status::ParseError("expected expression near '" + t.text + "'");
  }

  Status ParseSelectList(SelectStatement* stmt) {
    if (AcceptSymbol("*")) {
      stmt->items.push_back(SelectItem{Expr::MakeStar(), ""});
      return Status::OK();
    }
    while (true) {
      SelectItem item;
      SODA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("as")) {
        if (Current().kind != TokenKind::kIdentifier) {
          return Status::ParseError("expected alias after AS");
        }
        item.alias = Current().text;
        Advance();
      }
      stmt->items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    return Status::OK();
  }

  static bool IsClauseKeyword(const Token& t) {
    if (t.kind != TokenKind::kIdentifier) return false;
    return t.folded == "where" || t.folded == "group" || t.folded == "order" ||
           t.folded == "limit" || t.folded == "on" || t.folded == "as";
  }

  Status ParseTableList(SelectStatement* stmt) {
    while (true) {
      if (Current().kind != TokenKind::kIdentifier) {
        return Status::ParseError("expected table name near '" +
                                  Current().text + "'");
      }
      TableRef ref;
      ref.table = Current().text;
      Advance();
      // Optional alias: a bare identifier that is not a clause keyword.
      if (Current().kind == TokenKind::kIdentifier &&
          !IsClauseKeyword(Current())) {
        ref.alias = Current().text;
        Advance();
      }
      stmt->from.push_back(std::move(ref));
      if (!AcceptSymbol(",")) break;
    }
    return Status::OK();
  }

  Status ParsePredicates(SelectStatement* stmt) {
    while (true) {
      SODA_ASSIGN_OR_RETURN(Expr lhs, ParseExpr());
      if (AcceptKeyword("between")) {
        SODA_ASSIGN_OR_RETURN(Expr lo, ParseExpr());
        SODA_RETURN_NOT_OK(ExpectKeyword("and"));
        SODA_ASSIGN_OR_RETURN(Expr hi, ParseExpr());
        stmt->where.push_back(Predicate{lhs, CompareOp::kGe, lo});
        stmt->where.push_back(Predicate{lhs, CompareOp::kLe, hi});
      } else {
        CompareOp op;
        if (AcceptKeyword("like")) {
          op = CompareOp::kLike;
        } else if (Current().kind == TokenKind::kSymbol) {
          const std::string& s = Current().text;
          if (s == "=") {
            op = CompareOp::kEq;
          } else if (s == "<>" || s == "!=") {
            op = CompareOp::kNe;
          } else if (s == "<") {
            op = CompareOp::kLt;
          } else if (s == "<=") {
            op = CompareOp::kLe;
          } else if (s == ">") {
            op = CompareOp::kGt;
          } else if (s == ">=") {
            op = CompareOp::kGe;
          } else {
            return Status::ParseError("expected comparison operator near '" +
                                      s + "'");
          }
          Advance();
        } else {
          return Status::ParseError("expected comparison operator near '" +
                                    Current().text + "'");
        }
        SODA_ASSIGN_OR_RETURN(Expr rhs, ParseExpr());
        stmt->where.push_back(Predicate{std::move(lhs), op, std::move(rhs)});
      }
      if (!AcceptKeyword("and")) break;
    }
    return Status::OK();
  }

  Status ParseGroupBy(SelectStatement* stmt) {
    while (true) {
      SODA_ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      stmt->group_by.push_back(std::move(ref));
      if (!AcceptSymbol(",")) break;
    }
    return Status::OK();
  }

  Status ParseOrderBy(SelectStatement* stmt) {
    while (true) {
      OrderItem item;
      SODA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("desc")) {
        item.descending = true;
      } else {
        AcceptKeyword("asc");
      }
      stmt->order_by.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> ParseSql(std::string_view sql) {
  Lexer lexer(sql);
  SODA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace soda
