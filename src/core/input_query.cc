#include "core/input_query.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <system_error>

#include "common/strings.h"

namespace soda {

namespace {

// A number is [+-]digits[.digits] whose value fits its type (int64 for
// integers, a finite double otherwise); anything else — a 20-digit id
// included — stays a keyword.
bool IsNumberToken(const std::string& token, InputElement* out) {
  if (token.empty()) return false;
  size_t i = 0;
  if (token[0] == '-' || token[0] == '+') i = 1;
  bool any_digit = false, has_dot = false;
  for (; i < token.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(token[i]))) {
      any_digit = true;
    } else if (token[i] == '.' && !has_dot) {
      has_dot = true;
    } else {
      return false;
    }
  }
  if (!any_digit) return false;
  // from_chars takes a leading '-' but not '+'.
  const char* first = token.data() + (token[0] == '+' ? 1 : 0);
  const char* last = token.data() + token.size();
  double number = 0.0;
  int64_t integer = 0;
  auto parsed = std::from_chars(first, last, number);
  if (parsed.ec != std::errc() || parsed.ptr != last) return false;
  if (!has_dot) {
    parsed = std::from_chars(first, last, integer);
    if (parsed.ec != std::errc() || parsed.ptr != last) return false;
  }
  out->kind = InputElement::Kind::kNumber;
  out->number = number;
  out->number_is_integer = !has_dot;
  if (!has_dot) out->integer = integer;
  return true;
}

bool ParseAggName(const std::string& folded, AggFunc* out) {
  if (folded == "sum") {
    *out = AggFunc::kSum;
  } else if (folded == "count") {
    *out = AggFunc::kCount;
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

// Raw token stream: words, parenthesized blobs kept intact for the
// operators that need them (date(...), sum(...), group by (...)).
struct RawToken {
  std::string text;      // word or symbol
  std::string parens;    // content of a directly attached "(...)" if any
  bool has_parens = false;
};

Result<std::vector<RawToken>> Scan(const std::string& text) {
  std::vector<RawToken> tokens;
  size_t i = 0;
  auto skip_space = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  while (true) {
    skip_space();
    if (i >= text.size()) break;
    char c = text[i];
    RawToken token;
    if (c == '(') {
      // A free-standing parenthesized blob, e.g. "group by (x, y)".
      size_t depth = 0;
      size_t start = ++i;
      for (; i < text.size(); ++i) {
        if (text[i] == '(') {
          ++depth;
        } else if (text[i] == ')') {
          if (depth == 0) break;
          --depth;
        }
      }
      if (i >= text.size()) {
        return Status::ParseError("unbalanced '(' in input query");
      }
      token.text = "";
      token.parens = std::string(Trim(text.substr(start, i - start)));
      token.has_parens = true;
      ++i;  // consume ')'
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '>' || c == '<' || c == '=') {
      token.text = std::string(1, c);
      ++i;
      if (i < text.size() && text[i] == '=') {
        token.text += '=';
        ++i;
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == ',') {
      ++i;  // commas outside parentheses are noise
      continue;
    }
    // Word, optionally directly followed by "(...)".
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])) &&
           text[i] != '(' && text[i] != '>' && text[i] != '<' &&
           text[i] != '=' && text[i] != ',') {
      ++i;
    }
    token.text = text.substr(start, i - start);
    if (i < text.size() && text[i] == '(') {
      size_t depth = 0;
      size_t inner = ++i;
      for (; i < text.size(); ++i) {
        if (text[i] == '(') {
          ++depth;
        } else if (text[i] == ')') {
          if (depth == 0) break;
          --depth;
        }
      }
      if (i >= text.size()) {
        return Status::ParseError("unbalanced '(' after '" + token.text +
                                  "'");
      }
      token.parens = std::string(Trim(text.substr(inner, i - inner)));
      token.has_parens = true;
      ++i;  // consume ')'
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

}  // namespace

std::string InputElement::ToString() const {
  switch (kind) {
    case Kind::kKeywords:
      return "keywords[" + Join(words, " ") + "]";
    case Kind::kComparison:
      return std::string("cmp[") + CompareOpSymbol(op) + "]";
    case Kind::kDate:
      return "date[" + date.ToString() + "]";
    case Kind::kNumber:
      return number_is_integer ? "number[" + std::to_string(integer) + "]"
                               : StrFormat("number[%g]", number);
    case Kind::kAggregation:
      return std::string("agg[") + AggFuncName(agg) + "(" + agg_argument +
             ")]";
    case Kind::kGroupBy:
      return "groupby[" + Join(group_by_phrases, ", ") + "]";
    case Kind::kTopN:
      return "top[" + std::to_string(integer) + "]";
    case Kind::kConnector:
      return connector_is_and ? "and" : "or";
    case Kind::kBetween:
      return "between";
  }
  return "?";
}

bool InputQuery::HasAggregation() const {
  for (const auto& e : elements) {
    if (e.kind == InputElement::Kind::kAggregation) return true;
  }
  return false;
}

bool InputQuery::HasGroupBy() const {
  for (const auto& e : elements) {
    if (e.kind == InputElement::Kind::kGroupBy) return true;
  }
  return false;
}

std::string InputQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += " ";
    out += elements[i].ToString();
  }
  return out;
}

Result<InputQuery> ParseInputQuery(const std::string& text) {
  SODA_ASSIGN_OR_RETURN(std::vector<RawToken> tokens, Scan(text));

  InputQuery query;
  query.raw = text;

  auto keywords = [&]() -> InputElement* {
    if (query.elements.empty() ||
        query.elements.back().kind != InputElement::Kind::kKeywords) {
      InputElement e;
      e.kind = InputElement::Kind::kKeywords;
      query.elements.push_back(std::move(e));
    }
    return &query.elements.back();
  };

  for (size_t i = 0; i < tokens.size(); ++i) {
    const RawToken& token = tokens[i];
    std::string folded = ToLower(token.text);

    InputElement element;

    // Comparison symbols.
    if (token.text == ">" || token.text == ">=" || token.text == "=" ||
        token.text == "<=" || token.text == "<") {
      element.kind = InputElement::Kind::kComparison;
      if (token.text == ">") element.op = CompareOp::kGt;
      if (token.text == ">=") element.op = CompareOp::kGe;
      if (token.text == "=") element.op = CompareOp::kEq;
      if (token.text == "<=") element.op = CompareOp::kLe;
      if (token.text == "<") element.op = CompareOp::kLt;
      query.elements.push_back(std::move(element));
      continue;
    }
    if (folded == "like") {
      element.kind = InputElement::Kind::kComparison;
      element.op = CompareOp::kLike;
      query.elements.push_back(std::move(element));
      continue;
    }
    if (folded == "and" || folded == "or") {
      element.kind = InputElement::Kind::kConnector;
      element.connector_is_and = folded == "and";
      query.elements.push_back(std::move(element));
      continue;
    }
    if (folded == "between") {
      element.kind = InputElement::Kind::kBetween;
      query.elements.push_back(std::move(element));
      continue;
    }
    // date(YYYY-MM-DD)
    if (folded == "date" && token.has_parens) {
      SODA_ASSIGN_OR_RETURN(Date d, Date::Parse(token.parens));
      element.kind = InputElement::Kind::kDate;
      element.date = d;
      query.elements.push_back(std::move(element));
      continue;
    }
    // top N
    if (folded == "top" && i + 1 < tokens.size()) {
      InputElement n;
      if (IsNumberToken(tokens[i + 1].text, &n) && n.number_is_integer &&
          n.integer >= 1) {
        element.kind = InputElement::Kind::kTopN;
        element.integer = n.integer;
        query.elements.push_back(std::move(element));
        ++i;
        continue;
      }
    }
    // group by (a, b) — also accepts "group by(a, b)" and a separated blob.
    if (folded == "group" && i + 1 < tokens.size() &&
        ToLower(tokens[i + 1].text) == "by") {
      std::string blob;
      size_t consumed = 1;
      if (tokens[i + 1].has_parens) {
        blob = tokens[i + 1].parens;
      } else if (i + 2 < tokens.size() && tokens[i + 2].text.empty() &&
                 tokens[i + 2].has_parens) {
        blob = tokens[i + 2].parens;
        consumed = 2;
      } else {
        return Status::ParseError(
            "group by requires a parenthesized attribute list");
      }
      element.kind = InputElement::Kind::kGroupBy;
      for (auto& phrase : Split(blob, ',')) {
        element.group_by_phrases.push_back(std::string(Trim(phrase)));
      }
      query.elements.push_back(std::move(element));
      i += consumed;
      continue;
    }
    // Aggregations: sum(x) or the separated form "sum (x)".
    AggFunc agg;
    if (ParseAggName(folded, &agg)) {
      if (token.has_parens) {
        element.kind = InputElement::Kind::kAggregation;
        element.agg = agg;
        element.agg_argument = token.parens;
        query.elements.push_back(std::move(element));
        continue;
      }
      if (i + 1 < tokens.size() && tokens[i + 1].text.empty() &&
          tokens[i + 1].has_parens) {
        element.kind = InputElement::Kind::kAggregation;
        element.agg = agg;
        element.agg_argument = tokens[i + 1].parens;
        query.elements.push_back(std::move(element));
        ++i;
        continue;
      }
    }
    // Numbers.
    if (IsNumberToken(token.text, &element)) {
      query.elements.push_back(std::move(element));
      continue;
    }
    // Anything else is a search keyword.
    if (!token.text.empty()) {
      keywords()->words.push_back(token.text);
    }
  }
  return query;
}

}  // namespace soda
