#include "query_gen.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "core/engine.h"
#include "eval/workload.h"

namespace e2ebench {
namespace {

using Vocabulary = std::map<std::string, std::vector<std::string>>;

// Instantiations kept per template: enough for several thousand distinct
// queries in all, without the date and amount templates crowding out the
// rest.
constexpr size_t kTemplateCap = 300;

// Distinct display values of one column, sorted; `keep` filters them.
std::vector<std::string> Column(const soda::Database& db,
                                const std::string& table,
                                const std::string& column,
                                bool (*keep)(const std::string&) = nullptr) {
  std::set<std::string> values;
  const soda::Table* t = db.FindTable(table);
  if (t == nullptr) return {};
  int index = t->ColumnIndex(column);
  if (index < 0) return {};
  for (const soda::Row& row : t->rows()) {
    const soda::Value& v = row[static_cast<size_t>(index)];
    if (v.is_null()) continue;
    std::string text = v.ToDisplayString();
    if (keep == nullptr || keep(text)) values.insert(std::move(text));
  }
  return {values.begin(), values.end()};
}

// Historic name versions carry a "-A".."-D" suffix; current ones do not.
bool CurrentFamilyName(const std::string& name) {
  return name.find('-') == std::string::npos;
}

std::vector<std::string> Dates(int first_year, int last_year,
                               const std::vector<int>& days) {
  std::vector<std::string> dates;
  char buffer[16];
  for (int y = first_year; y <= last_year; ++y) {
    for (int m = 1; m <= 12; ++m) {
      for (int d : days) {
        std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d", y, m, d);
        dates.emplace_back(buffer);
      }
    }
  }
  return dates;
}

std::vector<std::string> Steps(int first, int last, int step) {
  std::vector<std::string> out;
  for (int v = first; v <= last; v += step) out.push_back(std::to_string(v));
  return out;
}

Vocabulary ReadVocabulary(const soda::Database& db) {
  Vocabulary vocab;
  vocab["given"] = Column(db, "indvl_td", "given_nm");
  vocab["family"] = Column(db, "indvl_nm_hist_td", "family_name",
                           &CurrentFamilyName);
  vocab["city"] = Column(db, "addr_td", "city");
  vocab["country"] = Column(db, "addr_td", "cntry");
  vocab["currency"] = Column(db, "crncy_td", "cd");
  vocab["org"] = Column(db, "org_td", "org_nm");
  vocab["product"] = Column(db, "invst_prod_td", "prod_nm");
  vocab["agreement"] = Column(db, "agrmnt_td", "agrmnt_type");
  vocab["order_kind"] = Column(db, "ordr_td", "ordr_type");
  vocab["order_date"] = Dates(2010, 2012, {1, 8, 15, 22});
  vocab["birth_date"] = Dates(1950, 1995, {1, 15});
  vocab["amount"] = Steps(5000, 495000, 5000);
  vocab["op"] = {">", "<"};
  return vocab;
}

const std::vector<QueryTemplate>& Templates() {
  static const std::vector<QueryTemplate> kTemplates = {
      {"T2.paper", "BSDIPA", ""},  // the Table-2 queries, filled below
      {"B.given_family", "B", "{given} {family}"},
      {"B.org", "B", "{org}"},
      {"B.family_city", "B", "{family} {city}"},
      {"B.product", "B", "{product}"},
      {"S.given_name_city", "BS", "{given} given name {city}"},
      {"S.person_birth_date", "BS", "{given} {family} birth date"},
      {"S.currency_order", "BS", "{currency} {order_kind}"},
      {"S.agreement_kind", "BS", "{agreement} agreement"},
      {"S.city_street", "BS", "{city} address street"},
      {"D.private_city", "BD", "private customers {city}"},
      {"D.private_family", "BD", "private customers {family}"},
      {"D.customers_given_city", "BD", "customers {given} {city}"},
      {"D.wealthy_city", "BD", "wealthy customers {city}"},
      {"D.corporate_city", "BD", "corporate customers {city}"},
      {"I.names_family", "BI", "customers names {family}"},
      {"I.given_names", "BI", "{given} names"},
      {"I.corporate_org", "BI", "corporate customers {org}"},
      {"P.trade_period", "SP", "trade order period {op} date({order_date})"},
      {"P.birth_date", "BSP", "{family} birth date {op} date({birth_date})"},
      {"P.payment_amount", "SP", "payment amount {op} {amount}"},
      {"P.order_date", "SP", "order date {op} date({order_date})"},
      {"P.currency_trade_period", "BSP",
       "{currency} trade order period {op} date({order_date})"},
      {"A.count_country", "BDA", "select count() private customers {country}"},
      {"A.count_trades", "BSA", "count() trade order {currency}"},
      {"A.sum_investments", "BSA", "sum(investments) {currency}"},
      {"A.avg_salary_city", "BDA", "avg(salary) private customers {city}"},
      {"A.count_city", "BDA", "count() customers {city}"},
      {"A.max_payment", "BSA", "max(payment amount) {currency}"},
  };
  return kTemplates;
}

// Splits a pattern into literal text and slot names, alternating:
// parts[0] literal, parts[1] slot, parts[2] literal, ...
std::vector<std::string> SplitPattern(const std::string& pattern) {
  std::vector<std::string> parts(1);
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '{') {
      size_t close = pattern.find('}', i);
      parts.push_back(pattern.substr(i + 1, close - i - 1));
      parts.emplace_back();
      i = close;
    } else {
      parts.back() += pattern[i];
    }
  }
  return parts;
}

// Every instantiation of `pattern`, in mixed-radix order.
std::vector<std::string> Expand(const std::string& pattern,
                                const Vocabulary& vocab) {
  std::vector<std::string> parts = SplitPattern(pattern);
  std::vector<const std::vector<std::string>*> slots;
  size_t total = 1;
  for (size_t i = 1; i < parts.size(); i += 2) {
    const std::vector<std::string>& values = vocab.at(parts[i]);
    slots.push_back(&values);
    total *= values.size();
  }
  std::vector<std::string> out;
  out.reserve(total);
  for (size_t k = 0; k < total; ++k) {
    std::string text = parts[0];
    size_t rest = k;
    for (size_t s = 0; s < slots.size(); ++s) {
      text += (*slots[s])[rest % slots[s]->size()];
      rest /= slots[s]->size();
      text += parts[2 * s + 2];
    }
    out.push_back(std::move(text));
  }
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* items, soda::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

}  // namespace

QueryGenerator::QueryGenerator(const soda::Database& db)
    : vocabulary_(ReadVocabulary(db)), templates_(Templates()) {
  const Vocabulary& vocab = vocabulary_;
  std::unordered_set<std::string> seen;
  soda::Rng fixed(0x5EEDF00D);
  for (size_t t = 0; t < templates_.size(); ++t) {
    std::vector<std::string> texts;
    if (templates_[t].pattern.empty()) {
      for (const soda::BenchmarkQuery& q : soda::EnterpriseWorkload()) {
        texts.push_back(q.keywords);
      }
    } else {
      texts = Expand(templates_[t].pattern, vocab);
      if (texts.size() > kTemplateCap) {
        Shuffle(&texts, &fixed);
        texts.resize(kTemplateCap);
        std::sort(texts.begin(), texts.end());
      }
    }
    for (std::string& text : texts) {
      if (!seen.insert(soda::NormalizedQueryKey(text)).second) continue;
      pool_.push_back({std::move(text), t});
    }
  }
}

std::vector<GeneratedQuery> QueryGenerator::DrawDistinct(size_t n,
                                                         uint64_t seed) const {
  n = std::min(n, pool_.size());
  std::vector<std::vector<size_t>> by_template(templates_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    by_template[pool_[i].template_index].push_back(i);
  }
  soda::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<GeneratedQuery> out;
  std::vector<size_t> leftovers;
  for (std::vector<size_t>& members : by_template) {
    if (members.empty()) continue;
    size_t share = (members.size() * n + pool_.size() / 2) / pool_.size();
    share = std::clamp<size_t>(share, 1, members.size());
    Shuffle(&members, &rng);
    for (size_t k = 0; k < members.size(); ++k) {
      if (k < share) {
        out.push_back(pool_[members[k]]);
      } else {
        leftovers.push_back(members[k]);
      }
    }
  }
  // Rounding leaves the draw a few queries off n: trim, or top up from
  // the unused members.
  Shuffle(&out, &rng);
  if (out.size() > n) out.resize(n);
  Shuffle(&leftovers, &rng);
  for (size_t i = 0; out.size() < n; ++i) out.push_back(pool_[leftovers[i]]);
  return out;
}

uint64_t SequenceFingerprint(const std::vector<GeneratedQuery>& queries) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const GeneratedQuery& q : queries) {
    for (unsigned char c : q.text) {
      h = (h ^ c) * 0x100000001b3ull;
    }
    h = (h ^ 0xFF) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace e2ebench
