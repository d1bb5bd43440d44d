// Seeded keyword-query generator over the enterprise warehouse.
//
// Templates cover every query type of the paper's Table 2 — B (base
// data), S (schema), D (domain ontology), I (inheritance), P
// (predicates), A (aggregates) — and are filled from the warehouse's own
// vocabulary, read out of its tables: given and family names, cities,
// countries, currencies, organisation and product names, agreement kinds,
// dates and amounts. The Table-2 queries themselves form one more
// template. Every instantiation is a real query; nothing is appended to
// make strings unique, so distinct strings are distinct questions.
//
// The pool (all templates, each capped) depends only on the warehouse;
// draws from it depend only on the seed. Output is therefore
// byte-identical across runs for one seed.

#ifndef SODA_E2EBENCH_QUERY_GEN_H_
#define SODA_E2EBENCH_QUERY_GEN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/table.h"

namespace e2ebench {

struct GeneratedQuery {
  std::string text;
  size_t template_index = 0;
};

struct QueryTemplate {
  std::string name;   // e.g. "B.given_family"
  std::string types;  // Table-2 type letters it exercises
  std::string pattern;
};

class QueryGenerator {
 public:
  /// Reads the vocabulary out of `db` and instantiates every template.
  /// Instantiations are deduplicated by normalized query text across the
  /// whole pool; each template keeps at most 300 of them, chosen by a
  /// fixed (seed-independent) draw, so the pool is the same for every
  /// seed.
  explicit QueryGenerator(const soda::Database& db);

  const std::vector<QueryTemplate>& templates() const { return templates_; }
  const std::vector<GeneratedQuery>& pool() const { return pool_; }

  /// The values of one template slot ("given", "family", "city", ...).
  const std::vector<std::string>& vocabulary(const std::string& slot) const {
    return vocabulary_.at(slot);
  }

  /// `n` distinct queries drawn without replacement (n <= pool size),
  /// stratified so every template contributes its pool share (rounded,
  /// at least one), in a seeded order.
  std::vector<GeneratedQuery> DrawDistinct(size_t n, uint64_t seed) const;

 private:
  std::map<std::string, std::vector<std::string>> vocabulary_;
  std::vector<QueryTemplate> templates_;
  std::vector<GeneratedQuery> pool_;
};

/// FNV-1a over the query texts in order — the fingerprint printed so
/// two runs with one seed can be compared.
uint64_t SequenceFingerprint(const std::vector<GeneratedQuery>& queries);

}  // namespace e2ebench

#endif  // SODA_E2EBENCH_QUERY_GEN_H_
