#include "core/service.h"

#include <utility>
#include <vector>

namespace soda {

// ---------------------------------------------------------------------------
// SnippetBarrier
// ---------------------------------------------------------------------------

void SnippetBarrier::Expect(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_ += n;
}

void SnippetBarrier::Deliver(std::exception_ptr exception) {
  std::lock_guard<std::mutex> lock(mu_);
  ++delivered_;
  if (exception) {
    ++exceptions_;
    if (!first_exception_) first_exception_ = std::move(exception);
  }
  if (delivered_ >= expected_) done_.notify_all();
}

void SnippetBarrier::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [&] { return delivered_ >= expected_; });
}

size_t SnippetBarrier::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_ - delivered_;
}

size_t SnippetBarrier::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

size_t SnippetBarrier::callback_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exceptions_;
}

std::exception_ptr SnippetBarrier::first_exception() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_exception_;
}

// ---------------------------------------------------------------------------
// Cache-key composition
// ---------------------------------------------------------------------------

std::string ConstrainedCacheKey(const std::string& normalized_key,
                                const SessionConstraints& constraints) {
  if (constraints.empty()) return normalized_key;
  return normalized_key + '\x1f' + constraints.Fingerprint();
}

// ---------------------------------------------------------------------------
// Entry points: every search is one Submit
// ---------------------------------------------------------------------------

const char* SearchEntryName(SearchEntry entry) {
  switch (entry) {
    case SearchEntry::kSearch:
      return "engine.search";
    case SearchEntry::kSearchAll:
      return "engine.search_all";
    case SearchEntry::kSearchAllAsync:
      return "engine.search_all_async";
  }
  return "engine.search_all";
}

const SessionConstraints& SearchRequest::Constraints() const {
  static const SessionConstraints kUnconstrained;
  return constraints != nullptr ? *constraints : kUnconstrained;
}

namespace {

std::vector<SearchRequest> RequestsOf(std::span<const std::string> queries) {
  std::vector<SearchRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) requests[i].query = &queries[i];
  return requests;
}

}  // namespace

Result<SearchOutput> SodaService::Search(const std::string& query) const {
  return Search(query, SessionConstraints{});
}

Result<SearchOutput> SodaService::Search(
    const std::string& query, const SessionConstraints& constraints) const {
  SearchRequest request{&query, &constraints, nullptr};
  Submission submission{SearchEntry::kSearch, {}, nullptr};
  return std::move(Submit({&request, 1}, submission)[0]);
}

Result<SearchOutput> SodaService::SearchSession(
    const std::string& query, const SessionConstraints& constraints,
    std::shared_ptr<TranslationPlan>* plan) const {
  SearchRequest request{&query, &constraints, plan};
  Submission submission{SearchEntry::kSearch, {}, nullptr};
  return std::move(Submit({&request, 1}, submission)[0]);
}

std::vector<Result<SearchOutput>> SodaService::SearchAll(
    std::span<const std::string> queries) const {
  Submission submission{SearchEntry::kSearchAll, {}, nullptr};
  return Submit(RequestsOf(queries), submission);
}

Result<SearchOutput> SodaService::SearchAsync(const std::string& query,
                                              SnippetCallback on_snippet,
                                              SnippetBarrier* barrier) const {
  SearchRequest request{&query, nullptr, nullptr};
  Submission submission{SearchEntry::kSearchAllAsync, std::move(on_snippet),
                        barrier};
  return std::move(Submit({&request, 1}, submission)[0]);
}

std::vector<Result<SearchOutput>> SodaService::SearchAllAsync(
    std::span<const std::string> queries, SnippetCallback on_snippet,
    SnippetBarrier* barrier) const {
  Submission submission{SearchEntry::kSearchAllAsync, std::move(on_snippet),
                        barrier};
  return Submit(RequestsOf(queries), submission);
}

}  // namespace soda
