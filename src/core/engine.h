// SodaEngine — the concurrent, cached, observable service layer over the
// pipeline.
//
// Soda::Search runs the Figure 4 stage list serially. The engine wraps
// the same Soda instance for service-style deployments (think Sigma-style
// interactive query construction over a warehouse, many users hammering
// the same schema). Every entry point is one Submit, which:
//
//   1. deduplicates the submission's requests on their cache key
//      (ConstrainedCacheKey) and probes an LRU result cache once per
//      unique key — the key is the whitespace-normalized query string
//      (case is kept: comparison literals are case-sensitive), extended
//      by the constraint fingerprint; repeated business queries
//      (dashboards, saved searches) short-circuit the whole pipeline, and
//      hit/miss counters are surfaced on every response;
//   2. runs each miss as one task on a fixed-size worker pool: the task
//      drives all five stages serially through RunPipeline, the same
//      loop as Soda::Search, so the ranked SQL list is byte-identical
//      to the serial reference at any num_threads. The pool schedules
//      only queries and snippets — a lone miss runs inline on the caller;
//   3. executes result snippets as one flat pool task list across the
//      submission's misses, or — on the async entry — returns the
//      translated, ranked SQL immediately and delivers each executed
//      snippet through a SnippetCallback as the pool finishes it, with a
//      SnippetBarrier as the deterministic completion point;
//   4. serves interactive sessions: a request carrying a TranslationPlan
//      slot resumes the held plan inside its task, so a session's Refine
//      re-runs only the stages a constraint change can affect
//      (core/service.h, core/session.h);
//   5. reports to a pluggable MetricsSink — every stage latency, cache
//      hit/miss, batch dedup, snippet outcome and queue-depth sample
//      (default: in-memory counters + histograms, snapshot via
//      metrics_snapshot()).
//
// The engine is safe to share across caller threads: all entry points are
// const, the cache and sink are internally locked, and the underlying
// step objects are stateless (the pattern matcher's memoization is
// mutex-guarded).

#ifndef SODA_CORE_ENGINE_H_
#define SODA_CORE_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/service.h"
#include "core/soda.h"

namespace soda {

class FreshnessManager;

/// The engine's cache key and the sharded router's routing key:
/// whitespace runs collapsed to single spaces, ends trimmed. Case is NOT
/// folded — comparison literals ("family name = Meier") compare
/// case-sensitively in the executor, so differently-cased queries can
/// have genuinely different answers. Exposed so the router, the
/// invalidation predicates handed to InvalidateWhere, and the tests all
/// agree on exactly the bytes that get hashed and cached. Constrained
/// answers extend this with the constraint fingerprint — see
/// ConstrainedCacheKey (core/service.h).
std::string NormalizedQueryKey(const std::string& query);

class SodaEngine : public SodaService {
 public:
  /// Builds the underlying Soda (propagating index-construction errors),
  /// the worker pool (config.num_threads; 0 = hardware concurrency) and
  /// the result cache (config.cache_capacity; 0 disables).
  /// `shared_closure` (optional) is forwarded to Soda::Create — the
  /// sharded router hands every replica the same traversal memo.
  static Result<std::unique_ptr<SodaEngine>> Create(
      const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
      SodaConfig config,
      std::shared_ptr<EntryPointClosure> shared_closure = nullptr);

  /// Wraps an already-constructed Soda.
  explicit SodaEngine(std::unique_ptr<Soda> soda);

  /// Serves a submission (see SodaService::Submit). On a cache hit the
  /// stored output is copied with `from_cache` set, `stages_skipped` = 5
  /// and zeroed stage timings, whichever run stored it; a miss runs the
  /// pipeline as one pool task. The sync entries execute snippets before
  /// returning and cache the materialized answer. The async entry
  /// returns results with executed=false and empty snippets (unless
  /// served from cache, which already holds them), then executes the
  /// snippets on the pool, delivering each through the callback exactly
  /// once per (request index, result index); once the last snippet of a
  /// query lands, its materialized output is inserted into the cache.
  /// Deduplicated repeats share one snippet execution but get their own
  /// callbacks. Every response carries the engine-lifetime cache
  /// counters and the pool width.
  std::vector<Result<SearchOutput>> Submit(
      std::span<const SearchRequest> requests,
      const Submission& submission) const override;

  /// Whether `query` under `constraints` is cached right now: one
  /// lock-scoped peek at its ConstrainedCacheKey that neither promotes
  /// the entry nor books a hit or miss. The router runs a sub-batch
  /// whose every request peeks cached inline on the caller thread.
  bool IsCached(const std::string& query,
                const SessionConstraints& constraints) const {
    return cache_.Contains(
        ConstrainedCacheKey(NormalizedQueryKey(query), constraints));
  }

  /// Cache observability and control.
  CacheStats cache_stats() const override { return cache_.stats(); }
  void ClearCache() const override { cache_.Clear(); }

  /// Keyed cache invalidation: evicts every cached answer whose
  /// normalized query key (see NormalizedQueryKey) satisfies `pred`, and
  /// returns how many entries were dropped. This is the base-data update
  /// hook for mutable warehouses — on a table refresh, evict the queries
  /// that mention it instead of clearing the whole cache. Safe to call
  /// concurrently with Search traffic: the predicate runs under the
  /// cache lock (keep it cheap; it must not call back into the engine),
  /// and in-flight readers keep their payloads alive. Note async
  /// streaming inserts into the cache after its barrier drains, so
  /// invalidate after Wait() to cover in-flight async answers.
  size_t InvalidateWhere(
      const std::function<bool(const std::string&)>& pred) const override;

  /// Incremental base-data maintenance: forwards one storage ChangeEvent
  /// to the underlying Soda's inverted index. MUST run under the
  /// database change log's exclusive data lock (i.e. from a
  /// ChangeListener) — every serving path holds the shared side for its
  /// whole serve, so the delta can never interleave with a probe.
  /// Returns the number of new posting entries.
  size_t ApplyBaseDataDelta(const ChangeEvent& event) override {
    return soda_->ApplyBaseDataDelta(event);
  }

  /// Registers the freshness manager this engine reports cache inserts
  /// to: each materialized answer's (normalized key, dependency terms,
  /// referenced tables) triple is recorded so storage mutations can
  /// invalidate exactly the affected keys. Install before serving
  /// traffic (entries cached earlier have no recorded dependencies).
  /// nullptr detaches. Normally called by FreshnessManager::Track.
  void set_freshness(FreshnessManager* freshness) override {
    freshness_ = freshness;
  }

  /// Replaces the metrics sink (statsd/Prometheus exporters plug in
  /// here). Not thread-safe with respect to in-flight searches — install
  /// the sink before serving traffic. Passing nullptr restores the
  /// built-in in-memory sink.
  void set_metrics_sink(std::shared_ptr<MetricsSink> sink) override;

  /// The active sink.
  MetricsSink* metrics_sink() const { return sink_.get(); }

  /// Snapshot of the built-in in-memory sink. When a custom sink is
  /// installed the built-in one stops receiving events and this freezes;
  /// snapshot the custom sink through its own interface instead.
  MetricsSnapshot metrics_snapshot() const override {
    return default_sink_->Snapshot();
  }

  /// Effective parallelism: worker count, or 1 when running inline.
  size_t num_threads() const override;

  /// Worker-pool backlog (see SodaService::queue_depth).
  size_t queue_depth() const override { return pool_.queue_depth(); }

  const Soda& soda() const { return *soda_; }

 private:
  struct Item;

  /// One miss, Steps 1-5 serially on the calling thread through
  /// RunPipeline. A request with a plan slot resumes a still-fresh
  /// matching plan — skipping Step 1 (bindings changed) or Steps 1-4
  /// (pins/bans only) — and captures a fresh plan into item->captured
  /// whenever it could not reuse the held one. Outputs are byte-identical
  /// across all paths. `trace` parents the stage spans.
  Result<SearchOutput> Translate(Item* item, const TraceContext& trace,
                                 bool batched) const;

  /// Whether a captured plan may still be resumed: its valid flag has
  /// not been flipped by a freshness hook, and — when nobody watches it
  /// — the change log has not advanced past its capture point.
  bool PlanStillFresh(const TranslationPlan& plan) const;

  /// Registers a freshly captured plan with the freshness manager so
  /// base-data mutations touching its term vocabulary flip its valid
  /// flag. No-op without a manager.
  void RegisterPlan(const std::shared_ptr<TranslationPlan>& plan) const;

  /// Expands per-unique Items into per-request outputs, booking dedup
  /// repeats as cache hits and stamping the lifetime counters.
  /// `mark_dedup_as_cached` sets from_cache on in-batch repeats — true
  /// for the sync path (repeats are materialized), false for async
  /// (repeats are still-unexecuted translations). Every response served
  /// from cache reports stages_skipped = 5 and zeroed stage timings, with
  /// this call's own elapsed time since `start` as its wall time.
  std::vector<Result<SearchOutput>> Expand(
      std::vector<Item> items, size_t request_count, bool mark_dedup_as_cached,
      std::chrono::steady_clock::time_point start) const;

  /// Shared data lock for the serve (empty when the engine has no
  /// database): every entry point takes one before probing the cache and
  /// holds it through its own cache insert, so answers can never be
  /// cached after an invalidation that should have covered them.
  std::shared_lock<std::shared_mutex> ReadGuard() const;

  /// Cache insert + freshness dependency registration, one atom: both
  /// happen under the caller's ReadGuard.
  void CacheInsert(const std::string& key, const SearchOutput& output) const;

  std::unique_ptr<Soda> soda_;
  FreshnessManager* freshness_ = nullptr;
  mutable LruCache<std::string, SearchOutput> cache_;
  std::shared_ptr<InMemoryMetricsSink> default_sink_;
  std::shared_ptr<MetricsSink> sink_;
  // Declared last: the pool's destructor drains queued async snippet
  // tasks, which still touch the cache and the sink above — they must
  // outlive the workers.
  mutable ThreadPool pool_;
};

}  // namespace soda

#endif  // SODA_CORE_ENGINE_H_
