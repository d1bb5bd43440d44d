// ShardedSodaEngine — a query router over N replicated SodaEngines.
//
// The SODA pipeline is embarrassingly parallel across queries: every
// engine is shared-nothing over the same `const Database*` + metadata
// graph, so scaling past one worker pool is a routing problem, not an
// algorithm problem. This tier fronts N SodaEngine replicas (each with
// its own pool and its own LRU result cache) behind one engine-shaped
// surface:
//
//   1. routing — every query is assigned to exactly one shard by a
//      folded 64-bit FNV-1a hash of its whitespace-normalized string
//      (NormalizedQueryKey). Deterministic and platform-independent, so
//      a query's cache entry lives on exactly one shard, repeats always
//      hit the shard that computed them, and the shard map is stable
//      across runs and machines. Session traffic routes by the same key
//      — the constraint fingerprint is deliberately NOT hashed — so
//      every constrained variant of one question lands on one shard
//      (session affinity: a Refine always finds the shard whose cache
//      and plans know the question);
//   2. one dispatch loop — Submit splits every submission (a dashboard
//      batch, a single Search, a session Refine) into per-shard
//      sub-batches, runs each through the same launch/retry path, and
//      re-merges the per-request Results into input order. Each shard
//      still applies its own in-batch dedup and cache, so the ranked
//      output is byte-identical to a single engine at any shard count ×
//      thread count. With one shard, or one request, the attempt runs
//      inline on the caller thread, and so does a sub-batch whose every
//      request is already cached on its target shard; otherwise the
//      occupied shards run concurrently on a persistent router-side
//      dispatch pool;
//   3. failure domains — every shard is wrapped in a small circuit
//      breaker (closed → quarantined → probing). A sub-batch whose
//      dispatch fails (throws, errors through the "shard.dispatch"
//      failpoint, or outlives the per-sub-batch deadline) is retried
//      with exponential backoff on the next healthy replica. Replicas
//      are shared-nothing full copies of the same database, so the
//      re-route is correct — a cache miss, never a wrong answer. A
//      shard that fails shard_failure_threshold times in a row is
//      quarantined: traffic avoids it until its backoff elapses, then
//      one probe sub-batch decides between re-admission and a doubled
//      backoff. health() reports the breaker per shard;
//      router.{shard_failures,retries,quarantines,readmissions,
//      rerouted_queries} count the machinery;
//   4. aggregated observability — metrics_snapshot() merges every
//      shard's sink plus the router's own samples
//      (router.shard_batch_size, router.shard_queries, router.batches)
//      into one fleet view; cache_stats() sums the per-shard books;
//   5. invalidation fan-out — ClearCache() and InvalidateWhere(pred)
//      forward to every shard, so base-data update notifications keep
//      working when the cache is spread over N replicas.
//
// Thread-safety matches SodaEngine: all entry points are const and safe
// to call from many caller threads at once.

#ifndef SODA_CORE_SHARDED_ENGINE_H_
#define SODA_CORE_SHARDED_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/service.h"

namespace soda {

/// The router's shard choice for a *normalized* query key (callers hash
/// NormalizedQueryKey(query), not the raw string): 64-bit FNV-1a folded
/// to 32 bits (high xor low) before the modulo, so short keys still
/// spread over the full shard range. Exposed for tests and for external
/// placement logic (e.g. cache warmers) that must agree with the router.
size_t ShardOfKey(const std::string& normalized_key, size_t num_shards);

class ShardedSodaEngine : public SodaService {
 public:
  /// Builds config.num_shards SodaEngine replicas over the same catalog
  /// and graph (each replica copies the pattern library and builds its
  /// own indexes). Construction failures of any replica propagate.
  /// num_shards 0 and 1 both build a single shard. With num_threads=0
  /// ("use the hardware"), each shard gets hardware_concurrency /
  /// num_shards workers (min 1), so the fleet's pool roughly matches the
  /// machine instead of oversubscribing it num_shards-fold.
  static Result<std::unique_ptr<ShardedSodaEngine>> Create(
      const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
      SodaConfig config);

  /// Wraps already-constructed replicas. `shards` must be non-empty and
  /// hold no nulls (asserted): every routing path indexes into it. The
  /// failure-isolation policy (thresholds, backoffs, deadline) is read
  /// from the first replica's config — all shards share one config.
  explicit ShardedSodaEngine(std::vector<std::unique_ptr<SodaEngine>> shards);

  /// Splits the submission by shard, runs each sub-batch on its shard's
  /// Submit (plan slots included) with failover, and merges the outputs
  /// back into input order. Byte-identical ranked results to a single
  /// engine; in-batch dedup still applies (identical normalized queries
  /// route identically, so they meet in one sub-batch). A sub-batch
  /// whose shard fails — or, on the dispatch pool, stalls past the
  /// configured deadline — is re-dispatched to a healthy replica; only
  /// when every attempt is exhausted do its requests come back as
  /// per-request Unavailable errors, and the rest of the submission is
  /// unaffected. Async submissions remap each callback's index to the
  /// caller's position, and every shard's translations complete before
  /// this returns (so the barrier has its full expectation registered);
  /// snippets stream afterwards from every shard's pool concurrently.
  /// Books router.shard_queries per request, router.session_queries per
  /// plan slot, and router.batches + router.shard_batch_size for the
  /// batch entries.
  std::vector<Result<SearchOutput>> Submit(
      std::span<const SearchRequest> requests,
      const Submission& submission) const override;

  /// Sum of every shard's cache books (hits/misses/dedup/invalidations;
  /// capacity and size sum too — they describe the fleet).
  CacheStats cache_stats() const override;

  /// Fans out to every shard.
  void ClearCache() const override;

  /// Keyed invalidation fan-out: forwards `pred` (over normalized query
  /// keys) to every shard and returns the total number of evicted
  /// entries. Each key lives on exactly one shard, so the total equals
  /// what a single engine would have evicted.
  size_t InvalidateWhere(
      const std::function<bool(const std::string&)>& pred) const override;

  /// Incremental base-data maintenance fan-out: every replica owns its
  /// own inverted index over the shared database, so one storage
  /// ChangeEvent must reach all of them. Same contract as
  /// SodaEngine::ApplyBaseDataDelta (call under the change log's
  /// exclusive data lock, i.e. from a ChangeListener). Returns the sum
  /// of new posting entries across shards.
  size_t ApplyBaseDataDelta(const ChangeEvent& event) override;

  /// Registers the freshness manager on every shard (each replica
  /// reports its own cache inserts; the manager dedups by key). nullptr
  /// detaches. Normally called by FreshnessManager::Track.
  void set_freshness(FreshnessManager* freshness) override;

  /// Installs `sink` on every shard — the exporter hook for fleet
  /// deployments (MetricsSink implementations are thread-safe, so one
  /// instance may serve all shards). Same caveat as
  /// SodaEngine::set_metrics_sink: install before serving traffic.
  /// nullptr restores each shard's built-in sink. The router's own
  /// router.* samples stay in its internal sink either way and keep
  /// appearing in metrics_snapshot().
  void set_metrics_sink(std::shared_ptr<MetricsSink> sink) override;

  /// Fleet view: every shard's snapshot merged (counters add, histograms
  /// merge on the shared bucket grid) plus the router's own router.*
  /// series — including router.shards_quarantined, the point-in-time
  /// count of shards currently outside the closed state (how quarantine
  /// state reaches /metrics). Shards whose built-in sink was replaced
  /// via set_metrics_sink stop contributing new samples here — snapshot
  /// the custom sink instead.
  MetricsSnapshot metrics_snapshot() const override;

  /// Per-shard circuit-breaker state; degraded when any shard is not
  /// closed. The HTTP front end's /healthz renders this.
  ServiceHealth health() const override;

  size_t num_shards() const { return shards_.size(); }

  /// Per-shard worker width (all shards share one config).
  size_t num_threads() const override { return shards_.front()->num_threads(); }

  /// Fleet backlog: the router's own dispatch-pool queue plus every
  /// shard pool's queue (see SodaService::queue_depth). This is the
  /// depth signal the HTTP front end's admission watermark compares
  /// against — a batch wave that outruns the shards shows up here
  /// before latency does.
  size_t queue_depth() const override;

  /// Direct access to one replica, for tests and per-shard inspection.
  const SodaEngine& shard(size_t i) const { return *shards_[i]; }

 private:
  enum class BreakerState { kClosed, kQuarantined, kProbing };

  struct ShardBreaker {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    uint64_t total_failures = 0;
    double backoff_ms = 0.0;
    std::chrono::steady_clock::time_point retry_at{};
  };

  /// Failure-isolation knobs, copied out of SodaConfig at construction.
  struct FailoverPolicy {
    size_t failure_threshold = 3;
    double backoff_initial_ms = 100.0;
    double backoff_max_ms = 5000.0;
    size_t retry_limit = 2;
    double retry_backoff_ms = 1.0;
    double dispatch_deadline_ms = 0.0;
  };

  struct SubBatch;
  struct Attempt;
  struct Flight;

  /// Whether an attempt of `sub` on shard `target` runs inline on the
  /// caller thread: always when `all_inline` (one shard or one request),
  /// else when every request of `sub` is already cached on `target` — a
  /// hit-only sub-batch costs less than the handoff to the dispatch
  /// pool. An entry evicted between this peek and the attempt merely
  /// runs its pipeline inline.
  bool RunsInline(size_t target, const SubBatch& sub, bool all_inline) const;

  /// Starts one dispatch attempt of `sub` on shard `target`: inline on
  /// this thread when `run_inline`, else as a dispatch-pool task. The
  /// attempt's spans parent under `trace`.
  std::shared_ptr<Attempt> LaunchAttempt(size_t target,
                                         std::shared_ptr<const SubBatch> sub,
                                         const TraceContext& trace,
                                         bool run_inline) const;

  /// The retry loop. Joins the flight's in-flight first attempt and, on
  /// failure, re-dispatches with exponential backoff on the next
  /// admitted replica; abandons sync pool attempts that outlive the
  /// dispatch deadline; reports every outcome to the breaker. On success
  /// the attempt's plan slots move into the flight. Returns per-request
  /// outputs; after the retry budget every request carries an
  /// Unavailable status.
  std::vector<Result<SearchOutput>> RunSubBatchWithFailover(
      Flight* flight, bool all_inline) const;

  /// Breaker admission: first shard at or after `start` (mod N) the
  /// breaker lets through (a quarantined shard whose backoff elapsed is
  /// admitted as the probe). When every shard is quarantined and none
  /// is due, returns the kNoShard sentinel — callers fail fast with
  /// Unavailable rather than force traffic onto a known-bad replica.
  size_t AcquireTarget(size_t start) const;

  void ReportShardSuccess(size_t shard) const;

  /// Charges one failure to the shard's breaker. Returns true when this
  /// failure tripped (or, for a failed probe, re-tripped) quarantine —
  /// callers record that decision as a trace span event.
  bool ReportShardFailure(size_t shard) const;

  std::vector<std::unique_ptr<SodaEngine>> shards_;
  std::shared_ptr<InMemoryMetricsSink> router_sink_;
  FailoverPolicy policy_;

  mutable std::mutex breaker_mu_;
  mutable std::vector<ShardBreaker> breakers_;

  // Runs per-shard sub-batch dispatches of multi-shard, multi-request
  // submissions (Submit per attempt; the waiting caller can abandon a
  // stalled attempt instead of blocking forever). Persistent: no
  // per-batch thread create/join on the serving hot path, and no
  // std::terminate if thread creation fails mid-batch.
  // Declared last so in-flight dispatches drain before the members they
  // touch are destroyed.
  mutable ThreadPool dispatch_pool_;
};

}  // namespace soda

#endif  // SODA_CORE_SHARDED_ENGINE_H_
