#include "core/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/trace.h"

namespace soda {

namespace {

// 64-bit FNV-1a over the key bytes. Deliberately not std::hash: the
// router's shard map must be identical across standard libraries and
// runs, so tests (and any external placement logic) can rely on it.
uint64_t Fnv1a64(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : key) {
    hash ^= static_cast<uint64_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

// AcquireTarget's "every replica quarantined and none due" verdict.
constexpr size_t kNoShard = static_cast<size_t>(-1);

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// A shard's snippet callback: maps the sub-batch's request positions back
// to the submission's before calling the caller's callback.
struct RemappedCallback {
  std::vector<size_t> to_global;
  SnippetCallback callback;

  void operator()(size_t query_index, size_t result_index,
                  const SodaResult& result) const {
    callback(to_global[query_index], result_index, result);
  }
};

}  // namespace

size_t ShardOfKey(const std::string& normalized_key, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t hash = Fnv1a64(normalized_key);
  // Fold to 32 bits: FNV's low bits mix slowly for short keys, so xor
  // the halves before the modulo to keep small shard counts balanced.
  uint32_t folded = static_cast<uint32_t>(hash >> 32) ^
                    static_cast<uint32_t>(hash & 0xffffffffull);
  return static_cast<size_t>(folded % num_shards);
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ShardedSodaEngine>> ShardedSodaEngine::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config) {
  size_t num_shards = config.num_shards == 0 ? 1 : config.num_shards;
  // num_threads=0 means "use the hardware" — for a fleet that must mean
  // the hardware divided across shards, not multiplied by them (8 shards
  // on a 64-core box should build ~64 workers, not 512).
  if (config.num_threads == 0 && num_shards > 1) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    config.num_threads = std::max<size_t>(1, hw / num_shards);
  }
  // One traversal memo for the whole fleet: the closure depends only on
  // the (immutable, shared) metadata graph + config, so replicas can
  // share it — any shard's traffic warms every shard's entry points.
  std::shared_ptr<EntryPointClosure> shared_closure;
  if (config.enable_closures && graph != nullptr) {
    shared_closure = std::make_shared<EntryPointClosure>(graph->num_nodes());
  }
  std::vector<std::unique_ptr<SodaEngine>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    SODA_ASSIGN_OR_RETURN(
        std::unique_ptr<SodaEngine> shard,
        SodaEngine::Create(db, graph, patterns, config, shared_closure));
    shards.push_back(std::move(shard));
  }
  return std::make_unique<ShardedSodaEngine>(std::move(shards));
}

ShardedSodaEngine::ShardedSodaEngine(
    std::vector<std::unique_ptr<SodaEngine>> shards)
    : shards_(std::move(shards)),
      router_sink_(std::make_shared<InMemoryMetricsSink>()),
      dispatch_pool_(shards_.size()) {
  assert(!shards_.empty() && "router needs at least one shard");
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    assert(shard != nullptr && "null shard");
    (void)shard;
  }
  const SodaConfig& config = shards_.front()->soda().config();
  policy_.failure_threshold =
      std::max<size_t>(1, config.shard_failure_threshold);
  policy_.backoff_initial_ms = config.shard_backoff_initial_ms;
  policy_.backoff_max_ms = config.shard_backoff_max_ms;
  policy_.retry_limit = config.shard_retry_limit;
  policy_.retry_backoff_ms = config.shard_retry_backoff_ms;
  policy_.dispatch_deadline_ms = config.shard_dispatch_deadline_ms;
  breakers_.resize(shards_.size());
  // Pre-register every router series (PR 8 did the same for server.*):
  // a first /metrics scrape exports the full failure-isolation surface
  // even before any traffic — dashboards and alerts can be written
  // against series that exist from boot.
  for (const char* counter :
       {"router.batches", "router.shard_queries", "router.session_queries",
        "router.invalidations", "router.shard_failures", "router.retries",
        "router.quarantines", "router.readmissions",
        "router.rerouted_queries", "router.cached_sub_batches"}) {
    router_sink_->IncrementCounter(counter, 0);
  }
  router_sink_->RegisterHistogram("router.shard_batch_size");
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

size_t ShardedSodaEngine::AcquireTarget(size_t start) const {
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(breaker_mu_);
  for (size_t k = 0; k < shards_.size(); ++k) {
    size_t s = (start + k) % shards_.size();
    ShardBreaker& b = breakers_[s];
    switch (b.state) {
      case BreakerState::kClosed:
      case BreakerState::kProbing:
        return s;
      case BreakerState::kQuarantined:
        if (now >= b.retry_at) {
          // Backoff elapsed: this dispatch is the probe.
          b.state = BreakerState::kProbing;
          return s;
        }
        break;
    }
  }
  return kNoShard;
}

void ShardedSodaEngine::ReportShardSuccess(size_t shard) const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  ShardBreaker& b = breakers_[shard];
  if (b.state == BreakerState::kProbing) {
    router_sink_->IncrementCounter("router.readmissions", 1);
  }
  b.state = BreakerState::kClosed;
  b.consecutive_failures = 0;
  b.backoff_ms = 0.0;
}

bool ShardedSodaEngine::ReportShardFailure(size_t shard) const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  ShardBreaker& b = breakers_[shard];
  ++b.consecutive_failures;
  ++b.total_failures;
  router_sink_->IncrementCounter("router.shard_failures", 1);
  // A failed probe re-quarantines immediately (the shard just proved it
  // is still sick); a closed shard crosses into quarantine at the
  // threshold. Backoff doubles per quarantine up to the cap.
  bool quarantine = b.state == BreakerState::kProbing ||
                    b.consecutive_failures >= policy_.failure_threshold;
  if (!quarantine) return false;
  b.backoff_ms = b.backoff_ms <= 0.0
                     ? policy_.backoff_initial_ms
                     : std::min(b.backoff_ms * 2.0, policy_.backoff_max_ms);
  b.retry_at = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(b.backoff_ms));
  if (b.state != BreakerState::kQuarantined) {
    router_sink_->IncrementCounter("router.quarantines", 1);
  }
  b.state = BreakerState::kQuarantined;
  return true;
}

ServiceHealth ShardedSodaEngine::health() const {
  auto now = std::chrono::steady_clock::now();
  ServiceHealth health;
  std::lock_guard<std::mutex> lock(breaker_mu_);
  health.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardBreaker& b = breakers_[s];
    ShardHealthInfo info;
    info.shard = s;
    switch (b.state) {
      case BreakerState::kClosed:
        info.state = "closed";
        break;
      case BreakerState::kQuarantined:
        info.state = "quarantined";
        break;
      case BreakerState::kProbing:
        info.state = "probing";
        break;
    }
    info.consecutive_failures = b.consecutive_failures;
    info.total_failures = b.total_failures;
    info.backoff_ms = b.backoff_ms;
    if (b.state == BreakerState::kQuarantined && b.retry_at > now) {
      info.retry_in_ms =
          std::chrono::duration<double, std::milli>(b.retry_at - now).count();
    }
    health.degraded = health.degraded || b.state != BreakerState::kClosed;
    health.shards.push_back(std::move(info));
  }
  return health;
}

// ---------------------------------------------------------------------------
// The dispatch loop
// ---------------------------------------------------------------------------

// One home shard's share of a submission, owned by the router: an attempt
// the caller abandons past the dispatch deadline keeps running against
// this copy, never against the caller's frame.
struct ShardedSodaEngine::SubBatch {
  size_t home = 0;
  std::vector<size_t> indices;  // request positions in the submission
  std::vector<std::string> queries;
  std::vector<SessionConstraints> constraints;
  std::vector<bool> sessions;  // the request carries a plan slot
  std::vector<std::shared_ptr<TranslationPlan>> plans;  // held at submit
  Submission submission;  // callback remapped to submission positions
};

// One dispatch attempt of one sub-batch on one shard, shared between the
// code that executes it and the caller that waits on it. The caller may
// abandon a stalled pool attempt (the task keeps running to completion
// against this struct, whose shared_ptr — and the sub-batch's — outlive
// the call), so `started`/`done`/`abandoned` make the handoff explicit.
// The attempt writes only its own plan slots; the waiting caller moves
// them into the flight once the attempt succeeded.
struct ShardedSodaEngine::Attempt {
  enum class Outcome {
    kDone,          // attempt finished (failure says how)
    kQueueTimeout,  // never started within the deadline: pool congestion
    kStallTimeout,  // started but did not finish: the shard stalled
  };

  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool done = false;
  bool abandoned = false;
  Status failure;  // non-OK: the whole attempt failed (throw/failpoint)
  std::vector<Result<SearchOutput>> outputs;
  std::vector<std::shared_ptr<TranslationPlan>> plans;

  // Blocks until the attempt completes; with a positive deadline gives
  // up after `deadline_ms`, marking the attempt abandoned so a
  // not-yet-started task skips execution entirely.
  Outcome Wait(double deadline_ms) {
    std::unique_lock<std::mutex> lock(mu);
    if (deadline_ms <= 0.0) {
      cv.wait(lock, [&] { return done; });
      return Outcome::kDone;
    }
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
    if (cv.wait_until(lock, deadline, [&] { return done; })) {
      return Outcome::kDone;
    }
    abandoned = true;
    return started ? Outcome::kStallTimeout : Outcome::kQueueTimeout;
  }
};

// One sub-batch in flight: its routing span (retry, re-route,
// stall-abandon and quarantine decisions land here as events), its
// current target and attempt, and — after success — its plan slots.
struct ShardedSodaEngine::Flight {
  std::shared_ptr<const SubBatch> sub;
  Span route_span;
  size_t target = 0;
  std::shared_ptr<Attempt> attempt;  // null: no replica was admitted
  std::vector<std::shared_ptr<TranslationPlan>> plans;
};

std::vector<Result<SearchOutput>> ShardedSodaEngine::Submit(
    std::span<const SearchRequest> requests,
    const Submission& submission) const {
  if (requests.empty()) return {};

  // Split by the normalized query alone: the constraints are never
  // hashed, so every constrained variant of one question — a session's
  // whole life — lands on one shard (session affinity). Sub-batches keep
  // input order, so a shard sees its requests exactly as a single engine
  // would have (dedup keeps first-occurrence semantics).
  std::vector<std::shared_ptr<SubBatch>> subs(shards_.size());
  size_t sessions = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SearchRequest& request = requests[i];
    size_t home =
        ShardOfKey(NormalizedQueryKey(*request.query), shards_.size());
    if (subs[home] == nullptr) {
      subs[home] = std::make_shared<SubBatch>();
      subs[home]->home = home;
    }
    SubBatch& sub = *subs[home];
    sub.indices.push_back(i);
    sub.queries.push_back(*request.query);
    sub.constraints.push_back(request.Constraints());
    sub.sessions.push_back(request.plan != nullptr);
    sub.plans.push_back(request.plan != nullptr ? *request.plan : nullptr);
    if (request.plan != nullptr) ++sessions;
  }
  const bool batched = submission.entry != SearchEntry::kSearch;
  router_sink_->IncrementCounter("router.shard_queries", requests.size());
  if (sessions > 0) {
    router_sink_->IncrementCounter("router.session_queries", sessions);
  }
  if (batched) router_sink_->IncrementCounter("router.batches", 1);

  // With one shard or one request there is nothing to overlap, so the
  // attempt runs inline on the caller thread — concurrent callers of a
  // 1-shard router never queue behind one dispatch thread. A sub-batch
  // whose every request is cached on its target runs inline too: serving
  // hits is cheaper than the handoff. Every other occupied home's first
  // attempt launches on the dispatch pool before any is joined (and
  // before the inline ones run), so healthy sub-batches run concurrently
  // while a failing one walks its retry chain. For an async submission
  // this covers the translation phase only — each shard registers its
  // callbacks on the barrier before its Submit returns, so by the time
  // this returns the barrier's expectation is complete and snippets keep
  // streaming from every shard's pool.
  const bool all_inline = shards_.size() == 1 || requests.size() == 1;
  std::vector<Flight> flights;
  flights.reserve(shards_.size());
  std::vector<size_t> inline_flights;  // launched once the pool has work
  for (std::shared_ptr<SubBatch>& sub : subs) {
    if (sub == nullptr) continue;
    if (batched) {
      router_sink_->Observe("router.shard_batch_size",
                            static_cast<double>(sub->queries.size()));
    }
    sub->submission.entry = submission.entry;
    sub->submission.barrier = submission.barrier;
    if (submission.on_snippet) {
      // By value: the callback outlives this call — snippets stream from
      // the shard's pool long after the sub-batch is merged.
      sub->submission.on_snippet =
          RemappedCallback{sub->indices, submission.on_snippet};
    }
    Flight flight;
    flight.sub = sub;
    // Joins whatever trace the caller (usually the HTTP server)
    // installed on this thread; the dispatch spans parent here.
    flight.route_span = Span(CurrentTraceContext(), "router.route");
    if (flight.route_span.active()) {
      flight.route_span.SetAttr("home", static_cast<int64_t>(sub->home));
      flight.route_span.SetAttr("queries",
                                static_cast<int64_t>(sub->queries.size()));
    }
    size_t target = AcquireTarget(sub->home);
    if (target != kNoShard) {
      flight.target = target;
      if (target != sub->home) {
        router_sink_->IncrementCounter("router.rerouted_queries",
                                       sub->queries.size());
        flight.route_span.AddEvent("reroute",
                                   "shard " + std::to_string(target));
      }
      if (RunsInline(target, *sub, all_inline)) {
        if (!all_inline) {
          router_sink_->IncrementCounter("router.cached_sub_batches", 1);
        }
        inline_flights.push_back(flights.size());
      } else {
        flight.attempt = LaunchAttempt(target, sub,
                                       flight.route_span.context(), false);
      }
    }
    flights.push_back(std::move(flight));
  }
  for (size_t f : inline_flights) {
    Flight& flight = flights[f];
    flight.attempt = LaunchAttempt(flight.target, flight.sub,
                                   flight.route_span.context(), true);
  }

  // Re-merge into input order; plan slots are written here, on the
  // caller thread, and only from an attempt the caller waited for.
  std::vector<Result<SearchOutput>> outputs(
      requests.size(),
      Result<SearchOutput>(Status::Internal("unrouted request")));
  for (Flight& flight : flights) {
    std::vector<Result<SearchOutput>> sub_outputs =
        RunSubBatchWithFailover(&flight, all_inline);
    const SubBatch& sub = *flight.sub;
    for (size_t k = 0; k < sub.indices.size(); ++k) {
      outputs[sub.indices[k]] = std::move(sub_outputs[k]);
      if (sub.sessions[k] && !flight.plans.empty()) {
        *requests[sub.indices[k]].plan = std::move(flight.plans[k]);
      }
    }
  }
  return outputs;
}

bool ShardedSodaEngine::RunsInline(size_t target, const SubBatch& sub,
                                   bool all_inline) const {
  if (all_inline) return true;
  for (size_t k = 0; k < sub.queries.size(); ++k) {
    if (!shards_[target]->IsCached(sub.queries[k], sub.constraints[k])) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<ShardedSodaEngine::Attempt> ShardedSodaEngine::LaunchAttempt(
    size_t target, std::shared_ptr<const SubBatch> sub,
    const TraceContext& trace, bool run_inline) const {
  auto attempt = std::make_shared<Attempt>();
  attempt->plans = sub->plans;
  // Everything the task touches is captured by value / shared_ptr: if
  // the caller abandons a stalled attempt and returns, the task still
  // has a live sub-batch and a live attempt struct to finish against.
  // The trace context crosses onto the dispatch pool by value and is
  // re-installed inside the task, so the shard engine's spans parent
  // under the route span even though they run on a pool thread.
  auto run = [this, attempt, sub, target, trace] {
    {
      std::lock_guard<std::mutex> lock(attempt->mu);
      if (attempt->abandoned) {
        // The caller gave up before we started: skip the work entirely.
        attempt->done = true;
        attempt->cv.notify_all();
        return;
      }
      attempt->started = true;
    }
    Span dispatch_span(trace, "router.dispatch");
    if (dispatch_span.active()) {
      dispatch_span.SetAttr("shard", static_cast<int64_t>(target));
      dispatch_span.SetAttr("queries",
                            static_cast<int64_t>(sub->queries.size()));
    }
    ScopedTraceContext scoped(dispatch_span.context());
    Status failure;
    std::vector<Result<SearchOutput>> outputs;
    try {
      Status armed =
          SODA_FAILPOINT_STATUS("shard.dispatch", std::to_string(target));
      if (!armed.ok()) {
        failure = std::move(armed);
      } else {
        std::vector<SearchRequest> requests(sub->queries.size());
        for (size_t k = 0; k < requests.size(); ++k) {
          requests[k].query = &sub->queries[k];
          requests[k].constraints = &sub->constraints[k];
          if (sub->sessions[k]) requests[k].plan = &attempt->plans[k];
        }
        outputs = shards_[target]->Submit(requests, sub->submission);
      }
    } catch (const std::exception& e) {
      failure =
          Status::Unavailable(std::string("shard dispatch threw: ") + e.what());
    } catch (...) {
      failure = Status::Unavailable("shard dispatch threw");
    }
    if (!failure.ok()) dispatch_span.SetStatus(failure.message());
    // End (and append) the span before publishing completion: the
    // waiting caller may finish the whole trace the moment done flips,
    // and a span recorded after that is an orphan the render pass
    // cannot attach.
    dispatch_span.End();
    {
      std::lock_guard<std::mutex> lock(attempt->mu);
      attempt->failure = std::move(failure);
      attempt->outputs = std::move(outputs);
      attempt->done = true;
    }
    attempt->cv.notify_all();
  };
  if (run_inline) {
    run();
  } else {
    dispatch_pool_.Submit(std::move(run));
  }
  return attempt;
}

std::vector<Result<SearchOutput>> ShardedSodaEngine::RunSubBatchWithFailover(
    Flight* flight, bool all_inline) const {
  const SubBatch& sub = *flight->sub;
  // The stall deadline binds sync pool attempts only: an inline attempt
  // has finished before it is joined, and an async sub-batch registers
  // its snippet callbacks on the caller's barrier — an abandoned
  // half-registered attempt could deliver duplicates.
  const bool async = sub.submission.entry == SearchEntry::kSearchAllAsync;
  double deadline_ms = async ? 0.0 : policy_.dispatch_deadline_ms;
  Span& span = flight->route_span;
  Status last = Status::Unavailable("no dispatch attempted");
  size_t target = flight->target;
  std::shared_ptr<Attempt> attempt = std::move(flight->attempt);
  for (size_t attempts_used = 0;; ++attempts_used) {
    if (attempt != nullptr) {
      switch (attempt->Wait(deadline_ms)) {
        case Attempt::Outcome::kDone: {
          Status failure;
          std::vector<Result<SearchOutput>> outputs;
          {
            std::lock_guard<std::mutex> lock(attempt->mu);
            failure = std::move(attempt->failure);
            outputs = std::move(attempt->outputs);
            if (failure.ok()) flight->plans = std::move(attempt->plans);
          }
          if (failure.ok()) {
            ReportShardSuccess(target);
            return outputs;
          }
          last = std::move(failure);
          span.AddEvent("shard_failure", "shard " + std::to_string(target) +
                                             ": " +
                                             std::string(last.message()));
          if (ReportShardFailure(target)) {
            span.AddEvent("quarantine", "shard " + std::to_string(target));
          }
          target = target + 1;
          break;
        }
        case Attempt::Outcome::kStallTimeout:
          last = Status::Unavailable(
              "shard " + std::to_string(target) +
              " stalled past the sub-batch deadline; abandoned");
          span.AddEvent("stall_abandoned", "shard " + std::to_string(target));
          if (ReportShardFailure(target)) {
            span.AddEvent("quarantine", "shard " + std::to_string(target));
          }
          target = target + 1;
          break;
        case Attempt::Outcome::kQueueTimeout:
          // The attempt never ran — the dispatch queue is congested.
          // Not the shard's fault: retry without charging its breaker.
          last = Status::Unavailable(
              "sub-batch not scheduled within the dispatch deadline");
          break;
      }
    } else {
      last = Status::Unavailable("every shard replica is quarantined");
    }
    if (attempts_used >= policy_.retry_limit) break;
    router_sink_->IncrementCounter("router.retries", 1);
    span.AddEvent("retry", "attempt " + std::to_string(attempts_used + 1));
    SleepMs(std::min(policy_.retry_backoff_ms *
                         static_cast<double>(uint64_t{1} << attempts_used),
                     policy_.backoff_max_ms));
    size_t next = AcquireTarget(target);
    if (next == kNoShard) {
      span.AddEvent("no_replica", "every shard quarantined");
      attempt = nullptr;
      continue;
    }
    target = next;
    if (target != sub.home) {
      router_sink_->IncrementCounter("router.rerouted_queries",
                                     sub.queries.size());
      span.AddEvent("reroute", "shard " + std::to_string(target));
    }
    attempt = LaunchAttempt(target, flight->sub, span.context(),
                            RunsInline(target, sub, all_inline));
  }
  span.SetError("sub-batch failed after every attempt");
  return std::vector<Result<SearchOutput>>(
      sub.queries.size(),
      Result<SearchOutput>(Status::Unavailable(
          "sub-batch for shard " + std::to_string(sub.home) +
          " failed after " + std::to_string(policy_.retry_limit + 1) +
          " attempts: " + last.ToString())));
}

// ---------------------------------------------------------------------------
// Aggregated surfaces
// ---------------------------------------------------------------------------

CacheStats ShardedSodaEngine::cache_stats() const {
  CacheStats total;
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    total += shard->cache_stats();
  }
  return total;
}

void ShardedSodaEngine::ClearCache() const {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->ClearCache();
  }
}

size_t ShardedSodaEngine::InvalidateWhere(
    const std::function<bool(const std::string&)>& pred) const {
  size_t erased = 0;
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    erased += shard->InvalidateWhere(pred);
  }
  router_sink_->IncrementCounter("router.invalidations", erased);
  return erased;
}

size_t ShardedSodaEngine::ApplyBaseDataDelta(const ChangeEvent& event) {
  size_t inserted = 0;
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    inserted += shard->ApplyBaseDataDelta(event);
  }
  return inserted;
}

void ShardedSodaEngine::set_freshness(FreshnessManager* freshness) {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->set_freshness(freshness);
  }
}

void ShardedSodaEngine::set_metrics_sink(std::shared_ptr<MetricsSink> sink) {
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    shard->set_metrics_sink(sink);
  }
}

size_t ShardedSodaEngine::queue_depth() const {
  size_t depth = dispatch_pool_.queue_depth();
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    depth += shard->queue_depth();
  }
  return depth;
}

MetricsSnapshot ShardedSodaEngine::metrics_snapshot() const {
  MetricsSnapshot merged = router_sink_->Snapshot();
  {
    // Point-in-time breaker state, so quarantines are visible on
    // /metrics while they are happening (router.quarantines only counts
    // transitions).
    std::lock_guard<std::mutex> lock(breaker_mu_);
    uint64_t open = 0;
    for (const ShardBreaker& b : breakers_) {
      if (b.state != BreakerState::kClosed) ++open;
    }
    merged.counters["router.shards_quarantined"] = open;
  }
  for (const std::unique_ptr<SodaEngine>& shard : shards_) {
    merged.MergeFrom(shard->metrics_snapshot());
  }
  return merged;
}

}  // namespace soda
