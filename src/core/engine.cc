#include "core/engine.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/freshness.h"
#include "storage/change_log.h"

namespace soda {

namespace {

// Every counter series the engine (and the pipeline/snippet code running
// under its sink) can ever emit. Pre-registered at zero on construction
// and replayed into any later-installed sink, so exporters see the full
// series set from the first scrape — not only after the first event of
// each kind (prometheus_metrics_test pins the list).
constexpr const char* kEngineCounterSeries[] = {
    "engine.search", "engine.search_all", "engine.search_all_async",
    "engine.task_exceptions",
    "cache.hit", "cache.miss", "cache.invalidated",
    "cache.stale_insert_skipped",
    "batch.queries", "batch.unique", "batch.interpretations",
    "batch.dedup_hits",
    "session.refines", "session.stages_skipped", "session.constraint_hits",
    "snippet.executed", "snippet.failed", "snippet.exception",
    "snippet.streamed", "snippet.callback_exception",
    "index.probe_memo_hits", "index.probe_memo_misses",
    "closure.traverse_hits", "closure.traverse_misses",
    "closure.path_lookups",
    "trace.spans", "trace.sampled", "trace.dropped", "trace.slow_queries",
};

void PreRegisterEngineCounters(MetricsSink* sink) {
  for (const char* name : kEngineCounterSeries) {
    sink->IncrementCounter(name, 0);
  }
}

// Finishes an engine-owned trace on every exit path — including error
// returns, where the destructor falls back to the trace's own elapsed
// clock — and books the trace.* counters into the engine's sink from
// the recorder's verdict. Constructed with an inactive context when the
// engine joined a caller's trace instead of opening its own.
class OwnedTrace {
 public:
  OwnedTrace(TraceContext ctx, MetricsSink* sink)
      : ctx_(std::move(ctx)), sink_(sink) {}
  ~OwnedTrace() {
    if (!ctx_.active()) return;
    double wall = wall_ms_ >= 0.0 ? wall_ms_ : ctx_.data->ElapsedMs();
    TraceVerdict verdict = TraceRecorder::Instance().FinishTrace(ctx_, wall);
    sink_->IncrementCounter("trace.spans", verdict.spans);
    sink_->IncrementCounter(verdict.kept ? "trace.sampled" : "trace.dropped",
                            1);
    if (verdict.slow) sink_->IncrementCounter("trace.slow_queries", 1);
  }

  OwnedTrace(const OwnedTrace&) = delete;
  OwnedTrace& operator=(const OwnedTrace&) = delete;

  void set_wall_ms(double ms) { wall_ms_ = ms; }

 private:
  TraceContext ctx_;
  MetricsSink* sink_;
  double wall_ms_ = -1.0;
};

size_t ResolveThreads(size_t configured) {
  if (configured != 0) return configured;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Per-result snippet containment: a throwing ExecuteSnippet (or an armed
// snippet.execute failpoint) marks that one result failed and the serve
// continues — snippets are an enrichment, not the answer.
void ExecuteSnippetContained(const Soda& soda, SodaResult* result,
                             MetricsSink* sink) {
  try {
    SODA_FAILPOINT("snippet.execute");
    soda.ExecuteSnippet(result, sink);
  } catch (const std::exception& e) {
    result->executed = false;
    result->execution_status =
        Status::Unavailable(std::string("snippet execution threw: ") +
                            e.what());
    sink->IncrementCounter("snippet.exception", 1);
  } catch (...) {
    result->executed = false;
    result->execution_status =
        Status::Unavailable("snippet execution threw a non-standard exception");
    sink->IncrementCounter("snippet.exception", 1);
  }
  sink->IncrementCounter(result->executed ? "snippet.executed"
                                          : "snippet.failed",
                         1);
}

}  // namespace

// Whitespace runs collapsed — the input tokenizer splits on whitespace,
// so reformatted repeats are the same query (see the header for why case
// is kept). The single definition shared by the cache, the sharded
// router and the invalidation hooks.
std::string NormalizedQueryKey(const std::string& query) {
  return Join(SplitWhitespace(query), " ");
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SodaEngine>> SodaEngine::Create(
    const Database* db, const MetadataGraph* graph, PatternLibrary patterns,
    SodaConfig config, std::shared_ptr<EntryPointClosure> shared_closure) {
  SODA_ASSIGN_OR_RETURN(
      std::unique_ptr<Soda> soda,
      Soda::Create(db, graph, std::move(patterns), config,
                   std::move(shared_closure)));
  // The recorder is process-global (traces cross engine/router/server
  // layers); an engine only pushes its knobs there when they are set, so
  // building an untraced engine never turns an already-configured
  // recorder off.
  if (config.trace_sample_n != 0 || config.slow_query_threshold_ms != 0.0) {
    TraceRecorder::Instance().Configure(config.trace_sample_n,
                                        config.slow_query_threshold_ms);
  }
  return std::make_unique<SodaEngine>(std::move(soda));
}

SodaEngine::SodaEngine(std::unique_ptr<Soda> soda)
    : soda_(std::move(soda)),
      cache_(soda_->config().cache_capacity),
      default_sink_(std::make_shared<InMemoryMetricsSink>()),
      sink_(default_sink_),
      pool_(ResolveThreads(soda_->config().num_threads)) {
  // Pre-register every counter and histogram series so exporters see the
  // full set from the first scrape, not only after the first event of
  // each kind (histograms are an InMemoryMetricsSink feature; custom
  // sinks get the counters replayed in set_metrics_sink).
  PreRegisterEngineCounters(default_sink_.get());
  for (const char* name :
       {"search.wall.ms", "batch.wall.ms", "stage.execute.ms",
        "pool.queue_depth", "executor.rows", "executor.tables",
        "executor.rows_scanned"}) {
    default_sink_->RegisterHistogram(name);
  }
  for (const PipelineStage* stage : soda_->stages()) {
    default_sink_->RegisterHistogram(std::string("stage.") +
                                     std::string(stage->name()) + ".ms");
  }
}

void SodaEngine::set_metrics_sink(std::shared_ptr<MetricsSink> sink) {
  sink_ = sink != nullptr ? std::move(sink) : default_sink_;
  // A freshly installed exporter sink starts empty; replay the counter
  // pre-registration so its first scrape is as complete as the built-in
  // sink's.
  if (sink_ != default_sink_) PreRegisterEngineCounters(sink_.get());
}

size_t SodaEngine::num_threads() const {
  return pool_.size() == 0 ? 1 : pool_.size();
}

size_t SodaEngine::InvalidateWhere(
    const std::function<bool(const std::string&)>& pred) const {
  // Collect the evicted keys while the predicate runs (under the cache
  // lock — a plain push_back), so the freshness layer can drop their
  // dependency records afterwards instead of leaking them.
  std::vector<std::string> erased_keys;
  size_t erased = cache_.EraseIf([&](const std::string& key) {
    if (!pred(key)) return false;
    if (freshness_ != nullptr) erased_keys.push_back(key);
    return true;
  });
  sink_->IncrementCounter("cache.invalidated", erased);
  if (freshness_ != nullptr) {
    for (const std::string& key : erased_keys) freshness_->Forget(key);
  }
  return erased;
}

std::shared_lock<std::shared_mutex> SodaEngine::ReadGuard() const {
  const Database* db = soda_->database();
  if (db == nullptr) return {};
  return db->change_log().ReaderLock();
}

void SodaEngine::CacheInsert(const std::string& key,
                             const SearchOutput& output) const {
  if (cache_.capacity() == 0) return;
  // The manager keeps the dependency record; the stored copy does not
  // need to carry the term vector through every future cache hit.
  auto stored = std::make_shared<SearchOutput>(output);
  stored->freshness_terms.clear();
  stored->freshness_terms.shrink_to_fit();
  std::optional<std::string> evicted = cache_.Put(key, std::move(stored));
  if (freshness_ != nullptr) {
    freshness_->RecordQuery(key, output);
    // Capacity eviction: the dropped key can no longer be served, so
    // its reverse-map entries would only leak — forget them, unless a
    // concurrent serve re-inserted the same key meanwhile (ForgetEvicted
    // re-checks membership under the manager's mutex).
    if (evicted.has_value()) {
      freshness_->ForgetEvicted(*evicted, [this](const std::string& k) {
        return cache_.Contains(k);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Sessions: plan freshness and registration
// ---------------------------------------------------------------------------

bool SodaEngine::PlanStillFresh(const TranslationPlan& plan) const {
  if (!plan.valid.load(std::memory_order_acquire)) return false;
  // A watched plan's validity is maintained precisely (the freshness
  // hook flips it exactly when a mutation touches its term vocabulary);
  // unwatched plans fall back to the coarse check: any change-log
  // advance voids them.
  if (plan.watched) return true;
  const Database* db = soda_->database();
  if (db == nullptr) return true;
  return db->change_log().sequence() == plan.captured_at_sequence;
}

void SodaEngine::RegisterPlan(
    const std::shared_ptr<TranslationPlan>& plan) const {
  if (freshness_ == nullptr) return;
  std::string reg_key =
      "plan:" + std::to_string(reinterpret_cast<uintptr_t>(plan.get()));
  // The hook only flips an atomic through a weak_ptr: it is safe to fire
  // from OnChange (under the exclusive data lock, outside the manager
  // mutex) and safe against the plan dying first.
  std::weak_ptr<TranslationPlan> weak = plan;
  freshness_->RecordPlan(reg_key, plan->freshness_terms, [weak] {
    if (std::shared_ptr<TranslationPlan> p = weak.lock()) {
      p->valid.store(false, std::memory_order_release);
    }
  });
  plan->watched = true;
  FreshnessManager* manager = freshness_;
  plan->deregister = [manager, reg_key] { manager->ForgetPlan(reg_key); };
}

// ---------------------------------------------------------------------------
// The request path
// ---------------------------------------------------------------------------

namespace {

/// Shared state of one unique query's snippet stream. Result slots are
/// written by exactly one task each; the task that drops `remaining` to
/// zero observes all earlier writes through the acq_rel decrement and
/// owns the cache insertion.
struct StreamState {
  SearchOutput output;
  std::vector<size_t> occurrences;
  std::string key;
  SnippetCallback on_snippet;  // one copy per unique query, not per task
  bool run_execution = false;  // false when served from cache (or disabled)
  bool cache_insert = false;   // insert the materialized output when done
  /// Change-log sequence at translation time. The deferred cache insert
  /// is skipped when the log moved past it meanwhile — a mutation
  /// between translation and the last snippet already invalidated this
  /// key's dependents, and inserting the stale answer afterwards would
  /// undo that forever.
  uint64_t translated_at_sequence = 0;
  std::atomic<size_t> remaining{0};
};

}  // namespace

// One unique cache key of a submission: the requests that share it and
// their answer.
struct SodaEngine::Item {
  const SearchRequest* request = nullptr;  // first occurrence
  std::string normalized;                  // NormalizedQueryKey (plan key)
  std::string key;                         // ConstrainedCacheKey (cache key)
  std::vector<size_t> occurrences;         // request indices, ascending
  bool from_cache = false;
  Result<SearchOutput> output{Status::Internal("request not served")};
  std::shared_ptr<TranslationPlan> captured;  // handed to the slot last
};

std::vector<Result<SearchOutput>> SodaEngine::Submit(
    std::span<const SearchRequest> requests,
    const Submission& submission) const {
  if (requests.empty()) return {};
  // Whole-serve shared data lock: concurrent appends (exclusive holders)
  // order entirely before or after this serve, so the cache probe, the
  // plan freshness check, the pipeline, the snippet scan and the cache
  // insert all see one consistent database state.
  auto data_guard = ReadGuard();
  auto t_start = std::chrono::steady_clock::now();
  const bool batched = submission.entry != SearchEntry::kSearch;
  const bool async = submission.entry == SearchEntry::kSearchAllAsync;
  const char* entry = SearchEntryName(submission.entry);
  sink_->IncrementCounter(entry, 1);

  // Join the caller's trace (HTTP request, router dispatch) when one is
  // installed on this thread; otherwise open our own when the recorder
  // is on. The untraced common case is one relaxed load and a branch.
  // An async trace outlives this call: snippet tasks carry the root
  // span's context into the pool and append their spans after the trace
  // was finished — TraceData is shared and append-safe, so stragglers
  // still land in the archived record.
  TraceContext trace_parent = CurrentTraceContext();
  const bool owns_trace =
      !trace_parent.active() && TraceRecorder::Instance().enabled();
  if (owns_trace) trace_parent = TraceRecorder::Instance().StartTrace(entry);
  OwnedTrace owned_trace(owns_trace ? trace_parent : TraceContext{},
                         sink_.get());
  Span root_span(trace_parent, entry);
  if (root_span.active()) {
    if (batched) {
      root_span.SetAttr("queries", static_cast<int64_t>(requests.size()));
    } else {
      root_span.SetAttr("query", *requests[0].query);
    }
  }

  // Dedup on the cache key *before* the cache is probed, so repeats
  // inside one submission cost one pipeline run and one miss. A request
  // with a plan slot stays its own item: the slot gets its own capture.
  std::vector<Item> items;
  std::unordered_map<std::string, size_t> item_of_key;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SearchRequest& request = requests[i];
    std::string normalized = NormalizedQueryKey(*request.query);
    std::string key = ConstrainedCacheKey(normalized, request.Constraints());
    if (request.plan == nullptr) {
      auto [it, inserted] = item_of_key.emplace(key, items.size());
      if (!inserted) {
        items[it->second].occurrences.push_back(i);
        continue;
      }
    }
    Item item;
    item.request = &request;
    item.normalized = std::move(normalized);
    item.key = std::move(key);
    item.occurrences.push_back(i);
    items.push_back(std::move(item));
  }
  if (batched) {
    sink_->IncrementCounter("batch.queries", requests.size());
    sink_->IncrementCounter("batch.unique", items.size());
  }

  // Probe the cache once per unique key.
  std::vector<size_t> misses;  // item indices that must run the pipeline
  for (size_t k = 0; k < items.size(); ++k) {
    Item& item = items[k];
    const SearchRequest& request = *item.request;
    if (request.plan != nullptr && *request.plan != nullptr) {
      sink_->IncrementCounter("session.refines", 1);
    }
    if (std::shared_ptr<const SearchOutput> cached = cache_.Get(item.key)) {
      sink_->IncrementCounter("cache.hit", 1);
      if (!request.Constraints().empty()) {
        sink_->IncrementCounter("session.constraint_hits", 1);
      }
      if (request.plan != nullptr) {
        sink_->IncrementCounter("session.stages_skipped", 5);
      }
      // Deliberate copy: the payload is bounded (top_n statements x
      // snippet_rows rows) and the response needs its own counter fields;
      // the hit path stays ~100x faster than the pipeline.
      item.from_cache = true;
      item.output = *cached;
    } else {
      sink_->IncrementCounter("cache.miss", 1);
      misses.push_back(k);
    }
  }
  if (!batched && root_span.active()) {
    root_span.SetAttr("cache", misses.empty() ? "hit" : "miss");
  }

  // One pool task per miss, each running all five stages serially: the
  // pool load-balances across queries, and a lone miss runs inline on
  // this thread. Each task writes only its own item, so an exception (or
  // armed failpoint) poisons one query, never the submission.
  sink_->Observe("pool.queue_depth",
                 static_cast<double>(pool_.queue_depth()));
  pool_.ParallelFor(misses.size(), [&](size_t m) {
    Item& item = items[misses[m]];
    // A batch gives every miss its own span; a single search's stage
    // spans parent directly under the root.
    Span query_span;
    TraceContext trace = root_span.context();
    if (batched) {
      query_span = Span(trace, "batch.query");
      if (query_span.active()) {
        query_span.SetAttr("query", *item.request->query);
      }
      trace = query_span.context();
    }
    try {
      SODA_FAILPOINT("engine.pool_task");
      item.output = Translate(&item, trace, batched);
    } catch (const std::exception& e) {
      item.output =
          Status::Unavailable(std::string("query task threw: ") + e.what());
      sink_->IncrementCounter("engine.task_exceptions", 1);
    } catch (...) {
      item.output =
          Status::Unavailable("query task threw a non-standard exception");
      sink_->IncrementCounter("engine.task_exceptions", 1);
    }
    if (!item.output.ok()) query_span.SetStatus(item.output.status().message());
  });

  // Sync snippet execution: one flat task list across every (miss,
  // result) pair.
  const Database* db = soda_->database();
  const bool can_execute = soda_->config().execute_snippets && db != nullptr;
  double execute_ms = 0.0;
  if (!async && can_execute && !misses.empty()) {
    auto t_exec = std::chrono::steady_clock::now();
    std::vector<std::pair<size_t, size_t>> snippets;  // (item, result)
    for (size_t k : misses) {
      if (!items[k].output.ok()) continue;
      for (size_t r = 0; r < items[k].output->results.size(); ++r) {
        snippets.emplace_back(k, r);
      }
    }
    Span exec_span(root_span.context(), "stage.execute");
    if (exec_span.active()) {
      exec_span.SetAttr("snippets", static_cast<int64_t>(snippets.size()));
    }
    pool_.ParallelFor(snippets.size(), [&](size_t i) {
      auto [k, r] = snippets[i];
      ExecuteSnippetContained(*soda_, &items[k].output->results[r],
                              sink_.get());
    });
    exec_span.End();
    execute_ms = MsSince(t_exec);
    sink_->Observe("stage.execute.ms", execute_ms);
  }

  // Stamp the computed answers and, on the sync path, cache them fully
  // materialized, keyed after dedup — one Put per unique miss. The
  // stored copy keeps from_cache=false; hits patch their own counters.
  const double wall_ms = MsSince(t_start);
  for (size_t k : misses) {
    Item& item = items[k];
    if (!item.output.ok()) continue;
    item.output->threads_used = num_threads();
    item.output->timings.execute_ms = execute_ms;
    item.output->timings.wall_ms = wall_ms;
    if (!async) CacheInsert(item.key, *item.output);
  }
  // Hand new plans over last: an error on any earlier path leaves the
  // caller's previous plan untouched.
  for (Item& item : items) {
    if (item.captured != nullptr) {
      *item.request->plan = std::move(item.captured);
    }
  }

  if (!async) {
    std::vector<Result<SearchOutput>> outputs =
        Expand(std::move(items), requests.size(),
               /*mark_dedup_as_cached=*/true, t_start);
    sink_->Observe(batched ? "batch.wall.ms" : "search.wall.ms",
                   MsSince(t_start));
    owned_trace.set_wall_ms(MsSince(t_start));
    return outputs;
  }

  // Async: snapshot the per-unique stream states before the items are
  // consumed by Expand, and register every expected callback up front
  // so the barrier can never observe a transient zero while later items
  // are still being scheduled.
  const uint64_t translated_at_sequence =
      db != nullptr ? db->change_log().sequence() : 0;
  std::vector<std::shared_ptr<StreamState>> streams;
  size_t expected_callbacks = 0;
  for (const Item& item : items) {
    if (!item.output.ok()) continue;
    if (item.output->results.empty()) {
      // Nothing to stream, so no task will ever do the deferred cache
      // insert — cache the (empty) answer now, like the sync path does.
      if (!item.from_cache) CacheInsert(item.key, *item.output);
      continue;
    }
    auto stream = std::make_shared<StreamState>();
    stream->output = *item.output;
    stream->occurrences = item.occurrences;
    stream->key = item.key;
    stream->on_snippet = submission.on_snippet;
    stream->run_execution = can_execute && !item.from_cache;
    stream->cache_insert = !item.from_cache;
    stream->translated_at_sequence = translated_at_sequence;
    stream->remaining.store(stream->output.results.size(),
                            std::memory_order_relaxed);
    expected_callbacks +=
        stream->output.results.size() * stream->occurrences.size();
    streams.push_back(std::move(stream));
  }
  SnippetBarrier* barrier = submission.barrier;
  if (barrier != nullptr) barrier->Expect(expected_callbacks);

  std::vector<Result<SearchOutput>> outputs =
      Expand(std::move(items), requests.size(),
             /*mark_dedup_as_cached=*/false, t_start);
  sink_->Observe("batch.wall.ms", MsSince(t_start));

  // Release the serve's shared lock before scheduling the snippet
  // tasks: on a workerless pool Submit runs the task inline on this
  // thread, and its own ReadGuard must not re-enter the shared_mutex
  // (UB, and a deadlock with a queued writer). The tasks re-acquire for
  // themselves; the sequence check keeps a mutation that sneaks into the
  // gap from ever caching a stale answer.
  if (data_guard.owns_lock()) data_guard.unlock();

  // One task per (unique query, result): execute the snippet, then fan
  // the callback out to every occurrence of that query in the batch —
  // exactly one delivery per (query_index, result_index) pair.
  const TraceContext stream_trace = root_span.context();
  for (const std::shared_ptr<StreamState>& stream : streams) {
    for (size_t r = 0; r < stream->output.results.size(); ++r) {
      pool_.Submit([this, stream, barrier, r, stream_trace] {
        // Pool tasks run outside the submitting call's data guard, so
        // each takes its own shared lock around the snippet scan and the
        // (possible) cache insert.
        auto data_guard = ReadGuard();
        // Explicit context capture is how the trace crosses the pool
        // boundary: this span parents under the batch span even though
        // it starts on a worker after SearchAllAsync returned.
        Span snippet_span(stream_trace, "snippet.stream");
        if (snippet_span.active()) {
          snippet_span.SetAttr("result", static_cast<int64_t>(r));
        }
        SodaResult& result = stream->output.results[r];
        if (stream->run_execution) {
          // Contained: a throwing snippet (or armed failpoint) marks this
          // one result failed; the callbacks below still fan out and the
          // barrier Deliver still runs, so Wait() never hangs on a fault.
          ExecuteSnippetContained(*soda_, &result, sink_.get());
        }
        std::vector<std::exception_ptr> exceptions;
        exceptions.reserve(stream->occurrences.size());
        for (size_t query_index : stream->occurrences) {
          std::exception_ptr exception;
          if (stream->on_snippet) {
            try {
              stream->on_snippet(query_index, r, result);
            } catch (...) {
              exception = std::current_exception();
              sink_->IncrementCounter("snippet.callback_exception", 1);
            }
          }
          sink_->IncrementCounter("snippet.streamed", 1);
          exceptions.push_back(std::move(exception));
        }
        if (stream->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            stream->cache_insert) {
          // Last snippet of this query: cache the materialized answer —
          // unless base data moved since translation (the stored answer
          // would be stale and its invalidation already happened).
          const Database* db = soda_->database();
          if (db == nullptr ||
              db->change_log().sequence() == stream->translated_at_sequence) {
            CacheInsert(stream->key, stream->output);
          } else {
            sink_->IncrementCounter("cache.stale_insert_skipped", 1);
          }
        }
        // End (and append) the span before delivering: a caller may
        // finish the trace as soon as Wait() returns, and a span
        // recorded after that would be dropped as an orphan.
        snippet_span.End();
        // Deliver last: once the barrier reports drained, the cache
        // insertion (done by whichever task decremented to zero) has
        // already happened — Wait() is a true completion point.
        if (barrier != nullptr) {
          for (std::exception_ptr& exception : exceptions) {
            barrier->Deliver(std::move(exception));
          }
        }
      });
    }
  }
  sink_->Observe("pool.queue_depth",
                 static_cast<double>(pool_.queue_depth()));
  root_span.End();
  owned_trace.set_wall_ms(MsSince(t_start));
  return outputs;
}

Result<SearchOutput> SodaEngine::Translate(Item* item,
                                          const TraceContext& trace,
                                          bool batched) const {
  const SearchRequest& request = *item->request;
  const SessionConstraints& constraints = request.Constraints();
  QueryContext ctx(*request.query);
  ctx.config = &soda_->config();
  ctx.metrics = sink_.get();
  ctx.trace = trace;
  if (!constraints.empty()) ctx.constraints = &constraints;
  ctx.collect_freshness_terms = freshness_ != nullptr;

  // Resume decision: the held plan must answer this very question and
  // still reflect the current base data. Bindings select which stages
  // the resume can skip — pins/bans only gate Step 5, so matching
  // bindings let the post-Filters states be reused wholesale, while a
  // binding change re-ranks from the (always constraint-independent)
  // Step-1 lookup.
  std::shared_ptr<TranslationPlan>* plan = request.plan;
  const TranslationPlan* resume = nullptr;
  if (plan != nullptr && *plan != nullptr &&
      (*plan)->key == item->normalized && PlanStillFresh(**plan)) {
    resume = plan->get();
  }
  const std::string bindings_fp = constraints.BindingsFingerprint();
  const bool reuse_states =
      resume != nullptr && resume->bindings_fp == bindings_fp;
  const bool capture = plan != nullptr && !reuse_states;
  size_t stages_skipped = 0;
  if (resume != nullptr) {
    // Copies, never moves: the plan stays resumable for the next Refine.
    ctx.parsed = resume->parsed;
    ctx.lookup = resume->lookup;
    ctx.freshness_terms = resume->freshness_terms;
    stages_skipped = 1;  // lookup
    if (reuse_states) {
      ctx.states = resume->states;  // SqlStage mutates states in place
      stages_skipped = 4;           // lookup, rank, tables, filters
    }
  }

  // Soda::stages() is the Figure 4 order (lookup, rank, tables, filters,
  // sql), so what this run still owes is the suffix after the skipped
  // stages. A capturing run stops before Step 5 to snapshot the
  // reusable post-Filters states.
  std::span<const PipelineStage* const> stages =
      std::span(soda_->stages()).subspan(stages_skipped);
  std::vector<InterpretationState> snapshot;
  if (capture) {
    SODA_RETURN_NOT_OK(RunPipeline(stages.first(stages.size() - 1), &ctx));
    snapshot = ctx.states;
    stages = stages.last(1);
  }
  SODA_RETURN_NOT_OK(RunPipeline(stages, &ctx));
  if (batched) {
    sink_->IncrementCounter("batch.interpretations", ctx.states.size());
  }
  if (plan != nullptr && stages_skipped > 0) {
    sink_->IncrementCounter("session.stages_skipped", stages_skipped);
  }

  // Capture before FinalizeOutput, which consumes the context fields.
  if (capture) {
    auto captured = std::make_shared<TranslationPlan>();
    captured->key = item->normalized;
    captured->parsed = ctx.parsed;
    captured->lookup = ctx.lookup;
    captured->bindings_fp = bindings_fp;
    captured->freshness_terms = ctx.freshness_terms;
    captured->states = std::move(snapshot);
    for (InterpretationState& state : captured->states) {
      // A resumed run books only the stage work it actually did.
      state.tables_ms = 0.0;
      state.filters_ms = 0.0;
      state.sql_ms = 0.0;
    }
    const Database* db = soda_->database();
    captured->captured_at_sequence =
        db != nullptr ? db->change_log().sequence() : 0;
    RegisterPlan(captured);
    item->captured = std::move(captured);
  }

  SearchOutput output = FinalizeOutput(std::move(ctx));
  output.stages_skipped = stages_skipped;
  return output;
}

std::vector<Result<SearchOutput>> SodaEngine::Expand(
    std::vector<Item> items, size_t request_count, bool mark_dedup_as_cached,
    std::chrono::steady_clock::time_point start) const {
  const bool cache_enabled = cache_.capacity() > 0;

  // Book the in-batch repeats: the unique probe already counted one
  // miss (or hit); each further occurrence of the same normalized query
  // is a hit against the entry the batch itself materialized.
  for (const Item& item : items) {
    if (!item.output.ok() || item.occurrences.size() <= 1) continue;
    size_t repeats = item.occurrences.size() - 1;
    cache_.RecordDedupHits(repeats);
    sink_->IncrementCounter("batch.dedup_hits", repeats);
  }

  CacheStats stats = cache_.stats();
  std::vector<Result<SearchOutput>> outputs(
      request_count, Result<SearchOutput>(Status::Internal("unmapped query")));
  for (const Item& item : items) {
    for (size_t occ = 0; occ < item.occurrences.size(); ++occ) {
      size_t input_idx = item.occurrences[occ];
      if (!item.output.ok()) {
        outputs[input_idx] = item.output.status();
        continue;
      }
      SearchOutput output = *item.output;
      // from_cache promises the payload was served materialized (snippets
      // included). That holds for probe hits always, and for in-batch
      // repeats only on the sync path — async repeats are copies of the
      // still-unexecuted translation, so the async caller keeps
      // mark_dedup_as_cached off.
      bool served_from_cache =
          occ == 0 ? item.from_cache
                   : (item.from_cache ||
                      (cache_enabled && mark_dedup_as_cached));
      output.from_cache = served_from_cache;
      if (served_from_cache) {
        // One cache-hit rule for every entry point: this response did no
        // pipeline work of its own, whichever run (cold, batch or session
        // resume) stored the entry, and that run's wall time is not this
        // response's latency — stamp this call's elapsed time.
        output.stages_skipped = 5;
        output.timings = StepTimings{};
        output.timings.wall_ms = MsSince(start);
      }
      output.cache_hits = stats.hits;
      output.cache_misses = stats.misses;
      output.threads_used = num_threads();
      outputs[input_idx] = std::move(output);
    }
  }
  return outputs;
}

}  // namespace soda
