// Tests for the ShardedSodaEngine router:
//
//   - folded-hash routing: stable, whitespace-insensitive, in range, and
//     sanely distributed across 1/2/4/8 shards;
//   - determinism: SearchAll / Search / SearchAllAsync output bytes match
//     a single serial engine at every shard count × thread count, and
//     every entry point answers like the serial Soda::Search reference
//     under every constraint kind, cold and from cache;
//   - aggregation: summed cache stats and merged metrics equal a single
//     engine's totals for the same traffic, plus the router's own
//     counters and batch-size samples;
//   - invalidation: InvalidateWhere evicts exactly the matching keys
//     across shards, and keyed eviction is safe under concurrent Search.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "core/sharded_engine.h"
#include "core/soda.h"
#include "datasets/minibank.h"
#include "pattern/library.h"

namespace soda {
namespace {

// Serializes everything rank-relevant about an output, snippets included,
// so "byte-identical" is literal (engine-lifetime cache counters are
// deliberately excluded: they describe the serving history, not the
// answer).
std::string Fingerprint(const SearchOutput& output) {
  std::string fp = "complexity=" + std::to_string(output.complexity) + "\n";
  for (const std::string& word : output.ignored_words) {
    fp += "ignored=" + word + "\n";
  }
  for (const SodaResult& result : output.results) {
    fp += result.sql + "\n";
    fp += "score=" + std::to_string(result.score) + "\n";
    fp += "explanation=" + result.explanation + "\n";
    fp += "connected=" + std::to_string(result.fully_connected) + "\n";
    fp += "executed=" + std::to_string(result.executed) + "\n";
    if (result.executed) fp += result.snippet.ToAsciiTable() + "\n";
  }
  return fp;
}

std::vector<std::string> MiniBankQueries() {
  return {
      "customers Zürich financial instruments",
      "trading volume transaction date between date(2010-01-01) "
      "date(2011-12-31)",
      "addresses Sara Guttinger",
      "sum(investments) group by (currency)",
      "private customers family name",
  };
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto built = BuildMiniBank();
    ASSERT_TRUE(built.ok()) << built.status();
    bank_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete bank_;
    bank_ = nullptr;
  }

  static std::unique_ptr<ShardedSodaEngine> MakeRouter(size_t shards,
                                                       size_t threads,
                                                       size_t cache_capacity) {
    SodaConfig config;
    config.num_shards = shards;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto router = ShardedSodaEngine::Create(&bank_->db, &bank_->graph,
                                            CreditSuissePatternLibrary(),
                                            config);
    EXPECT_TRUE(router.ok()) << router.status();
    return std::move(router).value();
  }

  static std::unique_ptr<SodaEngine> MakeEngine(size_t threads,
                                                size_t cache_capacity) {
    SodaConfig config;
    config.num_threads = threads;
    config.cache_capacity = cache_capacity;
    auto engine = SodaEngine::Create(&bank_->db, &bank_->graph,
                                     CreditSuissePatternLibrary(), config);
    EXPECT_TRUE(engine.ok()) << engine.status();
    return std::move(engine).value();
  }

  static MiniBank* bank_;
};

MiniBank* ShardedEngineTest::bank_ = nullptr;

// ---------------------------------------------------------------------------
// Routing hash
// ---------------------------------------------------------------------------

TEST(ShardOfKeyTest, InRangeAndStable) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (int i = 0; i < 100; ++i) {
      std::string key = "query number " + std::to_string(i);
      size_t shard = ShardOfKey(key, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, ShardOfKey(key, shards)) << "unstable for " << key;
    }
  }
}

TEST(ShardOfKeyTest, SingleShardAlwaysZero) {
  EXPECT_EQ(ShardOfKey("anything", 1), 0u);
  EXPECT_EQ(ShardOfKey("anything", 0), 0u);
  EXPECT_EQ(ShardOfKey("", 1), 0u);
}

TEST(ShardOfKeyTest, DistributionIsSaneAcrossShardCounts) {
  // 400 distinct dashboard-ish keys; with a healthy folded hash every
  // shard should carry a real share. The bound is loose (half the fair
  // share) — this guards against degenerate folding (e.g. everything on
  // shard 0), not statistical perfection.
  constexpr size_t kKeys = 400;
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<size_t> per_shard(shards, 0);
    for (size_t i = 0; i < kKeys; ++i) {
      std::string key =
          "revenue by region " + std::to_string(i) + " quarter view";
      ++per_shard[ShardOfKey(key, shards)];
    }
    size_t fair = kKeys / shards;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_GT(per_shard[s], fair / 2)
          << "shard " << s << "/" << shards << " is starved";
      EXPECT_LT(per_shard[s], 2 * fair)
          << "shard " << s << "/" << shards << " is overloaded";
    }
  }
}

TEST(ShardOfKeyTest, NormalizedKeyMakesRoutingWhitespaceInsensitive) {
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(
        ShardOfKey(NormalizedQueryKey("addresses Sara Guttinger"), shards),
        ShardOfKey(NormalizedQueryKey("  addresses   Sara Guttinger "),
                   shards));
  }
}

// ---------------------------------------------------------------------------
// Determinism vs a single engine
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, SearchAllMatchesSingleEngineAtAnyShardAndThreadCount) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok()) << output.status();
    expected.push_back(Fingerprint(*output));
  }

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto router = MakeRouter(shards, threads, /*cache_capacity=*/0);
      auto outputs = router->SearchAll(queries);
      ASSERT_EQ(outputs.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(outputs[i].ok())
            << "shards=" << shards << " threads=" << threads << " query="
            << queries[i] << ": " << outputs[i].status();
        EXPECT_EQ(Fingerprint(*outputs[i]), expected[i])
            << "shards=" << shards << " threads=" << threads
            << " query=" << queries[i];
      }
    }
  }
}

TEST_F(ShardedEngineTest, RoutedSingleSearchMatchesSingleEngine) {
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/0);
  for (const std::string& query : MiniBankQueries()) {
    auto expected = reference->Search(query);
    ASSERT_TRUE(expected.ok());
    auto routed = router->Search(query);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(Fingerprint(*routed), Fingerprint(*expected)) << query;
  }
}

TEST_F(ShardedEngineTest, PreservesInputOrderWithDuplicatesAndErrors) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/8);
  const std::vector<std::string> queries = {
      "addresses Sara Guttinger",
      "sum(investments",  // unbalanced '(' — parse error
      "customers Zürich financial instruments",
      "  addresses   Sara Guttinger ",  // whitespace-variant repeat
  };
  auto outputs = router->SearchAll(queries);
  ASSERT_EQ(outputs.size(), 4u);
  ASSERT_TRUE(outputs[0].ok());
  ASSERT_FALSE(outputs[1].ok());
  EXPECT_EQ(outputs[1].status().code(), StatusCode::kParseError);
  ASSERT_TRUE(outputs[2].ok());
  ASSERT_TRUE(outputs[3].ok());
  // The repeat met its twin on one shard: identical bytes, booked as an
  // in-batch dedup hit there.
  EXPECT_EQ(Fingerprint(*outputs[0]), Fingerprint(*outputs[3]));
  EXPECT_NE(Fingerprint(*outputs[0]), Fingerprint(*outputs[2]));
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(ShardedEngineTest, EmptyBatch) {
  auto router = MakeRouter(/*shards=*/2, /*threads=*/1, /*cache_capacity=*/0);
  const std::vector<std::string> empty;
  EXPECT_TRUE(router->SearchAll(empty).empty());
}

// ---------------------------------------------------------------------------
// Aggregated cache and metrics accounting
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, AggregatedCacheStatsEqualSingleEngineTotals) {
  const std::vector<std::string> base = MiniBankQueries();
  std::vector<std::string> traffic;
  for (int round = 0; round < 3; ++round) {
    traffic.insert(traffic.end(), base.begin(), base.end());
  }

  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/32);
  auto outputs = engine->SearchAll(traffic);
  for (const auto& output : outputs) ASSERT_TRUE(output.ok());
  CacheStats single = engine->cache_stats();

  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/32);
    auto routed = router->SearchAll(traffic);
    for (const auto& output : routed) ASSERT_TRUE(output.ok());
    CacheStats total = router->cache_stats();
    // Every key lives on exactly one shard, so the fleet's books must sum
    // to exactly the single-engine books for identical traffic.
    EXPECT_EQ(total.hits, single.hits) << "shards=" << shards;
    EXPECT_EQ(total.misses, single.misses) << "shards=" << shards;
    EXPECT_EQ(total.size, single.size) << "shards=" << shards;
    EXPECT_EQ(total.capacity, shards * 32) << "shards=" << shards;
  }
}

TEST_F(ShardedEngineTest, MergedMetricsMatchSingleEngineAndAddRouterCounters) {
  const std::vector<std::string> queries = MiniBankQueries();

  auto engine = MakeEngine(/*threads=*/2, /*cache_capacity=*/32);
  for (const auto& output : engine->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  MetricsSnapshot single = engine->metrics_snapshot();

  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/32);
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  MetricsSnapshot merged = router->metrics_snapshot();

  // Work-proportional counters agree with the single engine; per-call
  // counters (engine.search_all) count one per occupied shard instead.
  for (const char* name : {"cache.hit", "cache.miss", "batch.queries",
                           "batch.unique", "batch.interpretations"}) {
    EXPECT_EQ(merged.counter(name), single.counter(name)) << name;
  }
  // Stage histograms merged across shards carry exactly the samples the
  // single engine observed.
  const HistogramSnapshot* merged_lookup = merged.histogram("stage.lookup.ms");
  const HistogramSnapshot* single_lookup = single.histogram("stage.lookup.ms");
  ASSERT_NE(merged_lookup, nullptr);
  ASSERT_NE(single_lookup, nullptr);
  EXPECT_EQ(merged_lookup->count, single_lookup->count);

  // Router's own surface: every query was routed, the batch was one
  // admission, and the per-shard sub-batch sizes sum back to the batch.
  EXPECT_EQ(merged.counter("router.shard_queries"), queries.size());
  EXPECT_EQ(merged.counter("router.batches"), 1u);
  const HistogramSnapshot* sizes = merged.histogram("router.shard_batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(sizes->count, 0u);
  EXPECT_EQ(static_cast<size_t>(sizes->sum), queries.size());
}

TEST_F(ShardedEngineTest, DefaultThreadsDivideHardwareAcrossShards) {
  // num_threads=0 means "use the hardware"; a fleet must divide it, not
  // multiply it (8 shards on a 64-core box → ~64 workers, not 512).
  auto router = MakeRouter(/*shards=*/4, /*threads=*/0, /*cache_capacity=*/0);
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t expected = std::max<size_t>(1, hw / 4);
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_EQ(router->shard(s).num_threads(), expected) << "shard " << s;
  }
}

TEST_F(ShardedEngineTest, SetMetricsSinkFansOutToEveryShard) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/8);
  auto exporter = std::make_shared<InMemoryMetricsSink>();
  router->set_metrics_sink(exporter);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  // Every shard reported into the shared exporter: the fleet's misses
  // all land in one sink, none in the (now-bypassed) built-in ones.
  MetricsSnapshot exported = exporter->Snapshot();
  EXPECT_EQ(exported.counter("cache.miss"), queries.size());
  EXPECT_EQ(router->metrics_snapshot().counter("cache.miss"), 0u);
  // The router's own samples still flow into the merged view.
  EXPECT_EQ(router->metrics_snapshot().counter("router.shard_queries"),
            queries.size());
}

TEST_F(ShardedEngineTest, RepeatTrafficHitsTheOwningShardCache) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/16);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  auto again = router->SearchAll(queries);
  for (const auto& output : again) {
    ASSERT_TRUE(output.ok());
    EXPECT_TRUE((*output).from_cache);
  }
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.misses, queries.size());
  EXPECT_EQ(stats.hits, queries.size());
}

// ---------------------------------------------------------------------------
// Async streaming through the router
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, AsyncStreamsExactlyOncePerGlobalIndex) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/0);

  std::mutex mu;
  std::map<std::pair<size_t, size_t>, int> deliveries;
  SnippetBarrier barrier;
  auto outputs = router->SearchAllAsync(
      queries,
      [&](size_t query_index, size_t result_index, const SodaResult&) {
        std::lock_guard<std::mutex> lock(mu);
        ++deliveries[{query_index, result_index}];
      },
      &barrier);
  ASSERT_EQ(outputs.size(), queries.size());
  barrier.Wait();
  EXPECT_EQ(barrier.pending(), 0u);

  size_t expected_total = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(outputs[q].ok()) << queries[q];
    for (size_t r = 0; r < outputs[q]->results.size(); ++r) {
      auto it = deliveries.find({q, r});
      ASSERT_NE(it, deliveries.end())
          << "missing callback for query " << q << " result " << r;
      EXPECT_EQ(it->second, 1)
          << "duplicate callback for query " << q << " result " << r;
      ++expected_total;
    }
  }
  EXPECT_EQ(deliveries.size(), expected_total);
  EXPECT_EQ(barrier.delivered(), expected_total);
}

TEST_F(ShardedEngineTest, AsyncBytesMatchSyncAcrossShardCounts) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  for (size_t shards : {size_t{2}, size_t{4}}) {
    auto router = MakeRouter(shards, /*threads=*/2, /*cache_capacity=*/8);
    SnippetBarrier barrier;
    auto outputs = router->SearchAllAsync(queries, nullptr, &barrier);
    barrier.Wait();
    // After the barrier every shard has inserted its materialized
    // answers; warm Searches must serve the same bytes as a single
    // serial engine.
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(outputs[q].ok());
      auto expected = reference->Search(queries[q]);
      ASSERT_TRUE(expected.ok());
      auto warm = router->Search(queries[q]);
      ASSERT_TRUE(warm.ok());
      EXPECT_TRUE(warm->from_cache) << queries[q];
      EXPECT_EQ(Fingerprint(*warm), Fingerprint(*expected))
          << "shards=" << shards << " query=" << queries[q];
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-entry-point oracle
// ---------------------------------------------------------------------------

// The serial reference: Soda::Search itself, or — under constraints,
// which Soda::Search does not take — its own loop with the constraints
// installed on the context: RunPipeline over the Figure 4 stages, then
// every snippet in ranked order.
std::string SerialReference(const Soda& soda, const std::string& query,
                            const SessionConstraints& constraints) {
  if (constraints.empty()) {
    auto output = soda.Search(query);
    EXPECT_TRUE(output.ok()) << output.status();
    return output.ok() ? Fingerprint(*output) : "";
  }
  QueryContext ctx(query);
  ctx.config = &soda.config();
  ctx.constraints = &constraints;
  Status status = RunPipeline(soda.stages(), &ctx);
  EXPECT_TRUE(status.ok()) << status;
  SearchOutput output = FinalizeOutput(std::move(ctx));
  for (SodaResult& result : output.results) soda.ExecuteSnippet(&result);
  return Fingerprint(output);
}

// Every entry point's answer to one query, by name. `cold` clears the
// cache before each call, so each one translates; otherwise each call is
// served from the cache the previous pass filled. The async answer is
// fingerprinted after Wait(), with the streamed results in place.
std::vector<std::pair<std::string, Result<SearchOutput>>> EntryPointAnswers(
    const SodaService& service, const std::string& query,
    const SessionConstraints& constraints, bool cold) {
  std::vector<std::pair<std::string, Result<SearchOutput>>> answers;
  auto clear = [&] {
    if (cold) service.ClearCache();
  };
  clear();
  answers.emplace_back("Search", service.Search(query, constraints));
  clear();
  std::shared_ptr<TranslationPlan> plan;
  answers.emplace_back("SearchSession",
                       service.SearchSession(query, constraints, &plan));
  if (constraints.empty()) {
    clear();
    answers.emplace_back("SearchAll", std::move(service.SearchAll({query})[0]));
  }
  clear();
  std::mutex mu;
  std::map<size_t, SodaResult> streamed;
  SnippetCallback on_snippet = [&](size_t, size_t result_index,
                                   const SodaResult& result) {
    std::lock_guard<std::mutex> lock(mu);
    streamed[result_index] = result;
  };
  SnippetBarrier barrier;
  Result<SearchOutput> async(Status::Internal("not served"));
  if (constraints.empty()) {
    async = std::move(service.SearchAllAsync({&query, 1}, on_snippet,
                                             &barrier)[0]);
  } else {
    // The async wrappers are unconstrained; Submit streams any request.
    SearchRequest request{&query, &constraints, nullptr};
    Submission submission{SearchEntry::kSearchAllAsync, on_snippet, &barrier};
    async = std::move(service.Submit({&request, 1}, submission)[0]);
  }
  barrier.Wait();
  if (async.ok()) {
    for (auto& [index, result] : streamed) async->results[index] = result;
  }
  answers.emplace_back("SearchAllAsync", std::move(async));
  return answers;
}

TEST_F(ShardedEngineTest, EveryEntryPointMatchesTheSerialReference) {
  const std::vector<std::string> queries = MiniBankQueries();
  auto reference_engine = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  const Soda& soda = reference_engine->soda();

  // One constraint set per lever. The bind target is the second
  // candidate of a two-way term, which surfaces an interpretation the
  // unconstrained ranking keeps second.
  SodaSession probe(reference_engine.get());
  ASSERT_TRUE(probe.Ask(queries[0]).ok());
  auto candidates = probe.TermCandidates("financial instruments");
  ASSERT_EQ(candidates.size(), 2u);
  std::vector<std::pair<std::string, SessionConstraints>> constraint_sets(4);
  constraint_sets[0].first = "none";
  constraint_sets[1].first = "pin";
  constraint_sets[1].second.PinTable("addresses");
  constraint_sets[2].first = "ban";
  constraint_sets[2].second.BanTable("fi_contains_sec");
  constraint_sets[3].first = "bind";
  constraint_sets[3].second.Bind("financial instruments",
                                 candidates[1].first);

  std::vector<std::vector<std::string>> expected(constraint_sets.size());
  for (size_t c = 0; c < constraint_sets.size(); ++c) {
    for (const std::string& query : queries) {
      expected[c].push_back(
          SerialReference(soda, query, constraint_sets[c].second));
    }
    // Every lever changes at least one answer of the workload.
    if (c > 0) EXPECT_NE(expected[c], expected[0]) << constraint_sets[c].first;
  }

  std::vector<std::pair<std::string, std::unique_ptr<SodaService>>> services;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    services.emplace_back("engine threads=" + std::to_string(threads),
                          MakeEngine(threads, /*cache_capacity=*/64));
    services.emplace_back("router shards=4 threads=" + std::to_string(threads),
                          MakeRouter(/*shards=*/4, threads,
                                     /*cache_capacity=*/64));
  }

  for (const auto& [service_name, service] : services) {
    for (size_t c = 0; c < constraint_sets.size(); ++c) {
      for (size_t q = 0; q < queries.size(); ++q) {
        for (bool cold : {true, false}) {
          for (auto& [entry, answer] :
               EntryPointAnswers(*service, queries[q],
                                 constraint_sets[c].second, cold)) {
            SCOPED_TRACE(service_name + " constraints=" +
                         constraint_sets[c].first +
                         (cold ? " cold " : " cached ") + entry +
                         " query=" + queries[q]);
            ASSERT_TRUE(answer.ok()) << answer.status();
            EXPECT_EQ(answer->from_cache, !cold);
            EXPECT_EQ(Fingerprint(*answer), expected[c][q]);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Keyed invalidation
// ---------------------------------------------------------------------------

TEST_F(ShardedEngineTest, InvalidateWhereEvictsExactlyMatchingKeysFleetWide) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/2, /*cache_capacity=*/16);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_EQ(router->cache_stats().size, queries.size());

  // A base-data update touching "addresses": evict the cached answers
  // that mention it, wherever their shard put them.
  size_t erased = router->InvalidateWhere([](const std::string& key) {
    return key.find("addresses") != std::string::npos;
  });
  EXPECT_EQ(erased, 1u);
  CacheStats stats = router->cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.size, queries.size() - 1);

  // The evicted query recomputes (a fresh miss); the others still hit.
  auto cold = router->Search("addresses Sara Guttinger");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->from_cache);
  auto warm = router->Search("private customers family name");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(router->metrics_snapshot().counter("cache.invalidated"), 1u);
}

TEST_F(ShardedEngineTest, ClearCacheFansOut) {
  auto router = MakeRouter(/*shards=*/4, /*threads=*/1, /*cache_capacity=*/16);
  for (const auto& output : router->SearchAll(MiniBankQueries())) {
    ASSERT_TRUE(output.ok());
  }
  ASSERT_GT(router->cache_stats().size, 0u);
  router->ClearCache();
  EXPECT_EQ(router->cache_stats().size, 0u);
}

TEST_F(ShardedEngineTest, InvalidateWhereIsSafeUnderConcurrentSearch) {
  auto router = MakeRouter(/*shards=*/2, /*threads=*/2, /*cache_capacity=*/32);
  const std::vector<std::string> queries = MiniBankQueries();
  for (const auto& output : router->SearchAll(queries)) {
    ASSERT_TRUE(output.ok());
  }

  // Searchers hammer the warm cache while an invalidator repeatedly
  // evicts and lets entries recompute. Nothing should crash, deadlock,
  // or serve wrong bytes.
  auto reference = MakeEngine(/*threads=*/1, /*cache_capacity=*/0);
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto output = reference->Search(query);
    ASSERT_TRUE(output.ok());
    expected.push_back(Fingerprint(*output));
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        size_t q = static_cast<size_t>(t + round) % queries.size();
        auto output = router->Search(queries[q]);
        if (!output.ok() || Fingerprint(*output) != expected[q]) {
          mismatch.store(true);
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (int round = 0; round < 10; ++round) {
      router->InvalidateWhere([](const std::string& key) {
        return key.find("customers") != std::string::npos;
      });
    }
  });
  for (std::thread& searcher : searchers) searcher.join();
  invalidator.join();
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace soda
