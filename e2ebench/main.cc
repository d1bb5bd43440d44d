// End-to-end HTTP benchmark over the enterprise warehouse.
//
//   soda_e2ebench --workload W --seed N --seconds S --trace 0|1
//                 [--spans-out PATH]
//
// Serves the paper's enterprise warehouse over loopback HTTP (POST
// /search, server and engine at their defaults) and drives one workload
// at it for S seconds, split into kTrials trials that each start from a
// fresh deployment (set-up is timed per trial):
//
//   adhoc_cold         open loop at a fixed arrival rate; every query
//                      distinct, so every request misses the cache, runs
//                      all five stages and executes every snippet;
//   dashboard_refresh  closed loop, 4 clients POSTing batched dashboards
//                      (Zipf-skewed, fitting in the caches) to a 4-shard
//                      router with a FreshnessManager attached; a
//                      base-data append (a new agreement) every
//                      kAppendEvery requests invalidates the dependent
//                      keys.
//
// --trace 0 prints the end-to-end metrics; every answer is checked
// against an oracle outside the timed windows. --trace 1 runs the same
// trials and then replays the first requests of the workload's sequence
// in process, one request at a time, twice on fresh deployments: once
// plain, once with the benchmark's own spans around every layer call
// (spans.h). It prints the per-layer metrics, the reconciled self-time
// table and the tracing overhead.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. The human-readable report goes to stderr. Exit code 0
// only when every check passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "alloc_counter.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/freshness.h"
#include "core/sharded_engine.h"
#include "datasets/enterprise.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_json.h"
#include "pattern/library.h"
#include "query_gen.h"
#include "spans.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kClients = 4;        // client threads and connections
constexpr size_t kTrials = 10;        // fresh deployments per run
constexpr double kAdhocRate = 150.0;  // adhoc_cold arrivals per second
constexpr size_t kDashboards = 48;
constexpr size_t kDashboardQueries = 5;
constexpr double kZipfExponent = 0.8;
constexpr uint64_t kDashboardPoolSeed = 20120827;
constexpr size_t kAppendEvery = 400;  // dashboard requests per append
constexpr size_t kOracleChunk = 64;   // reference SearchAll batch size
// Requests the traced run replays (a prefix of the workload's sequence).
constexpr size_t kReplayAdhoc = 1000;
constexpr size_t kReplayDashboard = 3000;
constexpr const char* kSetupProbeQuery = "Sara";
// Traced-run reconciliation tolerances (TracedMetrics).
constexpr double kMinProxyRatio = 0.5;
constexpr double kProxyTolerance = 0.25;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// Starts a fresh peak-memory interval: returns freed heap memory to the
// system, then resets the kernel's peak resident set (VmHWM) to the
// current resident set. Without the reset (older kernels), the peak
// covers the whole process.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct BodyDigest {
  uint64_t hash = 0;
  size_t size = 0;
  bool operator==(const BodyDigest& other) const {
    return hash == other.hash && size == other.size;
  }
};

BodyDigest Digest(std::string_view body) {
  return {std::hash<std::string_view>{}(body), body.size()};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kAdhocCold, kDashboardRefresh };

struct Workload {
  Kind kind = Kind::kAdhocCold;
  std::string name;
  uint64_t seed = 0;
  bool sharded = false;
  bool open_loop = false;

  // adhoc_cold: request k asks queries[k % size].
  std::vector<GeneratedQuery> queries;
  // Every query the workload draws, for the generator report.
  std::vector<GeneratedQuery> drawn;
  // dashboard_refresh: request k asks dashboards[DashboardOf(k)].
  std::vector<std::vector<std::string>> dashboards;
  std::vector<double> zipf_cdf;

  size_t DashboardOf(size_t k) const {
    soda::Rng rng(seed * 0xD1B54A32D192ED03ull + k);
    double u = rng.NextDouble();
    return static_cast<size_t>(
        std::upper_bound(zipf_cdf.begin(), zipf_cdf.end() - 1, u) -
        zipf_cdf.begin());
  }

  std::vector<std::string> QueriesOf(size_t k) const {
    if (kind == Kind::kDashboardRefresh) return dashboards[DashboardOf(k)];
    return {queries[k % queries.size()].text};
  }

  bool AppendBefore(size_t k) const {
    return kind == Kind::kDashboardRefresh && k > 0 && k % kAppendEvery == 0;
  }

  size_t ReplayLength() const {
    return kind == Kind::kAdhocCold ? std::min(kReplayAdhoc, queries.size())
                                    : kReplayDashboard;
  }
};

std::string RequestBody(const std::vector<std::string>& queries,
                        bool batch) {
  std::string body;
  if (!batch) {
    body = "{\"query\":";
    soda::AppendJsonQuoted(&body, queries.front());
    body += "}";
    return body;
  }
  body = "{\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) body += ",";
    soda::AppendJsonQuoted(&body, queries[i]);
  }
  body += "]}";
  return body;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                      const QueryGenerator& generator, std::string* error) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "adhoc_cold") {
    w.kind = Kind::kAdhocCold;
    w.open_loop = true;
    size_t n = static_cast<size_t>(std::llround(kAdhocRate * seconds));
    if (n > generator.pool().size()) {
      *error = "adhoc_cold needs more distinct queries than the pool holds";
      return w;
    }
    w.queries = generator.DrawDistinct(n, seed);
    w.drawn = w.queries;
  } else if (name == "dashboard_refresh") {
    w.kind = Kind::kDashboardRefresh;
    w.sharded = true;
    // The dashboards are fixed; the seed draws the request sequence.
    w.drawn = generator.DrawDistinct(kDashboards * kDashboardQueries,
                                     kDashboardPoolSeed);
    for (size_t d = 0; d < kDashboards; ++d) {
      std::vector<std::string> dashboard;
      for (size_t i = 0; i < kDashboardQueries; ++i) {
        dashboard.push_back(w.drawn[d * kDashboardQueries + i].text);
      }
      w.dashboards.push_back(std::move(dashboard));
    }
    double norm = 0.0;
    for (size_t d = 0; d < kDashboards; ++d) {
      norm += 1.0 / std::pow(static_cast<double>(d + 1), kZipfExponent);
    }
    double acc = 0.0;
    for (size_t d = 0; d < kDashboards; ++d) {
      acc += 1.0 / std::pow(static_cast<double>(d + 1), kZipfExponent) / norm;
      w.zipf_cdf.push_back(acc);
    }
    w.zipf_cdf.back() = 1.0;
  } else {
    *error = "unknown workload '" + name + "'";
  }
  return w;
}

// ---------------------------------------------------------------------------
// Deployment: warehouse + engine or router (+ freshness) + HTTP server
// ---------------------------------------------------------------------------

struct SetupTimes {
  double warehouse_s = 0.0;
  double engine_s = 0.0;
  double server_s = 0.0;
  double total_s = 0.0;  // up to the first answered /search
};

// Members are destroyed in reverse order: server, freshness, service,
// warehouse — the order their lifetimes require.
struct Deployment {
  std::unique_ptr<soda::EnterpriseWarehouse> warehouse;
  std::unique_ptr<soda::SodaService> service;
  const soda::SodaEngine* engine = nullptr;          // single-engine runs
  const soda::ShardedSodaEngine* router = nullptr;   // sharded runs
  std::unique_ptr<soda::FreshnessManager> freshness;
  std::unique_ptr<soda::SodaHttpServer> server;
  SetupTimes times;

  const soda::Soda& SodaFor(const std::string& query) const {
    if (router == nullptr) return engine->soda();
    return router
        ->shard(soda::ShardOfKey(soda::NormalizedQueryKey(query),
                                 router->num_shards()))
        .soda();
  }
};

soda::SodaConfig ConfigFor(const Workload& w) {
  soda::SodaConfig config;  // defaults: 4 threads, cache 128, tracing off
  if (w.sharded) config.num_shards = 4;
  return config;
}

// Builds everything and answers one /search over HTTP. Returns an error
// message on failure.
std::string SetUp(const Workload& w, Deployment* d) {
  Clock::time_point start = Clock::now();
  auto warehouse = soda::BuildEnterpriseWarehouse();
  if (!warehouse.ok()) return "warehouse: " + warehouse.status().message();
  d->warehouse = std::move(*warehouse);
  d->times.warehouse_s = SecondsSince(start);

  Clock::time_point engine_start = Clock::now();
  soda::SodaConfig config = ConfigFor(w);
  if (w.sharded) {
    auto router = soda::ShardedSodaEngine::Create(
        &d->warehouse->db, &d->warehouse->graph,
        soda::CreditSuissePatternLibrary(), config);
    if (!router.ok()) return "router: " + router.status().message();
    d->router = router->get();
    d->service = std::move(*router);
    d->freshness = std::make_unique<soda::FreshnessManager>(
        &d->warehouse->db.change_log());
    d->freshness->Track(d->service.get());
  } else {
    auto engine = soda::SodaEngine::Create(
        &d->warehouse->db, &d->warehouse->graph,
        soda::CreditSuissePatternLibrary(), config);
    if (!engine.ok()) return "engine: " + engine.status().message();
    d->engine = engine->get();
    d->service = std::move(*engine);
  }
  d->times.engine_s = SecondsSince(engine_start);

  Clock::time_point server_start = Clock::now();
  d->server = std::make_unique<soda::SodaHttpServer>(
      d->service.get(), soda::HttpServerOptions{});
  soda::Status started = d->server->Start();
  if (!started.ok()) return "server: " + started.message();
  d->times.server_s = SecondsSince(server_start);

  soda::HttpClient client("127.0.0.1", d->server->port());
  auto response = client.Post(
      "/search", RequestBody({kSetupProbeQuery}, /*batch=*/false));
  if (!response.ok()) return "first /search: " + response.status().message();
  if (response->status != 200) {
    return "first /search answered " + std::to_string(response->status);
  }
  d->times.total_s = SecondsSince(start);
  // The probe's answer must not serve a workload request from cache.
  d->service->ClearCache();
  return "";
}

// ---------------------------------------------------------------------------
// Appends (dashboard_refresh): an existing customer signs a new
// agreement whose kind comes from the vocabulary. Agreements are read by
// a minority of the dashboard queries, so each append invalidates a few
// keys, not the whole cache.
// ---------------------------------------------------------------------------

struct Appender {
  std::vector<std::string> kinds;  // agreement kinds

  soda::Status Append(soda::Database* db, size_t k) const {
    soda::Table* agreements = db->FindTable("agrmnt_td");
    if (agreements == nullptr) return soda::Status::Internal("no agreements");
    int64_t id = 1000000 + static_cast<int64_t>(k);
    int64_t party = 1 + static_cast<int64_t>(
                            (k * 7919) % (soda::kEntIndividuals +
                                          soda::kEntOrganizations));
    const std::string& kind = kinds[k % kinds.size()];
    return agreements->Append(
        {soda::Value::Int(id), soda::Value::Int(party),
         soda::Value::Str(kind + " Mandate " + std::to_string(id)),
         soda::Value::Str(kind)});
  }
};

// ---------------------------------------------------------------------------
// Checks and accounting
// ---------------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void Fail(std::string message) {
    if (failures.size() < 20) std::fprintf(stderr, "CHECK FAILED: %s\n",
                                           message.c_str());
    failures.push_back(std::move(message));
  }
  bool ok() const { return failures.empty(); }
};

// Expected body digest of every query in `queries`, from a reference
// engine built separately over `db`: RenderSearchResponseJson of a direct
// SearchAll, one single-query body per query. Also checks that every
// template yields at least one query with a result.
std::vector<BodyDigest> ReferenceDigests(
    const Workload& w, const soda::EnterpriseWarehouse& warehouse,
    const std::vector<GeneratedQuery>& queries,
    const QueryGenerator& generator, Checks* checks) {
  std::vector<BodyDigest> digests(queries.size());
  auto reference = soda::SodaEngine::Create(
      &warehouse.db, &warehouse.graph, soda::CreditSuissePatternLibrary(),
      ConfigFor(w));
  if (!reference.ok()) {
    checks->Fail("reference engine: " + reference.status().message());
    return digests;
  }
  std::vector<size_t> with_results(generator.templates().size(), 0);
  std::vector<size_t> used(generator.templates().size(), 0);
  for (size_t begin = 0; begin < queries.size(); begin += kOracleChunk) {
    size_t end = std::min(queries.size(), begin + kOracleChunk);
    std::vector<std::string> texts;
    for (size_t i = begin; i < end; ++i) texts.push_back(queries[i].text);
    std::vector<soda::Result<soda::SearchOutput>> outputs =
        (*reference)->SearchAll(std::span<const std::string>(texts));
    for (size_t i = begin; i < end; ++i) {
      const auto& out = outputs[i - begin];
      digests[i] = Digest(soda::RenderSearchResponseJson(
          std::span<const std::string>(&texts[i - begin], 1),
          std::span<const soda::Result<soda::SearchOutput>>(&out, 1)));
      ++used[queries[i].template_index];
      if (out.ok() && !out->results.empty()) {
        ++with_results[queries[i].template_index];
      }
    }
  }
  for (size_t t = 0; t < used.size(); ++t) {
    if (used[t] > 0 && with_results[t] == 0) {
      checks->Fail("template " + generator.templates()[t].name +
                   " yields no query with a result");
    }
  }
  return digests;
}

// Parses a dashboard body and checks every output is ok and answers the
// dashboard's queries in order.
bool DashboardBodyOk(std::string_view body,
                     const std::vector<std::string>& dashboard) {
  auto document = soda::ParseJson(body);
  if (!document.ok() || !document->is_object()) return false;
  const soda::JsonValue* outputs = document->Find("outputs");
  if (outputs == nullptr || !outputs->is_array()) return false;
  const auto& items = outputs->as_array();
  if (items.size() != dashboard.size()) return false;
  for (size_t i = 0; i < items.size(); ++i) {
    const soda::JsonValue* ok = items[i].Find("ok");
    const soda::JsonValue* query = items[i].Find("query");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
    if (query == nullptr || !query->is_string() ||
        query->as_string() != dashboard[i]) {
      return false;
    }
  }
  return true;
}

// Freshness oracle: after the last append, every dashboard sent over HTTP
// must equal the answer of a cold engine built over the mutated database.
// The deployment's server, freshness manager and router are torn down
// before the cold engine is built, so the oracle never adds to the
// process's peak memory; the warehouse stays.
void CheckDashboardsFresh(const Workload& w, Deployment* d, Checks* checks) {
  std::vector<std::string> bodies;
  {
    soda::HttpClient client("127.0.0.1", d->server->port());
    for (const std::vector<std::string>& dashboard : w.dashboards) {
      auto response =
          client.Post("/search", RequestBody(dashboard, /*batch=*/true));
      bool ok = response.ok() && response->status == 200;
      bodies.push_back(ok ? response->body : std::string());
    }
  }
  d->server.reset();
  d->freshness.reset();
  d->service.reset();
  d->engine = nullptr;
  d->router = nullptr;

  soda::SodaConfig config = ConfigFor(w);
  config.num_shards = 1;
  auto cold = soda::SodaEngine::Create(
      &d->warehouse->db, &d->warehouse->graph,
      soda::CreditSuissePatternLibrary(), config);
  if (!cold.ok()) {
    checks->Fail("cold engine: " + cold.status().message());
    return;
  }
  for (size_t i = 0; i < w.dashboards.size(); ++i) {
    const std::vector<std::string>& dashboard = w.dashboards[i];
    std::string expected = soda::RenderSearchResponseJson(
        dashboard, (*cold)->SearchAll(std::span<const std::string>(dashboard)));
    if (bodies[i] != expected) {
      checks->Fail("dashboard " + std::to_string(i) +
                   " differs from a cold engine over the mutated database");
    }
  }
}

enum class Outcome : uint8_t { kOk, kShed, kTimeout, kTransport, kWrong };

struct Sample {
  size_t k = 0;
  double latency_ms = 0.0;
  double lag_ms = 0.0;
  Outcome outcome = Outcome::kOk;
  BodyDigest digest;
  size_t queries = 1;
};

struct TimedResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  uint64_t server_shed = 0;
  size_t appends = 0;
  size_t next = 0;  // first request index the trial did not send
  soda::CacheStats cache_delta;
};

Outcome Classify(const soda::Result<soda::HttpResponse>& response) {
  if (!response.ok()) {
    return response.status().message().find("timed out") != std::string::npos
               ? Outcome::kTimeout
               : Outcome::kTransport;
  }
  if (response->status == 503) return Outcome::kShed;
  if (response->status != 200) return Outcome::kWrong;
  return Outcome::kOk;
}

soda::CacheStats Minus(const soda::CacheStats& a, const soda::CacheStats& b) {
  soda::CacheStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  return d;
}

// Sends each dashboard once so the timed window starts on warm caches.
void WarmDashboards(const Workload& w, Deployment* d, Checks* checks) {
  soda::HttpClient client("127.0.0.1", d->server->port());
  for (const auto& dashboard : w.dashboards) {
    auto response =
        client.Post("/search", RequestBody(dashboard, /*batch=*/true));
    if (!response.ok() || response->status != 200) {
      checks->Fail("dashboard warm-up request failed");
    }
  }
}

// One trial's timed window. The open loop sends requests [first, end) at
// the arrival rate; a closed loop sends requests first, first+1, ...
// until `seconds` have passed.
TimedResult RunTimed(const Workload& w, double seconds, size_t first,
                     size_t end, Deployment* d, const Appender& appender,
                     Checks* checks) {
  TimedResult result;
  const bool batch = w.kind == Kind::kDashboardRefresh;
  std::vector<std::vector<Sample>> per_client(kClients);
  // Dashboard bodies: each distinct body is parsed and checked once, by
  // the client that first sees it; only its digest and verdict are kept.
  std::mutex verdicts_mu;
  std::unordered_map<uint64_t, bool> verdicts;
  std::atomic<size_t> next{first};
  std::atomic<size_t> appends{0};
  std::atomic<bool> append_failed{false};

  uint64_t shed_before = d->server->server_metrics().counter("server.shed");
  soda::CacheStats cache_before = d->service->cache_stats();
  Clock::time_point t0 = Clock::now();
  Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));

  auto client_loop = [&](size_t c) {
    soda::HttpClient client("127.0.0.1", d->server->port());
    std::vector<Sample>& samples = per_client[c];
    while (true) {
      size_t k;
      Clock::time_point due;
      if (w.open_loop) {
        k = next.fetch_add(1);
        if (k >= end) break;
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k - first) / kAdhocRate));
        std::this_thread::sleep_until(due);
      } else {
        if (Clock::now() >= deadline) break;
        k = next.fetch_add(1);
        if (w.AppendBefore(k)) {
          if (!appender.Append(&d->warehouse->db, k).ok()) {
            append_failed = true;
          }
          appends.fetch_add(1);
        }
      }
      std::vector<std::string> queries = w.QueriesOf(k);
      std::string body = RequestBody(queries, batch);
      Clock::time_point sent = Clock::now();
      auto response = client.Post("/search", body);
      Clock::time_point done = Clock::now();
      Sample s;
      s.k = k;
      s.queries = queries.size();
      Clock::time_point from = w.open_loop ? due : sent;
      s.latency_ms =
          std::chrono::duration<double, std::milli>(done - from).count();
      s.lag_ms = w.open_loop
                     ? std::chrono::duration<double, std::milli>(sent - due)
                           .count()
                     : 0.0;
      s.outcome = Classify(response);
      if (s.outcome == Outcome::kOk) {
        s.digest = Digest(response->body);
        if (batch) {
          std::unique_lock<std::mutex> lock(verdicts_mu);
          auto it = verdicts.find(s.digest.hash);
          bool ok;
          if (it != verdicts.end()) {
            ok = it->second;
          } else {
            lock.unlock();
            ok = DashboardBodyOk(response->body, w.dashboards[w.DashboardOf(k)]);
            lock.lock();
            verdicts[s.digest.hash] = ok;
          }
          if (!ok) s.outcome = Outcome::kWrong;
        }
      }
      samples.push_back(s);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  result.elapsed_s = SecondsSince(t0);
  result.server_shed =
      d->server->server_metrics().counter("server.shed") - shed_before;
  result.cache_delta = Minus(d->service->cache_stats(), cache_before);
  result.appends = appends.load();
  result.next = next.load();
  if (append_failed) checks->Fail("a base-data append failed");

  for (auto& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  return result;
}

// ---------------------------------------------------------------------------
// In-process replay: the untraced pass and the traced pass
// ---------------------------------------------------------------------------

struct TraceStats {
  size_t requests = 0;
  size_t queries = 0;

  // net
  double parse_us = 0.0, render_us = 0.0, response_bytes = 0.0;
  uint64_t net_allocs = 0;
  // stage (per missed query)
  size_t missed_queries = 0;
  std::map<std::string, double> stage_us;
  double program_stage_us = 0.0;  // the same stages per SearchOutput::timings
  double interpretations = 0.0;
  uint64_t stage_allocs = 0;
  // executor (per statement / per missed query)
  size_t statements = 0;
  double executor_us = 0.0;
  double rows_output = 0.0;
  double rows_kept = 0.0, rows_materialised = 0.0;
  uint64_t executor_allocs = 0;
  // engine (requests where every query missed)
  size_t miss_requests = 0;
  double miss_us = 0.0, miss_proxy_us = 0.0;
  // cache
  size_t hit_requests = 0, hit_queries = 0;
  double hit_us = 0.0;
  uint64_t cache_allocs = 0;
  soda::CacheStats cache_delta;
  // router
  size_t router_batches = 0;
  double router_us = 0.0;
  double shard_batch_size = 0.0;
  // freshness
  size_t appends = 0;
  double append_us = 0.0;
  double keys_invalidated = 0.0;
  // cross-checks
  size_t sql_mismatches = 0;
};

// A span when tracing, nothing otherwise.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int parent, uint64_t k)
      : recorder_(recorder) {
    if (recorder_ != nullptr) index_ = recorder_->Begin(name, parent, k);
  }
  double End() { return recorder_ != nullptr ? recorder_->End(index_) : 0.0; }
  int index() const { return index_; }
  uint64_t allocs() const {
    return recorder_ != nullptr ? recorder_->span(index_).allocs : 0;
  }

 private:
  SpanRecorder* recorder_;
  int index_ = -1;
};

// Re-runs one missed query's stages and snippet executions directly, as
// proxy children of the service span `parent`.
void ProxyMiss(const soda::Soda& soda, const std::string& query,
               const soda::SearchOutput& served, int parent, uint64_t k,
               SpanRecorder* recorder, TraceStats* stats) {
  soda::QueryContext ctx(query);
  ctx.config = &soda.config();
  const std::vector<const soda::PipelineStage*>& stages = soda.stages();
  for (const soda::PipelineStage* stage : stages) {
    std::string name = "stage." + std::string(stage->name());
    std::vector<const soda::PipelineStage*> one = {stage};
    Scope span(recorder, name.c_str(), parent, k);
    if (!stage->per_interpretation()) {
      soda::Status st = soda::RunQueryStages(one, &ctx);
      (void)st;  // the served answer already reflects the same outcome
    } else {
      for (soda::InterpretationState& state : ctx.states) {
        soda::RunInterpretationStages(one, ctx, &state);
      }
    }
    stats->stage_us[std::string(stage->name())] += span.End();
    stats->stage_allocs += span.allocs();
    if (stage->name() == "rank") {
      stats->interpretations += static_cast<double>(ctx.states.size());
    }
  }
  soda::SearchOutput replayed = soda::FinalizeOutput(std::move(ctx));
  bool same = replayed.results.size() == served.results.size();
  for (size_t i = 0; same && i < replayed.results.size(); ++i) {
    same = replayed.results[i].sql == served.results[i].sql;
  }
  if (!same) ++stats->sql_mismatches;
  ++stats->missed_queries;

  const size_t snippet_rows = soda.config().snippet_rows;
  for (const soda::SodaResult& result : replayed.results) {
    // The statement exactly as Soda::ExecuteSnippet runs it.
    soda::SelectStatement limited = result.statement;
    if (!limited.limit.has_value() ||
        *limited.limit > static_cast<int64_t>(snippet_rows)) {
      limited.limit = static_cast<int64_t>(snippet_rows);
    }
    soda::ExecStats exec;
    Scope span(recorder, "executor.execute", parent, k);
    auto rs = soda.executor().Execute(limited, &exec);
    stats->executor_us += span.End();
    stats->executor_allocs += span.allocs();
    ++stats->statements;
    if (!rs.ok()) continue;
    stats->rows_output += static_cast<double>(exec.rows_output);
    // Wasted work: the rows the statement materialises before the cut.
    soda::ExecStats full;
    if (soda.executor().Execute(result.statement, &full).ok()) {
      stats->rows_kept += static_cast<double>(exec.rows_output);
      stats->rows_materialised += static_cast<double>(full.rows_output);
    }
  }
}

// Replays requests [0, n) of the workload in process, one at a time, the
// way the server handles them: parse the HTTP bytes, SearchAll on the
// service, render and serialize. With a recorder, every layer call is a
// span and misses get proxy spans. Returns the wall time in microseconds.
double Replay(const Workload& w, size_t n, Deployment* d,
              const Appender& appender,
              const std::vector<BodyDigest>* expected,
              SpanRecorder* recorder, TraceStats* stats, Checks* checks) {
  const bool batch = w.kind == Kind::kDashboardRefresh;
  const soda::HttpServerOptions server_options;
  const soda::HttpRequestParser::Limits limits{
      server_options.max_header_bytes, server_options.max_body_bytes};
  const char* service_name =
      w.sharded ? "router.search_all" : "engine.search_all";
  size_t wrong = 0;
  soda::MetricsSnapshot router_before;
  if (d->router != nullptr) router_before = d->router->metrics_snapshot();
  double wall_us = 0.0;

  for (size_t k = 0; k < n; ++k) {
    if (w.AppendBefore(k)) {
      uint64_t invalidated = d->freshness->keys_invalidated();
      Clock::time_point start = Clock::now();
      Scope span(recorder, "freshness.append", -1, k);
      soda::Status st = appender.Append(&d->warehouse->db, k);
      span.End();
      double us = MicrosSince(start);
      wall_us += us;
      if (!st.ok()) checks->Fail("append: " + st.message());
      ++stats->appends;
      stats->append_us += us;
      stats->keys_invalidated += static_cast<double>(
          d->freshness->keys_invalidated() - invalidated);
    }
    Clock::time_point request_start = Clock::now();
    Scope root(recorder, "request", -1, k);

    // Client side: the request bytes as HttpClient would send them.
    Scope build(recorder, "loadgen.build", root.index(), k);
    std::vector<std::string> queries = w.QueriesOf(k);
    std::string body = RequestBody(queries, batch);
    std::string wire = "POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    build.End();

    // net: request parse, as SodaHttpServer::ParseSearchBody does.
    Scope parse(recorder, "net.parse", root.index(), k);
    soda::HttpRequestParser parser(limits);
    bool parsed = parser.Feed(wire) == soda::HttpRequestParser::State::kComplete;
    std::vector<std::string> parsed_queries;
    if (parsed) {
      auto document = soda::ParseJson(parser.request().body);
      parsed = document.ok();
      if (parsed) {
        if (const soda::JsonValue* one = document->Find("query")) {
          parsed_queries.push_back(one->as_string());
        } else if (const soda::JsonValue* many = document->Find("queries")) {
          for (const soda::JsonValue& q : many->as_array()) {
            parsed_queries.push_back(q.as_string());
          }
        }
      }
    }
    stats->parse_us += parse.End();
    uint64_t allocs = parse.allocs();
    if (!parsed || parsed_queries != queries) {
      checks->Fail("replayed request " + std::to_string(k) + " did not parse");
      continue;
    }

    soda::CacheStats before = d->service->cache_stats();
    Scope service(recorder, service_name, root.index(), k);
    std::vector<soda::Result<soda::SearchOutput>> outputs =
        d->service->SearchAll(std::span<const std::string>(parsed_queries));
    double service_us = service.End();
    soda::CacheStats served = Minus(d->service->cache_stats(), before);

    Scope render(recorder, "net.render", root.index(), k);
    soda::HttpResponse response;
    response.status = 200;
    response.SetHeader("Content-Type", "application/json");
    response.SetHeader("X-Soda-Wall-Ms", "0.000");
    response.SetHeader("X-Soda-Queries", std::to_string(queries.size()));
    response.body = soda::RenderSearchResponseJson(parsed_queries, outputs);
    std::string response_wire = soda::SerializeResponse(response, true);
    stats->render_us += render.End();
    allocs += render.allocs();

    // Client side again: read the response and digest its body.
    Scope check(recorder, "loadgen.check", root.index(), k);
    soda::HttpResponseParser response_parser;
    bool complete = response_parser.Feed(response_wire) ==
                    soda::HttpResponseParser::State::kComplete;
    BodyDigest digest = Digest(response_parser.response().body);
    check.End();
    root.End();
    wall_us += MicrosSince(request_start);

    if (!complete) {
      ++wrong;
    } else if (expected != nullptr) {
      if (!((*expected)[k % expected->size()] == digest)) ++wrong;
    } else if (!DashboardBodyOk(response_parser.response().body, queries)) {
      ++wrong;
    }
    ++stats->requests;
    stats->queries += queries.size();
    stats->net_allocs += allocs;
    stats->response_bytes += static_cast<double>(response_wire.size());
    if (d->router != nullptr) {
      ++stats->router_batches;
      stats->router_us += service_us;
    }
    stats->cache_delta.hits += served.hits;
    stats->cache_delta.misses += served.misses;
    if (served.misses == 0) {
      ++stats->hit_requests;
      stats->hit_us += service_us;
    }
    if (recorder == nullptr) continue;

    // Proxies: hits re-served straight from the engine that holds them,
    // misses re-run through the stage list and the executor.
    const size_t first_proxy = recorder->spans().size();
    double proxy_us = 0.0;
    std::map<const soda::SodaEngine*, std::vector<std::string>> hits;
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (!outputs[i].ok()) continue;
      if (outputs[i]->from_cache) {
        const soda::SodaEngine* holder =
            d->router == nullptr
                ? d->engine
                : &d->router->shard(soda::ShardOfKey(
                      soda::NormalizedQueryKey(parsed_queries[i]),
                      d->router->num_shards()));
        hits[holder].push_back(parsed_queries[i]);
      } else {
        size_t first = recorder->spans().size();
        ProxyMiss(d->SodaFor(parsed_queries[i]), parsed_queries[i],
                  *outputs[i], service.index(), k, recorder, stats);
        stats->program_stage_us += 1000.0 * outputs[i]->timings.soda_total_ms();
        for (size_t s = first; s < recorder->spans().size(); ++s) {
          proxy_us += recorder->spans()[s].duration_us();
        }
      }
    }
    for (const auto& [holder, hit_queries] : hits) {
      Scope span(recorder, "cache.hit", service.index(), k);
      holder->SearchAll(std::span<const std::string>(hit_queries));
      span.End();
      stats->cache_allocs += span.allocs();
      stats->hit_queries += hit_queries.size();
    }
    // Serial proxies that outlast the service's wall ran concurrently
    // inside it: weigh them down to exactly that wall (spans.h).
    double all_proxies_us = 0.0;
    for (size_t s = first_proxy; s < recorder->spans().size(); ++s) {
      all_proxies_us += recorder->spans()[s].duration_us();
    }
    if (all_proxies_us > service_us) {
      recorder->SetWeightFrom(first_proxy, service_us / all_proxies_us);
    }
    if (served.hits == 0 && served.misses > 0) {
      ++stats->miss_requests;
      stats->miss_us += service_us;
      stats->miss_proxy_us += proxy_us;
    }
  }
  if (wrong > 0) {
    checks->Fail(std::to_string(wrong) + " replayed answers failed the oracle");
  }
  if (d->router != nullptr) {
    soda::MetricsSnapshot after = d->router->metrics_snapshot();
    soda::MetricsSnapshot delta = after.DeltaSince(router_before);
    if (const soda::HistogramSnapshot* h =
            delta.histogram("router.shard_batch_size")) {
      stats->shard_batch_size = h->mean();
    }
  }
  return wall_us;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    soda::AppendJsonQuoted(&out, metrics[i].name);
    out += ":{\"value\":";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += buffer;
    out += ",\"unit\":";
    soda::AppendJsonQuoted(&out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Safe(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Prints the generator's output for this run: distinct normalized keys,
// each template's share and a fingerprint of the query sequence, which is
// byte-identical across runs with one seed.
void ReportGenerator(const Workload& w, const QueryGenerator& generator) {
  std::map<std::string, size_t> keys;
  std::vector<size_t> per_template(generator.templates().size(), 0);
  for (const GeneratedQuery& q : w.drawn) {
    ++per_template[q.template_index];
    ++keys[soda::NormalizedQueryKey(q.text)];
  }
  std::fprintf(stderr,
               "generator: pool %zu queries, %zu templates; %s uses %zu "
               "distinct normalized keys; fingerprint %016llx\n",
               generator.pool().size(), generator.templates().size(),
               w.name.c_str(), keys.size(),
               static_cast<unsigned long long>(SequenceFingerprint(w.drawn)));
  for (size_t t = 0; t < per_template.size(); ++t) {
    std::fprintf(stderr, "  template %-24s %-6s share %5.1f%%\n",
                 generator.templates()[t].name.c_str(),
                 generator.templates()[t].types.c_str(),
                 100.0 * Safe(static_cast<double>(per_template[t]),
                              static_cast<double>(w.drawn.size())));
  }
}

// The timed part of a run: kTrials fresh deployments, each timed for
// seconds / kTrials, with every answer checked. Latency percentiles and
// throughput pool every trial's requests; setup_s and the peak memory are
// medians over the trials.
struct TimedRun {
  TimedResult timed;
  std::vector<double> setup_total, setup_warehouse, setup_engine,
      setup_server, peak_rss_mb;
  std::vector<BodyDigest> expected;  // oracle digests (single-query bodies)
  size_t sent = 0, failed = 0;
  std::vector<double> latencies, lags;
  size_t ok_queries = 0;
};

bool RunTrials(const Workload& w, double seconds,
               const QueryGenerator& generator, const Appender& appender,
               TimedRun* run, Checks* checks) {
  TimedResult& timed = run->timed;
  size_t next = 0;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    ResetPeakRss();
    Deployment d;
    std::string error = SetUp(w, &d);
    if (!error.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return false;
    }
    run->setup_total.push_back(d.times.total_s);
    run->setup_warehouse.push_back(d.times.warehouse_s);
    run->setup_engine.push_back(d.times.engine_s);
    run->setup_server.push_back(d.times.server_s);
    if (w.kind == Kind::kDashboardRefresh) WarmDashboards(w, &d, checks);
    size_t end = w.queries.size() * (trial + 1) / kTrials;
    TimedResult r = RunTimed(w, seconds / kTrials, next, end, &d, appender,
                             checks);
    next = w.open_loop ? end : r.next;
    run->peak_rss_mb.push_back(PeakRssMb());
    // Freshness oracle after the trial's last append.
    if (w.kind == Kind::kDashboardRefresh) CheckDashboardsFresh(w, &d, checks);
    if (trial + 1 == kTrials && w.kind != Kind::kDashboardRefresh) {
      run->expected =
          ReferenceDigests(w, *d.warehouse, w.queries, generator, checks);
    }
    std::vector<double> latencies;
    size_t ok_queries = 0;
    for (const Sample& sample : r.samples) {
      if (sample.outcome != Outcome::kOk) continue;
      latencies.push_back(sample.latency_ms);
      ok_queries += sample.queries;
    }
    std::fprintf(stderr,
                 "trial %zu: setup %.3f s, %zu requests, %.1f q/s, p50 %.3f "
                 "ms, p99 %.3f ms, peak rss %.1f MiB\n",
                 trial, d.times.total_s, r.samples.size(),
                 Safe(static_cast<double>(ok_queries), r.elapsed_s),
                 Percentile(latencies, 50.0), Percentile(latencies, 99.0),
                 run->peak_rss_mb.back());
    timed.samples.insert(timed.samples.end(), r.samples.begin(),
                         r.samples.end());
    timed.elapsed_s += r.elapsed_s;
    timed.server_shed += r.server_shed;
    timed.appends += r.appends;
    timed.cache_delta.hits += r.cache_delta.hits;
    timed.cache_delta.misses += r.cache_delta.misses;
  }

  // Single-query bodies against the reference engine, outside the windows.
  if (!run->expected.empty()) {
    for (Sample& s : timed.samples) {
      if (s.outcome == Outcome::kOk &&
          !(run->expected[s.k % run->expected.size()] == s.digest)) {
        s.outcome = Outcome::kWrong;
      }
    }
    if (timed.cache_delta.hits != 0) {
      checks->Fail("cache hits on a workload of distinct queries");
    }
  }

  // Accounting: sent = ok + shed + timed-out + transport-failed + wrong.
  size_t counts[5] = {0, 0, 0, 0, 0};
  for (const Sample& s : timed.samples) {
    ++counts[static_cast<size_t>(s.outcome)];
    run->lags.push_back(s.lag_ms);
    if (s.outcome == Outcome::kOk) {
      run->latencies.push_back(s.latency_ms);
      run->ok_queries += s.queries;
    }
  }
  run->sent = timed.samples.size();
  run->failed = run->sent - counts[0];
  if (counts[0] + counts[1] + counts[2] + counts[3] + counts[4] != run->sent) {
    checks->Fail("request accounting does not add up");
  }
  if (counts[1] != timed.server_shed) {
    checks->Fail("client saw " + std::to_string(counts[1]) +
                 " sheds, server booked " + std::to_string(timed.server_shed));
  }
  if (run->failed > 0) {
    checks->Fail(std::to_string(run->failed) + " requests failed");
  }
  if (run->latencies.size() < 1000) {
    checks->Fail("only " + std::to_string(run->latencies.size()) +
                 " successful requests; p99 needs 1000");
  }
  std::fprintf(stderr,
               "accounting %s: sent %zu = ok %zu + shed %zu (server %llu) + "
               "timed-out %zu + transport %zu + wrong %zu; appends %zu; "
               "cache hits %zu misses %zu\n",
               w.name.c_str(), run->sent, counts[0], counts[1],
               static_cast<unsigned long long>(timed.server_shed), counts[2],
               counts[3], counts[4], timed.appends, timed.cache_delta.hits,
               timed.cache_delta.misses);
  std::fprintf(stderr, "  failed_frac = %.6f (%zu of %zu)\n",
               Safe(static_cast<double>(run->failed),
                    static_cast<double>(run->sent)),
               run->failed, run->sent);
  return true;
}

std::vector<Metric> EndToEndMetrics(const TimedRun& run) {
  return {
      {"setup_s", Median(run.setup_total), "s"},
      {"latency_p50_ms", Percentile(run.latencies, 50.0), "ms"},
      {"latency_p99_ms", Percentile(run.latencies, 99.0), "ms"},
      {"throughput_qps",
       Safe(static_cast<double>(run.ok_queries), run.timed.elapsed_s), "1/s"},
      {"rss_peak_mb", Median(run.peak_rss_mb), "MiB"},
  };
}

// The traced run: replays the first requests of the workload's sequence
// untraced and then traced, each on a fresh deployment, and derives the
// per-layer metrics and the reconciled self-time table.
bool TracedMetrics(const Workload& w, const Args& args,
                   const Appender& appender, const TimedRun& run,
                   std::vector<Metric>* metrics, Checks* checks) {
  const size_t n = w.ReplayLength();
  const std::vector<BodyDigest>* oracle =
      run.expected.empty() ? nullptr : &run.expected;
  TraceStats plain_stats, stats;
  SpanRecorder recorder;
  double plain_us = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    Deployment d;
    std::string error = SetUp(w, &d);
    if (!error.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return false;
    }
    if (w.kind == Kind::kDashboardRefresh) WarmDashboards(w, &d, checks);
    if (pass == 0) {
      plain_us =
          Replay(w, n, &d, appender, oracle, nullptr, &plain_stats, checks);
    } else {
      SetAllocCounting(true);
      Replay(w, n, &d, appender, oracle, &recorder, &stats, checks);
      SetAllocCounting(false);
    }
    if (w.kind == Kind::kDashboardRefresh) CheckDashboardsFresh(w, &d, checks);
  }
  if (!args.spans_out.empty() && !recorder.WriteJson(args.spans_out)) {
    checks->Fail("could not write spans to " + args.spans_out);
  }
  LayerTable table = BuildLayerTable(recorder);
  // Reconciliation of the proxies against what the program measured.
  // (1) On all-miss requests, the serial proxies re-run exactly the
  // service's stage and executor work: they may add up to more than
  // engine.miss_us only as far as the pool overlapped them, at most one
  // task per CPU; and below half of it the proxies would be missing most
  // of the service's work.
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  const double proxy_ratio = Safe(stats.miss_proxy_us, stats.miss_us);
  if (stats.miss_requests > 0 &&
      (proxy_ratio < kMinProxyRatio ||
       proxy_ratio > cpus * (1.0 + kProxyTolerance))) {
    char message[160];
    std::snprintf(message, sizeof(message),
                  "proxies add up to %.3f x engine.miss_us, outside [%.2f, "
                  "%.2f]",
                  proxy_ratio, kMinProxyRatio, cpus * (1.0 + kProxyTolerance));
    checks->Fail(message);
  }
  // (2) The stage proxies against the stage times the program returned
  // in SearchOutput::timings for the same queries. Reported, not gated:
  // the program times each interpretation inside its pool task, where the
  // fan-out slows it (about 2x at 4 threads, near 1x with one thread).
  double stage_sum = 0.0;
  for (const auto& [name, us] : stats.stage_us) stage_sum += us;
  const double stage_ratio = Safe(stage_sum, stats.program_stage_us);
  if (stats.sql_mismatches > 0) {
    checks->Fail(std::to_string(stats.sql_mismatches) +
                 " proxy re-runs produced different SQL than the engine");
  }

  const double wall = table.wall_us;
  const double requests = static_cast<double>(stats.requests);
  const double missed = static_cast<double>(stats.missed_queries);
  const double statements = static_cast<double>(stats.statements);
  const double miss_requests = static_cast<double>(stats.miss_requests);
  auto share = [&](const std::string& layer) {
    auto it = table.self_us.find(layer);
    return Safe(it == table.self_us.end() ? 0.0 : it->second, wall);
  };
  auto stage = [&](const std::string& name) {
    auto it = stats.stage_us.find(name);
    return Safe(it == stats.stage_us.end() ? 0.0 : it->second, missed);
  };
  auto per = [](uint64_t count, double den) {
    return Safe(static_cast<double>(count), den);
  };
  *metrics = {
      {"executor.us", Safe(stats.executor_us, statements), "us"},
      {"executor.statements", Safe(statements, missed), "count"},
      {"executor.rows_output", Safe(stats.rows_output, statements), "count"},
      {"executor.rows_kept_ratio",
       Safe(stats.rows_kept, stats.rows_materialised), "ratio"},
      {"executor.allocs", per(stats.executor_allocs, missed), "count"},
      {"stage.lookup_us", stage("lookup"), "us"},
      {"stage.rank_us", stage("rank"), "us"},
      {"stage.tables_us", stage("tables"), "us"},
      {"stage.filters_us", stage("filters"), "us"},
      {"stage.sql_us", stage("sql"), "us"},
      {"stage.interpretations", Safe(stats.interpretations, missed), "count"},
      {"stage.allocs", per(stats.stage_allocs, missed), "count"},
      {"engine.miss_us", Safe(stats.miss_us, miss_requests), "us"},
      {"engine.overhead_us",
       Safe(stats.miss_us - stats.miss_proxy_us, miss_requests), "us"},
      {"engine.proxy_ratio", proxy_ratio, "ratio"},
      {"stage.program_ratio", stage_ratio, "ratio"},
      {"cache.hit_ratio",
       per(stats.cache_delta.hits,
           static_cast<double>(stats.cache_delta.hits +
                               stats.cache_delta.misses)),
       "ratio"},
      {"cache.hit_us",
       Safe(stats.hit_us, static_cast<double>(stats.hit_requests)), "us"},
      {"cache.allocs",
       per(stats.cache_allocs, static_cast<double>(stats.hit_queries)),
       "count"},
      {"router.search_all_us",
       Safe(stats.router_us, static_cast<double>(stats.router_batches)), "us"},
      {"router.shard_batch_size", stats.shard_batch_size, "count"},
      {"net.parse_us", Safe(stats.parse_us, requests), "us"},
      {"net.render_us", Safe(stats.render_us, requests), "us"},
      {"net.response_bytes", Safe(stats.response_bytes, requests), "bytes"},
      {"net.allocs", per(stats.net_allocs, static_cast<double>(stats.queries)),
       "count"},
      {"freshness.append_us",
       Safe(stats.append_us, static_cast<double>(stats.appends)), "us"},
      {"freshness.keys_invalidated",
       Safe(stats.keys_invalidated, static_cast<double>(stats.appends)),
       "count"},
      {"setup.warehouse_s", Median(run.setup_warehouse), "s"},
      {"setup.engine_s", Median(run.setup_engine), "s"},
      {"setup.server_s", Median(run.setup_server), "s"},
      {"loadgen.lag_p99_ms", w.open_loop ? Percentile(run.lags, 99.0) : 0.0,
       "ms"},
      {"share.loadgen", share("loadgen"), "ratio"},
      {"share.net", share("net"), "ratio"},
      {"share.cache", share("cache"), "ratio"},
      {"share.router", share("router"), "ratio"},
      {"share.engine", share("engine"), "ratio"},
      {"share.stage", share("stage"), "ratio"},
      {"share.executor", share("executor"), "ratio"},
      {"share.freshness", share("freshness"), "ratio"},
      {"share.unattributed", Safe(table.unattributed_us, wall), "ratio"},
      {"trace.wall_ms", wall / 1000.0, "ms"},
      {"trace.untraced_wall_ms", plain_us / 1000.0, "ms"},
      {"trace.overhead_frac", Safe(wall - plain_us, plain_us), "ratio"},
  };

  std::fprintf(stderr,
               "traced replay %s: %zu requests, %zu queries (%zu missed), "
               "%zu appends\n",
               w.name.c_str(), stats.requests, stats.queries,
               stats.missed_queries, stats.appends);
  std::fprintf(stderr, "  %-14s %14s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, us] : table.self_us) {
    std::fprintf(stderr, "  %-14s %14.3f %7.1f%%\n", layer.c_str(),
                 us / 1000.0, 100.0 * Safe(us, wall));
  }
  std::fprintf(stderr, "  %-14s %14.3f %7.1f%%\n", "unattributed",
               table.unattributed_us / 1000.0,
               100.0 * Safe(table.unattributed_us, wall));
  std::fprintf(stderr,
               "  %-14s %14.3f  (untraced %.3f ms, overhead %+.1f%%)\n",
               "traced wall", wall / 1000.0, plain_us / 1000.0,
               100.0 * Safe(wall - plain_us, plain_us));
  std::fprintf(stderr,
               "  reconcile: %zu all-miss requests, engine.miss_us %.1f vs "
               "proxies %.1f (ratio %.3f); stage proxies %.3f x program "
               "timings\n",
               stats.miss_requests, Safe(stats.miss_us, miss_requests),
               Safe(stats.miss_proxy_us, miss_requests), proxy_ratio,
               stage_ratio);
  return true;
}

int Run(const Args& args) {
  // The generator reads its vocabulary from a warehouse of its own; the
  // warehouse build is deterministic, so every deployment holds the same.
  auto vocabulary_source = soda::BuildEnterpriseWarehouse();
  if (!vocabulary_source.ok()) {
    std::fprintf(stderr, "warehouse: %s\n",
                 vocabulary_source.status().message().c_str());
    return 1;
  }
  QueryGenerator generator((*vocabulary_source)->db);
  vocabulary_source->reset();
  std::string error;
  Workload w =
      MakeWorkload(args.workload, args.seed, args.seconds, generator, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  ReportGenerator(w, generator);
  const Appender appender{generator.vocabulary("agreement")};

  Checks checks;
  TimedRun run;
  if (!RunTrials(w, args.seconds, generator, appender, &run, &checks)) {
    return 1;
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(run);
    if (w.open_loop) {
      std::fprintf(stderr, "  loadgen.lag_p99_ms = %.4f ms\n",
                   Percentile(run.lags, 99.0));
    }
  } else if (!TracedMetrics(w, args, appender, run, &metrics, &checks)) {
    return 1;
  }

  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const bool correct = checks.ok();
  std::printf("%s\n",
              ResultLine(correct, run.sent, run.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload adhoc_cold|dashboard_refresh "
                 "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
                 argv[0]);
    return 2;
  }
  return e2ebench::Run(args);
}
