// In-memory spans for the traced run, and the per-layer self-time table.
//
// Every span is a layer call the benchmark made and timed itself: name,
// start, end, parent, request id and the heap allocations counted while
// it was open. The layer of a span is its name up to the first '.'
// ("net.parse" -> net); root spans named "request" are the request
// envelopes, whose self time is the unattributed row.
//
// Self time is a span's weighted duration minus its children's weighted
// durations. Most children nest inside their parent and weigh 1. The
// exception is the proxy spans of an engine or router call: the stages,
// the executor and cache hits run inside the service, out of the
// benchmark's reach, so the traced run re-runs them serially after the
// request and attaches those spans to the service span they stand in
// for. Where the service overlapped that work on its pool, the serial
// proxies add up to more than the service's wall; their weight is then
// scaled down so they add up to exactly that wall, which leaves the
// service's self time at 0 instead of negative. A weight below 1 thus
// means "this share of the wall, running concurrently with its
// siblings".
//
// By construction, the table's rows plus the unattributed row add up to
// the traced wall time, the sum of the root spans' durations; proxies lie
// outside the roots' windows but inside their parents' weighted time.

#ifndef SODA_E2EBENCH_SPANS_H_
#define SODA_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  std::string name;
  double start_us = 0.0;  // since the recorder's epoch
  double end_us = 0.0;
  int parent = -1;  // index into the recorder, -1 for roots
  uint64_t request = 0;
  uint64_t allocs = 0;
  double weight = 1.0;  // share of the duration the self-time table counts

  double duration_us() const { return end_us - start_us; }
  double weighted_us() const { return weight * duration_us(); }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index.
  int Begin(std::string name, int parent, uint64_t request);
  /// Closes span `index`; returns its duration in microseconds.
  double End(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord& span(int index) const {
    return spans_[static_cast<size_t>(index)];
  }
  /// Sets the weight of spans [first, size()).
  void SetWeightFrom(size_t first, double weight);

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
};

/// Per-layer self times (microseconds), the unattributed row and the
/// traced wall time they add up to.
struct LayerTable {
  std::map<std::string, double> self_us;  // layer -> self time
  double unattributed_us = 0.0;
  double wall_us = 0.0;
};

LayerTable BuildLayerTable(const SpanRecorder& recorder);

/// The layer a span name belongs to.
std::string LayerOf(const std::string& span_name);

}  // namespace e2ebench

#endif  // SODA_E2EBENCH_SPANS_H_
