#include "spans.h"

#include <fstream>

#include "alloc_counter.h"
#include "net/json.h"

namespace e2ebench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int SpanRecorder::Begin(std::string name, int parent, uint64_t request) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = parent;
  record.request = request;
  record.allocs = AllocCount();
  spans_.push_back(std::move(record));
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - epoch_)
                               .count();
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::End(int index) {
  double now = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  SpanRecord& record = spans_[static_cast<size_t>(index)];
  record.end_us = now;
  record.allocs = AllocCount() - record.allocs;
  return record.duration_us();
}

void SpanRecorder::SetWeightFrom(size_t first, double weight) {
  for (size_t i = first; i < spans_.size(); ++i) spans_[i].weight = weight;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string buffer = "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) buffer += ",\n";
    buffer += "{\"id\":" + std::to_string(i) + ",\"name\":";
    soda::AppendJsonQuoted(&buffer, s.name);
    buffer += ",\"parent\":" + std::to_string(s.parent) +
              ",\"request\":" + std::to_string(s.request) + ",\"start_us\":";
    soda::AppendJsonNumber(&buffer, s.start_us);
    buffer += ",\"end_us\":";
    soda::AppendJsonNumber(&buffer, s.end_us);
    buffer += ",\"weight\":";
    soda::AppendJsonNumber(&buffer, s.weight);
    buffer += ",\"allocs\":" + std::to_string(s.allocs) + "}";
    if (buffer.size() > (1 << 20)) {
      out << buffer;
      buffer.clear();
    }
  }
  buffer += "]}\n";
  out << buffer;
  return static_cast<bool>(out);
}

std::string LayerOf(const std::string& span_name) {
  if (span_name == "request") return "unattributed";
  return span_name.substr(0, span_name.find('.'));
}

LayerTable BuildLayerTable(const SpanRecorder& recorder) {
  const std::vector<SpanRecord>& spans = recorder.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.weighted_us();
    }
  }
  LayerTable table;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    double self = s.weighted_us() - child_us[i];
    if (s.parent < 0) table.wall_us += s.duration_us();
    std::string layer = LayerOf(s.name);
    if (layer == "unattributed") {
      table.unattributed_us += self;
    } else {
      table.self_us[layer] += self;
    }
  }
  return table;
}

}  // namespace e2ebench
