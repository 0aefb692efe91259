#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
Clock::time_point g_epoch = Clock::now();
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex
thread_local Context t_current;

double since_epoch(Clock::time_point t) {
  return std::chrono::duration<double>(t - g_epoch).count();
}

constexpr const char* kLayers[] = {"population", "scanner", "crypto", "snapshot_io", "analysis",
                                   "diff",       "series",  "report", "svc"};

}  // namespace

void set_enabled(bool on) {
  if (on) g_epoch = Clock::now();
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Context current() { return t_current; }

Span::Span(const char* layer, const char* name) {
  if (enabled()) open(layer, name, t_current);
}

Span::Span(const char* layer, const char* name, Context parent) {
  if (enabled()) open(layer, name, parent);
}

void Span::open(const char* layer, const char* name, Context parent) {
  on_ = true;
  layer_ = layer;
  name_ = name;
  self_.span = g_next_id.fetch_add(1, std::memory_order_relaxed);
  self_.op = parent.span == 0 ? self_.span : parent.op;
  saved_ = t_current;  // differs from `parent` when the parent is on another thread
  parent_ = parent.span;
  t_current = self_;
  start_ = Clock::now();
}

Span::~Span() {
  if (!on_) return;
  const Clock::time_point end = Clock::now();
  t_current = saved_;
  Record record;
  record.id = self_.span;
  record.parent = parent_;
  record.op = self_.op;
  record.layer = layer_;
  record.name = name_;
  record.start_s = since_epoch(start_);
  record.end_s = since_epoch(end);
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records.push_back(record);
}

std::vector<Record> records() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_records;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records.clear();
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Record>& spans) {
  std::map<std::uint64_t, std::vector<const Record*>> children;
  for (const Record& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const Record& span : spans) {
    std::vector<std::pair<double, double>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Record* child : it->second) {
        const double lo = std::max(child->start_s, span.start_s);
        const double hi = std::min(child->end_s, span.end_s);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_s = 0, reach = span.start_s;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_s += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.layer] += std::max(0.0, span.seconds() - union_s);
  }
  return self;
}

std::map<std::uint64_t, std::vector<double>> durations_by_op(const std::vector<Record>& spans,
                                                             const std::string& name) {
  std::map<std::uint64_t, std::vector<double>> out;
  for (const Record& span : spans) {
    if (name == span.name) out[span.op].push_back(span.seconds());
  }
  return out;
}

std::vector<double> durations(const std::vector<Record>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Record& span : spans) {
    if (name == span.name) out.push_back(span.seconds());
  }
  return out;
}

void write_jsonl(const std::vector<Record>& spans, const std::string& workdir) {
  const std::string path = workdir + "/spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out.precision(9);
  for (const Record& span : spans) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent << ", \"op\": " << span.op
        << ", \"layer\": \"" << span.layer << "\", \"name\": \"" << span.name
        << "\", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s << "}\n";
  }
  if (!out) throw std::runtime_error("short write on trace " + path);
}

void report_self_times(Report& report, const std::vector<Record>& spans) {
  const auto self = self_seconds_by_layer(spans);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.metric(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace perfbench::trace
