// Span tracer of the traced benchmark run.
//
// The benchmark wraps every call it makes into a library module
// (population, scanner, crypto, snapshot_io, analysis, diff, series,
// report, svc) in a Span. A span records its layer, name, start, end,
// parent span and operation id; spans of one operation (a scanned week, a
// batch pass, a query) share the operation id. Spans stay in memory and
// are written out as JSON lines when the run ends. A layer's self time is
// the duration of its spans minus the part of each covered by child spans.
//
// Disabled (the untraced runs), a Span reads no clock and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

void set_enabled(bool on);
bool enabled();

/// Where a span sits: its id and its operation. A default Context has no
/// parent, so a span opened under it starts a new operation.
struct Context {
  std::uint64_t span = 0;
  std::uint64_t op = 0;
};

/// The innermost open span of the calling thread.
Context current();

class Span {
 public:
  /// Child of the calling thread's innermost open span (a new operation
  /// when there is none).
  Span(const char* layer, const char* name);
  /// Child of `parent`, which may belong to another thread — how work
  /// handed to worker threads stays inside its operation.
  Span(const char* layer, const char* name, Context parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* layer, const char* name, Context parent);

  bool on_ = false;
  Context self_;
  Context saved_;  // the thread's innermost span before this one opened
  std::uint64_t parent_ = 0;
  const char* layer_ = nullptr;
  const char* name_ = nullptr;
  Clock::time_point start_;
};

struct Record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* layer = nullptr;
  const char* name = nullptr;
  double start_s = 0;  // since the tracer was enabled
  double end_s = 0;
  double seconds() const { return end_s - start_s; }
};

/// Every finished span, in completion order.
std::vector<Record> records();
/// Drop all recorded spans.
void clear();

/// Per-layer self time, seconds: each span's duration minus the union of
/// its children's intervals clipped to it, summed by layer.
std::map<std::string, double> self_seconds_by_layer(const std::vector<Record>& spans);

/// Durations of the spans called `name`, grouped by operation id.
std::map<std::uint64_t, std::vector<double>> durations_by_op(const std::vector<Record>& spans,
                                                             const std::string& name);
/// Durations of every span called `name`.
std::vector<double> durations(const std::vector<Record>& spans, const std::string& name);

/// Write the spans as JSON lines (one object per span) to
/// `<workdir>/spans.jsonl`, where perfbench/run.py collects them.
void write_jsonl(const std::vector<Record>& spans, const std::string& workdir);

/// Report `<layer>.self_s` for the nine library layers.
void report_self_times(Report& report, const std::vector<Record>& spans);

}  // namespace perfbench::trace
