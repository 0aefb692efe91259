// Shared plumbing of the end-to-end benchmark: command-line options,
// timing helpers, sample summaries and the result document every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();
/// User + system CPU seconds of the calling thread so far.
double thread_cpu_seconds();
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and a short run: the benchmark's own smoke test.
  bool smoke = false;
  /// Private scratch directory of this invocation (created and removed by
  /// the caller); every generated file lives here.
  std::string workdir;
  /// Warm RSA key corpus of the seed (scan_weeks only). The workload
  /// copies it into `workdir` and never writes the shared file.
  std::string key_corpus;
  /// Worker threads for parallel passes: min(4, hardware concurrency).
  int threads = 1;
};

/// Starts successive samples on successive CPUs. On a shared host the
/// vCPUs run at different speeds (one was 1.5x another on a 4-vCPU VM),
/// and a thread left alone stays on one of them for a whole run, so every
/// sample of that run would see the same speed. next() moves the calling
/// thread to the next CPU the process may use and then lets it run
/// anywhere again: it stays on that CPU until the scheduler has a reason
/// to move it, and threads it starts may use every CPU. Where the system
/// refuses, next() does nothing.
class CpuRotation {
 public:
  CpuRotation();
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// A timing distribution as the benchmark reports it: the median and the
/// highest of p99, p90 and p50 with at least ten samples beyond it. The cap
/// at p99 keeps a workload's tail the same statistic from run to run. Runs
/// with too few samples for any of them report the maximum as the tail,
/// with `tail_pct` 100.
struct Summary {
  double median = 0;
  double tail = 0;
  double tail_pct = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);
double median_of(std::vector<double> samples);

/// The result of one invocation. `metric()` values form the final JSON
/// line; `named()` values are the workload's own metrics, printed by name
/// with their unit in a human-readable block before it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void named(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// Record a correctness check; a false one marks the run incorrect and
  /// is printed to stderr.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const { return correct_; }
  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }
  bool has_metric(const std::string& name) const;

  void print_named(const std::string& title) const;
  std::string result_json() const;

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Value> metrics_;
  std::vector<Value> named_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metric set every workload reports with tracing off, and
/// the per-layer set every workload reports with tracing on. Layers a
/// workload does not exercise report 0. BENCHMARK.json lists the same
/// names and units.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// Emit 0 for every metric of `specs` the workload did not report.
void fill_missing(Report& report, const std::vector<MetricSpec>& specs);

}  // namespace perfbench
