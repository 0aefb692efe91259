#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},       {"op_p50_ms", "ms"},   {"work_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"population.deploy_s", "s"},
    {"population.self_s", "s"},
    {"crypto.keys_generated", "count"},
    {"crypto.key_cache_hits", "count"},
    {"crypto.rsa_private_ops_per_s", "1/s"},
    {"crypto.aes_cbc_mb_per_s", "MB/s"},
    {"crypto.dict_parse_s", "s"},
    {"crypto.self_s", "s"},
    {"scanner.critical_path_s", "s"},
    {"scanner.shard_imbalance", "ratio"},
    {"scanner.busy_s", "s"},
    {"scanner.tasks_launched", "count"},
    {"scanner.task_wakeups", "count"},
    {"scanner.complete_ratio", "ratio"},
    {"scanner.self_s", "s"},
    {"snapshot_io.write_s", "s"},
    {"snapshot_io.bytes_written", "bytes"},
    {"snapshot_io.open_s", "s"},
    {"snapshot_io.dict_certs", "count"},
    {"snapshot_io.dict_unique_frac", "ratio"},
    {"snapshot_io.chunks_read", "count"},
    {"snapshot_io.bytes_read", "bytes"},
    {"snapshot_io.self_s", "s"},
    {"analysis.study_s", "s"},
    {"analysis.scaling_x", "ratio"},
    {"analysis.self_s", "s"},
    {"diff.pass_s", "s"},
    {"diff.scaling_x", "ratio"},
    {"diff.self_s", "s"},
    {"series.pass_s", "s"},
    {"series.scaling_x", "ratio"},
    {"series.self_s", "s"},
    {"report.render_s", "s"},
    {"report.self_s", "s"},
    {"svc.query_us.catalog", "us"},
    {"svc.query_us.posture", "us"},
    {"svc.query_us.study", "us"},
    {"svc.query_us.diff", "us"},
    {"svc.query_us.series", "us"},
    {"svc.inline_us.catalog", "us"},
    {"svc.inline_us.posture", "us"},
    {"svc.inline_us.study", "us"},
    {"svc.inline_us.diff", "us"},
    {"svc.inline_us.series", "us"},
    {"svc.cache_hit_ratio.sketch", "ratio"},
    {"svc.cache_hit_ratio.postures", "ratio"},
    {"svc.cache_hit_ratio.study", "ratio"},
    {"svc.cache_hit_ratio.diff", "ratio"},
    {"svc.cache_hit_ratio.series", "ratio"},
    {"svc.read_p99_us", "us"},
    {"svc.resident_mb", "MB"},
    {"svc.register_ms", "ms"},
    {"svc.append_only_ms", "ms"},
    {"svc.cold_study_ms", "ms"},
    {"svc.cold_diff_ms", "ms"},
    {"svc.self_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

double process_cpu_seconds() { return cpu_seconds(RUSAGE_SELF); }

double thread_cpu_seconds() { return cpu_seconds(RUSAGE_THREAD); }

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  if (sched_setaffinity(0, sizeof mask, &mask) != 0) return;
  CPU_ZERO(&mask);
  for (const int cpu : cpus_) CPU_SET(cpu, &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.median = median_of(samples);
  const std::size_t n = samples.size();
  summary.tail = samples.back();
  summary.tail_pct = 100;
  for (const double pct : {99.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
      summary.tail = samples[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
      summary.tail_pct = pct;
      break;
    }
  }
  return summary;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (auto& existing : metrics_) {
    if (existing.name == name) {
      existing.value = value;
      return;
    }
  }
  metrics_.push_back({name, value, unit, ""});
}

void Report::named(const std::string& name, double value, const std::string& unit,
                   const std::string& note) {
  named_.push_back({name, value, unit, note});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

bool Report::has_metric(const std::string& name) const {
  for (const auto& value : metrics_) {
    if (value.name == name) return true;
  }
  return false;
}

void Report::print_named(const std::string& title) const {
  std::printf("== %s ==\n", title.c_str());
  for (const auto& value : named_) {
    std::printf("  %-28s %16.6f %-6s %s\n", value.name.c_str(), value.value, value.unit.c_str(),
                value.note.c_str());
  }
  std::printf("  %-28s %16llu\n  %-28s %16llu\n  checks: %s\n", "attempted",
              static_cast<unsigned long long>(attempted_), "failed",
              static_cast<unsigned long long>(failed_), correct_ ? "all passed" : "FAILED");
}

std::string Report::result_json() const {
  // Values keep every digit (%.17g); JsonWriter would round to 12.
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& value : metrics_) {
    if (!std::isfinite(value.value)) {
      throw std::runtime_error("metric " + value.name + " is not finite");
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value.value);
    // Names and units come from the fixed metric tables: plain ASCII.
    out << (first ? "" : ", ") << '"' << value.name << "\": {\"value\": " << number
        << ", \"unit\": \"" << value.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void fill_missing(Report& report, const std::vector<MetricSpec>& specs) {
  for (const auto& spec : specs) {
    if (!report.has_metric(spec.name)) report.metric(spec.name, 0.0, spec.unit);
  }
}

}  // namespace perfbench
