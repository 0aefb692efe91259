// history_batch: batch analysis of a recorded campaign history.
//
// Set-up generates a seeded K-member history (history.hpp). One pass is
// the read side a user runs over it: open every member's SnapshotReader,
// analyze_reader on member 0, diff_files on every adjacent pair,
// analyze_series with sketches off, and render the diff and series JSON.
// No scanning and no RSA: the time goes to reader open and dictionary
// verification, certificate parsing, the analysis, diff and series passes
// and rendering. Every pass must render byte-identical JSON (and equal
// figures) to the first, and a pass at one thread must match too.
//
// The traced run times untraced passes for half the run, traced passes
// for the other half, then one traced single-thread pass for the
// thread-scaling ratios and one parse of every member's dictionary.
#include <filesystem>
#include <memory>
#include <set>

#include "analysis/analysis.hpp"
#include "crypto/x509.hpp"
#include "history.hpp"
#include "obs/metrics.hpp"
#include "series/series.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opcua_study;

namespace {

constexpr int kSetups = 3;

HistoryConfig history_config(const Options& options, const std::string& dir) {
  HistoryConfig config;
  config.seed = options.seed;
  config.base_hosts = options.smoke ? 2000 : 30000;
  config.members = options.smoke ? 3 : 6;
  config.dir = dir;
  return config;
}

struct PassOutput {
  StudyAnalysis study;
  std::vector<std::string> diff_json;
  std::string series_json;
  double wall_s = 0;
  double cpu_s = 0;
};

PassOutput batch_pass(const History& history, int threads) {
  PassOutput out;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  {
    const trace::Span op("bench", "batch_pass");
    const std::size_t members = history.paths.size();
    std::vector<std::unique_ptr<SnapshotReader>> readers;
    for (std::size_t m = 0; m < members; ++m) {
      const trace::Span span("snapshot_io", "SnapshotReader::open");
      readers.push_back(std::make_unique<SnapshotReader>(history.paths[m], history.file_seeds[m]));
    }
    {
      const trace::Span span("analysis", "analyze_reader");
      AnalysisOptions options;
      options.threads = threads;
      out.study = analyze_reader(*readers[0], options);
    }
    std::vector<CampaignDiff> diffs;
    for (std::size_t m = 0; m + 1 < members; ++m) {
      const trace::Span span("diff", "diff_files");
      DiffOptions options;
      options.threads = threads;
      diffs.push_back(diff_files(history.paths[m], history.file_seeds[m], history.paths[m + 1],
                                 history.file_seeds[m + 1], options));
    }
    SeriesAnalysis series;
    {
      const trace::Span span("series", "analyze_series");
      CampaignSet set;
      for (std::size_t m = 0; m < members; ++m) set.add_file(history.paths[m], history.file_seeds[m]);
      SeriesOptions options;
      options.threads = threads;
      options.use_sketches = false;
      series = analyze_series(set, options);
    }
    const trace::Span span("report", "render");
    for (const CampaignDiff& diff : diffs) out.diff_json.push_back(campaign_diff_json(diff));
    out.series_json = series_analysis_json(series);
  }
  out.cpu_s = process_cpu_seconds() - cpu_start;
  out.wall_s = seconds_since(start);
  return out;
}

/// Count the pass's operations and check it against the reference pass.
void verify_pass(const PassOutput& pass, const PassOutput& reference, const std::string& what,
                 Report& report) {
  // Opens, one study, the diffs, one series, the renders.
  const std::uint64_t operations = 2 * (pass.diff_json.size() + 1) + 3;
  report.attempted(operations);
  const bool same = pass.diff_json == reference.diff_json &&
                    pass.series_json == reference.series_json &&
                    pass.study.figures_equal(reference.study);
  if (!same) report.failed(operations);
  report.check(same, what + ": diff/series JSON and study figures equal the first pass");
}

/// Passes until `budget` seconds have been spent (at least `min_passes`).
std::vector<PassOutput> timed_passes(const History& history, int threads, double budget,
                                     int min_passes, const PassOutput& reference,
                                     Report& report) {
  std::vector<PassOutput> passes;
  const auto start = Clock::now();
  while (static_cast<int>(passes.size()) < min_passes || seconds_since(start) < budget) {
    passes.push_back(batch_pass(history, threads));
    verify_pass(passes.back(), reference, "pass " + std::to_string(passes.size()), report);
    // Keep only timings: the outputs were checked.
    passes.back().diff_json.clear();
    passes.back().series_json.clear();
  }
  return passes;
}

std::vector<double> walls_of(const std::vector<PassOutput>& passes) {
  std::vector<double> walls;
  for (const PassOutput& pass : passes) walls.push_back(pass.wall_s);
  return walls;
}

double median_per_pass(const std::vector<trace::Record>& spans, const std::string& name) {
  std::vector<double> per_pass;
  for (const auto& [op, list] : trace::durations_by_op(spans, name)) {
    double sum = 0;
    for (const double s : list) sum += s;
    per_pass.push_back(sum);
  }
  return median_of(per_pass);
}

}  // namespace

void run_history_batch(const Options& options, Report& report) {
  // Set-up, repeated: each copy is generated from scratch; the last stays.
  std::vector<double> setups;
  History history;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) remove_history(history);
    const std::string dir = options.workdir + "/history" + std::to_string(s);
    std::filesystem::create_directories(dir);
    const auto start = Clock::now();
    history = build_history(history_config(options, dir));
    setups.push_back(seconds_since(start));
  }

  // The first pass fills the page cache and is the reference output.
  const PassOutput reference = batch_pass(history, options.threads);
  verify_pass(reference, reference, "reference pass", report);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<PassOutput> passes =
      timed_passes(history, options.threads, budget, options.smoke ? 1 : 3, reference, report);
  const Summary wall = summarize(walls_of(passes));
  std::vector<double> cpus;
  for (const PassOutput& pass : passes) cpus.push_back(pass.cpu_s);

  if (!options.trace) {
    // Thread-count invariance, outside the timed passes.
    verify_pass(batch_pass(history, 1), reference, "single-thread pass", report);
    report.metric("setup_s", median_of(setups), "s");
    report.metric("op_p50_ms", wall.median * 1e3, "ms");
    report.metric("work_per_s", static_cast<double>(history.records) / wall.median, "1/s");
    report.metric("cpu_ms_per_op", median_of(cpus) * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  char note[96];
  std::snprintf(note, sizeof note, "median of n=%zu passes at %d threads; p%g %.4f s", wall.n,
                options.threads, wall.tail_pct, wall.tail);
  report.named("batch_pass_s", wall.median, "s", note);
  report.named("batch_records_per_s", static_cast<double>(history.records) / wall.median, "1/s",
               std::to_string(history.records) + " records in " +
                   std::to_string(history.paths.size()) + " members");
  report.named("setup_s", median_of(setups), "s",
               "median of " + std::to_string(setups.size()) + " set-ups");
  report.named("peak_rss_mb", peak_rss_mb(), "MB");

  if (options.trace) {
    obs::reset();
    obs::set_enabled(true);
    trace::set_enabled(true);
    const std::vector<PassOutput> traced =
        timed_passes(history, options.threads, options.seconds / 2, 1, reference, report);
    const obs::MetricsSample sample = obs::collect();
    const auto multi_spans = trace::records();
    trace::clear();
    const PassOutput single = batch_pass(history, 1);
    verify_pass(single, reference, "single-thread pass", report);
    const auto single_spans = trace::records();

    // Dictionary statistics, then one parse of every member's dictionary.
    // The readers are opened (and their dictionaries verified) before the
    // span, so it holds the x509_parse calls and nothing else.
    std::uint64_t dict_entries = 0;
    std::set<std::uint64_t> distinct;
    std::vector<std::unique_ptr<SnapshotReader>> readers;
    for (std::size_t m = 0; m < history.paths.size(); ++m) {
      readers.push_back(std::make_unique<SnapshotReader>(history.paths[m], history.file_seeds[m]));
      dict_entries += readers.back()->cert_count();
      for (std::uint32_t id = 0; id < readers.back()->cert_count(); ++id) {
        distinct.insert(readers.back()->cert_fp64(id));
      }
    }
    {
      const trace::Span span("crypto", "x509_parse dictionaries");
      for (const auto& reader : readers) {
        for (std::uint32_t id = 0; id < reader->cert_count(); ++id) {
          (void)x509_parse(reader->cert_der(id));
        }
      }
    }
    readers.clear();
    trace::set_enabled(false);
    obs::set_enabled(false);
    std::vector<trace::Record> spans = trace::records();
    const double parse_s = trace::durations(spans, "x509_parse dictionaries").front();
    spans.insert(spans.end(), multi_spans.begin(), multi_spans.end());

    const double passes_n = static_cast<double>(traced.size());
    const double study_s = median_per_pass(multi_spans, "analyze_reader");
    const double diff_s = median_per_pass(multi_spans, "diff_files");
    const double series_s = median_per_pass(multi_spans, "analyze_series");
    report.metric("snapshot_io.open_s", median_per_pass(multi_spans, "SnapshotReader::open"), "s");
    report.metric("analysis.study_s", study_s, "s");
    report.metric("diff.pass_s", diff_s, "s");
    report.metric("series.pass_s", series_s, "s");
    report.metric("report.render_s", median_per_pass(multi_spans, "render"), "s");
    report.metric("analysis.scaling_x", median_per_pass(single_spans, "analyze_reader") / study_s,
                  "ratio");
    report.metric("diff.scaling_x", median_per_pass(single_spans, "diff_files") / diff_s, "ratio");
    report.metric("series.scaling_x", median_per_pass(single_spans, "analyze_series") / series_s,
                  "ratio");
    report.metric("snapshot_io.chunks_read",
                  static_cast<double>(sample[obs::Metric::snapshot_chunks_read].total()) / passes_n,
                  "count");
    report.metric("snapshot_io.bytes_read",
                  static_cast<double>(sample[obs::Metric::snapshot_bytes_read].total()) / passes_n,
                  "bytes");
    report.metric("snapshot_io.dict_certs", static_cast<double>(dict_entries), "count");
    report.metric("snapshot_io.dict_unique_frac",
                  static_cast<double>(distinct.size()) / static_cast<double>(dict_entries),
                  "ratio");
    report.metric("crypto.dict_parse_s", parse_s, "s");
    report.metric("obs.trace_overhead_frac", median_of(walls_of(traced)) / wall.median - 1.0,
                  "ratio");
    trace::report_self_times(report, multi_spans);
    trace::write_jsonl(spans, options.workdir);
  }
  remove_history(history);
}

}  // namespace perfbench
