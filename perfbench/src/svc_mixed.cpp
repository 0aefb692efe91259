// svc_mixed: the resident study service under a mixed read/write load.
//
// Set-up generates a seeded campaign history (history.hpp): kInitial
// members are registered with a CampaignCatalog and joined into a resident
// series, their artifacts computed once (a warm service); the remaining
// members are pending campaigns the writer lands during the run.
//
// Load, all in this process: a closed loop of two client threads, each
// submitting one query to the QueryService's pool of two workers and
// busy-polling for its response before sending the next (both counts
// capped at nproc). Polling keeps the client's own wake-up delay, which
// follows host scheduling rather than the service, out of the latency. Queries are a seeded, even mix of cohort-filtered posture cuts,
// study, diff, series and catalog queries over the published members. One writer client lands a pending member
// every kAppendInterval seconds (register_campaign + append_to_series),
// then issues the first, cold, study and diff queries on it and only then
// publishes it to the readers. Every read is timed from submit to
// response; a rejected or error response counts as failed and keeps its
// latency sample.
//
// Checks: sampled pooled bodies equal execute() of the same request after
// the run, catalog and series queries pooled equal inline, and the
// resident series after the last append renders the same JSON as a batch
// analyze_series over the same members.
//
// The traced run runs two load phases of half the run each on fresh
// catalogs, the first untraced and the second traced.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "history.hpp"
#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opcua_study;
using svc::QueryRequest;
using svc::QueryResponse;

namespace {

constexpr std::size_t kInitial = 4;
constexpr double kAppendInterval = 1.5;  // seconds between writer appends
constexpr double kSmokeAppendInterval = 0.25;
constexpr int kSetups = 3;
constexpr double kWindow = 0.5;            // seconds per throughput window
constexpr std::size_t kSampleEvery = 50;  // pooled bodies kept for re-checking
constexpr std::size_t kKinds = 5;         // QueryRequest::Kind values
constexpr const char* kQuerySpans[kKinds] = {"query.catalog", "query.posture", "query.study",
                                             "query.diff", "query.series"};

int load_threads(int limit) {
  const int hardware = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, std::min(limit, hardware));
}

double append_interval(const Options& options) {
  return options.smoke ? kSmokeAppendInterval : kAppendInterval;
}

std::string member_name(std::size_t m) {
  std::string name = "m";
  name += std::to_string(m);
  return name;
}

HistoryConfig history_config(const Options& options, const std::string& dir) {
  HistoryConfig config;
  config.seed = options.seed;
  config.base_hosts = options.smoke ? 1000 : 15000;
  // Enough pending members for one append per interval over the run.
  const double appends = options.seconds / append_interval(options);
  config.members = kInitial + static_cast<std::size_t>(appends) + 1;
  config.dir = dir;
  return config;
}

/// Register the initial members and the series, and compute every artifact
/// the readers can ask for, so the timed load starts on a warm service.
void warm_catalog(svc::CampaignCatalog& catalog, const History& history) {
  std::vector<std::string> names;
  for (std::size_t m = 0; m < kInitial; ++m) {
    names.push_back(member_name(m));
    catalog.register_campaign(names.back(), history.paths[m], history.file_seeds[m]);
  }
  catalog.register_series("history", names);
  for (std::size_t m = 0; m < kInitial; ++m) {
    (void)catalog.postures(names[m]);
    (void)catalog.study(names[m]);
    if (m > 0) (void)catalog.diff(names[m - 1], names[m]);
  }
  (void)catalog.series("history");
}

svc::CatalogOptions catalog_options() {
  svc::CatalogOptions options;
  options.write_sketches = false;  // inputs stay as set-up left them
  return options;
}

/// The read mix: the five query kinds in equal shares. Nothing records
/// what the study service's real traffic looks like, so the even mix is an
/// assumption, as are the posture filter odds below; perfbench/METRICS.md
/// says so.
QueryRequest make_query(Rng& rng, std::size_t published) {
  QueryRequest request;
  request.kind = static_cast<QueryRequest::Kind>(rng.below(kKinds));
  switch (request.kind) {
    case QueryRequest::Kind::posture:
      request.campaign = member_name(rng.below(published));
      if (rng.below(10) < 3) request.asn = 64500 + static_cast<std::uint32_t>(rng.below(48));
      if (rng.below(10) < 3) request.mode_bucket = static_cast<int>(rng.below(3));
      if (rng.below(10) < 3) request.policy_bucket = static_cast<int>(rng.below(3));
      if (rng.below(10) < 2) request.protocol = "opcua";
      request.anonymous_only = rng.below(5) == 0;
      request.deficient_only = rng.below(5) == 0;
      request.as_limit = rng.below(2) == 0 ? 8 : 32;
      break;
    case QueryRequest::Kind::study:
      request.campaign = member_name(rng.below(published));
      break;
    case QueryRequest::Kind::diff: {
      const std::size_t base = rng.below(published - 1);
      request.base = member_name(base);
      request.followup = member_name(base + 1);
      break;
    }
    case QueryRequest::Kind::series:
      request.series = "history";
      break;
    case QueryRequest::Kind::catalog:
      break;
  }
  return request;
}

struct Phase {
  std::vector<double> read_us;                       // every read, failed ones included
  std::array<std::vector<double>, kKinds> kind_us;   // the same, by query kind
  std::array<std::vector<QueryRequest>, kKinds> kind_requests;  // for inline timing
  std::uint64_t reads = 0;
  std::uint64_t failed_reads = 0;
  std::vector<std::uint64_t> window_reads;  // reads completed per kWindow
  std::uint64_t writes = 0;
  std::uint64_t failed_writes = 0;
  double duration_s = 0;
  double cpu_s = 0;  // the service's CPU: the process minus the reader threads
  std::vector<double> append_ms, register_ms, append_only_ms, cold_study_ms, cold_diff_ms;
  double resident_mb = 0;
  /// Median execute() time per kind over kept requests, after the load
  /// (traced phase only): the difference to kind_us is the pool hand-off.
  std::array<double, kKinds> inline_us{};
};

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// Median execute() time per query kind over the phase's kept requests.
std::array<double, kKinds> inline_us(svc::QueryService& service, const Phase& phase) {
  std::array<double, kKinds> out{};
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::vector<double> samples;
    for (const QueryRequest& request : phase.kind_requests[k]) {
      for (int repeat = 0; repeat < 3; ++repeat) {
        const auto start = Clock::now();
        (void)service.execute(request);
        samples.push_back(seconds_since(start) * 1e6);
      }
    }
    out[k] = median_of(samples);
  }
  return out;
}

/// The kind-balanced read latency, us: the geometric mean over the query
/// kinds of each kind's median. Every kind weighs the same, so a slowdown
/// of any one kind moves it by the same share, however fast that kind is.
double kind_balanced_us(const Phase& phase) {
  double log_sum = 0;
  std::size_t kinds = 0;
  for (const std::vector<double>& samples : phase.kind_us) {
    if (samples.empty()) continue;
    log_sum += std::log(median_of(samples));
    ++kinds;
  }
  return kinds > 0 ? std::exp(log_sum / static_cast<double>(kinds)) : 0.0;
}

/// Reads per second: the median over the phase's whole kWindow windows, so
/// a few seconds of host contention do not move it. A phase shorter than
/// one window reports its mean rate.
double qps(const Phase& phase) {
  const auto whole = static_cast<std::size_t>(phase.duration_s / kWindow);
  std::vector<double> rates;
  for (std::size_t w = 0; w < std::min(whole, phase.window_reads.size()); ++w) {
    rates.push_back(static_cast<double>(phase.window_reads[w]) / kWindow);
  }
  if (rates.empty()) return static_cast<double>(phase.reads) / phase.duration_s;
  return median_of(rates);
}

/// One load phase of `seconds` on a fresh catalog over `history`.
Phase run_phase(const Options& options, const History& history, double seconds, Report& report) {
  Phase phase;
  svc::CampaignCatalog catalog(catalog_options());
  warm_catalog(catalog, history);
  svc::QueryServiceOptions service_options;
  service_options.workers = load_threads(2);
  service_options.max_queue = 64;
  svc::QueryService service(catalog, service_options);

  const int readers = load_threads(2);
  std::atomic<std::size_t> published{kInitial};
  std::mutex mutex;  // guards phase (reader merges), samples and thread_errors
  std::vector<std::pair<QueryRequest, std::string>> samples;
  std::vector<std::string> thread_errors;

  double reader_cpu_s = 0;  // the load generator's own CPU, busy-polling included
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));

  auto reader = [&](int index) {
    Rng rng = Rng(options.seed).child("perfbench-reader-" + std::to_string(index));
    std::vector<double> all;
    std::vector<std::uint64_t> windows;
    std::array<std::vector<double>, kKinds> by_kind;
    std::array<std::vector<QueryRequest>, kKinds> requests;
    std::vector<std::pair<QueryRequest, std::string>> kept;
    std::uint64_t failed = 0;
    std::string error;
    const double cpu_at_start = thread_cpu_seconds();
    try {
      while (Clock::now() < deadline) {
        QueryRequest request = make_query(rng, published.load());
        const auto kind = static_cast<std::size_t>(request.kind);
        const auto sent = Clock::now();
        QueryResponse response;
        {
          const trace::Span span("svc", kQuerySpans[kind]);
          std::future<QueryResponse> pending = service.submit(request);
          while (pending.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          }
          response = pending.get();
        }
        const double us = seconds_since(sent) * 1e6;
        const auto window = static_cast<std::size_t>(seconds_since(start) / kWindow);
        if (window >= windows.size()) windows.resize(window + 1);
        ++windows[window];
        all.push_back(us);
        by_kind[kind].push_back(us);
        if (!response.ok || response.rejected) ++failed;
        const bool stable_answer = request.kind == QueryRequest::Kind::posture ||
                                   request.kind == QueryRequest::Kind::study ||
                                   request.kind == QueryRequest::Kind::diff;
        if (stable_answer && all.size() % kSampleEvery == 1) {
          kept.emplace_back(request, std::move(response.body));
        }
        if (requests[kind].size() < 16) requests[kind].push_back(std::move(request));
      }
    } catch (const std::exception& e) {
      error = e.what();  // the loop stops; the run reports it below
    }
    const double cpu = thread_cpu_seconds() - cpu_at_start;
    const std::lock_guard<std::mutex> lock(mutex);
    if (!error.empty()) thread_errors.push_back("reader: " + error);
    reader_cpu_s += cpu;
    phase.reads += all.size();
    phase.failed_reads += failed;
    if (windows.size() > phase.window_reads.size()) phase.window_reads.resize(windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) phase.window_reads[w] += windows[w];
    phase.read_us.insert(phase.read_us.end(), all.begin(), all.end());
    for (std::size_t k = 0; k < kKinds; ++k) {
      phase.kind_us[k].insert(phase.kind_us[k].end(), by_kind[k].begin(), by_kind[k].end());
      for (auto& request : requests[k]) {
        if (phase.kind_requests[k].size() < 16) phase.kind_requests[k].push_back(request);
      }
    }
    for (auto& sample : kept) samples.push_back(std::move(sample));
  };

  auto writer = [&] {
    try {
      for (std::size_t m = kInitial; m < history.paths.size(); ++m) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         append_interval(options) *
                                         static_cast<double>(m - kInitial + 1)));
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        const std::string name = member_name(m);
        const auto t0 = Clock::now();
        {
          const trace::Span span("svc", "register_campaign");
          catalog.register_campaign(name, history.paths[m], history.file_seeds[m]);
        }
        const auto t1 = Clock::now();
        {
          const trace::Span span("svc", "append_to_series");
          catalog.append_to_series("history", name);
        }
        phase.register_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        phase.append_only_ms.push_back(ms_since(t1));
        phase.append_ms.push_back(ms_since(t0));

        QueryRequest study;
        study.kind = QueryRequest::Kind::study;
        study.campaign = name;
        QueryRequest diff;
        diff.kind = QueryRequest::Kind::diff;
        diff.base = member_name(m - 1);
        diff.followup = name;
        auto t2 = Clock::now();
        QueryResponse cold_study, cold_diff;
        {
          const trace::Span span("svc", "cold_study");
          cold_study = service.execute(study);
        }
        phase.cold_study_ms.push_back(ms_since(t2));
        t2 = Clock::now();
        {
          const trace::Span span("svc", "cold_diff");
          cold_diff = service.execute(diff);
        }
        phase.cold_diff_ms.push_back(ms_since(t2));
        phase.writes += 4;
        phase.failed_writes += (cold_study.ok ? 0 : 1) + (cold_diff.ok ? 0 : 1);
        published.store(m + 1);
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex);
      thread_errors.push_back(std::string("writer: ") + e.what());
      ++phase.writes;
      ++phase.failed_writes;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
  for (auto& thread : threads) thread.join();
  phase.duration_s = seconds_since(start);
  phase.cpu_s = process_cpu_seconds() - cpu_start - reader_cpu_s;
  phase.resident_mb = static_cast<double>(catalog.resident_bytes()) / (1024.0 * 1024.0);

  // ---- checks, outside the timed load ---------------------------------------
  for (const std::string& error : thread_errors) report.check(false, error);
  const bool trace_was_on = trace::enabled();
  trace::set_enabled(false);
  std::size_t mismatched = 0;
  for (const auto& [request, body] : samples) {
    if (service.execute(request).body != body) ++mismatched;
  }
  report.check(mismatched == 0, std::to_string(mismatched) + " of " +
                                    std::to_string(samples.size()) +
                                    " sampled pooled responses differ from execute()");
  for (const char* text : {"kind=catalog", "kind=series series=history"}) {
    const QueryRequest request = svc::parse_query_request(text);
    const QueryResponse pooled = service.submit(request).get();
    report.check(pooled.ok && pooled.body == service.execute(request).body,
                 std::string("pooled == inline for '") + text + "'");
  }
  const std::size_t members = published.load();
  report.check(members > kInitial || seconds <= append_interval(options),
               "the writer landed no campaign");
  CampaignSet set;
  for (std::size_t m = 0; m < members; ++m) set.add_file(history.paths[m], history.file_seeds[m]);
  SeriesOptions batch;
  batch.threads = options.threads;
  batch.use_sketches = false;
  report.check(series_analysis_json(*catalog.series("history")) ==
                   series_analysis_json(analyze_series(set, batch)),
               "resident series after " + std::to_string(members) +
                   " members renders like a batch analyze_series");
  if (trace_was_on) phase.inline_us = inline_us(service, phase);
  trace::set_enabled(trace_was_on);
  return phase;
}

/// Count a phase's operations and failures in the result.
void account(const Phase& phase, Report& report) {
  report.attempted(phase.reads + phase.writes);
  report.failed(phase.failed_reads + phase.failed_writes);
}

}  // namespace

void run_svc_mixed(const Options& options, Report& report) {
  std::vector<double> setups;
  History history;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) remove_history(history);
    const std::string dir = options.workdir + "/svc" + std::to_string(s);
    std::filesystem::create_directories(dir);
    const auto start = Clock::now();
    history = build_history(history_config(options, dir));
    svc::CampaignCatalog catalog(catalog_options());
    warm_catalog(catalog, history);
    setups.push_back(seconds_since(start));
  }

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase phase = run_phase(options, history, untraced_s, report);
  account(phase, report);
  const Summary reads = summarize(phase.read_us);
  const Summary append = summarize(phase.append_ms);

  if (!options.trace) {
    report.metric("setup_s", median_of(setups), "s");
    report.metric("op_p50_ms", kind_balanced_us(phase) / 1e3, "ms");
    report.metric("work_per_s", qps(phase), "1/s");
    report.metric("cpu_ms_per_op", phase.cpu_s * 1e3 / static_cast<double>(phase.reads), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  char note[128];
  report.named("svc_qps", qps(phase), "1/s",
               "median over 0.5 s windows; " + std::to_string(load_threads(2)) +
                   " closed-loop readers, " + std::to_string(load_threads(2)) +
                   " workers, 1 writer");
  std::snprintf(note, sizeof note, "n=%zu reads", reads.n);
  report.named("svc_p50_us", reads.median, "us", note);
  std::snprintf(note, sizeof note, "p%g of n=%zu reads", reads.tail_pct, reads.n);
  report.named("svc_p99_us", reads.tail, "us", note);
  report.named("svc_kind_p50_us", kind_balanced_us(phase), "us",
               "geometric mean of the per-kind medians");
  std::snprintf(note, sizeof note, "median of n=%zu appends", append.n);
  report.named("svc_append_ms", append.median, "ms", note);
  report.named("setup_s", median_of(setups), "s",
               "median of " + std::to_string(setups.size()) + " set-ups");
  report.named("peak_rss_mb", peak_rss_mb(), "MB");

  if (options.trace) {
    obs::reset();
    obs::set_enabled(true);
    trace::set_enabled(true);
    const Phase traced = run_phase(options, history, options.seconds / 2, report);
    trace::set_enabled(false);
    obs::set_enabled(false);
    account(traced, report);
    const obs::MetricsSample sample = obs::collect();
    const auto spans = trace::records();

    for (std::size_t k = 0; k < kKinds; ++k) {
      report.metric(std::string("svc.query_us.") + obs::kQueryKindCells[k],
                    median_of(traced.kind_us[k]), "us");
    }
    for (std::size_t k = 0; k < kKinds; ++k) {
      report.metric(std::string("svc.inline_us.") + obs::kQueryKindCells[k], traced.inline_us[k],
                    "us");
    }
    for (std::size_t a = 0; a < std::size(obs::kArtifactCells); ++a) {
      const double hits = static_cast<double>(sample[obs::Metric::svc_cache_hits].cells[a]);
      const double misses = static_cast<double>(sample[obs::Metric::svc_cache_misses].cells[a]);
      report.metric(std::string("svc.cache_hit_ratio.") + obs::kArtifactCells[a],
                    hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    }
    // The untraced half's p99: the read tail without span overhead. It is
    // per-layer, not a bounded end-to-end metric, because it follows host
    // load (see perfbench/METRICS.md).
    report.metric("svc.read_p99_us", reads.tail, "us");
    report.metric("svc.resident_mb", traced.resident_mb, "MB");
    report.metric("svc.register_ms", median_of(traced.register_ms), "ms");
    report.metric("svc.append_only_ms", median_of(traced.append_only_ms), "ms");
    report.metric("svc.cold_study_ms", median_of(traced.cold_study_ms), "ms");
    report.metric("svc.cold_diff_ms", median_of(traced.cold_diff_ms), "ms");
    report.metric("obs.trace_overhead_frac",
                  kind_balanced_us(traced) / kind_balanced_us(phase) - 1.0, "ratio");
    trace::report_self_times(report, spans);
    trace::write_jsonl(spans, options.workdir);
  }
  remove_history(history);
}

}  // namespace perfbench
