// scan_weeks: the paper's weekly measurement, end to end.
//
// A round builds a fresh ShardedStudy (population plan, deployer, scanner
// identity; the seed's RSA keys come from a warm on-disk corpus) and scans
// the last two weeks of the study on it: deploy -> scan -> write a v6 file
// per week through run_sharded_campaign_streamed. Two weeks on one
// deployer let work reused across weeks show. Rounds repeat until the run
// time is used up. After each week, outside the timed region, the file is
// checked: its found-host total equals the paper's Fig. 2 target and every
// kept record is a complete grab.
//
// The traced run scans one untraced round, then one round through a
// span-instrumented copy of the library's streamed runner (same calls,
// same drain-order write window; see scan_week_traced). Its files must be
// byte-identical to the untraced ones and analyse figure-for-figure alike.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "analysis/analysis.hpp"
#include "crypto/aes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "study/sharded.hpp"
#include "trace.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opcua_study;

namespace {

constexpr int kWeeks[] = {6, 7};  // the study's last two measurements
constexpr int kShards = 4;
constexpr int kSetupSamples = 48;
constexpr int kMinRounds = 2;  // at least four week samples per run
const char* const kRsaLabel = "perfbench-rsa-2048";

StudyConfig study_config(const Options& options, const std::string& key_path) {
  StudyConfig config;
  config.seed = options.seed;
  config.dummy_hosts = options.smoke ? 500 : 20000;
  config.key_threads = options.threads;
  config.key_cache_path = key_path;
  config.shards = kShards;
  config.scan_threads = options.threads;
  return config;
}

ScanOptions scan_options(const Options& options) {
  ScanOptions scan;
  scan.shards = kShards;
  scan.threads = options.threads;
  return scan;
}

struct WeekResult {
  int week = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t hosts = 0;
  std::string path;
};

/// The untraced week: the library's streamed sharded runner.
WeekResult scan_week(ShardedStudy& study, int week, const std::string& path, std::uint64_t seed) {
  WeekResult result;
  result.week = week;
  result.path = path;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  {
    SnapshotWriter writer(path, seed);
    const SnapshotMeta meta =
        run_sharded_campaign_streamed(study.deployer(), week, study.config(), writer);
    writer.finish();
    result.hosts = meta.host_count;
  }
  result.cpu_s = process_cpu_seconds() - cpu_start;
  result.wall_s = seconds_since(start);
  return result;
}

/// The traced week: run_sharded_campaign_streamed (src/study/sharded.cpp)
/// step for step, with a span around each library call it makes. Workers
/// park finished shards and no worker starts a shard more than one window
/// ahead of the drain cursor; this thread drains the shards in index order
/// into the writer, so writing overlaps scanning as in the library. The
/// week files must be byte-identical to the library runner's. A change to
/// the library runner shows in the end-to-end metrics at once, but in the
/// traced numbers only once this copy follows it.
WeekResult scan_week_traced(ShardedStudy& study, int week, const std::string& path,
                            std::uint64_t seed) {
  WeekResult result;
  result.week = week;
  result.path = path;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  {
    const trace::Span op("bench", "scan_week");
    std::unique_ptr<SnapshotWriter> writer;
    {
      const trace::Span span("snapshot_io", "SnapshotWriter");
      writer = std::make_unique<SnapshotWriter>(path, seed);
    }
    const ShardedCampaignConfig& config = study.config();
    const int shards = std::max(1, config.shards);
    std::vector<std::unique_ptr<Network>> networks;
    for (int s = 0; s < shards; ++s) {
      const trace::Span span("population", "deploy_week");
      networks.push_back(std::make_unique<Network>());
      study.deployer().deploy_week(*networks.back(), week, ShardSpec{s, shards});
      install_fault_plan(*networks.back(), config);
    }
    {
      const trace::Span span("snapshot_io", "SnapshotWriter");
      writer->begin_snapshot(week, measurement_days(week));
    }

    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    const int thread_count =
        std::min(shards, config.threads > 0 ? config.threads : static_cast<int>(hardware));
    const int window = 2 * thread_count;
    std::mutex mu;
    std::condition_variable ready;
    std::condition_variable drained;
    std::vector<std::optional<ScanSnapshot>> parked(static_cast<std::size_t>(shards));
    int drain_cursor = 0;  // guarded by mu
    std::atomic<int> next_shard{0};
    const trace::Context parent = trace::current();
    auto scan_shard = [&](int s, trace::Context context) {
      const trace::Span span("scanner", "Campaign::run", context);
      const obs::TraceScope scope(week, s);
      Campaign campaign(config.campaign, *networks[static_cast<std::size_t>(s)]);
      ScanSnapshot snapshot = campaign.run(week);
      std::sort(snapshot.hosts.begin(), snapshot.hosts.end(),
                [](const HostScanRecord& a, const HostScanRecord& b) {
                  return std::make_pair(a.ip, a.port) < std::make_pair(b.ip, b.port);
                });
      return snapshot;
    };
    auto worker = [&] {
      for (int s = next_shard.fetch_add(1); s < shards; s = next_shard.fetch_add(1)) {
        {
          std::unique_lock<std::mutex> lock(mu);
          drained.wait(lock, [&] { return s < drain_cursor + window; });
        }
        ScanSnapshot snapshot = scan_shard(s, parent);
        {
          const std::lock_guard<std::mutex> lock(mu);
          parked[static_cast<std::size_t>(s)] = std::move(snapshot);
        }
        ready.notify_all();
      }
    };
    std::vector<std::thread> pool;
    if (thread_count > 1) {
      for (int t = 0; t < thread_count; ++t) pool.emplace_back(worker);
    }

    std::uint64_t probes = 0, tcp_open = 0, lfsr_probes = 0;
    for (int s = 0; s < shards; ++s) {
      ScanSnapshot snapshot;
      if (thread_count > 1) {
        {
          std::unique_lock<std::mutex> lock(mu);
          ready.wait(lock, [&] { return parked[static_cast<std::size_t>(s)].has_value(); });
          snapshot = std::move(*parked[static_cast<std::size_t>(s)]);
          parked[static_cast<std::size_t>(s)].reset();
          drain_cursor = s + 1;
        }
        drained.notify_all();
      } else {
        snapshot = scan_shard(s, trace::current());
      }
      probes += snapshot.probes_sent;
      tcp_open += snapshot.tcp_open_count;
      if (s == 0) lfsr_probes = snapshot.probes_sent;
      const trace::Span span("snapshot_io", "SnapshotWriter");
      for (const HostScanRecord& host : snapshot.hosts) writer->add_host(host);
      result.hosts += snapshot.hosts.size();
    }
    for (auto& thread : pool) thread.join();

    if (!config.campaign.oracle_sweep) probes = lfsr_probes;
    const trace::Span span("snapshot_io", "SnapshotWriter");
    writer->end_snapshot(probes, tcp_open);
    writer->finish();
  }
  result.cpu_s = process_cpu_seconds() - cpu_start;
  result.wall_s = seconds_since(start);
  return result;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Outside the timed region: Fig. 2 host total and grab completeness.
StudyAnalysis verify_week(const WeekResult& week, std::uint64_t seed, Report& report) {
  const SnapshotReader reader(week.path, seed);
  std::uint64_t incomplete = 0, records = 0;
  reader.for_each_host([&](std::size_t, const HostScanRecord& host) {
    ++records;
    if (host.completeness != ProbeOutcome::complete) ++incomplete;
  });
  report.attempted(records);
  report.failed(incomplete);
  report.check(records == week.hosts, "week " + std::to_string(week.week) +
                                          ": file holds every kept record");
  report.check(incomplete == 0, "week " + std::to_string(week.week) + ": " +
                                    std::to_string(incomplete) + " incomplete grabs");
  StudyAnalysis analysis = analyze_reader(reader);
  const WeeklyTargets targets;
  const auto& observed = analysis.longitudinal.weeks;
  const int found = observed.size() == 1 ? observed[0].servers + observed[0].discovery : -1;
  report.check(found == targets.total(week.week),
               "week " + std::to_string(week.week) + ": found " + std::to_string(found) +
                   " hosts, Fig. 2 target " + std::to_string(targets.total(week.week)));
  return analysis;
}

std::string week_path(const Options& options, const std::string& tag, int week) {
  return options.workdir + "/" + tag + "-week" + std::to_string(week) + ".bin";
}

/// The crypto kernels at the study's key sizes: RSA-2048 private-key
/// operations and AES-256-CBC (Basic256Sha256), measured in isolation.
void measure_crypto_kernels(const Options& options, const std::string& key_path, Report& report) {
  const trace::Span span("crypto", "kernels");
  KeyFactory keys(options.seed, key_path);
  const RsaKeyPair pair = keys.get(kRsaLabel, 2048);
  Rng rng = Rng(options.seed).child("perfbench-crypto");
  const int rsa_ops = options.smoke ? 4 : 64;
  std::vector<Bignum> inputs;
  for (int i = 0; i < rsa_ops; ++i) {
    inputs.push_back(Bignum::from_bytes_be(rng.bytes(255)));  // < n: top byte clear
  }
  auto start = Clock::now();
  for (const Bignum& c : inputs) (void)rsa_private_op(pair.priv, c);
  report.metric("crypto.rsa_private_ops_per_s", rsa_ops / seconds_since(start), "1/s");

  const Bytes key = rng.bytes(32), iv = rng.bytes(16), plain = rng.bytes(64 * 1024);
  const int rounds = options.smoke ? 4 : 64;
  start = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    const Bytes cipher = aes_cbc_encrypt(key, iv, plain);
    report.check(aes_cbc_decrypt(key, iv, cipher) == plain, "AES-256-CBC round trip");
  }
  report.metric("crypto.aes_cbc_mb_per_s",
                2.0 * rounds * static_cast<double>(plain.size()) / 1e6 / seconds_since(start),
                "MB/s");
}

}  // namespace

void warm_key_corpus(const Options& options) {
  // The deployer's key factory rewrites the corpus when it flushes, so the
  // scanner identity and kernel keys are added by a second factory after
  // it is gone.
  {
    ShardedStudy study(study_config(options, options.key_corpus), scan_options(options));
    for (const int week : kWeeks) {
      for (int s = 0; s < kShards; ++s) {
        Network net;
        study.deployer().deploy_week(net, week, ShardSpec{s, kShards});
      }
    }
  }
  KeyFactory keys(options.seed, options.key_corpus);
  (void)make_scanner_identity(options.seed, keys);
  (void)keys.get(kRsaLabel, 2048);
}

void run_scan_weeks(const Options& options, Report& report) {
  // Set-up, timed first: a private copy of the seed's warm corpus (nothing
  // this run does can change the shared file, and a missing key would show
  // as keys_generated > 0) and a ShardedStudy built on it (population plan,
  // deployer, scanner identity). One sample takes milliseconds, so setup_s
  // is the median of kSetupSamples. Each study is destroyed before the next
  // is built, so the samples reuse one heap rather than timing fresh page
  // faults. The samples rotate over the CPUs (CpuRotation). The last study
  // serves round 0.
  const std::string key_path = options.workdir + "/keycache";
  const StudyConfig config = study_config(options, key_path);
  const ScanOptions scan = scan_options(options);
  CpuRotation rotation;
  std::vector<double> setups;
  std::unique_ptr<ShardedStudy> study;
  for (int s = 0; s < kSetupSamples; ++s) {
    study.reset();
    rotation.next();
    const auto start = Clock::now();
    std::filesystem::copy_file(options.key_corpus, key_path,
                               std::filesystem::copy_options::overwrite_existing);
    study = std::make_unique<ShardedStudy>(config, scan);
    setups.push_back(seconds_since(start));
  }

  // Untraced rounds: all of the run when untraced, half when traced.
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<WeekResult> weeks;
  std::map<int, StudyAnalysis> untraced_analyses;  // round 0, by week
  const auto measure_start = Clock::now();
  const int min_rounds = options.smoke || options.trace ? 1 : kMinRounds;
  for (int round = 0; round < min_rounds || seconds_since(measure_start) < untraced_budget;
       ++round) {
    if (round > 0) study = std::make_unique<ShardedStudy>(config, scan);
    std::vector<WeekResult> round_weeks;
    for (const int week : kWeeks) {
      const std::string path = week_path(options, "round" + std::to_string(round), week);
      try {
        round_weeks.push_back(scan_week(*study, week, path, options.seed));
      } catch (const std::exception& error) {
        // A week that throws is one failed operation; the run goes on.
        report.attempted();
        report.failed();
        report.check(false, "week " + std::to_string(week) + " threw: " + error.what());
      }
    }
    report.check(study->deployer().keys_generated() == 0,
                 "timed weeks generated " + std::to_string(study->deployer().keys_generated()) +
                     " RSA keys (corpus not warm)");
    for (WeekResult& week : round_weeks) {
      StudyAnalysis analysis = verify_week(week, options.seed, report);
      if (round == 0) {
        untraced_analyses.emplace(week.week, std::move(analysis));
      } else {
        std::filesystem::remove(week.path);
      }
      weeks.push_back(std::move(week));
    }
    if (options.smoke) break;
  }
  study.reset();

  std::vector<double> walls, cpus;
  std::uint64_t hosts = 0;
  double wall_total = 0;
  for (const WeekResult& week : weeks) {
    walls.push_back(week.wall_s);
    cpus.push_back(week.cpu_s);
    hosts += week.hosts;
    wall_total += week.wall_s;
  }
  const Summary wall = summarize(walls);
  const double cpu_median = median_of(cpus);

  if (!options.trace) {
    report.metric("setup_s", median_of(setups), "s");
    report.metric("op_p50_ms", wall.median * 1e3, "ms");
    report.metric("work_per_s", static_cast<double>(hosts) / wall_total, "1/s");
    report.metric("cpu_ms_per_op", cpu_median * 1e3, "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  char note[96];
  std::snprintf(note, sizeof note, "median of n=%zu weeks; p%g %.4f s", wall.n, wall.tail_pct,
                wall.tail);
  report.named("scan_week_s", wall.median, "s", note);
  report.named("scan_hosts_per_s", static_cast<double>(hosts) / wall_total, "1/s");
  report.named("scan_cpu_s", cpu_median, "s", "process CPU per week, median");
  report.named("setup_s", median_of(setups), "s",
               "median of " + std::to_string(setups.size()) + " set-ups");
  report.named("peak_rss_mb", peak_rss_mb(), "MB");
  if (!options.trace) return;

  // ---- traced round ---------------------------------------------------------
  obs::reset();
  obs::set_enabled(true);
  trace::set_enabled(true);
  std::vector<WeekResult> traced;
  {
    std::unique_ptr<ShardedStudy> study;
    {
      const trace::Span span("population", "ShardedStudy");
      study = std::make_unique<ShardedStudy>(config, scan);
    }
    for (const int week : kWeeks) {
      traced.push_back(
          scan_week_traced(*study, week, week_path(options, "traced", week), options.seed));
    }
  }
  trace::set_enabled(false);
  obs::set_enabled(false);
  const obs::MetricsSample sample = obs::collect();
  std::uint64_t traced_hosts = 0;
  std::vector<double> traced_walls;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    traced_hosts += traced[i].hosts;
    traced_walls.push_back(traced[i].wall_s);
    const StudyAnalysis analysis = verify_week(traced[i], options.seed, report);
    const auto untraced = untraced_analyses.find(traced[i].week);
    report.check(untraced != untraced_analyses.end() && analysis.figures_equal(untraced->second),
                 "traced week " + std::to_string(traced[i].week) +
                     " analyses figure-for-figure like the untraced one");
    const std::string traced_bytes = file_bytes(traced[i].path);
    report.check(!traced_bytes.empty() &&
                     traced_bytes == file_bytes(week_path(options, "round0", traced[i].week)),
                 "traced week " + std::to_string(traced[i].week) +
                     " file is byte-identical to the untraced one");
  }
  trace::set_enabled(true);
  measure_crypto_kernels(options, key_path, report);
  trace::set_enabled(false);

  const auto spans = trace::records();
  std::vector<double> deploy, critical, busy, imbalance, write;
  const auto deploys = trace::durations_by_op(spans, "deploy_week");
  const auto runs = trace::durations_by_op(spans, "Campaign::run");
  const auto writes = trace::durations_by_op(spans, "SnapshotWriter");
  for (const auto& [op, shard_runs] : runs) {
    double sum = 0, max = 0;
    for (const double s : shard_runs) {
      sum += s;
      max = std::max(max, s);
    }
    critical.push_back(max);
    busy.push_back(sum);
    imbalance.push_back(max / (sum / static_cast<double>(shard_runs.size())));
    double deploy_sum = 0, write_sum = 0;
    for (const double s : deploys.at(op)) deploy_sum += s;
    for (const double s : writes.at(op)) write_sum += s;
    deploy.push_back(deploy_sum);
    write.push_back(write_sum);
  }
  const double traced_weeks = static_cast<double>(traced.size());
  report.metric("population.deploy_s", median_of(deploy), "s");
  report.metric("scanner.critical_path_s", median_of(critical), "s");
  report.metric("scanner.busy_s", median_of(busy), "s");
  report.metric("scanner.shard_imbalance", median_of(imbalance), "ratio");
  report.metric("snapshot_io.write_s", median_of(write), "s");
  report.metric("scanner.tasks_launched",
                static_cast<double>(sample[obs::Metric::scan_tasks_launched].total()) /
                    traced_weeks,
                "count");
  report.metric("scanner.task_wakeups",
                static_cast<double>(sample[obs::Metric::scan_task_wakeups].total()) /
                    traced_weeks,
                "count");
  const auto& outcomes = sample[obs::Metric::grab_outcome].cells;
  const std::uint64_t complete = outcomes[0] + outcomes[4];  // opcua, mqtt-tls "complete"
  report.metric("scanner.complete_ratio",
                static_cast<double>(complete) / static_cast<double>(traced_hosts), "ratio");
  report.metric("snapshot_io.bytes_written",
                static_cast<double>(sample[obs::Metric::snapshot_bytes_written].total()) /
                    traced_weeks,
                "bytes");
  const std::uint64_t generated = sample[obs::Metric::keys_generated].total();
  report.metric("crypto.keys_generated", static_cast<double>(generated), "count");
  report.metric("crypto.key_cache_hits",
                static_cast<double>(sample[obs::Metric::key_cache_hits].total()), "count");
  report.check(generated == 0, "traced round generated " + std::to_string(generated) +
                                   " RSA keys (corpus not warm)");
  report.metric("obs.trace_overhead_frac", median_of(traced_walls) / wall.median - 1.0, "ratio");
  trace::report_self_times(report, spans);
  trace::write_jsonl(spans, options.workdir);
}

}  // namespace perfbench
