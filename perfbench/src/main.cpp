// perfbench_e2e — one workload of the end-to-end benchmark per call.
//
//   perfbench_e2e --workload scan_weeks|history_batch|svc_mixed --seed N
//                 --seconds S --trace 0|1 --workdir DIR
//                 [--key-corpus FILE] [--smoke]
//   perfbench_e2e --warm-keys --seed N --key-corpus FILE
//
// perfbench/run.py is the entry point: it builds this program, gives each
// call a private work directory and warms the seed's key corpus. The last
// line of standard output is the result document:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when untraced and the per-layer metrics when
// traced. Exit code 0: the run completed and every output check passed;
// 1: it completed but a check failed (the document says "correct": false);
// 2: it could not run, and printed no document.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

Options parse_args(int argc, char** argv, bool& warm_keys) {
  Options options;
  warm_keys = false;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      options.workload = need(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(need(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(need(i));
    } else if (arg == "--trace") {
      options.trace = std::stoi(need(i)) != 0;
    } else if (arg == "--workdir") {
      options.workdir = need(i);
    } else if (arg == "--key-corpus") {
      options.key_corpus = need(i);
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--warm-keys") {
      warm_keys = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  options.threads = static_cast<int>(std::min(4u, hardware));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Library progress logging would interleave with the result lines.
    opcua_study::obs::set_log_level(opcua_study::obs::LogLevel::warn);
    bool warm_keys = false;
    const Options options = parse_args(argc, argv, warm_keys);
    if (warm_keys) {
      if (options.key_corpus.empty()) throw std::invalid_argument("--warm-keys needs --key-corpus");
      warm_key_corpus(options);
      return 0;
    }
    if (options.workdir.empty()) throw std::invalid_argument("--workdir is required");

    Report report;
    if (options.workload == "scan_weeks") {
      if (options.key_corpus.empty()) throw std::invalid_argument("scan_weeks needs --key-corpus");
      run_scan_weeks(options, report);
    } else if (options.workload == "history_batch") {
      run_history_batch(options, report);
    } else if (options.workload == "svc_mixed") {
      run_svc_mixed(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
    report.check(report.attempted_count() > 0, "the workload attempted no operation");

    const double failed_frac =
        static_cast<double>(report.failed_count()) /
        static_cast<double>(std::max<std::uint64_t>(1, report.attempted_count()));
    report.named("failed_frac", failed_frac, "ratio");
    if (options.trace) {
      report.metric("failed_frac", failed_frac, "ratio");
      fill_missing(report, kPerLayerMetrics);
    } else {
      for (const MetricSpec& spec : kEndToEndMetrics) {
        if (!report.has_metric(spec.name)) {
          throw std::logic_error(std::string("workload did not report ") + spec.name);
        }
      }
    }
    report.print_named(options.workload + (options.trace ? " (traced)" : ""));
    std::printf("%s\n", report.result_json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
