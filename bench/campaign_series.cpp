// Campaign-series throughput: N-way host-identity chaining and timeline
// analysis at follow-up-study scale.
//
// Builds a synthetic base measurement of N hosts (chunked v6 file), grows
// it into a 4-campaign series with extend_series (each step a fresh
// deterministic draw of the evolution model), then analyzes the series
// three ways:
//   stream/1:  every member streamed chunk-by-chunk, single thread
//   stream/T:  same chunks fanned out to the thread pool (chunk-ordered
//              posture merge — bit-identical by construction)
//   load-all:  every member fully materialized in an in-memory
//              CampaignSet, then analyzed
// It verifies all three produce the identical SeriesAnalysis (down to the
// report JSON bytes), reports records/s over the whole series and a
// peak-RSS proxy (the streamed series must stay bounded by two posture
// vectors plus timeline state while load-all holds every decoded record
// of every member), and emits BENCH_series.json for the CI
// bench-regression guard.
//
//   ./build/campaign_series [--quick] [--json PATH] [--hosts N[,M...]]
//                           [--threads T] [--members K]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keycache.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "series/series.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "obs/log.hpp"

using namespace opcua_study;

namespace {

constexpr std::uint64_t kBaseSeed = 20200830;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::uint64_t>(std::atoll(line.c_str() + 6));
    }
  }
  return 0;
}

/// Base certificates: a small signed fleet, then per-host unique DERs by
/// perturbing trailing signature bytes — parseable (nothing in the series
/// verifies signatures), unique thumbprints, zero per-host signing cost.
std::vector<Bytes> make_cert_fleet() {
  KeyFactory keys(kBaseSeed, "");
  std::vector<Bytes> fleet;
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("series-base-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"series device " + std::to_string(i), "Series Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(3000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:series:device:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return fleet;
}

Bytes unique_cert(const std::vector<Bytes>& fleet, std::size_t i) {
  Bytes der = fleet[i % fleet.size()];
  for (std::size_t b = 0; b < 4; ++b) {
    der[der.size() - 1 - b] ^= static_cast<std::uint8_t>(i >> (8 * b));
  }
  return der;
}

/// Deterministic synthetic base host #i — the study's posture archetypes
/// with an 80/20 unique/reused certificate split (same shape the diff
/// bench uses, so series and diff numbers compare).
HostScanRecord make_host(std::size_t i, const std::vector<Bytes>& fleet) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = i % 13 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 48);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.product_uri = "http://example.org/series";
  host.application_name = "series host " + std::to_string(i);
  host.application_uri = "urn:generic:opcua:series-" + std::to_string(i);
  host.software_version = "2." + std::to_string(i % 4) + ".0";

  const Bytes cert = i % 5 == 4 ? fleet[i % fleet.size()] : unique_cert(fleet, i);
  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://series" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = i % 3 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                : std::vector<UserTokenType>{UserTokenType::UserName};
    if (with_cert) ep.certificate_der = cert;
    host.endpoints.push_back(std::move(ep));
  };
  switch (i % 4) {
    case 0: add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false); break;
    case 1:
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256, true);
      break;
    case 2:
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
    default:
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
  }
  host.channel = ChannelOutcome::established;
  host.anonymous_offered = i % 3 == 0;
  host.session = SessionOutcome::not_attempted;
  host.bytes_sent = 40000 + (i % 1000);
  host.duration_seconds = 90.0;
  return host;
}

struct SizeResult {
  std::size_t hosts = 0;        // base-member hosts
  std::uint64_t total_records = 0;  // across every member
  double generate_seconds = 0;  // base write + K extend_series steps
  double stream1_seconds = 0;
  double streamN_seconds = 0;
  double loadall_seconds = 0;
  std::uint64_t rss_after_stream_kb = 0;
  std::uint64_t rss_after_loadall_kb = 0;
  double full_span_fraction = 0;   // timelines spanning every member
  double mean_confidence = 0;
  bool identical = false;
  double records_per_s(double seconds) const {
    return static_cast<double>(total_records) / std::max(seconds, 1e-9);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_series.json";
  std::vector<std::size_t> sizes;
  int threads = 0;
  std::size_t members = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      members = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p;) {
        sizes.push_back(static_cast<std::size_t>(std::atoll(p)));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  if (sizes.empty()) {
    sizes = quick ? std::vector<std::size_t>{20000} : std::vector<std::size_t>{250000};
  }
  if (members < 2) members = 2;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (threads <= 0) threads = static_cast<int>(hardware);

  std::string size_list;
  for (const auto s : sizes) size_list += " " + std::to_string(s);
  obs::logf(obs::LogLevel::info,
            "[bench] campaign series: %zu members, sizes%s, %d analysis threads, %u cores",
            members, size_list.c_str(), threads, hardware);

  const std::vector<Bytes> fleet = make_cert_fleet();
  std::vector<SizeResult> results;

  for (const std::size_t hosts : sizes) {
    SizeResult result;
    result.hosts = hosts;
    std::vector<std::string> paths;
    for (std::size_t m = 0; m < members; ++m) {
      paths.push_back("/tmp/opcua_series_" + std::to_string(hosts) + "_m" + std::to_string(m) +
                      ".bin");
    }

    // ---- generate: base campaign + K evolution steps ---------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: generating %zu-member series...", hosts, members);
    auto start = std::chrono::steady_clock::now();
    CampaignSet series;
    {
      SnapshotWriter writer(paths[0], kBaseSeed);
      writer.set_campaign("bench-series-2020", days_from_civil({2020, 8, 30}));
      writer.begin_snapshot(0, days_from_civil({2020, 8, 30}));
      for (std::size_t i = 0; i < hosts; ++i) writer.add_host(make_host(i, fleet));
      writer.end_snapshot(hosts * 2, hosts + hosts / 2);
      writer.finish();
    }
    series.add_file(paths[0], kBaseSeed);
    FollowupConfig config;
    config.campaign_label = "bench-series-followup";
    // The bench's subject is chaining/analysis throughput and output
    // identity, not minted-certificate conformance: 512-bit mint keys
    // keep the (timed, cold-cache) fleet generation out of the numbers.
    config.mint_key_bits = 512;
    config.key_cache_path = "";
    for (std::size_t m = 1; m < members; ++m) {
      extend_series(series, config, paths[m], kBaseSeed + m);
    }
    result.generate_seconds = seconds_since(start);
    {
      const std::vector<SnapshotMeta> metas = series.final_metas();
      for (const auto& meta : metas) result.total_records += meta.host_count;
    }

    // ---- stream/1 and stream/T ------------------------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streamed series analysis (1 thread)...", hosts);
    SeriesOptions options;
    options.threads = 1;
    start = std::chrono::steady_clock::now();
    const SeriesAnalysis stream1 = analyze_series(series, options);
    result.stream1_seconds = seconds_since(start);

    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streamed series analysis (%d threads)...", hosts,
                 threads);
    options.threads = threads;
    start = std::chrono::steady_clock::now();
    const SeriesAnalysis streamN = analyze_series(series, options);
    result.streamN_seconds = seconds_since(start);
    result.rss_after_stream_kb = peak_rss_kb();

    // ---- load-all: every member materialized -----------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: load-all series analysis...", hosts);
    start = std::chrono::steady_clock::now();
    SeriesAnalysis loadall;
    {
      const std::vector<SnapshotMeta> metas = series.final_metas();
      CampaignSet memory;
      for (std::size_t m = 0; m < series.size(); ++m) {
        memory.add_snapshots(SnapshotReader(paths[m], series.member(m).seed).load_all(),
                             metas[m].campaign_label, metas[m].campaign_epoch_days);
      }
      SeriesOptions loadall_options;
      loadall_options.threads = threads;
      loadall = analyze_series(memory, loadall_options);
    }
    result.loadall_seconds = seconds_since(start);
    result.rss_after_loadall_kb = peak_rss_kb();

    result.full_span_fraction =
        stream1.timelines.total == 0
            ? 0
            : static_cast<double>(stream1.timelines.full_span) /
                  static_cast<double>(stream1.timelines.total);
    result.mean_confidence = stream1.mean_link_confidence();
    result.identical = stream1 == streamN && stream1 == loadall &&
                       series_analysis_json(stream1) == series_analysis_json(loadall);
    for (const auto& path : paths) std::remove(path.c_str());
    results.push_back(result);
  }

  // ---- report -----------------------------------------------------------
  std::puts("Campaign-series analysis throughput (base + evolved members)\n");
  TextTable table;
  table.set_header({"hosts/member", "total recs", "gen rec/s", "series/1 rec/s",
                    "series/" + std::to_string(threads) + " rec/s", "scaling",
                    "load-all rec/s", "full-span", "identical"});
  for (const auto& r : results) {
    table.add_row({fmt_int(static_cast<long>(r.hosts)),
                   fmt_int(static_cast<long>(r.total_records)),
                   fmt_int(static_cast<long>(r.records_per_s(r.generate_seconds))),
                   fmt_int(static_cast<long>(r.records_per_s(r.stream1_seconds))),
                   fmt_int(static_cast<long>(r.records_per_s(r.streamN_seconds))),
                   fmt_double(r.stream1_seconds / std::max(r.streamN_seconds, 1e-9), 2) + "x",
                   fmt_int(static_cast<long>(r.records_per_s(r.loadall_seconds))),
                   fmt_pct(r.full_span_fraction), r.identical ? "yes" : "NO"});
  }
  std::fputs(table.str().c_str(), stdout);

  const SizeResult& largest = results.back();
  const double scaling = largest.stream1_seconds / std::max(largest.streamN_seconds, 1e-9);
  bool all_identical = true;
  for (const auto& r : results) all_identical &= r.identical;

  std::printf("\npeak-RSS proxy at %zu hosts/member: %llu MB after streamed series, %llu MB "
              "after load-all\n",
              largest.hosts,
              static_cast<unsigned long long>(largest.rss_after_stream_kb / 1024),
              static_cast<unsigned long long>(largest.rss_after_loadall_kb / 1024));

  std::vector<ComparisonRow> rows = {
      {"series/1 == series/" + std::to_string(threads) + " == load-all (incl. JSON bytes)",
       "equal", all_identical ? "equal" : "MISMATCH", all_identical},
      {"full-span timeline fraction at " + fmt_int(static_cast<long>(largest.hosts)) +
           " hosts/member",
       ">= 15%", fmt_pct(largest.full_span_fraction), largest.full_span_fraction >= 0.15},
  };
  if (hardware >= 4 && threads >= 4) {
    rows.push_back({"thread-scaling speedup on >= 4 cores", ">= 1.5x",
                    fmt_double(scaling, 2) + "x", scaling >= 1.5});
  }
  std::fputs(render_comparison("Campaign series: streamed vs load-all", rows).c_str(), stdout);

  // ---- machine-readable trajectory --------------------------------------
  {
    JsonWriter json;
    json.begin_object()
        .field("quick", quick)
        .field("cores", static_cast<int>(hardware))
        .field("threads", threads)
        .field("members", static_cast<std::uint64_t>(members))
        .key("sizes")
        .begin_array();
    for (const auto& r : results) {
      json.begin_object()
          .field("hosts_per_member", static_cast<std::uint64_t>(r.hosts))
          .field("total_records", r.total_records)
          .field("generate_records_per_s", r.records_per_s(r.generate_seconds))
          .field("series1_records_per_s", r.records_per_s(r.stream1_seconds))
          .field("seriesN_records_per_s", r.records_per_s(r.streamN_seconds))
          .field("thread_scaling", r.stream1_seconds / std::max(r.streamN_seconds, 1e-9))
          .field("loadall_records_per_s", r.records_per_s(r.loadall_seconds))
          .field("rss_after_stream_kb", r.rss_after_stream_kb)
          .field("rss_after_loadall_kb", r.rss_after_loadall_kb)
          .field("full_span_fraction", r.full_span_fraction)
          .field("mean_link_confidence", r.mean_confidence)
          .field("outputs_identical", r.identical)
          .end_object();
    }
    json.end_array()
        .field("largest_hosts_per_member", static_cast<std::uint64_t>(largest.hosts))
        .field("largest_thread_scaling", scaling)
        .field("largest_full_span_fraction", largest.full_span_fraction)
        .field("all_outputs_identical", all_identical)
        .end_object();
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    obs::logf(obs::LogLevel::info, "[bench] wrote %s", json_path.c_str());
  }

  // Output identity gates the exit code; throughput targets are
  // host-dependent and enforced by the CI baseline check instead.
  return all_identical && largest.full_span_fraction >= 0.15 ? 0 : 1;
}
