// Cross-campaign diff throughput: host re-identification and posture
// transition matrices at follow-up-study scale.
//
// Builds a synthetic base measurement of N hosts (chunked v6 file),
// evolves it into a follow-up campaign with the deterministic
// FollowupModel, then runs the campaign diff three ways:
//   stream/1:  both campaigns streamed chunk-by-chunk, single thread
//   stream/T:  same chunks fanned out to the thread pool (chunk-ordered
//              posture merge — bit-identical by construction)
//   load-all:  both campaigns fully materialized, then diffed in memory
// It verifies all three produce the identical CampaignDiff, reports
// hosts/s and a peak-RSS proxy (the streamed diff must stay bounded by
// posture summaries while load-all holds every decoded record), and
// emits BENCH_diff.json for the CI bench-regression guard.
//
//   ./build/campaign_diff [--quick] [--json PATH] [--hosts N[,M...]]
//                         [--threads T]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "diff/diff.hpp"
#include "crypto/keycache.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "obs/log.hpp"

using namespace opcua_study;

namespace {

constexpr std::uint64_t kBaseSeed = 20200830;
constexpr std::uint64_t kFollowupSeed = 20220306;

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
/// perturbing trailing signature bytes — parseable (nothing in the diff
/// verifies signatures), unique thumbprints, zero per-host signing cost.
/// Without uniqueness the certificate matcher would have nothing to
/// re-identify: a fingerprint shared by a whole fleet names nobody.
std::vector<Bytes> make_cert_fleet() {
  KeyFactory keys(kBaseSeed, "");
  std::vector<Bytes> fleet;
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("diff-base-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"diff device " + std::to_string(i),
                    i % 5 == 0 ? "Bachmann electronic" : "Diff Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(2000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:diff:device:" + std::to_string(i);
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
/// (None-only, deprecated-max, strong-policy, anonymous) with an 80/20
/// unique/reused certificate split.
HostScanRecord make_host(std::size_t i, const std::vector<Bytes>& fleet) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = i % 13 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 48);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.product_uri = "http://example.org/diff";
  host.application_name = "diff host " + std::to_string(i);
  host.software_version = "2." + std::to_string(i % 4) + ".0";
  switch (i % 5) {
    case 0: host.application_uri = "urn:bachmann:diff-" + std::to_string(i); break;
    case 1: host.application_uri = "urn:beckhoff:diff-" + std::to_string(i); break;
    default: host.application_uri = "urn:generic:opcua:diff-" + std::to_string(i); break;
  }

  const Bytes cert = i % 5 == 4 ? fleet[i % fleet.size()]  // §5.3 reuse cluster member
                                : unique_cert(fleet, i);
  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://diff" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = i % 3 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                : std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                             UserTokenType::UserName};
    if (with_cert) ep.certificate_der = cert;
    host.endpoints.push_back(std::move(ep));
  };
  switch (i % 4) {
    case 0:  // no security at all
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, false);
      break;
    case 1:  // deprecated maximum
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256, true);
      break;
    case 2:  // strong policy available
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
    default:  // mixed
      add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, true);
      add_endpoint(MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, true);
      break;
  }

  host.channel = i % 11 == 10 ? ChannelOutcome::cert_rejected : ChannelOutcome::established;
  host.channel_policy = host.endpoints.back().policy;
  host.channel_mode = host.endpoints.back().mode;
  host.anonymous_offered = true;
  host.session = (i % 3 == 0 && host.channel == ChannelOutcome::established)
                     ? SessionOutcome::accessible
                     : SessionOutcome::auth_rejected;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  host.bytes_sent = 40000 + (i % 1000);
  host.duration_seconds = 90.0 + static_cast<double>(i % 60);
  return host;
}

struct SizeResult {
  std::size_t hosts = 0;
  double write_seconds = 0;
  double evolve_seconds = 0;
  double stream1_seconds = 0;
  double streamN_seconds = 0;
  double loadall_seconds = 0;
  std::uint64_t rss_after_stream_kb = 0;
  std::uint64_t rss_after_loadall_kb = 0;
  std::uint64_t followup_hosts = 0;
  double matched_fraction = 0;
  bool identical = false;
  double hosts_per_s(double seconds) const {
    return static_cast<double>(hosts) / std::max(seconds, 1e-9);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_diff.json";
  std::vector<std::size_t> sizes;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p;) {
        sizes.push_back(static_cast<std::size_t>(std::atoll(p)));
        while (*p && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    }
  }
  if (sizes.empty()) {
    sizes = quick ? std::vector<std::size_t>{20000}
                  : std::vector<std::size_t>{100000, 1000000};
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (threads <= 0) threads = static_cast<int>(hardware);

  std::string size_list;
  for (const auto s : sizes) size_list += " " + std::to_string(s);
  obs::logf(obs::LogLevel::info, "[bench] campaign diff: sizes%s, %d diff threads, %u cores",
            size_list.c_str(), threads, hardware);

  const std::vector<Bytes> fleet = make_cert_fleet();
  std::vector<SizeResult> results;

  for (const std::size_t hosts : sizes) {
    SizeResult result;
    result.hosts = hosts;
    const std::string base_path = "/tmp/opcua_diff_base_" + std::to_string(hosts) + ".bin";
    const std::string followup_path = "/tmp/opcua_diff_followup_" + std::to_string(hosts) + ".bin";

    // ---- base campaign: generator -> chunked v6 stream ------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: writing base campaign...", hosts);
    auto start = std::chrono::steady_clock::now();
    {
      SnapshotWriter writer(base_path, kBaseSeed);
      writer.set_campaign("bench-base-2020", days_from_civil({2020, 8, 30}));
      writer.begin_snapshot(0, days_from_civil({2020, 8, 30}));
      for (std::size_t i = 0; i < hosts; ++i) writer.add_host(make_host(i, fleet));
      writer.end_snapshot(hosts * 2, hosts + hosts / 2);
      writer.finish();
    }
    result.write_seconds = seconds_since(start);

    // ---- follow-up campaign: evolution model, streamed ------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: evolving follow-up campaign...", hosts);
    FollowupConfig config;
    config.seed = kFollowupSeed;
    config.campaign_label = "bench-followup-2022";
    // The bench's subject is matcher/diff throughput and output identity,
    // not minted-certificate conformance: 512-bit mint keys keep the
    // (timed, cold-cache) fleet generation out of the evolve numbers.
    config.mint_key_bits = 512;
    config.key_cache_path = "";
    start = std::chrono::steady_clock::now();
    {
      const SnapshotReader base(base_path, kBaseSeed);
      SnapshotWriter writer(followup_path, kFollowupSeed);
      run_followup_study_streamed(base, config, writer);
    }
    result.evolve_seconds = seconds_since(start);

    // ---- stream/1 and stream/T ------------------------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streaming diff (1 thread)...", hosts);
    DiffOptions options;
    options.threads = 1;
    start = std::chrono::steady_clock::now();
    const CampaignDiff stream1 =
        diff_files(base_path, kBaseSeed, followup_path, kFollowupSeed, options);
    result.stream1_seconds = seconds_since(start);

    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streaming diff (%d threads)...", hosts, threads);
    options.threads = threads;
    start = std::chrono::steady_clock::now();
    const CampaignDiff streamN =
        diff_files(base_path, kBaseSeed, followup_path, kFollowupSeed, options);
    result.streamN_seconds = seconds_since(start);
    result.rss_after_stream_kb = peak_rss_kb();

    // ---- load-all: both campaigns materialized --------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: load-all diff...", hosts);
    start = std::chrono::steady_clock::now();
    CampaignDiff loadall;
    {
      const std::vector<ScanSnapshot> base = SnapshotReader(base_path, kBaseSeed).load_all();
      const std::vector<ScanSnapshot> followup =
          SnapshotReader(followup_path, kFollowupSeed).load_all();
      loadall = diff_snapshots(base, followup, DiffOptions{});
    }
    result.loadall_seconds = seconds_since(start);
    result.rss_after_loadall_kb = peak_rss_kb();

    result.followup_hosts = stream1.followup_hosts;
    result.matched_fraction = stream1.base_hosts == 0
                                  ? 0
                                  : static_cast<double>(stream1.matched()) /
                                        static_cast<double>(stream1.base_hosts);
    // load-all inputs lose the campaign labels (ScanSnapshot carries
    // none), so the comparison is over every count.
    result.identical = stream1 == streamN && stream1.counts_equal(loadall);
    std::remove(base_path.c_str());
    std::remove(followup_path.c_str());
    results.push_back(result);
  }

  // ---- report -----------------------------------------------------------
  std::puts("Cross-campaign diff throughput (synthetic base + evolved follow-up)\n");
  TextTable table;
  table.set_header({"hosts", "evolve rec/s", "diff/1 rec/s",
                    "diff/" + std::to_string(threads) + " rec/s", "scaling", "load-all rec/s",
                    "matched", "identical"});
  for (const auto& r : results) {
    table.add_row({fmt_int(static_cast<long>(r.hosts)),
                   fmt_int(static_cast<long>(r.hosts_per_s(r.evolve_seconds))),
                   fmt_int(static_cast<long>(r.hosts_per_s(r.stream1_seconds))),
                   fmt_int(static_cast<long>(r.hosts_per_s(r.streamN_seconds))),
                   fmt_double(r.stream1_seconds / std::max(r.streamN_seconds, 1e-9), 2) + "x",
                   fmt_int(static_cast<long>(r.hosts_per_s(r.loadall_seconds))),
                   fmt_pct(r.matched_fraction), r.identical ? "yes" : "NO"});
  }
  std::fputs(table.str().c_str(), stdout);

  const SizeResult& largest = results.back();
  const double scaling = largest.stream1_seconds / std::max(largest.streamN_seconds, 1e-9);
  bool all_identical = true;
  for (const auto& r : results) all_identical &= r.identical;

  std::printf("\npeak-RSS proxy at %zu hosts: %llu MB after streaming diff, %llu MB after "
              "load-all diff\n",
              largest.hosts,
              static_cast<unsigned long long>(largest.rss_after_stream_kb / 1024),
              static_cast<unsigned long long>(largest.rss_after_loadall_kb / 1024));

  std::vector<ComparisonRow> rows = {
      {"diff/1 == diff/" + std::to_string(threads) + " == load-all (every count)", "equal",
       all_identical ? "equal" : "MISMATCH", all_identical},
      {"matched fraction at " + fmt_int(static_cast<long>(largest.hosts)) + " hosts",
       ">= 60%", fmt_pct(largest.matched_fraction), largest.matched_fraction >= 0.6},
  };
  if (hardware >= 4 && threads >= 4) {
    rows.push_back({"thread-scaling speedup on >= 4 cores", ">= 1.6x",
                    fmt_double(scaling, 2) + "x", scaling >= 1.6});
  }
  std::fputs(render_comparison("Campaign diff: streamed vs load-all", rows).c_str(), stdout);

  // ---- machine-readable trajectory --------------------------------------
  {
    JsonWriter json;
    json.begin_object()
        .field("quick", quick)
        .field("cores", static_cast<int>(hardware))
        .field("threads", threads)
        .key("sizes")
        .begin_array();
    for (const auto& r : results) {
      json.begin_object()
          .field("hosts", static_cast<std::uint64_t>(r.hosts))
          .field("followup_hosts", r.followup_hosts)
          .field("evolve_records_per_s", r.hosts_per_s(r.evolve_seconds))
          .field("diff1_records_per_s", r.hosts_per_s(r.stream1_seconds))
          .field("diffN_records_per_s", r.hosts_per_s(r.streamN_seconds))
          .field("thread_scaling", r.stream1_seconds / std::max(r.streamN_seconds, 1e-9))
          .field("loadall_records_per_s", r.hosts_per_s(r.loadall_seconds))
          .field("rss_after_stream_kb", r.rss_after_stream_kb)
          .field("rss_after_loadall_kb", r.rss_after_loadall_kb)
          .field("matched_fraction", r.matched_fraction)
          .field("outputs_identical", r.identical)
          .end_object();
    }
    json.end_array()
        .field("largest_hosts", static_cast<std::uint64_t>(largest.hosts))
        .field("largest_thread_scaling", scaling)
        .field("largest_matched_fraction", largest.matched_fraction)
        .field("all_outputs_identical", all_identical)
        .end_object();
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    obs::logf(obs::LogLevel::info, "[bench] wrote %s", json_path.c_str());
  }

  // Output identity gates the exit code; throughput targets are
  // host-dependent and enforced by the CI baseline check instead.
  return all_identical && largest.matched_fraction >= 0.6 ? 0 : 1;
}
