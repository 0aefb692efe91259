// Snapshot pipeline throughput: streaming chunked aggregation vs. the
// legacy load-everything path, at follow-up-study scale — plus the v6
// file size and columnar posture pass in absolute terms.
//
// The paper's released dataset (~2k hosts/week) fits in RAM; the PAM 2022
// follow-up scanned an order of magnitude more, and the ROADMAP target is
// millions. This bench deploys a synthetic week of N hosts straight to a
// chunked v6 snapshot file (bounded memory while writing), then runs the
// full shared Aggregator over it three ways:
//   stream/1:  SnapshotReader chunks, single thread
//   stream/T:  same chunks fanned out to the thread pool, merged
//              deterministically in chunk order
//   load-all:  the pre-PR-3 path — whole dataset materialized, then
//              aggregated in memory
// It also measures what the v6 cert dictionary + column layout buys:
//   bytes_per_host_v6:          file bytes per host record
//   posture_v6_records_per_s:   cold posture pass (collect_postures,
//                               1 thread) over the mmapped columns
// It verifies every path produces bit-identical figures, and that the
// posture pass equals, record by record, postures built from the assess/
// reference helpers over the decoded records; reports records/s and a
// peak-RSS proxy (VmHWM before/after the load-all phase — streaming must
// not scale its footprint with N), and emits BENCH_snapshot.json for the
// CI bench-regression guard.
//
//   ./build/snapshot_pipeline [--quick] [--json PATH] [--hosts N[,M...]]
//                             [--threads T] [--keep FILE]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.hpp"
#include "assess/assess.hpp"
#include "crypto/keycache.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/matcher.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "obs/log.hpp"

using namespace opcua_study;

namespace {

constexpr std::uint64_t kSeed = 20220301;  // the follow-up campaign era

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// VmHWM from /proc/self/status in kB (0 where unavailable): the process
/// high-water RSS, a monotone proxy for "how much did this phase add".
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

/// A fixed fleet of certificates shared across the population, so the
/// aggregation pass pays the real per-record costs (DER parse, SHA-1
/// thumbprint, conformance classification) and the reuse clustering has
/// clusters to find. 512-bit keys keep generation trivial.
std::vector<Bytes> make_cert_fleet() {
  KeyFactory keys(kSeed, "");
  std::vector<Bytes> fleet;
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("pipeline-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"pipeline device " + std::to_string(i),
                    i % 5 == 0 ? "Bachmann electronic" : "Pipeline Manufacturing",
                    "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(1000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2016 : 2019, 3, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:pipeline:device:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return fleet;
}

/// Deterministic synthetic host #i — a mix of the study's archetypes
/// (None-only, deprecated-max, strong-policy, anonymous/accessible,
/// discovery) heavy enough per record to resemble real scan output.
HostScanRecord make_host(std::size_t i, const std::vector<Bytes>& certs) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = i % 13 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 48);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.found_via_reference = i % 29 == 0;
  host.product_uri = "http://example.org/pipeline";
  host.application_name = "pipeline host " + std::to_string(i);
  host.software_version = "2." + std::to_string(i % 4) + ".0";

  if (i % 16 == 15) {  // discovery server
    host.application_uri = "urn:opcfoundation:ua:lds:pl-" + std::to_string(i);
    host.application_type = ApplicationType::DiscoveryServer;
    EndpointObservation ep;
    ep.url = "opc.tcp://10.0.0.0:4840/";
    ep.mode = MessageSecurityMode::None;
    ep.policy_uri = std::string(policy_info(SecurityPolicy::None).uri);
    ep.policy_known = true;
    ep.token_types = {UserTokenType::Anonymous};
    host.endpoints.push_back(std::move(ep));
    host.referenced_targets.emplace_back(host.ip + 1, 4841);
    return host;
  }

  switch (i % 5) {
    case 0: host.application_uri = "urn:bachmann:pl-" + std::to_string(i); break;
    case 1: host.application_uri = "urn:beckhoff:pl-" + std::to_string(i); break;
    case 2: host.application_uri = "urn:wago:pl-" + std::to_string(i); break;
    default: host.application_uri = "urn:generic:opcua:pl-" + std::to_string(i); break;
  }

  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://host" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = i % 3 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                                : std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                             UserTokenType::UserName};
    if (with_cert) ep.certificate_der = certs[i % certs.size()];
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
  const bool accessible = i % 3 == 0 && host.channel == ChannelOutcome::established;
  host.session = accessible ? SessionOutcome::accessible : SessionOutcome::auth_rejected;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  if (accessible) {
    if (i % 6 == 0) host.namespaces.push_back("urn:plant:line" + std::to_string(i % 7));
    for (int n = 0; n < 12; ++n) {
      NodeObservation node;
      node.browse_name = "var" + std::to_string(n);
      node.node_class = n < 10 ? NodeClass::Variable : NodeClass::Method;
      node.readable = true;
      node.writable = n % 4 == 0;
      node.executable = node.node_class == NodeClass::Method && i % 2 == 0;
      host.nodes.push_back(std::move(node));
    }
  }
  host.bytes_sent = 40000 + (i % 1000);
  host.duration_seconds = 90.0 + static_cast<double>(i % 60);
  return host;
}

/// A host's posture built from the assess/ reference helpers over the
/// full record — the oracle the columnar posture pass must reproduce.
HostPosture reference_posture(const HostScanRecord& host) {
  HostPosture p;
  p.ip = host.ip;
  p.port = host.port;
  p.protocol = host.protocol;
  p.asn = host.asn;
  p.uri_hash = host.application_uri.empty() ? 0 : hash64(host.application_uri);
  MessageSecurityMode strongest_mode = MessageSecurityMode::Invalid;
  for (const auto mode : host.advertised_modes()) {
    if (security_mode_rank(mode) > security_mode_rank(strongest_mode)) strongest_mode = mode;
  }
  p.mode_bucket = strongest_mode == MessageSecurityMode::SignAndEncrypt ? 2
                  : strongest_mode == MessageSecurityMode::Sign         ? 1
                                                                        : 0;
  const auto& info = policy_info(strongest_policy(host));
  p.policy_bucket = info.secure ? 2 : info.deprecated ? 1 : 0;
  for (const auto policy : host.advertised_policies()) {
    p.supports_deprecated |= policy_info(policy).deprecated;
  }
  p.anonymous = host.anonymous_offered;
  p.deficient = is_deficient(host);
  p.fps = host.distinct_cert_fingerprints();
  std::sort(p.fps.begin(), p.fps.end());
  p.fps.erase(std::unique(p.fps.begin(), p.fps.end()), p.fps.end());
  return p;
}

// Absolute v6 bounds (bench/baselines/snapshot.json gates the same values).
constexpr double kMaxBytesPerHost = 295;
constexpr double kMinPostureRecordsPerSecond = 600000;

struct SizeResult {
  std::size_t hosts = 0;
  std::uint64_t file_bytes = 0;
  double write_seconds = 0;
  double stream1_seconds = 0;
  double streamN_seconds = 0;
  double legacy_seconds = 0;
  double posture_seconds = 0;  // collect_postures, 1 thread, mmapped columns
  std::uint64_t rss_after_stream_kb = 0;
  std::uint64_t rss_after_legacy_kb = 0;
  bool identical = false;
  double records_per_s(double seconds) const {
    return static_cast<double>(hosts) / std::max(seconds, 1e-9);
  }
  double bytes_per_host() const {
    return static_cast<double>(file_bytes) / std::max<double>(1, static_cast<double>(hosts));
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_snapshot.json";
  std::string keep_path;
  std::vector<std::size_t> sizes;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--keep") == 0 && i + 1 < argc) {
      keep_path = argv[++i];
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
  obs::logf(obs::LogLevel::info, "[bench] snapshot pipeline: sizes%s, %d aggregation threads, %u cores",
            size_list.c_str(), threads, hardware);

  const std::vector<Bytes> certs = make_cert_fleet();
  std::vector<SizeResult> results;

  for (const std::size_t hosts : sizes) {
    SizeResult result;
    result.hosts = hosts;
    const std::string path =
        keep_path.empty() ? "/tmp/opcua_pipeline_" + std::to_string(hosts) + ".bin" : keep_path;

    // ---- write: generator -> chunked v6 stream --------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: writing chunked v6 snapshot...", hosts);
    auto start = std::chrono::steady_clock::now();
    {
      SnapshotWriter writer(path, kSeed);
      writer.begin_snapshot(0, days_from_civil({2022, 3, 6}));
      for (std::size_t i = 0; i < hosts; ++i) writer.add_host(make_host(i, certs));
      writer.end_snapshot(hosts * 2, hosts + hosts / 2);
      writer.finish();
    }
    result.write_seconds = seconds_since(start);
    {
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      result.file_bytes = static_cast<std::uint64_t>(in.tellg());
    }

    // ---- stream/1 and stream/T ------------------------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streaming aggregation (1 thread)...", hosts);
    AnalysisOptions options;
    options.threads = 1;
    start = std::chrono::steady_clock::now();
    const StudyAnalysis stream1 = analyze_file(path, kSeed, options);
    result.stream1_seconds = seconds_since(start);

    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: streaming aggregation (%d threads)...", hosts,
                 threads);
    options.threads = threads;
    start = std::chrono::steady_clock::now();
    const StudyAnalysis streamN = analyze_file(path, kSeed, options);
    result.streamN_seconds = seconds_since(start);
    result.rss_after_stream_kb = peak_rss_kb();

    // ---- legacy load-all ------------------------------------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: legacy load-all aggregation...", hosts);
    start = std::chrono::steady_clock::now();
    StudyAnalysis legacy;
    std::vector<HostPosture> oracle;  // assess/ helpers over the decoded records
    {
      const SnapshotReader reader(path, kSeed);
      const std::vector<ScanSnapshot> all = reader.load_all();  // the old world
      legacy = analyze_snapshots(all, AnalysisOptions{});
      result.legacy_seconds = seconds_since(start);
      oracle.reserve(all.back().hosts.size());
      for (const HostScanRecord& host : all.back().hosts) {
        oracle.push_back(reference_posture(host));
      }
    }
    result.rss_after_legacy_kb = peak_rss_kb();

    // ---- cold posture pass over the mmapped columns ---------------------
    obs::logf(obs::LogLevel::info, "[bench] %zu hosts: columnar posture pass...", hosts);
    std::vector<HostPosture> postures;
    {
      ThreadPool pool(1);
      const SnapshotReader reader(path, kSeed);
      start = std::chrono::steady_clock::now();
      postures = collect_postures(reader, pool);
      result.posture_seconds = seconds_since(start);
    }

    result.identical = stream1.figures_equal(streamN) && stream1.figures_equal(legacy) &&
                       postures == oracle;
    if (keep_path.empty()) std::remove(path.c_str());
    results.push_back(result);
  }

  // ---- report -----------------------------------------------------------
  std::puts("Snapshot pipeline throughput (synthetic follow-up-scale measurement)\n");
  TextTable table;
  table.set_header({"hosts", "v6 file", "B/host", "write rec/s", "stream/1 rec/s",
                    "stream/" + std::to_string(threads) + " rec/s", "scaling", "load-all rec/s",
                    "posture rec/s", "identical"});
  for (const auto& r : results) {
    table.add_row({fmt_int(static_cast<long>(r.hosts)),
                   fmt_double(static_cast<double>(r.file_bytes) / (1024.0 * 1024.0), 1) + " MB",
                   fmt_double(r.bytes_per_host(), 1),
                   fmt_int(static_cast<long>(r.records_per_s(r.write_seconds))),
                   fmt_int(static_cast<long>(r.records_per_s(r.stream1_seconds))),
                   fmt_int(static_cast<long>(r.records_per_s(r.streamN_seconds))),
                   fmt_double(r.stream1_seconds / std::max(r.streamN_seconds, 1e-9), 2) + "x",
                   fmt_int(static_cast<long>(r.records_per_s(r.legacy_seconds))),
                   fmt_int(static_cast<long>(r.records_per_s(r.posture_seconds))),
                   r.identical ? "yes" : "NO"});
  }
  std::fputs(table.str().c_str(), stdout);

  const SizeResult& largest = results.back();
  const double scaling = largest.stream1_seconds / std::max(largest.streamN_seconds, 1e-9);
  const double stream_vs_legacy =
      largest.legacy_seconds / std::max(largest.streamN_seconds, 1e-9);
  bool all_identical = true;
  for (const auto& r : results) all_identical &= r.identical;

  std::printf("\npeak-RSS proxy at %zu hosts: %llu MB after streaming, %llu MB after load-all "
              "(file: %llu MB)\n",
              largest.hosts,
              static_cast<unsigned long long>(largest.rss_after_stream_kb / 1024),
              static_cast<unsigned long long>(largest.rss_after_legacy_kb / 1024),
              static_cast<unsigned long long>(largest.file_bytes / (1024 * 1024)));

  const double posture_rate = largest.records_per_s(largest.posture_seconds);
  std::vector<ComparisonRow> rows = {
      {"stream/1 == stream/" + std::to_string(threads) + " == load-all (figure stats), "
       "postures == assess/ oracle",
       "equal", all_identical ? "equal" : "MISMATCH", all_identical},
      {"v6 file size at " + fmt_int(static_cast<long>(largest.hosts)) + " hosts",
       "<= " + fmt_int(static_cast<long>(kMaxBytesPerHost)) + " B/host",
       fmt_double(largest.bytes_per_host(), 1) + " B/host",
       largest.bytes_per_host() <= kMaxBytesPerHost},
      {"v6 columnar posture pass at " + fmt_int(static_cast<long>(largest.hosts)) + " hosts",
       ">= " + fmt_int(static_cast<long>(kMinPostureRecordsPerSecond)) + " rec/s",
       fmt_int(static_cast<long>(posture_rate)) + " rec/s",
       posture_rate >= kMinPostureRecordsPerSecond},
  };
  if (hardware >= 4 && threads >= 4) {
    rows.push_back({"thread-scaling speedup at " + fmt_int(static_cast<long>(largest.hosts)) +
                        " hosts on >= 4 cores",
                    ">= 4x", fmt_double(scaling, 2) + "x", scaling >= 4.0});
  } else {
    std::printf("(only %u core%s / %d threads available: the >= 4x thread-scaling criterion "
                "needs >= 4)\n",
                hardware, hardware == 1 ? "" : "s", threads);
  }
  std::fputs(render_comparison("Snapshot pipeline vs legacy load-all", rows).c_str(), stdout);

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
          .field("file_mb", static_cast<double>(r.file_bytes) / (1024.0 * 1024.0))
          .field("bytes_per_host_v6", r.bytes_per_host())
          .field("write_records_per_s", r.records_per_s(r.write_seconds))
          .field("stream1_records_per_s", r.records_per_s(r.stream1_seconds))
          .field("streamN_records_per_s", r.records_per_s(r.streamN_seconds))
          .field("thread_scaling", r.stream1_seconds / std::max(r.streamN_seconds, 1e-9))
          .field("legacy_records_per_s", r.records_per_s(r.legacy_seconds))
          .field("posture_v6_records_per_s", r.records_per_s(r.posture_seconds))
          .field("rss_after_stream_kb", r.rss_after_stream_kb)
          .field("rss_after_legacy_kb", r.rss_after_legacy_kb)
          .field("outputs_identical", r.identical)
          .end_object();
    }
    json.end_array()
        .field("largest_hosts", static_cast<std::uint64_t>(largest.hosts))
        .field("largest_thread_scaling", scaling)
        .field("largest_stream_vs_legacy", stream_vs_legacy)
        .field("largest_bytes_per_host_v6", largest.bytes_per_host())
        .field("largest_posture_v6_records_per_s", posture_rate)
        .field("all_outputs_identical", all_identical)
        .end_object();
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    obs::logf(obs::LogLevel::info, "[bench] wrote %s", json_path.c_str());
  }

  // Output identity gates the exit code; throughput/scaling targets are
  // host-dependent and enforced by the CI baseline check instead.
  return all_identical ? 0 : 1;
}
