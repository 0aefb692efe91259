// The study-service layer:
//  - posture sketch sidecars: round trip, absent-sidecar fallback, and
//    the staleness contract (a sidecar whose fingerprint mismatches its
//    snapshot fails with an error naming BOTH paths — never served,
//    never silently skipped; truncation and bit flips fail the checksum),
//  - sketch-fed series analysis is byte-identical to the full walk,
//  - the incremental-append contract: appending a sketched campaign to a
//    resident series reads zero snapshot chunks (pinned through the
//    snapshot_chunks_read counter),
//  - query responses are byte-identical across inline execution, a
//    1-worker pool, and an 8-worker pool — including error documents,
//  - admission control: submits beyond max_queue are rejected
//    immediately; workers == 0 + drain() runs the queue deterministically,
//  - parse_query_request round trips and rejects malformed input.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "series/sketch.hpp"
#include "study/followup.hpp"
#include "svc/service.hpp"
#include "util/date.hpp"
#include "util/thread_pool.hpp"
#include "temp_dir.hpp"

namespace opcua_study {
namespace {

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Per-index unique certificates from a small key pool (same scheme as
/// the series tests): the matcher needs identifying fingerprints.
const std::vector<Bytes>& unique_certs() {
  static const std::vector<Bytes> certs = [] {
    KeyFactory keys(911, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 24; ++i) {
      const RsaKeyPair kp = keys.get("svc-test-" + std::to_string(i % 4), 512);
      CertificateSpec spec;
      spec.subject = {"svc device " + std::to_string(i), "Svc Test Org", "DE"};
      spec.signature_hash = HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(9000 + i)};
      spec.not_before_days = days_from_civil({2019, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:svctest:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return certs;
}

HostScanRecord make_host(std::size_t i) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x20000000u + static_cast<std::uint32_t>(i));
  host.port = kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.speaks_opcua = true;
  host.application_uri = "urn:generic:svctest-" + std::to_string(i);
  EndpointObservation ep;
  ep.url = "opc.tcp://x:4840/";
  const SecurityPolicy policy = i % 3 == 0   ? SecurityPolicy::None
                                : i % 3 == 1 ? SecurityPolicy::Basic256
                                             : SecurityPolicy::Basic256Sha256;
  ep.mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                           : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy = policy;
  ep.policy_known = true;
  ep.token_types = i % 4 == 0 ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                              : std::vector<UserTokenType>{UserTokenType::UserName};
  if (i % 5 != 0) ep.certificate_der = unique_certs()[i % unique_certs().size()];
  host.endpoints.push_back(std::move(ep));
  host.anonymous_offered = i % 4 == 0;
  return host;
}

/// Write a one-measurement campaign of `hosts` hosts to `path`.
void write_campaign(const std::string& path, std::uint64_t seed, const std::string& label,
                    std::int64_t epoch_days, std::size_t hosts) {
  SnapshotWriter writer(path, seed);
  writer.set_campaign(label, epoch_days);
  writer.begin_snapshot(0, epoch_days);
  for (std::size_t i = 0; i < hosts; ++i) writer.add_host(make_host(i));
  writer.end_snapshot(hosts * 2, hosts);
  writer.finish();
}

std::vector<HostPosture> walk_postures(const std::string& path, std::uint64_t seed) {
  const SnapshotReader reader(path, seed);
  ThreadPool pool(1);
  return collect_postures(reader, pool);
}

FollowupConfig small_followup_config() {
  FollowupConfig config;
  config.mint_keys = 4;
  config.mint_fleet = 32;
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  return config;
}

struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const auto& path : paths) {
      std::remove(path.c_str());
      std::remove(posture_sketch_path(path).c_str());
    }
  }
  const std::string& add(const std::string& path) {
    paths.push_back(path);
    return paths.back();
  }
};

// ------------------------------------------------------ sketch sidecars ----

TEST(PostureSketch, RoundTripPreservesEveryPosture) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_rt.bin"));
  write_campaign(path, 42, "sketch-rt", 100, 60);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  ASSERT_EQ(walked.size(), 60u);

  const std::string sidecar = posture_sketch_path(path);
  EXPECT_EQ(sidecar, path + ".sketch");
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  const auto loaded =
      read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, walked);
}

TEST(PostureSketch, AbsentSidecarReturnsNullopt) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_absent.bin"));
  write_campaign(path, 42, "sketch-absent", 100, 5);
  EXPECT_FALSE(read_posture_sketch(posture_sketch_path(path), path, 1234, 5).has_value());
}

TEST(PostureSketch, StaleFingerprintFailsNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_stale.bin"));
  write_campaign(path, 42, "sketch-stale", 100, 20);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  const std::string sidecar = posture_sketch_path(path);
  // A sketch cut from "another" snapshot: stamp a different fingerprint.
  write_posture_sketch(sidecar, reader.file_fingerprint() ^ 1, walked);
  try {
    read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size());
    FAIL() << "stale sketch did not throw";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos) << what;
    EXPECT_NE(what.find(sidecar), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(PostureSketch, HostCountMismatchFailsNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_count.bin"));
  write_campaign(path, 42, "sketch-count", 100, 20);
  const SnapshotReader reader(path, 42);
  std::vector<HostPosture> walked = walk_postures(path, 42);
  walked.pop_back();  // one posture short of the snapshot's host count
  const std::string sidecar = posture_sketch_path(path);
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  try {
    read_posture_sketch(sidecar, path, reader.file_fingerprint(), 20);
    FAIL() << "count-mismatched sketch did not throw";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(sidecar), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(PostureSketch, TruncationAndBitFlipsFailTheChecksum) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_corrupt.bin"));
  write_campaign(path, 42, "sketch-corrupt", 100, 30);
  const SnapshotReader reader(path, 42);
  const std::vector<HostPosture> walked = walk_postures(path, 42);
  const std::string sidecar = posture_sketch_path(path);
  write_posture_sketch(sidecar, reader.file_fingerprint(), walked);
  const Bytes full = read_file_bytes(sidecar);
  ASSERT_GT(full.size(), 48u);

  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{10}}) {
    write_file_bytes(sidecar, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    EXPECT_THROW(read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()),
                 SnapshotError)
        << "cut at " << cut;
  }
  Bytes flipped = full;
  flipped[flipped.size() / 2] ^= 0x40;
  write_file_bytes(sidecar, flipped);
  EXPECT_THROW(read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()),
               SnapshotError);
  // The pristine bytes still load.
  write_file_bytes(sidecar, full);
  EXPECT_TRUE(
      read_posture_sketch(sidecar, path, reader.file_fingerprint(), walked.size()).has_value());
}

TEST(PostureSketch, EnsureWritesOnceThenLoads) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_sketch_ensure.bin"));
  write_campaign(path, 42, "sketch-ensure", 100, 25);
  ThreadPool pool(1);
  const std::vector<HostPosture> first = ensure_posture_sketch(path, 42, pool);
  const Bytes sidecar_bytes = read_file_bytes(posture_sketch_path(path));
  ASSERT_FALSE(sidecar_bytes.empty());
  const std::vector<HostPosture> second = ensure_posture_sketch(path, 42, pool);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, walk_postures(path, 42));
  // Second call loaded the sidecar instead of rewriting it.
  EXPECT_EQ(read_file_bytes(posture_sketch_path(path)), sidecar_bytes);
}

// -------------------------------------------- sketch-fed series analysis ----

TEST(SeriesSketches, SketchFedAnalysisIsByteIdenticalToTheWalk) {
  TempFiles tmp;
  const std::string base = tmp.add(temp_path("opcua_svc_series_base.bin"));
  write_campaign(base, 42, "svc-series-base", 100, 80);
  CampaignSet set;
  set.add_file(base, 42);
  // File-backed extend_series cuts a sketch sidecar per member.
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_series_f1.bin")), 43);
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_series_f2.bin")), 44);
  EXPECT_TRUE(read_posture_sketch(posture_sketch_path(tmp.paths[1]), tmp.paths[1],
                                  SnapshotReader(tmp.paths[1], 43).file_fingerprint(),
                                  set.final_metas()[1].host_count)
                  .has_value());

  SeriesOptions with_sketches;
  with_sketches.threads = 1;
  SeriesOptions without_sketches;
  without_sketches.threads = 1;
  without_sketches.use_sketches = false;
  const SeriesAnalysis fed = analyze_series(set, with_sketches);
  const SeriesAnalysis walked = analyze_series(set, without_sketches);
  EXPECT_EQ(fed, walked);
  EXPECT_EQ(series_analysis_json(fed), series_analysis_json(walked));
}

// ------------------------------------------------- incremental appends ----

TEST(CampaignCatalog, IncrementalAppendReadsZeroSnapshotChunks) {
  TempFiles tmp;
  const std::string base = tmp.add(temp_path("opcua_svc_cat_base.bin"));
  write_campaign(base, 42, "svc-cat-base", 100, 80);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_cat_f1.bin")), 43);
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_cat_f2.bin")), 44);
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_cat_f3.bin")), 45);

  obs::reset();
  obs::set_enabled(true);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_campaign("m1", tmp.paths[1], 43);
  catalog.register_campaign("m2", tmp.paths[2], 44);
  catalog.register_campaign("m3", tmp.paths[3], 45);
  catalog.register_series("history", {"m0", "m1", "m2"});
  const std::shared_ptr<const SeriesAnalysis> before = catalog.series("history");
  EXPECT_EQ(before->members.size(), 3u);

  // The appended member was generated by extend_series, so its posture
  // sketch sidecar exists: the append is one sketch load plus one match —
  // no snapshot chunk is decoded or mapped, for any series length.
  const std::uint64_t chunks_before =
      obs::collect()[obs::Metric::snapshot_chunks_read].total();
  EXPECT_EQ(catalog.append_to_series("history", "m3"), 4u);
  const std::uint64_t chunks_after =
      obs::collect()[obs::Metric::snapshot_chunks_read].total();
  EXPECT_EQ(chunks_after - chunks_before, 0u);

  // The refreshed analysis matches the batch path over the same members.
  const std::shared_ptr<const SeriesAnalysis> after = catalog.series("history");
  EXPECT_EQ(after->members.size(), 4u);
  SeriesOptions batch_options;
  batch_options.threads = 1;
  const SeriesAnalysis batch = analyze_series(set, batch_options);
  EXPECT_EQ(*after, batch);
  EXPECT_EQ(series_analysis_json(*after), series_analysis_json(batch));
  obs::set_enabled(false);
  obs::reset();
}

// ------------------------------------------------ concurrent query API ----

TEST(QueryService, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  TempFiles tmp;
  const std::string base = tmp.add(temp_path("opcua_svc_det_base.bin"));
  write_campaign(base, 42, "svc-det-base", 100, 60);
  CampaignSet set;
  set.add_file(base, 42);
  extend_series(set, small_followup_config(), tmp.add(temp_path("opcua_svc_det_f1.bin")), 43);

  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", tmp.paths[0], 42);
  catalog.register_campaign("m1", tmp.paths[1], 43);
  catalog.register_series("history", {"m0", "m1"});

  const std::vector<std::string> battery = {
      "kind=catalog",
      "kind=posture campaign=m0",
      "kind=posture campaign=m0 deficient=1 as_limit=2",
      "kind=posture campaign=m1 asn=64502",
      "kind=study campaign=m0",
      "kind=diff base=m0 followup=m1",
      "kind=series series=history",
      "kind=posture campaign=nope",  // error document, same contract
  };
  std::vector<svc::QueryRequest> requests;
  for (const auto& text : battery) requests.push_back(svc::parse_query_request(text));

  // Inline baseline.
  std::vector<std::string> inline_bodies;
  {
    svc::QueryService service(catalog);
    for (const auto& request : requests) {
      inline_bodies.push_back(service.execute(request).body);
    }
    EXPECT_FALSE(service.execute(requests.back()).ok);
  }
  // Pooled at 1 and 8 workers; each request submitted twice to force
  // same-artifact races.
  for (const int workers : {1, 8}) {
    svc::QueryServiceOptions options;
    options.workers = workers;
    options.max_queue = 64;
    svc::QueryService service(catalog, options);
    std::vector<std::future<svc::QueryResponse>> futures;
    for (int round = 0; round < 2; ++round) {
      for (const auto& request : requests) futures.push_back(service.submit(request));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const svc::QueryResponse response = futures[i].get();
      EXPECT_FALSE(response.rejected);
      EXPECT_EQ(response.body, inline_bodies[i % requests.size()])
          << "workers=" << workers << " request " << i % requests.size();
    }
  }
}

TEST(QueryService, AdmissionControlRejectsBeyondMaxQueue) {
  TempFiles tmp;
  const std::string base = tmp.add(temp_path("opcua_svc_adm_base.bin"));
  write_campaign(base, 42, "svc-adm-base", 100, 10);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", base, 42);

  svc::QueryServiceOptions options;
  options.workers = 0;  // nothing drains until drain() — deterministic
  options.max_queue = 2;
  svc::QueryService service(catalog, options);
  svc::QueryRequest request = svc::parse_query_request("kind=catalog");

  auto accepted1 = service.submit(request);
  auto accepted2 = service.submit(request);
  auto rejected = service.submit(request);
  // The rejection resolves immediately, before anything ran.
  const svc::QueryResponse shed = rejected.get();
  EXPECT_TRUE(shed.rejected);
  EXPECT_FALSE(shed.ok);
  EXPECT_NE(shed.body.find("queue is full"), std::string::npos) << shed.body;

  EXPECT_EQ(service.drain(), 2u);
  EXPECT_TRUE(accepted1.get().ok);
  EXPECT_TRUE(accepted2.get().ok);
  EXPECT_EQ(service.drain(), 0u);

  // Queued-but-unrun requests complete rejected at destruction.
  auto orphaned = service.submit(request);
  {
    svc::QueryService ignored(catalog, options);
  }
  SUCCEED();  // destructor with empty queue is clean
  // `service` still alive: drain the orphan so its promise resolves ok.
  EXPECT_EQ(service.drain(), 1u);
  EXPECT_TRUE(orphaned.get().ok);
}

TEST(QueryService, DestructorCompletesQueuedRequestsAsRejected) {
  TempFiles tmp;
  const std::string base = tmp.add(temp_path("opcua_svc_dtor_base.bin"));
  write_campaign(base, 42, "svc-dtor-base", 100, 10);
  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", base, 42);

  std::future<svc::QueryResponse> orphan;
  {
    svc::QueryServiceOptions options;
    options.workers = 0;
    svc::QueryService service(catalog, options);
    orphan = service.submit(svc::parse_query_request("kind=catalog"));
  }
  const svc::QueryResponse response = orphan.get();
  EXPECT_TRUE(response.rejected);
  EXPECT_NE(response.body.find("shut down"), std::string::npos) << response.body;
}

TEST(QueryService, StaleSketchSurfacesAsDeterministicErrorNamingBothPaths) {
  TempFiles tmp;
  const std::string path = tmp.add(temp_path("opcua_svc_stale_q.bin"));
  write_campaign(path, 42, "svc-stale-q", 100, 20);
  const SnapshotReader reader(path, 42);
  write_posture_sketch(posture_sketch_path(path), reader.file_fingerprint() ^ 1,
                       walk_postures(path, 42));

  svc::CampaignCatalog catalog;
  catalog.register_campaign("m0", path, 42);
  svc::QueryService service(catalog);
  const svc::QueryRequest request = svc::parse_query_request("kind=posture campaign=m0");
  const svc::QueryResponse first = service.execute(request);
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.body.find("stale"), std::string::npos) << first.body;
  EXPECT_NE(first.body.find(path), std::string::npos) << first.body;
  EXPECT_NE(first.body.find(posture_sketch_path(path)), std::string::npos) << first.body;
  // The cached failure re-raises deterministically: identical bytes.
  EXPECT_EQ(service.execute(request).body, first.body);
}

// ----------------------------------------------------- request parsing ----

TEST(QueryParsing, RoundTripsEveryKey) {
  const svc::QueryRequest request = svc::parse_query_request(
      "kind=posture campaign=c1 asn=64503 protocol=opcua mode=2 policy=1 anonymous=1 "
      "deficient=1 as_limit=8");
  EXPECT_EQ(request.kind, svc::QueryRequest::Kind::posture);
  EXPECT_EQ(request.campaign, "c1");
  ASSERT_TRUE(request.asn.has_value());
  EXPECT_EQ(*request.asn, 64503u);
  ASSERT_TRUE(request.protocol.has_value());
  EXPECT_EQ(*request.protocol, "opcua");
  ASSERT_TRUE(request.mode_bucket.has_value());
  EXPECT_EQ(*request.mode_bucket, 2);
  ASSERT_TRUE(request.policy_bucket.has_value());
  EXPECT_EQ(*request.policy_bucket, 1);
  EXPECT_TRUE(request.anonymous_only);
  EXPECT_TRUE(request.deficient_only);
  EXPECT_EQ(request.as_limit, 8u);

  const svc::QueryRequest diff = svc::parse_query_request("kind=diff base=a followup=b");
  EXPECT_EQ(diff.kind, svc::QueryRequest::Kind::diff);
  EXPECT_EQ(diff.base, "a");
  EXPECT_EQ(diff.followup, "b");
  EXPECT_EQ(svc::parse_query_request("kind=series series=s").series, "s");
  EXPECT_EQ(svc::parse_query_request("").kind, svc::QueryRequest::Kind::catalog);
}

TEST(QueryParsing, RejectsMalformedInput) {
  EXPECT_THROW(svc::parse_query_request("kind=bogus"), std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("wat=1"), std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("kind=posture asn=notanumber"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_query_request("kind"), std::invalid_argument);
}

}  // namespace
}  // namespace opcua_study
