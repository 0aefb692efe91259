// Cross-campaign differential analysis:
//  - campaign label/epoch round-trips through the v5 footer (files
//    without it default, v4 unaffected),
//  - the follow-up evolution model is deterministic and its streamed and
//    in-memory paths produce the identical campaign,
//  - the matcher re-identifies hosts by address and by certificate, and
//    every CampaignDiff count matches hand-crafted expectations,
//  - the diff is identical for any thread count and for streamed vs.
//    load-all inputs, and a corrupt second campaign fails with a
//    descriptive SnapshotError,
//  - the sharded streamed study writer produces the sharded campaign's
//    host set with thread-count-invariant bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "diff/diff.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/followup.hpp"
#include "study/sharded.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
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

FollowupConfig small_followup_config() {
  FollowupConfig config;
  // Keep the test-time mint cheap and hermetic: the diff tests exercise
  // fingerprints and determinism, not minted-certificate conformance.
  config.mint_keys = 4;
  config.mint_fleet = 32;
  config.mint_key_bits = 512;
  config.key_cache_path = "";
  return config;
}

/// Per-host unique certificates (serial = host index) from a small key
/// pool: the certificate matcher needs fingerprints that identify hosts.
const std::vector<Bytes>& unique_certs() {
  static const std::vector<Bytes> certs = [] {
    KeyFactory keys(991, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 80; ++i) {
      const RsaKeyPair kp = keys.get("diff-test-" + std::to_string(i % 6), 512);
      CertificateSpec spec;
      spec.subject = {"diff device " + std::to_string(i), "Diff Test Org", "DE"};
      spec.signature_hash = i % 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(5000 + i)};
      spec.not_before_days = days_from_civil({2019, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:difftest:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return certs;
}

HostScanRecord make_host(std::size_t i) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x16000000u + static_cast<std::uint32_t>(i));
  host.port = kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:generic:difftest-" + std::to_string(i);
  host.software_version = "1.0";

  EndpointObservation ep;
  ep.url = "opc.tcp://d" + std::to_string(i) + ":4840/";
  const SecurityPolicy policy = i % 4 == 0   ? SecurityPolicy::None
                                : i % 4 == 1 ? SecurityPolicy::Basic256
                                             : SecurityPolicy::Basic256Sha256;
  ep.mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                           : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy = policy;
  ep.policy_known = true;
  ep.token_types = i % 2 ? std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                      UserTokenType::UserName}
                         : std::vector<UserTokenType>{UserTokenType::UserName};
  if (i % 5 != 0) ep.certificate_der = unique_certs()[i % unique_certs().size()];
  host.endpoints.push_back(std::move(ep));

  host.channel = ChannelOutcome::established;
  host.anonymous_offered = i % 2 == 1;
  host.session = host.anonymous_offered ? SessionOutcome::accessible
                                        : SessionOutcome::not_attempted;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  host.bytes_sent = 1000 + i;
  host.duration_seconds = 50.0;
  return host;
}

std::vector<ScanSnapshot> make_base_study(std::size_t hosts_per_week, int weeks = 2) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 5000;
    snapshot.tcp_open_count = 500;
    for (std::size_t i = 0; i < hosts_per_week; ++i) snapshot.hosts.push_back(make_host(i));
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

// ------------------------------------------------ campaign label/epoch ----

TEST(CampaignMeta, RoundTripsThroughFooter) {
  const std::string path = temp_path("opcua_diff_meta.bin");
  const std::vector<ScanSnapshot> study = make_base_study(4, 2);
  {
    SnapshotWriter writer(path, 42);
    writer.set_campaign("imc2020-study", days_from_civil({2020, 2, 9}));
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  ASSERT_EQ(reader.snapshots().size(), 2u);
  for (const auto& meta : reader.snapshots()) {
    EXPECT_EQ(meta.campaign_label, "imc2020-study");
    EXPECT_EQ(meta.campaign_epoch_days, days_from_civil({2020, 2, 9}));
  }
  // The records themselves are untouched by the campaign block.
  EXPECT_EQ(reader.load_all(), study);
  std::remove(path.c_str());
}

TEST(CampaignMeta, FilesWithoutLabelDefaultAndStayByteIdentical) {
  const std::string labeled = temp_path("opcua_diff_meta_labeled.bin");
  const std::string plain = temp_path("opcua_diff_meta_plain.bin");
  const std::vector<ScanSnapshot> study = make_base_study(3, 1);
  save_snapshots(plain, 42, study);  // never calls set_campaign
  {
    SnapshotWriter writer(labeled, 42);
    writer.set_campaign("x", 1);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  // Unlabeled writers omit the campaign block entirely: the file is
  // byte-identical to the pre-label format, and readers default the meta.
  const SnapshotReader reader(plain, 42);
  EXPECT_EQ(reader.snapshots()[0].campaign_label, "");
  EXPECT_EQ(reader.snapshots()[0].campaign_epoch_days, 0);
  EXPECT_NE(read_file_bytes(plain), read_file_bytes(labeled));
  EXPECT_EQ(read_file_bytes(plain).size() +
                (4 + 4 + 1 + 8),  // CAMP magic + string "x" (len+1 byte) + i64
            read_file_bytes(labeled).size());

  std::remove(labeled.c_str());
  std::remove(plain.c_str());
}

// ------------------------------------------------------ evolution model ----

TEST(FollowupModel, EvolutionIsAPureFunctionOfHostIdentity) {
  const FollowupModel model(small_followup_config());
  const FollowupModel twin(small_followup_config());
  int retired = 0, churned = 0, renewed = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const HostScanRecord host = make_host(i);
    const auto a = model.evolve(host);
    const auto b = model.evolve(host);   // same model, repeated call
    const auto c = twin.evolve(host);    // independent model, same config
    ASSERT_EQ(a.has_value(), b.has_value());
    ASSERT_EQ(a.has_value(), c.has_value());
    if (!a) {
      ++retired;
      continue;
    }
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
    EXPECT_EQ(a->port, host.port);
    if (a->ip != host.ip) {
      ++churned;
      EXPECT_EQ(a->ip, FollowupModel::churned_ip(host.ip));
      EXPECT_GE(a->ip, 0x80000000u);  // churn range disjoint from base
    }
    if (!host.endpoints[0].certificate_der.empty() &&
        a->endpoints[0].certificate_der != host.endpoints[0].certificate_der) {
      ++renewed;
    }
  }
  // The model exercises its interesting transitions on this population.
  EXPECT_GT(retired, 0);
  EXPECT_GT(churned, 0);
  EXPECT_GT(renewed, 0);
}

TEST(FollowupModel, ChurnedAddressesNeverCollide) {
  std::set<Ipv4> seen;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    const Ipv4 ip = 0x16000000u + i * 7;
    EXPECT_TRUE(seen.insert(FollowupModel::churned_ip(ip)).second);
  }
}

TEST(FollowupStudy, StreamedMatchesInMemory) {
  const std::string base_path = temp_path("opcua_diff_base_stream.bin");
  const std::string followup_path = temp_path("opcua_diff_followup_stream.bin");
  const std::vector<ScanSnapshot> base = make_base_study(50);
  save_snapshots(base_path, 42, base);

  FollowupConfig config = small_followup_config();
  config.campaign_label = "followup-test";
  const std::vector<ScanSnapshot> in_memory = run_followup_study(base, config);
  ASSERT_EQ(in_memory.size(), 1u);
  {
    const SnapshotReader reader(base_path, 42);
    SnapshotWriter writer(followup_path, config.seed);
    run_followup_study_streamed(reader, config, writer);
  }
  const SnapshotReader followup(followup_path, config.seed);
  EXPECT_EQ(followup.load_all(), in_memory);
  ASSERT_EQ(followup.snapshots().size(), 1u);
  EXPECT_EQ(followup.snapshots()[0].campaign_label, "followup-test");
  EXPECT_EQ(followup.snapshots()[0].campaign_epoch_days,
            followup_epoch_days(config, base.back().date_days));
  // The evolved population mixes survivors and new deployments.
  EXPECT_GT(followup.total_records(), 0u);
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

// --------------------------------------------------------- the matcher ----

TEST(CampaignDiffTest, MatchesHandCraftedExpectations) {
  // Hosts without certificates keep the posture logic free of the
  // key-length conformance dimension; the cert cases get their own hosts.
  auto bare_host = [](Ipv4 ip, MessageSecurityMode mode, SecurityPolicy policy, bool anonymous) {
    HostScanRecord host;
    host.ip = ip;
    host.port = kOpcUaDefaultPort;
    host.speaks_opcua = true;
    EndpointObservation ep;
    ep.url = "opc.tcp://x:4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = anonymous ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                               : std::vector<UserTokenType>{UserTokenType::UserName};
    host.endpoints.push_back(std::move(ep));
    host.anonymous_offered = anonymous;
    return host;
  };
  auto with_cert = [&](HostScanRecord host, std::size_t cert_index) {
    host.endpoints[0].certificate_der = unique_certs()[cert_index];
    return host;
  };

  ScanSnapshot base;
  base.measurement_index = 0;
  base.date_days = 100;
  // 1: stays at its address, upgrades None-only -> SignAndEncrypt/secure,
  //    drops anonymous (deficient -> clean: remediated).
  base.hosts.push_back(bare_host(10, MessageSecurityMode::None, SecurityPolicy::None, true));
  // 2: churns IP but keeps its certificate verbatim -> re-identified.
  base.hosts.push_back(
      with_cert(bare_host(11, MessageSecurityMode::Sign, SecurityPolicy::Basic256, false), 0));
  // 3: retires.
  base.hosts.push_back(bare_host(12, MessageSecurityMode::None, SecurityPolicy::None, true));
  // 4: stays, renews its certificate (disjoint fingerprints).
  base.hosts.push_back(with_cert(
      bare_host(13, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false),
      1));
  // 6: stays None-only/anonymous but gains a first certificate.
  base.hosts.push_back(bare_host(14, MessageSecurityMode::None, SecurityPolicy::None, true));

  ScanSnapshot followup;
  followup.measurement_index = 0;
  followup.date_days = 830;
  followup.hosts.push_back(
      bare_host(10, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false));
  followup.hosts.push_back(
      with_cert(bare_host(77, MessageSecurityMode::Sign, SecurityPolicy::Basic256, false), 0));
  followup.hosts.push_back(with_cert(
      bare_host(13, MessageSecurityMode::SignAndEncrypt, SecurityPolicy::Basic256Sha256, false),
      2));
  // 5: brand new arrival.
  followup.hosts.push_back(bare_host(99, MessageSecurityMode::None, SecurityPolicy::None, true));
  followup.hosts.push_back(
      with_cert(bare_host(14, MessageSecurityMode::None, SecurityPolicy::None, true), 4));

  const CampaignDiff diff = diff_snapshots({base}, {followup}, {});
  EXPECT_EQ(diff.base_hosts, 5u);
  EXPECT_EQ(diff.followup_hosts, 5u);
  EXPECT_EQ(diff.matched_by_address, 3u);      // hosts 1, 4 and 6
  EXPECT_EQ(diff.matched_by_certificate, 1u);  // host 2 across the churn
  EXPECT_EQ(diff.retired, 1u);                 // host 3
  EXPECT_EQ(diff.arrived, 1u);                 // host 5

  EXPECT_EQ(diff.mode_transitions.at(0, 0), 1u);  // host 6 stays None
  EXPECT_EQ(diff.mode_transitions.at(0, 2), 1u);  // None -> SignAndEncrypt
  EXPECT_EQ(diff.mode_transitions.at(1, 1), 1u);  // Sign stays
  EXPECT_EQ(diff.mode_transitions.at(2, 2), 1u);
  EXPECT_EQ(diff.mode_transitions.upgraded(), 1u);
  EXPECT_EQ(diff.mode_transitions.downgraded(), 0u);
  EXPECT_EQ(diff.policy_transitions.at(0, 0), 1u);
  EXPECT_EQ(diff.policy_transitions.at(0, 2), 1u);  // None -> secure
  EXPECT_EQ(diff.policy_transitions.at(1, 1), 1u);  // deprecated retained
  EXPECT_EQ(diff.policy_transitions.at(2, 2), 1u);

  EXPECT_EQ(diff.deprecated_retained, 1u);
  EXPECT_EQ(diff.deprecated_dropped, 0u);
  EXPECT_EQ(diff.anonymous_retained, 1u);  // host 6
  EXPECT_EQ(diff.anonymous_dropped, 1u);
  EXPECT_EQ(diff.anonymous_adopted, 0u);

  EXPECT_EQ(diff.certs_verbatim, 1u);  // host 2
  EXPECT_EQ(diff.certs_renewed, 1u);   // host 4
  EXPECT_EQ(diff.certs_gained, 1u);    // host 6
  EXPECT_EQ(diff.certs_lost, 0u);
  EXPECT_EQ(diff.certs_absent, 1u);    // host 1
  EXPECT_EQ(diff.certs_rotated, 0u);

  EXPECT_EQ(diff.remediated, 1u);       // host 1
  // host 2 (deprecated maximum), host 4 (512-bit key too weak for its
  // announced Basic256Sha256) and host 6 (anonymous) stay deficient.
  EXPECT_EQ(diff.still_deficient, 3u);
  EXPECT_EQ(diff.regressed, 0u);
  EXPECT_EQ(diff.never_deficient, 0u);
}

TEST(CampaignDiffTest, ReusedCertificatesReIdentifyNobody) {
  // Two base hosts share one certificate; both churn. The fingerprint is
  // ambiguous on the base side, so neither may be cert-matched.
  auto host_with = [&](Ipv4 ip, std::size_t cert_index) {
    HostScanRecord host;
    host.ip = ip;
    host.port = kOpcUaDefaultPort;
    host.speaks_opcua = true;
    EndpointObservation ep;
    ep.url = "opc.tcp://x:4840/";
    ep.mode = MessageSecurityMode::SignAndEncrypt;
    ep.policy = SecurityPolicy::Basic256Sha256;
    ep.policy_uri = std::string(policy_info(ep.policy).uri);
    ep.policy_known = true;
    ep.token_types = {UserTokenType::UserName};
    ep.certificate_der = unique_certs()[cert_index];
    host.endpoints.push_back(std::move(ep));
    return host;
  };
  ScanSnapshot base, followup;
  base.hosts = {host_with(1, 3), host_with(2, 3)};
  followup.hosts = {host_with(50, 3), host_with(51, 3)};
  const CampaignDiff diff = diff_snapshots({base}, {followup}, {});
  EXPECT_EQ(diff.matched_by_certificate, 0u);
  EXPECT_EQ(diff.retired, 2u);
  EXPECT_EQ(diff.arrived, 2u);
}

// -------------------------------------------- posture oracle (assess/) ----

/// The posture of one full record, built from the assess/ reference
/// helpers — the oracle the columnar posture pass must reproduce.
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

TEST(PostureOracle, ColumnarPosturesMatchAssessHelpers) {
  // A base campaign and its evolved follow-up: upgrades, downgrades,
  // renewed and lost certificates, churned addresses and new deployments.
  const std::vector<ScanSnapshot> base = make_base_study(60);
  const std::vector<ScanSnapshot> followup = run_followup_study(base, small_followup_config());
  const std::string path = temp_path("opcua_posture_oracle.bin");
  for (const auto* study : {&base, &followup}) {
    for (const std::uint32_t chunk : {7u, SnapshotWriter::kDefaultChunkRecords}) {
      {
        SnapshotWriter writer(path, 42, chunk);
        for (const auto& snapshot : *study) writer.add_snapshot(snapshot);
        writer.finish();
      }
      const SnapshotReader reader(path, 42);
      const std::vector<ScanSnapshot> records = reader.load_all();
      std::vector<HostPosture> expected;
      for (const HostScanRecord& host : records.back().hosts) {
        expected.push_back(reference_posture(host));
      }
      ASSERT_FALSE(expected.empty());
      for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        const std::vector<HostPosture> postures = collect_postures(reader, pool);
        ASSERT_EQ(postures.size(), expected.size());
        for (std::size_t i = 0; i < postures.size(); ++i) {
          EXPECT_EQ(postures[i], expected[i])
              << "record " << i << ", chunk " << chunk << ", threads " << threads;
        }
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ determinism and scale ----

TEST(CampaignDiffTest, DeterministicAcrossThreadsAndStreamedVsLoadAll) {
  const std::string base_path = temp_path("opcua_diff_det_base.bin");
  const std::string followup_path = temp_path("opcua_diff_det_followup.bin");
  const std::vector<ScanSnapshot> base = make_base_study(80);
  const FollowupConfig config = small_followup_config();
  const std::vector<ScanSnapshot> followup = run_followup_study(base, config);
  {
    // Small chunks -> many parallel posture work units with ragged tails.
    SnapshotWriter writer(base_path, 42, 17);
    writer.set_campaign("det-base", 100);
    for (const auto& snapshot : base) writer.add_snapshot(snapshot);
    writer.finish();
  }
  {
    SnapshotWriter writer(followup_path, config.seed, 23);
    writer.set_campaign("det-followup", 930);
    for (const auto& snapshot : followup) writer.add_snapshot(snapshot);
    writer.finish();
  }
  DiffOptions serial;
  serial.threads = 1;
  DiffOptions parallel;
  parallel.threads = 8;
  const CampaignDiff streamed1 = diff_files(base_path, 42, followup_path, config.seed, serial);
  const CampaignDiff streamed8 = diff_files(base_path, 42, followup_path, config.seed, parallel);
  EXPECT_EQ(streamed1, streamed8);

  // Load-all inputs (in-memory vectors, no campaign labels) must produce
  // the identical counts.
  const CampaignDiff load_all = diff_snapshots(base, followup, parallel);
  EXPECT_TRUE(streamed1.counts_equal(load_all));
  EXPECT_GT(streamed1.matched(), 0u);
  EXPECT_GT(streamed1.matched_by_certificate, 0u);
  EXPECT_GT(streamed1.retired, 0u);
  EXPECT_GT(streamed1.arrived, 0u);
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

TEST(CampaignDiffTest, CorruptSecondCampaignFailsWithSnapshotError) {
  const std::string base_path = temp_path("opcua_diff_corrupt_base.bin");
  const std::string followup_path = temp_path("opcua_diff_corrupt_followup.bin");
  const std::vector<ScanSnapshot> base = make_base_study(30);
  const std::vector<ScanSnapshot> followup = run_followup_study(base, small_followup_config());
  save_snapshots(base_path, 42, base);
  save_snapshots(followup_path, 42, followup);
  const Bytes full = read_file_bytes(followup_path);
  ASSERT_GT(full.size(), 200u);

  // Truncation anywhere in the second campaign must surface as a
  // descriptive SnapshotError from the diff entry point.
  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{40}}) {
    write_file_bytes(followup_path, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    try {
      diff_files(base_path, 42, followup_path, 42, {});
      FAIL() << "diff of a truncated follow-up campaign (cut at " << cut << ") did not throw";
    } catch (const SnapshotError& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }

  // A flipped byte inside a record payload fails on decode, not before:
  // corrupt the first chunk's payload and expect the posture pass to
  // surface the SnapshotError (or the flip to land harmlessly).
  Bytes mutated = full;
  mutated[80] ^= 0x40;
  write_file_bytes(followup_path, mutated);
  try {
    const CampaignDiff diff = diff_files(base_path, 42, followup_path, 42, {});
    EXPECT_EQ(diff.followup_hosts, followup.back().hosts.size());
  } catch (const SnapshotError& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
  std::remove(base_path.c_str());
  std::remove(followup_path.c_str());
}

TEST(CampaignDiffTest, PairingValidation) {
  const std::vector<ScanSnapshot> base = make_base_study(10, 1);
  const std::vector<ScanSnapshot> followup = run_followup_study(base, small_followup_config());
  auto write_labeled = [&](const std::string& path, const std::vector<ScanSnapshot>& study,
                           const std::string& label, std::int64_t epoch) {
    SnapshotWriter writer(path, 42);
    writer.set_campaign(label, epoch);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  };
  const std::string a = temp_path("opcua_diff_pair_a.bin");
  const std::string b = temp_path("opcua_diff_pair_b.bin");

  // Follow-up epoch before the base epoch: the pairing is backwards.
  write_labeled(a, base, "study-2020", 2000);
  write_labeled(b, followup, "study-2022", 1000);
  EXPECT_THROW(diff_files(a, 42, b, 42, {}), SnapshotError);
  DiffOptions unchecked;
  unchecked.validate_pairing = false;
  EXPECT_NO_THROW(diff_files(a, 42, b, 42, unchecked));

  // The same campaign on both sides is not a pair either.
  EXPECT_THROW(diff_files(a, 42, a, 42, {}), SnapshotError);

  // Correctly ordered pair passes.
  write_labeled(b, followup, "study-2022", 2730);
  EXPECT_NO_THROW(diff_files(a, 42, b, 42, {}));

  // Unlabeled inputs predate the campaign block: nothing to validate.
  save_snapshots(a, 42, base);
  save_snapshots(b, 42, followup);
  EXPECT_NO_THROW(diff_files(a, 42, b, 42, {}));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ------------------------------------------- sharded streamed scan side ----

PopulationPlan diff_engine_plan() {
  PopulationPlan plan;
  for (int i = 0; i < 10; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "diff-engine";
    host.manufacturer = "other";
    host.application_uri = "urn:generic:opcua:diff-engine-" + std::to_string(i);
    host.application_name = "diff engine host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 3);
    host.certificate.present = true;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    if (i % 3 == 0) {
      host.modes = {MessageSecurityMode::None};
      host.policies = {SecurityPolicy::None};
      host.tokens = {UserTokenType::Anonymous};
      host.outcome = PlannedOutcome::accessible;
      host.classification = PlannedClass::test;
      host.variable_count = 3;
    } else {
      host.modes = {MessageSecurityMode::None, MessageSecurityMode::Sign};
      host.policies = {SecurityPolicy::None, SecurityPolicy::Basic256Sha256};
      host.tokens = {UserTokenType::UserName};
      host.outcome = PlannedOutcome::auth_rejected;
    }
    plan.hosts.push_back(std::move(host));
  }
  return plan;
}

TEST(ShardedStreamedStudy, MatchesShardedCampaignWithThreadInvariantBytes) {
  const PopulationPlan plan = diff_engine_plan();
  DeployConfig deploy_config;
  deploy_config.seed = 42;
  deploy_config.dummy_hosts = 20;
  deploy_config.fast_keys = true;
  deploy_config.key_cache_path = "";
  KeyFactory keys(42, "");

  ShardedCampaignConfig config;
  config.campaign.seed = 5;
  config.campaign.grabber.client = make_scanner_identity(42, keys);
  config.shards = 3;

  auto run_streamed = [&](const std::string& path, int threads) {
    Deployer deployer(plan, deploy_config);
    ShardedCampaignConfig streamed_config = config;
    streamed_config.threads = threads;
    SnapshotWriter writer(path, 42);
    const SnapshotMeta meta =
        run_sharded_campaign_streamed(deployer, 7, streamed_config, writer);
    writer.finish();
    return meta;
  };
  const std::string serial_path = temp_path("opcua_diff_sharded_serial.bin");
  const std::string threaded_path = temp_path("opcua_diff_sharded_threaded.bin");
  const SnapshotMeta meta1 = run_streamed(serial_path, 1);
  const SnapshotMeta meta4 = run_streamed(threaded_path, 4);

  // Same bytes for any worker-thread count: shard batches land in shard
  // order regardless of completion order.
  EXPECT_EQ(meta1, meta4);
  EXPECT_EQ(read_file_bytes(serial_path), read_file_bytes(threaded_path));

  // Same host set (and records) as the buffered sharded merge; only the
  // canonical order differs (shard-major vs. global sort).
  Deployer deployer(plan, deploy_config);
  ShardedCampaignConfig merged_config = config;
  merged_config.threads = 2;
  const ScanSnapshot merged = run_sharded_campaign(deployer, 7, merged_config);
  std::vector<ScanSnapshot> streamed = SnapshotReader(serial_path, 42).load_all();
  ASSERT_EQ(streamed.size(), 1u);
  std::sort(streamed[0].hosts.begin(), streamed[0].hosts.end(),
            [](const HostScanRecord& a, const HostScanRecord& b) {
              return std::make_pair(a.ip, a.port) < std::make_pair(b.ip, b.port);
            });
  EXPECT_EQ(streamed[0].hosts, merged.hosts);
  EXPECT_EQ(meta1.probes_sent, merged.probes_sent);
  EXPECT_EQ(meta1.tcp_open_count, merged.tcp_open_count);
  EXPECT_EQ(meta1.host_count, merged.hosts.size());
  std::remove(serial_path.c_str());
  std::remove(threaded_path.c_str());
}

}  // namespace
}  // namespace opcua_study
