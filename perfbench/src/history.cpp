#include "history.hpp"

#include <cstdio>

#include "crypto/keycache.hpp"
#include "crypto/x509.hpp"
#include "series/sketch.hpp"
#include "study/followup.hpp"
#include "util/date.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace opcua_study;

namespace {

/// A small signed device-image fleet (512-bit keys: only fingerprints and
/// parse cost matter here, never the key strength).
std::vector<Bytes> make_cert_fleet(std::uint64_t seed) {
  KeyFactory keys(seed, "");
  std::vector<Bytes> fleet;
  for (int i = 0; i < 24; ++i) {
    const RsaKeyPair kp = keys.get("perfbench-image-" + std::to_string(i), 512);
    CertificateSpec spec;
    spec.subject = {"device image " + std::to_string(i), "Perfbench Manufacturing", "DE"};
    spec.signature_hash = i % 3 == 0 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(9000 + i)};
    spec.not_before_days = days_from_civil({i % 2 ? 2017 : 2019, 5, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:perfbench:image:" + std::to_string(i);
    fleet.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return fleet;
}

/// Host #i's own certificate: a fleet DER with its trailing signature
/// bytes perturbed by i — parseable, unique, no per-host signing.
Bytes unique_cert(const std::vector<Bytes>& fleet, std::size_t i) {
  Bytes der = fleet[i % fleet.size()];
  for (std::size_t b = 0; b < 4; ++b) {
    der[der.size() - 1 - b] ^= static_cast<std::uint8_t>(i >> (8 * b));
  }
  return der;
}

HostScanRecord make_host(std::size_t i, const std::vector<Bytes>& fleet, Rng& rng) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x0a000000u + static_cast<std::uint32_t>(i));
  host.port = rng.below(13) == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(rng.below(48));
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.product_uri = "http://example.org/perfbench";
  host.application_name = "perfbench host " + std::to_string(i);
  host.application_uri = "urn:generic:opcua:perfbench-" + std::to_string(i);
  host.software_version = "2." + std::to_string(rng.below(4)) + ".0";

  const bool shared_image = rng.below(5) == 0;
  const Bytes cert = shared_image ? fleet[rng.below(fleet.size())] : unique_cert(fleet, i);
  const bool anonymous = rng.below(3) == 0;
  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, bool with_cert) {
    EndpointObservation ep;
    ep.url = "opc.tcp://perfbench" + std::to_string(i) + ":4840/";
    ep.mode = mode;
    ep.policy_uri = std::string(policy_info(policy).uri);
    ep.policy = policy;
    ep.policy_known = true;
    ep.token_types = anonymous ? std::vector<UserTokenType>{UserTokenType::Anonymous}
                               : std::vector<UserTokenType>{UserTokenType::UserName};
    if (with_cert) ep.certificate_der = cert;
    host.endpoints.push_back(std::move(ep));
  };
  switch (rng.below(4)) {
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
  host.anonymous_offered = anonymous;
  host.session = SessionOutcome::not_attempted;
  host.bytes_sent = 40000 + rng.below(1000);
  host.duration_seconds = 90.0;
  return host;
}

}  // namespace

History build_history(const HistoryConfig& config) {
  History history;
  for (std::size_t m = 0; m < config.members; ++m) {
    history.paths.push_back(config.dir + "/member" + std::to_string(m) + ".bin");
    history.file_seeds.push_back(config.seed + m);
  }

  const std::vector<Bytes> fleet = make_cert_fleet(config.seed);
  Rng rng = Rng(config.seed).child("perfbench-history-hosts");
  {
    const std::int64_t epoch = days_from_civil({2020, 9, 11});
    SnapshotWriter writer(history.paths[0], history.file_seeds[0]);
    writer.set_campaign("perfbench-base", epoch);
    writer.begin_snapshot(0, epoch);
    for (std::size_t i = 0; i < config.base_hosts; ++i) writer.add_host(make_host(i, fleet, rng));
    writer.end_snapshot(config.base_hosts * 2, config.base_hosts + config.base_hosts / 2);
    writer.finish();
  }
  history.records = config.base_hosts;

  CampaignSet set;
  set.add_file(history.paths[0], history.file_seeds[0]);
  FollowupConfig followup;
  followup.seed = config.seed ^ 0x5eed5eedULL;
  followup.campaign_label = "perfbench-history";
  followup.mint_key_bits = 512;
  followup.key_cache_path = "";
  for (std::size_t m = 1; m < config.members; ++m) {
    const SnapshotMeta meta =
        extend_series(set, followup, history.paths[m], history.file_seeds[m]);
    history.records += meta.host_count;
  }
  return history;
}

void remove_history(const History& history) {
  for (const std::string& path : history.paths) {
    std::remove(path.c_str());
    std::remove(posture_sketch_path(path).c_str());
  }
}

}  // namespace perfbench
