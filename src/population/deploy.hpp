// Deployer: instantiate a PopulationPlan as real OPC UA servers on the
// simulated Internet for a given measurement week.
//
// Everything the scanner later measures is realized here physically:
// real X.509 certificates (shared private keys for reuse groups, weekly
// regeneration for ephemerals, renewal events), endpoint lists per
// (mode × policy), identity-token offerings, trust behaviour, address
// spaces with per-node anonymous access rights, discovery servers with
// foreign endpoint references, and the non-OPC-UA port-4840 background
// population.
#pragma once

#include <map>
#include <memory>

#include "crypto/keycache.hpp"
#include "netsim/network.hpp"
#include "opcua/server.hpp"
#include "population/plan.hpp"

namespace opcua_study {

struct MqttBrokerConfig;

struct DeployConfig {
  std::uint64_t seed = 1;
  /// Non-OPC-UA services with an open port 4840 (the paper: only 0.5 ‰ of
  /// such hosts speak OPC UA; scaled down for simulation size).
  int dummy_hosts = 20000;
  /// Tests: clamp RSA keys to 512 bits (plans keep their nominal size,
  /// certificate *classification* then differs — only use in protocol
  /// tests, never in calibration benches).
  bool fast_keys = false;
  /// Worker threads for the keygen and certificate-signing prefetch
  /// passes of deploy_week() (0 = hardware concurrency, 1 = serial). Every
  /// key label owns its own Rng stream and every certificate its own
  /// output slot, so the deployed snapshot is field-identical for any value.
  int key_threads = 0;
  std::string key_cache_path = KeyFactory::default_cache_path();
};

/// One partition of the simulated universe. The sharded study runner gives
/// every shard its own Network (and worker thread); hosts are assigned by
/// discovery-reference closure so a discovery server and every host it
/// references always land in the same shard — reference-following never
/// crosses a partition boundary.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

class Deployer {
 public:
  Deployer(const PopulationPlan& plan, DeployConfig config);

  /// Register every host present in `week` (plus dummies) on `net`,
  /// restricted to the given shard. The default spec deploys everything.
  void deploy_week(Network& net, int week, const ShardSpec& shard = {});

  /// Shard a host belongs to under a `shard_count`-way partition
  /// (reference-closure component representative modulo shard count).
  int shard_of(const HostPlan& host, int shard_count) const;
  /// Brokers have no discovery references, so they shard by plain index.
  int shard_of(const MqttHostPlan& host, int shard_count) const;

  Ipv4 ip_of(const HostPlan& host, int week) const;
  Ipv4 ip_of(const MqttHostPlan& host) const;
  /// The scan exclusion list (paper §A.2: 5.79 M opted-out addresses).
  std::vector<Cidr> exclusion_list() const;

  std::size_t keys_generated() const { return keys_.generated(); }

 private:
  /// The (KeyFactory label, key bits) a host's primary or dual certificate
  /// uses — shared by the lazy keypair_for() path and the parallel
  /// prefetch pass so the two can never drift apart.
  std::pair<std::string, std::size_t> key_id_for(const HostPlan& host, bool dual) const;
  std::pair<std::string, std::size_t> key_id_for(const MqttHostPlan& host) const;
  /// The study CA that signs every CA-signed certificate.
  std::pair<std::string, std::size_t> ca_key_id() const;
  /// Generate every RSA key `week`/`shard` will need on the worker pool
  /// before the (serial) server-construction loop runs.
  void prefetch_keys(int week, const ShardSpec& shard);
  /// cert_memo_ key of the certificate a host presents in `week`:
  /// (host, (generation, dual)). The generation is 0, the week for
  /// ephemerals, or 100 + the renewal week once a renewal applies.
  std::pair<int, std::pair<int, bool>> cert_key_for(const HostPlan& host, int week,
                                                    bool dual) const;
  /// Sign every certificate `week`/`shard` presents that cert_memo_ lacks
  /// on the worker pool, then memoise them in plan order; the serial
  /// server loop after it only reads the memo.
  void prefetch_certificates(int week, const ShardSpec& shard);
  /// One certificate's DER: a pure function of plan, spec and keys, whose
  /// keypairs (and the CA's) must already be in key_memo_. Reads only, so
  /// the prefetch pass runs it on any thread.
  Bytes sign_certificate(const HostPlan& host, int week, bool dual) const;
  const Bytes& certificate_for(const HostPlan& host, int week, bool dual) const;
  const RsaKeyPair& keypair_for(const HostPlan& host, bool dual);
  const RsaKeyPair& keypair_for_label(const std::string& label, std::size_t bits);
  /// The broker's wire config (certificate, TLS profile, auth methods) —
  /// stable across weeks, memoised, shared by every weekly redeploy.
  std::shared_ptr<const MqttBrokerConfig> mqtt_config_for(const MqttHostPlan& host);
  ServerConfig server_config(const HostPlan& host, int week);
  std::shared_ptr<AddressSpace> address_space_for(const HostPlan& host);

  const PopulationPlan& plan_;
  DeployConfig config_;
  KeyFactory keys_;
  std::map<std::string, RsaKeyPair> key_memo_;
  std::map<std::pair<int, std::pair<int, bool>>, Bytes> cert_memo_;  // see cert_key_for()
  std::map<int, std::shared_ptr<const MqttBrokerConfig>> mqtt_memo_;
  /// host index -> smallest host index in its discovery-reference component.
  std::map<int, int> component_;
};

/// AS numbering used by the population (§B.1.2 narrative).
inline constexpr std::uint32_t kIiotAsn = 64500;       // the "(I)IoT ISP"
inline constexpr std::uint32_t kRegionalAsn1 = 64501;  // regional ISPs with
inline constexpr std::uint32_t kRegionalAsn2 = 64502;  // deprecated+anon hosts

}  // namespace opcua_study
