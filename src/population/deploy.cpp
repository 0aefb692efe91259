#include "population/deploy.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "crypto/x509.hpp"
#include "netsim/mqtt_service.hpp"
#include "netsim/opcua_service.hpp"
#include "population/profiles.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

constexpr Ipv4 kPopulationBase = make_ipv4(20, 0, 0, 0);
constexpr Ipv4 kDummyBase = make_ipv4(30, 0, 0, 0);
constexpr std::uint32_t kAsBlockBits = 17;  // each AS owns a /15

Ipv4 as_base(std::uint32_t asn) {
  return kPopulationBase + ((asn - 64500) << kAsBlockBits);
}

}  // namespace

Deployer::Deployer(const PopulationPlan& plan, DeployConfig config)
    : plan_(plan), config_(config), keys_(config.seed, config.key_cache_path) {
  // Union-find over discovery references: a discovery server must share a
  // shard with every host it points at (see ShardSpec).
  for (const auto& host : plan_.hosts) component_[host.index] = host.index;
  const std::function<int(int)> find = [&](int index) {
    int root = index;
    while (component_[root] != root) root = component_[root];
    while (component_[index] != root) {
      const int next = component_[index];
      component_[index] = root;
      index = next;
    }
    return root;
  };
  for (const auto& [ds_index, target_index] : plan_.discovery_references) {
    if (!component_.contains(ds_index) || !component_.contains(target_index)) continue;
    const int a = find(ds_index);
    const int b = find(target_index);
    if (a != b) component_[std::max(a, b)] = std::min(a, b);  // smallest index wins
  }
  for (const auto& host : plan_.hosts) component_[host.index] = find(host.index);
}

int Deployer::shard_of(const HostPlan& host, int shard_count) const {
  if (shard_count <= 1) return 0;
  const auto it = component_.find(host.index);
  const int root = it != component_.end() ? it->second : host.index;
  return root % shard_count;
}

int Deployer::shard_of(const MqttHostPlan& host, int shard_count) const {
  if (shard_count <= 1) return 0;
  return host.index % shard_count;
}

Ipv4 Deployer::ip_of(const HostPlan& host, int week) const {
  if (host.dynamic_ip) {
    return as_base(host.asn) + 0x10000 +
           static_cast<Ipv4>(host.index) * 8 + static_cast<Ipv4>(week);
  }
  return as_base(host.asn) + 16 + static_cast<Ipv4>(host.index);
}

Ipv4 Deployer::ip_of(const MqttHostPlan& host) const {
  // Brokers live at base+0x8000, between the static (base+16+) and
  // dynamic (base+0x10000+) OPC UA ranges — no collision in any week.
  return as_base(host.asn) + 0x8000 + static_cast<Ipv4>(host.index);
}

std::vector<Cidr> Deployer::exclusion_list() const {
  // ~5.78 M addresses inside the dummy space (the paper excluded 5.79 M
  // opted-out addresses, 0.13 % of the IPv4 space).
  return {parse_cidr("30.192.0.0/10"), parse_cidr("30.128.0.0/12"),
          parse_cidr("30.64.0.0/13"), parse_cidr("31.0.0.0/19")};
}

std::pair<std::string, std::size_t> Deployer::key_id_for(const HostPlan& host, bool dual) const {
  std::string label;
  std::size_t bits = dual ? 1024 : host.certificate.key_bits;
  if (!dual && host.certificate.reuse_group >= 0) {
    const auto& group = plan_.reuse_groups[static_cast<std::size_t>(host.certificate.reuse_group)];
    label = "group-" + std::to_string(group.id);
    bits = group.key_bits;
  } else {
    label = "host-" + std::to_string(host.index) + (dual ? "-dual" : "");
  }
  if (config_.fast_keys) bits = 512;
  return {label, bits};
}

std::pair<std::string, std::size_t> Deployer::ca_key_id() const {
  return {"study-ca", config_.fast_keys ? 512 : 2048};
}

std::pair<std::string, std::size_t> Deployer::key_id_for(const MqttHostPlan& host) const {
  std::string label;
  std::size_t bits = host.key_bits;
  if (host.reuse_group >= 0) {
    const auto& group = plan_.reuse_groups[static_cast<std::size_t>(host.reuse_group)];
    // Same label as the group's OPC UA members: one private key, two
    // services — the cross-protocol sharing the matcher must not link.
    label = "group-" + std::to_string(group.id);
    bits = group.key_bits;
  } else {
    label = "mqtt-" + std::to_string(host.index);
  }
  if (config_.fast_keys) bits = 512;
  return {label, bits};
}

const RsaKeyPair& Deployer::keypair_for_label(const std::string& label, std::size_t bits) {
  const auto it = key_memo_.find(label);
  if (it != key_memo_.end()) return it->second;
  return key_memo_.emplace(label, keys_.get(label, bits)).first->second;
}

const RsaKeyPair& Deployer::keypair_for(const HostPlan& host, bool dual) {
  const auto [label, bits] = key_id_for(host, dual);
  return keypair_for_label(label, bits);
}

void Deployer::prefetch_keys(int week, const ShardSpec& shard) {
  // RSA generation dominates deployment wall-clock; batch-generate this
  // week's corpus in parallel, then let the serial host loop hit the
  // KeyFactory cache. Per-label Rng streams make the keys — and therefore
  // the deployed snapshot — identical for any key_threads value.
  std::vector<std::pair<std::string, std::size_t>> wants;
  bool needs_ca = false;
  for (const auto& host : plan_.hosts) {
    if (!host.present_in_week(week)) continue;
    if (shard_of(host, shard.count) != shard.index) continue;
    if (!host.certificate.present) continue;
    wants.push_back(key_id_for(host, false));
    if (host.certificate.dual_certificate) wants.push_back(key_id_for(host, true));
    if (host.certificate.ca_signed) needs_ca = true;
  }
  for (const auto& broker : plan_.mqtt_hosts) {
    if (!broker.present_in_week(week)) continue;
    if (shard_of(broker, shard.count) != shard.index) continue;
    wants.push_back(key_id_for(broker));
  }
  if (needs_ca) wants.push_back(ca_key_id());
  keys_.prefetch(wants, config_.key_threads);
}

std::shared_ptr<const MqttBrokerConfig> Deployer::mqtt_config_for(const MqttHostPlan& host) {
  if (const auto it = mqtt_memo_.find(host.index); it != mqtt_memo_.end()) return it->second;

  const auto [label, bits] = key_id_for(host);
  const RsaKeyPair& keys = keypair_for_label(label, bits);
  CertificateSpec spec;
  spec.signature_hash = host.signature_hash;
  spec.not_before_days = host.not_before_days;
  spec.not_after_days = host.not_before_days + 365 * 20;
  if (host.reuse_group >= 0) {
    // Mirror the OPC UA reuse-group certificate field-for-field (subject,
    // URI, serial, validity): with the class and NotBefore copied from a
    // group member by add_mqtt_population, the DER is byte-identical to
    // the fleet certificate the OPC UA members present.
    const auto& group = plan_.reuse_groups[static_cast<std::size_t>(host.reuse_group)];
    spec.subject = {"factory-image", group.subject_organization, "AT"};
    spec.application_uri = "urn:" + group.subject_organization + ":image:opcua";
    spec.serial = Bignum{9000 + static_cast<std::uint64_t>(group.id)};
  } else {
    spec.subject = {"broker-" + std::to_string(host.index), "MsgWorks", "DE"};
    spec.application_uri = "urn:msgworks:broker:" + std::to_string(host.index);
    spec.serial = Bignum{500000 + static_cast<std::uint64_t>(host.index)};
  }

  auto config = std::make_shared<MqttBrokerConfig>();
  config->certificate_der = x509_create(spec, keys.pub, keys.priv);
  config->legacy_tls = host.legacy_tls;
  config->auth_mask = mqtt_auth::kPassword;
  if (host.anonymous_allowed) config->auth_mask |= mqtt_auth::kAnonymous;
  if (host.client_cert_auth) config->auth_mask |= mqtt_auth::kClientCert;
  config->software_version = host.software_version;
  config->topics = host.topics;
  return mqtt_memo_.emplace(host.index, std::move(config)).first->second;
}

std::pair<int, std::pair<int, bool>> Deployer::cert_key_for(const HostPlan& host, int week,
                                                            bool dual) const {
  // Certificates are stable across weeks unless the host is ephemeral or a
  // renewal applies, so memoise on the effective generation.
  int generation = 0;
  if (host.certificate.ephemeral) {
    generation = week;
  } else if (host.renewal && host.renewal->dual == dual && week >= host.renewal->week) {
    generation = 100 + host.renewal->week;
  }
  return {host.index, {generation, dual}};
}

void Deployer::prefetch_certificates(int week, const ShardSpec& shard) {
  // After the key prefetch, x509_create (one RSA private op each) is what
  // is left of a deploy. Collect the shard-week's unsigned certificates,
  // assemble their missing keypairs (KeyFactory::get re-derives d and the
  // CRT parts) and sign, both on the pool with one output slot per item.
  struct Job {
    const HostPlan* host;
    bool dual;
  };
  std::vector<Job> jobs;
  std::vector<std::pair<std::string, std::size_t>> missing_keys;
  std::set<std::string> queued_labels;
  const auto want_key = [&](const std::pair<std::string, std::size_t>& id) {
    if (!key_memo_.contains(id.first) && queued_labels.insert(id.first).second) {
      missing_keys.push_back(id);
    }
  };
  for (const auto& host : plan_.hosts) {
    if (!host.present_in_week(week)) continue;
    if (shard_of(host, shard.count) != shard.index) continue;
    if (!host.certificate.present) continue;
    for (const bool dual : {false, true}) {
      if (dual && !host.certificate.dual_certificate) continue;
      if (cert_memo_.contains(cert_key_for(host, week, dual))) continue;
      jobs.push_back({&host, dual});
      want_key(key_id_for(host, dual));
      if (!dual && host.certificate.ca_signed) want_key(ca_key_id());
    }
  }
  if (jobs.empty()) return;

  const ThreadPool pool(config_.key_threads);
  std::vector<RsaKeyPair> pairs(missing_keys.size());
  pool.parallel_for(missing_keys.size(), [&](std::size_t i) {
    pairs[i] = keys_.get(missing_keys[i].first, missing_keys[i].second);
  });
  for (std::size_t i = 0; i < missing_keys.size(); ++i) {
    key_memo_.emplace(missing_keys[i].first, std::move(pairs[i]));
  }

  std::vector<Bytes> ders(jobs.size());
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    ders[i] = sign_certificate(*jobs[i].host, week, jobs[i].dual);
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    cert_memo_.emplace(cert_key_for(*jobs[i].host, week, jobs[i].dual), std::move(ders[i]));
  }
}

Bytes Deployer::sign_certificate(const HostPlan& host, int week, bool dual) const {
  const auto& cert_plan = host.certificate;
  const int generation = cert_key_for(host, week, dual).second.first;
  const RsaKeyPair& keys = key_memo_.at(key_id_for(host, dual).first);
  CertificateSpec spec;
  spec.signature_hash = dual ? HashAlgorithm::sha1 : cert_plan.signature_hash;
  std::int64_t not_before = dual ? cert_plan.dual_not_before_days : cert_plan.not_before_days;
  if (host.renewal && host.renewal->dual == dual) {
    if (week >= host.renewal->week) {
      // The new certificate: plan class, issued at the renewal date.
      not_before = measurement_days(host.renewal->week) - 1;
    } else if (!dual) {
      // The pre-renewal certificate carries the *old* class; its issue date
      // predates the 2017 deprecation so the §5.5 NotBefore ledger stays
      // exact (only the plan's stable singles carry post-2017 SHA-1 dates).
      spec.signature_hash = host.renewal->old_hash;
      not_before = std::min(not_before, days_from_civil({2016, 6, 1}));
    }
  }
  if (cert_plan.ephemeral) not_before = measurement_days(week);
  spec.not_before_days = not_before;
  spec.not_after_days = not_before + 365 * 20;
  spec.serial = Bignum{static_cast<std::uint64_t>(host.index) * 1000 +
                       static_cast<std::uint64_t>(generation) * 2 + (dual ? 1 : 0) + 1};

  if (!dual && cert_plan.reuse_group >= 0) {
    const auto& group = plan_.reuse_groups[static_cast<std::size_t>(cert_plan.reuse_group)];
    spec.subject = {"factory-image", group.subject_organization, "AT"};
    spec.application_uri = "urn:" + group.subject_organization + ":image:opcua";
    spec.serial = Bignum{9000 + static_cast<std::uint64_t>(group.id)};
  } else {
    spec.subject = {"device-" + std::to_string(host.index) + (dual ? "-alt" : ""),
                    host.manufacturer, "DE"};
    spec.application_uri = host.application_uri;
  }
  if (!dual && cert_plan.ca_signed) {
    spec.issuer = X509Name{"Industrial Device CA", "TrustWorks CA GmbH", "DE"};
    return x509_create(spec, keys.pub, key_memo_.at(ca_key_id().first).priv);
  }
  return x509_create(spec, keys.pub, keys.priv);
}

const Bytes& Deployer::certificate_for(const HostPlan& host, int week, bool dual) const {
  return cert_memo_.at(cert_key_for(host, week, dual));
}

std::shared_ptr<AddressSpace> Deployer::address_space_for(const HostPlan& host) {
  auto space = std::make_shared<AddressSpace>();
  Rng rng = Rng(config_.seed).child("space-" + std::to_string(host.index));

  std::uint16_t ns = 0;
  switch (host.classification) {
    case PlannedClass::production: {
      const auto& pool = profiles::production_namespaces();
      ns = space->add_namespace(pool[static_cast<std::size_t>(host.index) % pool.size()]);
      if (host.index % 3 == 0) space->add_namespace(pool[(static_cast<std::size_t>(host.index) + 1) % pool.size()]);
      break;
    }
    case PlannedClass::test: {
      const auto& pool = profiles::test_namespaces();
      ns = space->add_namespace(pool[static_cast<std::size_t>(host.index) % pool.size()]);
      break;
    }
    case PlannedClass::unclassified:
      // Standard namespace only (the paper's 156 unlabelable systems):
      // vendor nodes live in ns 0 with high ids.
      ns = 0;
      break;
    case PlannedClass::not_applicable:
      ns = space->add_namespace("urn:" + host.manufacturer + ":internal");
      break;
  }

  const std::uint32_t id_base = ns == 0 ? 50000 : 100;
  const NodeId root(ns, id_base);
  space->add_object(root, node_ids::kObjectsFolder, "Device");

  const int vars = host.variable_count > 0 ? host.variable_count : 12;
  const int methods = host.method_count > 0 ? host.method_count : 3;
  // ceil keeps measured fractions on the planned side of the Fig. 7
  // thresholds (0.97 / 0.10 / 0.86) regardless of the node count.
  const int readable =
      std::min(vars, static_cast<int>(std::ceil(host.readable_fraction * vars)));
  const int writable =
      std::min(vars, static_cast<int>(std::ceil(host.writable_fraction * vars)));
  const int executable =
      std::min(methods, static_cast<int>(std::ceil(host.executable_fraction * methods)));

  const auto& var_names = profiles::variable_names();
  for (int i = 0; i < vars; ++i) {
    std::uint8_t access = 0;
    if (i < readable) access |= access_level::kCurrentRead;
    // Writable nodes are spread across the readable prefix so that
    // read/write flags are not perfectly correlated.
    if (i % 7 != 0 ? (i < writable) : (vars - 1 - i < writable)) {
      access |= access_level::kCurrentWrite;
    }
    const std::string name =
        var_names[static_cast<std::size_t>(i) % var_names.size()] + "_" + std::to_string(i);
    Variant value;
    switch (i % 3) {
      case 0: value = Variant{rng.real() * 100.0}; break;
      case 1: value = Variant{static_cast<std::int32_t>(rng.below(1000))}; break;
      default: value = Variant{"value-" + std::to_string(rng.below(100))}; break;
    }
    space->add_variable(NodeId(ns, id_base + 1 + static_cast<std::uint32_t>(i)), root, name,
                        std::move(value), access);
  }
  const auto& method_names = profiles::method_names();
  for (int i = 0; i < methods; ++i) {
    const std::string name =
        method_names[static_cast<std::size_t>(i) % method_names.size()] + "_" + std::to_string(i);
    space->add_method(NodeId(ns, id_base + 10000 + static_cast<std::uint32_t>(i)), root, name,
                      i < executable);
  }
  return space;
}

ServerConfig Deployer::server_config(const HostPlan& host, int week) {
  ServerConfig config;
  config.identity.application_uri = host.application_uri;
  config.identity.product_uri = host.product_uri;
  config.identity.application_name = host.application_name;
  config.identity.application_type =
      host.discovery ? ApplicationType::DiscoveryServer : ApplicationType::Server;
  config.identity.software_version = host.software_version;
  if (host.renewal && host.renewal->software_update && week >= host.renewal->week) {
    config.identity.software_version = "1.3.0";
  }
  config.trust_all_client_certs = host.trust_all_client_certs;
  config.reject_anonymous_sessions = host.reject_anonymous_sessions;
  config.reject_all_sessions = host.reject_all_sessions;
  config.users = {{"operator", "secret-" + std::to_string(host.index)}};
  config.address_space = address_space_for(host);

  const std::string url = "opc.tcp://" + format_ipv4(ip_of(host, week)) + ":" +
                          std::to_string(host.port) + "/";
  int cert_index = -1;
  if (host.certificate.present) {
    config.certificates.push_back(certificate_for(host, week, false));
    config.private_keys.push_back(keypair_for(host, false).priv);
    cert_index = 0;
  }

  auto add_endpoint = [&](MessageSecurityMode mode, SecurityPolicy policy, int cert) {
    EndpointConfig ep;
    ep.url = url;
    ep.mode = mode;
    ep.policy = policy;
    ep.token_types = host.tokens;
    ep.certificate_index = cert;
    config.endpoints.push_back(std::move(ep));
  };

  if (host.offers_none_mode()) add_endpoint(MessageSecurityMode::None, SecurityPolicy::None, cert_index);
  for (MessageSecurityMode mode : host.modes) {
    if (mode == MessageSecurityMode::None) continue;
    for (SecurityPolicy policy : host.policies) {
      if (policy == SecurityPolicy::None) continue;
      add_endpoint(mode, policy, cert_index);
    }
  }
  if (host.certificate.dual_certificate && host.certificate.present) {
    config.certificates.push_back(certificate_for(host, week, true));
    config.private_keys.push_back(keypair_for(host, true).priv);
    // The extra endpoint re-announces the host's first endpoint with the
    // second certificate (multi-application devices in the wild).
    EndpointConfig ep = config.endpoints.front();
    ep.certificate_index = 1;
    config.endpoints.push_back(std::move(ep));
  }
  return config;
}

void Deployer::deploy_week(Network& net, int week, const ShardSpec& shard) {
  // AS database.
  for (std::uint32_t asn = 64500; asn <= 64530; ++asn) {
    std::string name = "Transit-" + std::to_string(asn);
    if (asn == kIiotAsn) name = "FlowFabric IIoT Networks";
    if (asn == kRegionalAsn1) name = "Regio-Net East";
    if (asn == kRegionalAsn2) name = "AlpenTel West";
    net.as_db().add(Cidr{as_base(asn), 32 - static_cast<int>(kAsBlockBits)}, AsInfo{asn, name});
  }
  net.as_db().add(Cidr{kDummyBase, 8}, AsInfo{64998, "MiscHosting"});

  // OPC UA hosts: generate the week's key corpus and sign its new
  // certificates in parallel first, then build servers serially against
  // the warm caches.
  prefetch_keys(week, shard);
  prefetch_certificates(week, shard);
  std::map<int, const HostPlan*> by_index;
  for (const auto& host : plan_.hosts) by_index[host.index] = &host;

  for (const auto& host : plan_.hosts) {
    if (!host.present_in_week(week)) continue;
    if (shard_of(host, shard.count) != shard.index) continue;
    ServerConfig config = server_config(host, week);
    if (host.discovery) {
      // Attach foreign endpoints for every referenced host present this week.
      for (const auto& [ds_index, target_index] : plan_.discovery_references) {
        if (ds_index != host.index) continue;
        const HostPlan* target = by_index.at(target_index);
        if (!target->present_in_week(week)) continue;
        EndpointDescription foreign;
        foreign.endpoint_url = "opc.tcp://" + format_ipv4(ip_of(*target, week)) + ":" +
                               std::to_string(target->port) + "/";
        foreign.server.application_uri = target->application_uri;
        foreign.server.application_name = {"en", target->application_name};
        foreign.security_mode = MessageSecurityMode::None;
        foreign.security_policy_uri = std::string(policy_info(SecurityPolicy::None).uri);
        config.foreign_endpoints.push_back(std::move(foreign));
      }
    }
    auto server = std::make_shared<Server>(std::move(config),
                                           config_.seed ^ static_cast<std::uint64_t>(host.index));
    net.listen(ip_of(host, week), host.port, make_opcua_factory(std::move(server)));
  }

  // MQTT-over-TLS brokers (fleet is empty unless add_mqtt_population()).
  for (const auto& broker : plan_.mqtt_hosts) {
    if (!broker.present_in_week(week)) continue;
    if (shard_of(broker, shard.count) != shard.index) continue;
    net.listen(ip_of(broker), broker.port, make_mqtt_factory(mqtt_config_for(broker)));
  }

  // Non-OPC-UA port-4840 background population.
  Rng dummy_rng = Rng(config_.seed).child("dummies");
  const char* banners[] = {"nginx", "lighttpd", "Microsoft-IIS/8.5", "BusyBox httpd", "mini_httpd"};
  for (int i = 0; i < config_.dummy_hosts; ++i) {
    // Draw ip + banner for every index regardless of shard so the RNG
    // stream — and therefore each dummy's address — is partition-invariant.
    const Ipv4 ip = kDummyBase + static_cast<Ipv4>(dummy_rng.below(1u << 24));
    const std::string banner = banners[dummy_rng.below(5)];
    // Deal dummies by *address*, not index: colliding draws then land in
    // the same shard, where listen() overwrites — the same dedup a single
    // Network applies — keeping sweep counters shard-count-invariant.
    if (shard.count > 1 && static_cast<int>(ip % static_cast<Ipv4>(shard.count)) != shard.index) {
      continue;
    }
    net.listen(ip, kOpcUaDefaultPort, [banner]() -> std::unique_ptr<ConnectionHandler> {
      return std::make_unique<DummyBannerService>(banner);
    });
  }
}

}  // namespace opcua_study
