// Chunk-parallel implementation of the shared analysis library.
//
// Each worker aggregates whole chunks into a ChunkPartial; partials are
// merged on the caller in chunk-index order, so every statistic —
// including order-sensitive ones like the Fig. 7 fraction vectors and the
// renewal-event list — is identical to a sequential pass over the same
// records, and therefore identical to the assess/ reference functions
// (the tests pin both equalities).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>

#include "analysis/analysis.hpp"
#include "crypto/batch_gcd.hpp"
#include "obs/metrics.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

namespace {

template <typename K, typename V>
void merge_count_map(std::map<K, V>& into, const std::map<K, V>& from) {
  for (const auto& [key, count] : from) into[key] += count;
}

// ------------------------------------------- v6 columnar fast path ----

// Everything the figure passes ever derive from a certificate, computed
// once per *dictionary entry* instead of once per host occurrence. On a
// fleet where thousands of hosts share a handful of certificates this
// removes all repeated SHA-1 thumbprints and DER parses.
struct DictCertEntry {
  std::string fp_hex;
  bool parsed = false;
  HashAlgorithm hash = HashAlgorithm::sha1;
  std::size_t key_bits = 0;
  bool self_signed = false;
  std::string org;
  std::int64_t not_before_days = 0;
  std::string modulus_hex;  // only filled when the §5.3 sweep runs
  Bignum modulus;
};

struct DictCertCache {
  std::vector<DictCertEntry> entries;

  /// Entries are built in dictionary blocks on `pool`, each into its own
  /// slot by id, so the cache is identical for any thread count.
  DictCertCache(const SnapshotReader& reader, bool with_moduli, const ThreadPool& pool)
      : entries(reader.cert_count()) {
    pool.parallel_for_blocks(
        entries.size(), SnapshotReader::kDictBlock, [&](std::size_t begin, std::size_t end) {
          for (std::size_t id = begin; id < end; ++id) {
            DictCertEntry& entry = entries[id];
            const auto der = reader.cert_der(static_cast<std::uint32_t>(id));
            entry.fp_hex = to_hex(x509_thumbprint(der));
            try {
              const Certificate cert = x509_parse(der);
              entry.parsed = true;
              entry.hash = cert.signature_hash;
              entry.key_bits = cert.key_bits();
              entry.self_signed = cert.self_signed();
              entry.org = cert.subject.organization;
              entry.not_before_days = cert.not_before_days;
              if (with_moduli) {
                entry.modulus_hex = cert.public_key.n.to_hex();
                entry.modulus = cert.public_key.n;
              }
            } catch (const DecodeError&) {
            }
          }
        });
  }

  const DictCertEntry& at(std::uint32_t id) const {
    if (id >= entries.size()) {
      throw DecodeError("certificate id " + std::to_string(id) + " out of dictionary range (" +
                        std::to_string(entries.size()) + " entries)");
    }
    return entries[id];
  }

  /// Mirror of primary_certificate(): the head list is the distinct
  /// certificates in first-seen endpoint order, so the first entry that
  /// parses is the certificate the reference helper returns.
  const DictCertEntry* primary(const std::vector<std::uint32_t>& ids) const {
    for (const std::uint32_t id : ids) {
      const DictCertEntry& entry = at(id);
      if (entry.parsed) return &entry;
    }
    return nullptr;
  }
};

/// Run fn(view) over one chunk, converting cursor decode failures into the
/// same SnapshotError shape read_chunk reports.
template <typename Fn>
void visit_columnar(const SnapshotReader& reader, std::size_t chunk, Fn&& fn) {
  const ColumnView view = reader.column_view(chunk);
  try {
    fn(view);
  } catch (const DecodeError& e) {
    throw SnapshotError("corrupt chunk " + std::to_string(chunk) + " (v6, chunk at byte " +
                        std::to_string(reader.chunks()[chunk].file_offset) + "): " + e.what());
  }
}

// ------------------------------------------------- pass 1: cert census ----

/// Certificate census of the final measurement: reuse clusters over the
/// servers' distinct certificates (Fig. 5, Fig. 8 reuse sets, §5.5 fleet
/// tracking) and optionally the deduplicated RSA modulus corpus (§5.3).
struct CensusPartial {
  struct Cluster {
    int hosts = 0;
    std::set<std::uint32_t> ases;
    std::string org;
  };
  std::map<std::string, Cluster> clusters;
  std::map<std::string, Bignum> moduli;  // hex(n) -> n, deduplicated

  void absorb(const HostScanRecord& host, bool collect_moduli) {
    if (collect_moduli) {
      for (const auto& der : host.distinct_certificates()) {
        try {
          const Certificate cert = x509_parse(der);
          moduli.try_emplace(cert.public_key.n.to_hex(), cert.public_key.n);
        } catch (const DecodeError&) {
        }
      }
    }
    if (host.is_discovery_server()) return;
    for (const auto& der : host.distinct_certificates()) {
      const std::string fp = to_hex(x509_thumbprint(der));
      Cluster& cluster = clusters[fp];
      ++cluster.hosts;
      cluster.ases.insert(host.asn);
      if (cluster.org.empty()) {
        try {
          cluster.org = x509_parse(der).subject.organization;
        } catch (const DecodeError&) {
        }
      }
    }
  }

  /// Columnar mirror of absorb(): the head id list *is* the distinct
  /// certificate list (the writer interns by content), so every per-DER
  /// computation becomes a dictionary lookup.
  void absorb_columnar(const ColumnView& view, std::size_t i, const DictCertCache& cache,
                       std::vector<std::uint32_t>& ids, bool collect_moduli) {
    ids.clear();
    VarRecordCursor cursor(view.var_record(i));
    cursor.cert_ids(ids);
    if (collect_moduli) {
      for (const std::uint32_t id : ids) {
        const DictCertEntry& entry = cache.at(id);
        if (entry.parsed) moduli.try_emplace(entry.modulus_hex, entry.modulus);
      }
    }
    if (view.application_type[i] == static_cast<std::uint8_t>(ApplicationType::DiscoveryServer)) {
      return;
    }
    for (const std::uint32_t id : ids) {
      const DictCertEntry& entry = cache.at(id);
      Cluster& cluster = clusters[entry.fp_hex];
      ++cluster.hosts;
      cluster.ases.insert(view.asn[i]);
      if (cluster.org.empty()) cluster.org = entry.org;
    }
  }

  void merge(CensusPartial&& other) {
    for (auto& [fp, cluster] : other.clusters) {
      Cluster& into = clusters[fp];
      into.hosts += cluster.hosts;
      into.ases.merge(cluster.ases);
      if (into.org.empty()) into.org = std::move(cluster.org);
    }
    moduli.merge(other.moduli);
  }
};

/// Fingerprint sets derived from the census before pass 2 runs.
struct FinalWeekSets {
  std::set<std::string> reused_fps;       // certificates on >= 3 hosts (Fig. 8)
  std::set<std::string> big_cluster_fps;  // the distributor fleet (§5.5)
};

// ---------------------------------------------- pass 2: chunk partials ----

/// Everything one chunk of records contributes. A chunk belongs to exactly
/// one measurement; the final measurement's chunks additionally feed the
/// figure statistics.
struct ChunkPartial {
  // Weekly tallies (Fig. 2 / §5.5), servers unless noted.
  int servers = 0, discovery = 0, via_reference = 0, non_default_port = 0, deficient = 0;
  int reuse_devices = 0;
  std::map<std::string, int> by_manufacturer;

  // Cross-week certificate corpus and per-host history (record order).
  std::map<std::string, std::pair<HashAlgorithm, std::int64_t>> corpus;
  struct HostObs {
    Ipv4 ip = 0;
    std::uint16_t port = 0;
    std::set<std::string> fps;
    std::map<std::string, HashAlgorithm> hashes;
    std::string software;
  };
  std::vector<HostObs> history;

  // Scan quality (fault-injection resilience; all zero on fault-free data).
  std::uint64_t q_hosts = 0, q_complete = 0, q_truncated = 0, q_degraded = 0, q_unreachable = 0;
  std::uint64_t q_faulted = 0, q_recovered = 0, q_retries = 0, q_fault_events = 0;

  // Per-protocol population split. proto_hosts covers every record (like
  // the quality tallies); the final-week maps cover servers only.
  std::map<ProtocolId, std::uint64_t> proto_hosts;
  std::map<ProtocolId, std::uint64_t> proto_servers, proto_deficient, proto_anonymous;

  // Final-measurement figures.
  ModePolicyStats modes;
  CertConformanceStats certs;
  std::map<std::tuple<bool, bool, bool, bool>, AuthRow> auth_rows;
  AuthStats auth;  // scalar fields; rows assembled at finalize
  AccessRightsStats access;
  DeficitBreakdown deficits;

  /// Quality tallies cover *every* record (discovery servers included —
  /// the section measures the scan process, not the server population).
  void absorb_quality(std::uint8_t completeness, std::uint16_t retries, std::uint16_t faults) {
    if (completeness > 3) {
      throw DecodeError("snapshot record: invalid completeness value " +
                        std::to_string(completeness));
    }
    ++q_hosts;
    switch (completeness) {
      case 0: ++q_complete; break;
      case 1: ++q_truncated; break;
      case 2: ++q_degraded; break;
      default: ++q_unreachable; break;
    }
    q_retries += retries;
    q_fault_events += faults;
    if (faults > 0) {
      ++q_faulted;
      if (completeness == 0) ++q_recovered;
    }
  }

  void absorb(const HostScanRecord& host, bool final_week, const FinalWeekSets& sets) {
    absorb_quality(static_cast<std::uint8_t>(host.completeness), host.retries,
                   host.fault_events);
    proto_hosts[host.protocol]++;
    // Fig. 7 is the one figure with no discovery-server filter (the
    // reference assess_access_rights keys on session outcome alone).
    if (final_week && host.session == SessionOutcome::accessible) {
      int vars = 0, readable = 0, writable = 0, methods = 0, executable = 0;
      for (const auto& node : host.nodes) {
        if (node.node_class == NodeClass::Variable) {
          ++vars;
          readable += node.readable;
          writable += node.writable;
        } else if (node.node_class == NodeClass::Method) {
          ++methods;
          executable += node.executable;
        }
      }
      if (vars > 0) {
        access.read_fractions.push_back(static_cast<double>(readable) / vars);
        access.write_fractions.push_back(static_cast<double>(writable) / vars);
      }
      if (methods > 0) {
        access.exec_fractions.push_back(static_cast<double>(executable) / methods);
      }
    }

    const std::string cluster = manufacturer_cluster(host.application_uri);
    if (host.is_discovery_server()) {
      ++discovery;
      return;
    }
    ++servers;
    by_manufacturer[cluster]++;
    via_reference += host.found_via_reference;
    non_default_port += host.port != kOpcUaDefaultPort;

    const SecurityPolicy max = strongest_policy(host);
    const auto cert = primary_certificate(host);
    const bool cert_too_weak =
        cert && max != SecurityPolicy::None &&
        classify_certificate(max, cert->signature_hash, cert->key_bits()) ==
            CertConformance::too_weak;
    const bool host_deficient = max == SecurityPolicy::None || policy_info(max).deprecated ||
                                cert_too_weak || host.anonymous_offered;
    deficient += host_deficient;
    if (final_week) {
      proto_servers[host.protocol]++;
      if (host_deficient) proto_deficient[host.protocol]++;
      if (host.anonymous_offered) proto_anonymous[host.protocol]++;
    }

    // History / corpus / fleet membership (§5.5).
    HostObs obs;
    obs.ip = host.ip;
    obs.port = host.port;
    obs.software = host.software_version;
    const std::vector<Bytes> ders = host.distinct_certificates();
    std::vector<std::string> fps;  // one thumbprint per DER, computed once
    fps.reserve(ders.size());
    bool in_big_cluster = false;
    for (const auto& der : ders) {
      const std::string& fp = fps.emplace_back(to_hex(x509_thumbprint(der)));
      obs.fps.insert(fp);
      try {
        const Certificate parsed = x509_parse(der);
        obs.hashes[fp] = parsed.signature_hash;
        corpus.try_emplace(fp, parsed.signature_hash, parsed.not_before_days);
      } catch (const DecodeError&) {
      }
      if (sets.big_cluster_fps.contains(fp)) in_big_cluster = true;
    }
    reuse_devices += in_big_cluster;
    history.push_back(std::move(obs));

    if (!final_week) return;

    // ----- Fig. 3: security modes and policies --------------------------
    ++modes.servers;
    const auto advertised_modes = host.advertised_modes();
    MessageSecurityMode weakest_mode = MessageSecurityMode::Invalid;
    MessageSecurityMode strongest_mode = MessageSecurityMode::Invalid;
    for (const auto mode : advertised_modes) {
      modes.mode_support[mode]++;
      if (weakest_mode == MessageSecurityMode::Invalid ||
          security_mode_rank(mode) < security_mode_rank(weakest_mode)) {
        weakest_mode = mode;
      }
      if (security_mode_rank(mode) > security_mode_rank(strongest_mode)) strongest_mode = mode;
    }
    if (weakest_mode != MessageSecurityMode::Invalid) modes.mode_least[weakest_mode]++;
    if (strongest_mode != MessageSecurityMode::Invalid) modes.mode_most[strongest_mode]++;
    if (strongest_mode == MessageSecurityMode::None) ++modes.none_only;
    if (security_mode_rank(strongest_mode) >= security_mode_rank(MessageSecurityMode::Sign)) {
      ++modes.secure_mode_capable;
    }

    const auto policies = host.advertised_policies();
    SecurityPolicy weakest = SecurityPolicy::None;
    SecurityPolicy strongest = SecurityPolicy::None;
    int weakest_rank = 1000, strongest_rank = -1;
    bool any_deprecated = false;
    for (const auto policy : policies) {
      modes.policy_support[policy]++;
      const auto& info = policy_info(policy);
      any_deprecated |= info.deprecated;
      if (info.rank < weakest_rank) {
        weakest_rank = info.rank;
        weakest = policy;
      }
      if (info.rank > strongest_rank) {
        strongest_rank = info.rank;
        strongest = policy;
      }
    }
    if (!policies.empty()) {
      modes.policy_least[weakest]++;
      modes.policy_most[strongest]++;
      if (policy_info(weakest).secure) ++modes.strong_enforcing;
      if (policy_info(strongest).secure) ++modes.strong_capable;
      if (policy_info(strongest).deprecated) ++modes.deprecated_max;
    }
    modes.deprecated_supported += any_deprecated;

    // ----- Fig. 4: certificate conformance ------------------------------
    if (cert) {
      ++certs.hosts_with_cert;
      if (!cert->self_signed()) ++certs.ca_signed;
      const CertClassKey key{cert->signature_hash, cert->key_bits()};
      for (const auto policy : policies) {
        certs.class_counts[policy][key]++;
        certs.announced_with_cert[policy]++;
        switch (classify_certificate(policy, cert->signature_hash, cert->key_bits())) {
          case CertConformance::too_weak: certs.too_weak[policy]++; break;
          case CertConformance::too_strong: certs.too_strong[policy]++; break;
          case CertConformance::conformant: break;
        }
      }
      if (cert_too_weak) ++certs.weaker_than_max;
    }

    // ----- Fig. 6 / Table 2: authentication -----------------------------
    ++auth.servers;
    AuthRow probe;
    for (const auto token : host.advertised_token_types()) {
      switch (token) {
        case UserTokenType::Anonymous: probe.anonymous = true; break;
        case UserTokenType::UserName: probe.credentials = true; break;
        case UserTokenType::Certificate: probe.certificate = true; break;
        case UserTokenType::IssuedToken: probe.token = true; break;
      }
    }
    AuthRow& row = auth_rows.try_emplace(probe.key(), probe).first->second;
    const bool sc_rejected =
        host.channel == ChannelOutcome::cert_rejected || host.channel == ChannelOutcome::failed;
    if (sc_rejected) {
      ++auth.channel_rejected;
      ++row.channel_rejected;
    } else {
      ++auth.channel_capable;
    }
    if (probe.anonymous) {
      ++auth.anonymous_offered;
      if (!sc_rejected) ++auth.anonymous_channel_capable;
      bool none_mode = false;
      for (const auto mode : advertised_modes) none_mode |= mode == MessageSecurityMode::None;
      if (!none_mode) ++auth.anonymous_secure_only;
    }
    if (host.session == SessionOutcome::accessible) {
      ++auth.accessible;
      switch (classify_namespaces(host.namespaces)) {
        case SystemClass::production:
          ++auth.production;
          ++row.production;
          break;
        case SystemClass::test:
          ++auth.test;
          ++row.test;
          break;
        case SystemClass::unclassified:
          ++auth.unclassified;
          ++row.unclassified;
          break;
      }
    } else if (!sc_rejected) {
      ++auth.auth_rejected;
      ++row.auth_rejected;
    }

    // ----- Fig. 8: deficit breakdown ------------------------------------
    ++deficits.servers;
    auto tally = [&](const char* deficit) {
      deficits.by_manufacturer[deficit][cluster]++;
      deficits.by_as[deficit][host.asn]++;
    };
    if (max == SecurityPolicy::None) {
      ++deficits.none_only;
      tally("None");
    }
    if (max != SecurityPolicy::None && policy_info(max).deprecated) {
      ++deficits.deprecated_only;
      tally("Deprecated Policies");
    }
    if (cert_too_weak) {
      ++deficits.weak_certificate;
      tally("Too Weak Certificate");
    }
    bool reused = false;
    for (const auto& fp : fps) {
      if (sets.reused_fps.contains(fp)) reused = true;
    }
    if (reused) {
      ++deficits.cert_reuse;
      tally("Certificate Reuse");
    }
    if (host.anonymous_offered) {
      ++deficits.anonymous_access;
      tally("Anonymous Access");
    }
    if (host_deficient) ++deficits.deficient_total;
  }

  /// Columnar mirror of absorb() for v6 chunks: scalar figures come from
  /// the fixed columns, identity strings and cert ids from a lazy cursor
  /// over the var record, and per-certificate facts from the dictionary
  /// cache. Mask iteration runs in enum order, which is equivalent to the
  /// record path's first-seen endpoint order because every mode/policy has
  /// a distinct rank and no endpoint ever advertises Invalid mode.
  void absorb_columnar(const ColumnView& view, std::size_t i, const DictCertCache& cache,
                       std::vector<std::uint32_t>& ids, bool final_week,
                       const FinalWeekSets& sets) {
    const std::uint8_t host_flags = view.flags[i];
    // Fixed-position tails at the end of the var slice, peeled innermost
    // last: [quality 5B][protocol 1B]. Neither needs a cursor walk.
    const std::uint32_t var_begin = view.var_offsets[i];
    std::uint32_t tail_end = view.var_offsets[i + 1];
    ProtocolId protocol = ProtocolId::opcua;
    if (host_flags & snapshot_flags::kProtocol) {
      if (tail_end == var_begin) {
        throw DecodeError("var record too short for its protocol tail");
      }
      const std::uint8_t p = view.var_blob[tail_end - 1];
      if (p == 0) {
        throw DecodeError(
            "snapshot record: zero protocol tail byte (non-canonical; OPC UA records carry no "
            "protocol tail)");
      }
      if (p >= kProtocolCount) {
        throw DecodeError("snapshot record: invalid protocol value " + std::to_string(p));
      }
      protocol = static_cast<ProtocolId>(p);
      --tail_end;
    }
    std::uint8_t q_completeness = 0;
    std::uint16_t q_rec_retries = 0, q_rec_faults = 0;
    if (host_flags & snapshot_flags::kScanQuality) {
      if (tail_end - var_begin < 5) {
        throw DecodeError("var record too short for its scan-quality tail");
      }
      const std::uint8_t* t = view.var_blob.data() + tail_end - 5;
      q_completeness = t[0];
      q_rec_retries = static_cast<std::uint16_t>(t[1] | (t[2] << 8));
      q_rec_faults = static_cast<std::uint16_t>(t[3] | (t[4] << 8));
    }
    absorb_quality(q_completeness, q_rec_retries, q_rec_faults);
    proto_hosts[protocol]++;
    const bool anonymous_offered = (host_flags & snapshot_flags::kAnonymousOffered) != 0;
    const bool is_discovery = view.application_type[i] ==
                              static_cast<std::uint8_t>(ApplicationType::DiscoveryServer);
    const bool accessible =
        view.session[i] == static_cast<std::uint8_t>(SessionOutcome::accessible);

    // Var-column reads happen up front in stage order; the figure logic
    // below then mirrors absorb() statement for statement (within one host
    // every statistic is a pure accumulation, so ordering is free).
    ids.clear();
    VarRecordCursor cursor(view.var_record(i));
    std::string app_uri;
    std::string software;
    std::vector<std::string> nss;
    if (!is_discovery) {
      cursor.cert_ids(ids);
      app_uri = cursor.application_uri();
      software = cursor.software_version();
      if (final_week && accessible) nss = cursor.namespaces();
    }
    if (final_week && accessible) {
      int vars = 0, readable = 0, writable = 0, methods = 0, executable = 0;
      cursor.visit_nodes([&](NodeClass node_class, bool r, bool w, bool x) {
        if (node_class == NodeClass::Variable) {
          ++vars;
          readable += r;
          writable += w;
        } else if (node_class == NodeClass::Method) {
          ++methods;
          executable += x;
        }
      });
      if (vars > 0) {
        access.read_fractions.push_back(static_cast<double>(readable) / vars);
        access.write_fractions.push_back(static_cast<double>(writable) / vars);
      }
      if (methods > 0) {
        access.exec_fractions.push_back(static_cast<double>(executable) / methods);
      }
    }

    if (is_discovery) {
      ++discovery;
      return;
    }
    ++servers;
    const std::string cluster = manufacturer_cluster(app_uri);
    by_manufacturer[cluster]++;
    via_reference += (host_flags & snapshot_flags::kFoundViaReference) != 0;
    non_default_port += view.port[i] != kOpcUaDefaultPort;

    const std::uint8_t policy_mask = view.policy_mask[i];
    SecurityPolicy max = SecurityPolicy::None;
    for (int code = 0; code <= 5; ++code) {
      // Table rank order equals enum order, so the highest set bit wins.
      if (policy_mask & (1u << code)) max = static_cast<SecurityPolicy>(code);
    }
    const DictCertEntry* cert = cache.primary(ids);
    const bool cert_too_weak =
        cert && max != SecurityPolicy::None &&
        classify_certificate(max, cert->hash, cert->key_bits) == CertConformance::too_weak;
    const bool host_deficient = max == SecurityPolicy::None || policy_info(max).deprecated ||
                                cert_too_weak || anonymous_offered;
    deficient += host_deficient;
    if (final_week) {
      proto_servers[protocol]++;
      if (host_deficient) proto_deficient[protocol]++;
      if (anonymous_offered) proto_anonymous[protocol]++;
    }

    // History / corpus / fleet membership (§5.5).
    HostObs obs;
    obs.ip = view.ip[i];
    obs.port = view.port[i];
    obs.software = std::move(software);
    bool in_big_cluster = false;
    for (const std::uint32_t id : ids) {
      const DictCertEntry& entry = cache.at(id);
      obs.fps.insert(entry.fp_hex);
      if (entry.parsed) {
        obs.hashes[entry.fp_hex] = entry.hash;
        corpus.try_emplace(entry.fp_hex, entry.hash, entry.not_before_days);
      }
      if (sets.big_cluster_fps.contains(entry.fp_hex)) in_big_cluster = true;
    }
    reuse_devices += in_big_cluster;
    history.push_back(std::move(obs));

    if (!final_week) return;

    // ----- Fig. 3: security modes and policies --------------------------
    ++modes.servers;
    const std::uint8_t mode_mask = view.mode_mask[i];
    MessageSecurityMode weakest_mode = MessageSecurityMode::Invalid;
    MessageSecurityMode strongest_mode = MessageSecurityMode::Invalid;
    for (int m = 0; m <= 3; ++m) {
      if (!(mode_mask & (1u << m))) continue;
      const auto mode = static_cast<MessageSecurityMode>(m);
      modes.mode_support[mode]++;
      if (weakest_mode == MessageSecurityMode::Invalid ||
          security_mode_rank(mode) < security_mode_rank(weakest_mode)) {
        weakest_mode = mode;
      }
      if (security_mode_rank(mode) > security_mode_rank(strongest_mode)) strongest_mode = mode;
    }
    if (weakest_mode != MessageSecurityMode::Invalid) modes.mode_least[weakest_mode]++;
    if (strongest_mode != MessageSecurityMode::Invalid) modes.mode_most[strongest_mode]++;
    if (strongest_mode == MessageSecurityMode::None) ++modes.none_only;
    if (security_mode_rank(strongest_mode) >= security_mode_rank(MessageSecurityMode::Sign)) {
      ++modes.secure_mode_capable;
    }

    SecurityPolicy weakest = SecurityPolicy::None;
    SecurityPolicy strongest = SecurityPolicy::None;
    int weakest_rank = 1000, strongest_rank = -1;
    bool any_deprecated = false;
    bool any_policy = false;
    for (int code = 0; code <= 5; ++code) {
      if (!(policy_mask & (1u << code))) continue;
      any_policy = true;
      const auto policy = static_cast<SecurityPolicy>(code);
      modes.policy_support[policy]++;
      const auto& info = policy_info(policy);
      any_deprecated |= info.deprecated;
      if (info.rank < weakest_rank) {
        weakest_rank = info.rank;
        weakest = policy;
      }
      if (info.rank > strongest_rank) {
        strongest_rank = info.rank;
        strongest = policy;
      }
    }
    if (any_policy) {
      modes.policy_least[weakest]++;
      modes.policy_most[strongest]++;
      if (policy_info(weakest).secure) ++modes.strong_enforcing;
      if (policy_info(strongest).secure) ++modes.strong_capable;
      if (policy_info(strongest).deprecated) ++modes.deprecated_max;
    }
    modes.deprecated_supported += any_deprecated;

    // ----- Fig. 4: certificate conformance ------------------------------
    if (cert) {
      ++certs.hosts_with_cert;
      if (!cert->self_signed) ++certs.ca_signed;
      const CertClassKey key{cert->hash, cert->key_bits};
      for (int code = 0; code <= 5; ++code) {
        if (!(policy_mask & (1u << code))) continue;
        const auto policy = static_cast<SecurityPolicy>(code);
        certs.class_counts[policy][key]++;
        certs.announced_with_cert[policy]++;
        switch (classify_certificate(policy, cert->hash, cert->key_bits)) {
          case CertConformance::too_weak: certs.too_weak[policy]++; break;
          case CertConformance::too_strong: certs.too_strong[policy]++; break;
          case CertConformance::conformant: break;
        }
      }
      if (cert_too_weak) ++certs.weaker_than_max;
    }

    // ----- Fig. 6 / Table 2: authentication -----------------------------
    ++auth.servers;
    AuthRow probe;
    const std::uint8_t token_mask = view.token_mask[i];
    probe.anonymous = (token_mask & (1u << static_cast<int>(UserTokenType::Anonymous))) != 0;
    probe.credentials = (token_mask & (1u << static_cast<int>(UserTokenType::UserName))) != 0;
    probe.certificate = (token_mask & (1u << static_cast<int>(UserTokenType::Certificate))) != 0;
    probe.token = (token_mask & (1u << static_cast<int>(UserTokenType::IssuedToken))) != 0;
    AuthRow& row = auth_rows.try_emplace(probe.key(), probe).first->second;
    const bool sc_rejected =
        view.channel[i] == static_cast<std::uint8_t>(ChannelOutcome::cert_rejected) ||
        view.channel[i] == static_cast<std::uint8_t>(ChannelOutcome::failed);
    if (sc_rejected) {
      ++auth.channel_rejected;
      ++row.channel_rejected;
    } else {
      ++auth.channel_capable;
    }
    if (probe.anonymous) {
      ++auth.anonymous_offered;
      if (!sc_rejected) ++auth.anonymous_channel_capable;
      const bool none_mode =
          (mode_mask & (1u << static_cast<int>(MessageSecurityMode::None))) != 0;
      if (!none_mode) ++auth.anonymous_secure_only;
    }
    if (accessible) {
      ++auth.accessible;
      switch (classify_namespaces(nss)) {
        case SystemClass::production:
          ++auth.production;
          ++row.production;
          break;
        case SystemClass::test:
          ++auth.test;
          ++row.test;
          break;
        case SystemClass::unclassified:
          ++auth.unclassified;
          ++row.unclassified;
          break;
      }
    } else if (!sc_rejected) {
      ++auth.auth_rejected;
      ++row.auth_rejected;
    }

    // ----- Fig. 8: deficit breakdown ------------------------------------
    ++deficits.servers;
    auto tally = [&](const char* deficit) {
      deficits.by_manufacturer[deficit][cluster]++;
      deficits.by_as[deficit][view.asn[i]]++;
    };
    if (max == SecurityPolicy::None) {
      ++deficits.none_only;
      tally("None");
    }
    if (max != SecurityPolicy::None && policy_info(max).deprecated) {
      ++deficits.deprecated_only;
      tally("Deprecated Policies");
    }
    if (cert_too_weak) {
      ++deficits.weak_certificate;
      tally("Too Weak Certificate");
    }
    bool reused = false;
    for (const std::uint32_t id : ids) {
      if (sets.reused_fps.contains(cache.at(id).fp_hex)) reused = true;
    }
    if (reused) {
      ++deficits.cert_reuse;
      tally("Certificate Reuse");
    }
    if (anonymous_offered) {
      ++deficits.anonymous_access;
      tally("Anonymous Access");
    }
    if (host_deficient) ++deficits.deficient_total;
  }
};

void merge_figures(ChunkPartial& into, ChunkPartial&& from) {
  // Cross-protocol split (final week, servers only)
  merge_count_map(into.proto_servers, from.proto_servers);
  merge_count_map(into.proto_deficient, from.proto_deficient);
  merge_count_map(into.proto_anonymous, from.proto_anonymous);
  // Fig. 3
  into.modes.servers += from.modes.servers;
  merge_count_map(into.modes.mode_support, from.modes.mode_support);
  merge_count_map(into.modes.mode_least, from.modes.mode_least);
  merge_count_map(into.modes.mode_most, from.modes.mode_most);
  merge_count_map(into.modes.policy_support, from.modes.policy_support);
  merge_count_map(into.modes.policy_least, from.modes.policy_least);
  merge_count_map(into.modes.policy_most, from.modes.policy_most);
  into.modes.none_only += from.modes.none_only;
  into.modes.secure_mode_capable += from.modes.secure_mode_capable;
  into.modes.deprecated_supported += from.modes.deprecated_supported;
  into.modes.deprecated_max += from.modes.deprecated_max;
  into.modes.strong_enforcing += from.modes.strong_enforcing;
  into.modes.strong_capable += from.modes.strong_capable;
  // Fig. 4
  for (const auto& [policy, classes] : from.certs.class_counts) {
    merge_count_map(into.certs.class_counts[policy], classes);
  }
  merge_count_map(into.certs.announced_with_cert, from.certs.announced_with_cert);
  merge_count_map(into.certs.too_weak, from.certs.too_weak);
  merge_count_map(into.certs.too_strong, from.certs.too_strong);
  into.certs.weaker_than_max += from.certs.weaker_than_max;
  into.certs.hosts_with_cert += from.certs.hosts_with_cert;
  into.certs.ca_signed += from.certs.ca_signed;
  // Fig. 6 / Table 2
  for (auto& [key, row] : from.auth_rows) {
    const auto [it, inserted] = into.auth_rows.try_emplace(key, row);
    if (!inserted) {
      it->second.production += row.production;
      it->second.test += row.test;
      it->second.unclassified += row.unclassified;
      it->second.auth_rejected += row.auth_rejected;
      it->second.channel_rejected += row.channel_rejected;
    }
  }
  into.auth.servers += from.auth.servers;
  into.auth.channel_capable += from.auth.channel_capable;
  into.auth.channel_rejected += from.auth.channel_rejected;
  into.auth.anonymous_offered += from.auth.anonymous_offered;
  into.auth.anonymous_channel_capable += from.auth.anonymous_channel_capable;
  into.auth.anonymous_secure_only += from.auth.anonymous_secure_only;
  into.auth.accessible += from.auth.accessible;
  into.auth.auth_rejected += from.auth.auth_rejected;
  into.auth.production += from.auth.production;
  into.auth.test += from.auth.test;
  into.auth.unclassified += from.auth.unclassified;
  // Fig. 7 (record order == chunk order)
  auto append = [](std::vector<double>& into_vec, std::vector<double>& from_vec) {
    into_vec.insert(into_vec.end(), from_vec.begin(), from_vec.end());
  };
  append(into.access.read_fractions, from.access.read_fractions);
  append(into.access.write_fractions, from.access.write_fractions);
  append(into.access.exec_fractions, from.access.exec_fractions);
  // Fig. 8
  for (const auto& [deficit, labels] : from.deficits.by_manufacturer) {
    merge_count_map(into.deficits.by_manufacturer[deficit], labels);
  }
  for (const auto& [deficit, ases] : from.deficits.by_as) {
    merge_count_map(into.deficits.by_as[deficit], ases);
  }
  into.deficits.none_only += from.deficits.none_only;
  into.deficits.deprecated_only += from.deficits.deprecated_only;
  into.deficits.weak_certificate += from.deficits.weak_certificate;
  into.deficits.cert_reuse += from.deficits.cert_reuse;
  into.deficits.anonymous_access += from.deficits.anonymous_access;
  into.deficits.deficient_total += from.deficits.deficient_total;
  into.deficits.servers += from.deficits.servers;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

void ReaderRecordSource::visit_chunk(std::size_t chunk,
                                     const std::function<void(const HostScanRecord&)>& fn) const {
  // Each pool worker reuses one decode buffer across all the chunks it
  // processes instead of allocating (and churning) a fresh vector per call.
  static thread_local std::vector<HostScanRecord> records;
  reader_.read_chunk(chunk, records);
  for (const auto& record : records) fn(record);
}

SnapshotVectorSource::SnapshotVectorSource(const std::vector<ScanSnapshot>& snapshots,
                                           std::uint32_t chunk_records)
    : snapshots_(snapshots) {
  const std::size_t stride = std::max<std::uint32_t>(1, chunk_records);
  for (std::size_t week = 0; week < snapshots.size(); ++week) {
    const std::size_t hosts = snapshots[week].hosts.size();
    for (std::size_t first = 0; first < hosts; first += stride) {
      chunks_.push_back({week, first, std::min(stride, hosts - first)});
    }
  }
}

SnapshotMeta SnapshotVectorSource::week_meta(std::size_t week) const {
  const ScanSnapshot& snapshot = snapshots_[week];
  SnapshotMeta meta;
  meta.measurement_index = snapshot.measurement_index;
  meta.date_days = snapshot.date_days;
  meta.probes_sent = snapshot.probes_sent;
  meta.tcp_open_count = snapshot.tcp_open_count;
  meta.host_count = snapshot.hosts.size();
  return meta;
}

void SnapshotVectorSource::visit_chunk(
    std::size_t chunk, const std::function<void(const HostScanRecord&)>& fn) const {
  const Span& span = chunks_[chunk];
  const auto& hosts = snapshots_[span.week].hosts;
  for (std::size_t i = 0; i < span.count; ++i) fn(hosts[span.first + i]);
}

bool StudyAnalysis::figures_equal(const StudyAnalysis& other) const {
  return weeks == other.weeks && modes == other.modes && certificates == other.certificates &&
         reuse == other.reuse && shared_primes == other.shared_primes && auth == other.auth &&
         access_rights == other.access_rights && deficits == other.deficits &&
         longitudinal == other.longitudinal && scan_quality == other.scan_quality &&
         protocols == other.protocols;
}

StudyAnalysis analyze_source(const RecordSource& source, const AnalysisOptions& options) {
  const obs::WallTimer pass_timer(obs::Metric::analysis_pass_wall_us);
  StudyAnalysis analysis;
  const std::size_t weeks = source.week_count();
  for (std::size_t w = 0; w < weeks; ++w) analysis.weeks.push_back(source.week_meta(w));
  if (weeks == 0) return analysis;

  const std::size_t final_week = weeks - 1;
  const std::size_t chunk_count = source.chunk_count();
  std::vector<std::size_t> final_chunks;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    if (source.chunk_week(c) == final_week) final_chunks.push_back(c);
  }

  ThreadPool pool(options.threads);

  // Columnar fast path: when the source is a little-endian v6 file, the
  // passes below scan mmapped columns and share one per-dictionary-entry
  // certificate cache instead of decoding full records chunk by chunk.
  const SnapshotReader* col = source.columnar_reader();
  std::optional<DictCertCache> dict_cache;
  if (col != nullptr) dict_cache.emplace(*col, options.shared_primes, pool);

  // ---- pass 1: certificate census of the final measurement --------------
  // Early prefix merge: completed chunk partials are folded into the
  // census as workers advance (in chunk order, so the result is identical
  // to the old merge-at-the-end pass), and each merged partial is freed
  // immediately — the peak is the in-flight chunks, not every chunk.
  std::vector<CensusPartial> census_partials(final_chunks.size());
  CensusPartial census;
  pool.parallel_for_merged(
      final_chunks.size(),
      [&](std::size_t i) {
        if (col != nullptr) {
          visit_columnar(*col, final_chunks[i], [&](const ColumnView& view) {
            std::vector<std::uint32_t> ids;
            for (std::size_t r = 0; r < view.records; ++r) {
              census_partials[i].absorb_columnar(view, r, *dict_cache, ids,
                                                 options.shared_primes);
            }
          });
        } else {
          source.visit_chunk(final_chunks[i], [&](const HostScanRecord& host) {
            census_partials[i].absorb(host, options.shared_primes);
          });
        }
      },
      [&](std::size_t i) {
        census.merge(std::move(census_partials[i]));
        census_partials[i] = CensusPartial{};
      });
  census_partials.clear();

  FinalWeekSets sets;
  for (const auto& [fp, cluster] : census.clusters) {
    if (cluster.hosts >= 3) {
      sets.reused_fps.insert(fp);
      if (cluster.org == "Bachmann electronic") sets.big_cluster_fps.insert(fp);
    }
  }

  // ---- pass 2: figures + weekly tallies + host history ------------------
  // The ordered merge runs *inside* the parallel pass: as soon as the
  // contiguous prefix of chunks has been aggregated, those partials fold
  // into the running totals (in chunk-index order — bit-identical to the
  // old merge-after-everything loop) and die. On a 10M-host stream the
  // per-host history summaries of every chunk used to coexist until the
  // end; now at most the unmerged suffix does.
  ChunkPartial total;
  std::vector<WeeklyObservation> week_obs(weeks);
  std::vector<ScanQualityWeek> quality_weeks(weeks);
  std::vector<std::map<ProtocolId, std::uint64_t>> proto_week_hosts(weeks);
  struct HostHistory {
    std::vector<int> weeks;
    std::vector<std::set<std::string>> cert_sets;
    std::vector<std::map<std::string, HashAlgorithm>> hashes;
    std::vector<std::string> software;
  };
  std::map<std::pair<Ipv4, std::uint16_t>, HostHistory> history;
  std::vector<ChunkPartial> partials(chunk_count);
  pool.parallel_for_merged(
      chunk_count,
      [&](std::size_t c) {
        const bool is_final = source.chunk_week(c) == final_week;
        if (col != nullptr) {
          visit_columnar(*col, c, [&](const ColumnView& view) {
            std::vector<std::uint32_t> ids;
            for (std::size_t r = 0; r < view.records; ++r) {
              partials[c].absorb_columnar(view, r, *dict_cache, ids, is_final, sets);
            }
          });
        } else {
          source.visit_chunk(c, [&](const HostScanRecord& host) {
            partials[c].absorb(host, is_final, sets);
          });
        }
      },
      [&](std::size_t c) {
        ChunkPartial& partial = partials[c];
        const std::size_t week = source.chunk_week(c);
        WeeklyObservation& obs = week_obs[week];
        obs.servers += partial.servers;
        obs.discovery += partial.discovery;
        obs.via_reference += partial.via_reference;
        obs.non_default_port += partial.non_default_port;
        obs.deficient += partial.deficient;
        obs.reuse_devices += partial.reuse_devices;
        ScanQualityWeek& q = quality_weeks[week];
        q.hosts += partial.q_hosts;
        q.complete += partial.q_complete;
        q.truncated += partial.q_truncated;
        q.degraded += partial.q_degraded;
        q.unreachable += partial.q_unreachable;
        q.faulted += partial.q_faulted;
        q.recovered += partial.q_recovered;
        q.retries += partial.q_retries;
        q.fault_events += partial.q_fault_events;
        merge_count_map(proto_week_hosts[week], partial.proto_hosts);
        merge_count_map(obs.by_manufacturer, partial.by_manufacturer);
        for (auto& [fp, info] : partial.corpus) total.corpus.try_emplace(fp, info);
        const int measurement_index = analysis.weeks[week].measurement_index;
        for (auto& host_obs : partial.history) {
          HostHistory& h = history[{host_obs.ip, host_obs.port}];
          h.weeks.push_back(measurement_index);
          h.cert_sets.push_back(std::move(host_obs.fps));
          h.hashes.push_back(std::move(host_obs.hashes));
          h.software.push_back(std::move(host_obs.software));
        }
        merge_figures(total, std::move(partial));
        partial = ChunkPartial{};
      });
  partials.clear();

  // ---- finalize: Fig. 5 reuse clusters ----------------------------------
  analysis.reuse.distinct_certificates = static_cast<int>(census.clusters.size());
  for (auto& [fp, cluster] : census.clusters) {
    if (cluster.hosts >= 3) {
      ++analysis.reuse.clusters_ge3;
      analysis.reuse.hosts_in_ge3 += cluster.hosts;
    }
    if (cluster.hosts >= 2) {
      analysis.reuse.clusters.push_back(
          {fp, cluster.hosts, std::move(cluster.ases), std::move(cluster.org)});
    }
  }
  std::sort(analysis.reuse.clusters.begin(), analysis.reuse.clusters.end(),
            [](const ReuseCluster& a, const ReuseCluster& b) { return a.host_count > b.host_count; });

  // ---- finalize: §5.3 shared primes -------------------------------------
  if (options.shared_primes) {
    std::vector<Bignum> moduli;
    moduli.reserve(census.moduli.size());
    for (auto& [hex, n] : census.moduli) moduli.push_back(std::move(n));
    analysis.shared_primes.distinct_moduli = moduli.size();
    const auto started = std::chrono::steady_clock::now();
    analysis.shared_primes.moduli_with_shared_prime =
        batch_gcd(moduli, options.shared_prime_threads).affected();
    analysis.shared_prime_seconds = seconds_since(started);
  }

  // ---- finalize: final-measurement figures ------------------------------
  analysis.modes = std::move(total.modes);
  analysis.certificates = std::move(total.certs);
  analysis.auth = std::move(total.auth);
  for (auto& [key, row] : total.auth_rows) analysis.auth.rows.push_back(row);
  analysis.access_rights = std::move(total.access);
  analysis.deficits = std::move(total.deficits);

  // ---- finalize: scan quality -------------------------------------------
  ScanQualityStats& quality = analysis.scan_quality;
  for (std::size_t w = 0; w < weeks; ++w) {
    ScanQualityWeek& q = quality_weeks[w];
    q.measurement_index = analysis.weeks[w].measurement_index;
    quality.hosts += q.hosts;
    quality.complete += q.complete;
    quality.truncated += q.truncated;
    quality.degraded += q.degraded;
    quality.unreachable += q.unreachable;
    quality.faulted += q.faulted;
    quality.recovered += q.recovered;
    quality.retries += q.retries;
    quality.fault_events += q.fault_events;
    quality.weeks.push_back(std::move(q));
  }
  if (quality.faulted > 0) {
    quality.recovery_rate =
        static_cast<double>(quality.recovered) / static_cast<double>(quality.faulted);
  }

  // ---- finalize: cross-protocol population split ------------------------
  for (std::size_t w = 0; w < weeks; ++w) {
    ProtocolWeek pw;
    pw.measurement_index = analysis.weeks[w].measurement_index;
    pw.hosts = std::move(proto_week_hosts[w]);
    analysis.protocols.weeks.push_back(std::move(pw));
  }
  analysis.protocols.servers = std::move(total.proto_servers);
  analysis.protocols.deficient = std::move(total.proto_deficient);
  analysis.protocols.anonymous = std::move(total.proto_anonymous);

  // ---- finalize: Fig. 2 / §5.5 longitudinal -----------------------------
  LongitudinalStats& lng = analysis.longitudinal;
  double sum = 0, sum_sq = 0;
  lng.deficiency_min = 100;
  for (std::size_t w = 0; w < weeks; ++w) {
    WeeklyObservation& obs = week_obs[w];
    obs.measurement_index = analysis.weeks[w].measurement_index;
    obs.date_days = analysis.weeks[w].date_days;
    obs.deficient_pct =
        obs.servers == 0 ? 0 : 100.0 * obs.deficient / static_cast<double>(obs.servers);
    sum += obs.deficient_pct;
    sum_sq += obs.deficient_pct * obs.deficient_pct;
    lng.deficiency_min = std::min(lng.deficiency_min, obs.deficient_pct);
    lng.deficiency_max = std::max(lng.deficiency_max, obs.deficient_pct);
    lng.weeks.push_back(std::move(obs));
  }
  {
    const double n = static_cast<double>(weeks);
    lng.deficiency_avg = sum / n;
    lng.deficiency_std =
        std::sqrt(std::max(0.0, sum_sq / n - lng.deficiency_avg * lng.deficiency_avg));
  }
  lng.total_distinct_certificates = total.corpus.size();
  const std::int64_t y2017 = days_from_civil({2017, 1, 1});
  const std::int64_t y2019 = days_from_civil({2019, 1, 1});
  for (const auto& [fp, info] : total.corpus) {
    if (info.first != HashAlgorithm::sha1) continue;
    if (info.second >= y2017) ++lng.sha1_after_2017;
    if (info.second >= y2019) ++lng.sha1_after_2019;
  }
  for (const auto& [endpoint, h] : history) {
    for (std::size_t i = 1; i < h.weeks.size(); ++i) {
      if (h.cert_sets[i] == h.cert_sets[i - 1] || h.cert_sets[i].empty() ||
          h.cert_sets[i - 1].empty()) {
        continue;
      }
      RenewalEvent event;
      event.ip = endpoint.first;
      event.week = h.weeks[i];
      event.software_update = !h.software[i].empty() && !h.software[i - 1].empty() &&
                              h.software[i] != h.software[i - 1];
      bool removed_sha1 = false, added_sha1 = false, removed_sha256 = false, added_sha256 = false;
      for (const auto& fp : h.cert_sets[i - 1]) {
        if (h.cert_sets[i].contains(fp)) continue;
        const auto it = h.hashes[i - 1].find(fp);
        if (it == h.hashes[i - 1].end()) continue;
        removed_sha1 |= it->second == HashAlgorithm::sha1;
        removed_sha256 |= it->second == HashAlgorithm::sha256;
      }
      for (const auto& fp : h.cert_sets[i]) {
        if (h.cert_sets[i - 1].contains(fp)) continue;
        const auto it = h.hashes[i].find(fp);
        if (it == h.hashes[i].end()) continue;
        added_sha1 |= it->second == HashAlgorithm::sha1;
        added_sha256 |= it->second == HashAlgorithm::sha256;
      }
      event.sha1_replaced = removed_sha1 && added_sha256 && !added_sha1;
      event.downgraded_to_sha1 = removed_sha256 && added_sha1 && !added_sha256;
      lng.renewals_with_software_update += event.software_update;
      lng.sha1_upgrades += event.sha1_replaced;
      lng.downgrades += event.downgraded_to_sha1;
      lng.renewals.push_back(event);
    }
  }
  return analysis;
}

StudyAnalysis analyze_reader(const SnapshotReader& reader, const AnalysisOptions& options) {
  return analyze_source(ReaderRecordSource(reader), options);
}

StudyAnalysis analyze_file(const std::string& path, std::uint64_t seed,
                           const AnalysisOptions& options) {
  const SnapshotReader reader(path, seed);
  return analyze_reader(reader, options);
}

StudyAnalysis analyze_snapshots(const std::vector<ScanSnapshot>& snapshots,
                                const AnalysisOptions& options) {
  return analyze_source(SnapshotVectorSource(snapshots, options.chunk_records), options);
}

}  // namespace opcua_study
