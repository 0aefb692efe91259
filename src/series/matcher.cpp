// The shared posture/match/tally core. Determinism rests on two
// invariants mirrored from the Aggregator: posture partials are produced
// by workers in any order but appended in chunk-index order (so the
// posture vectors are record-ordered), and every matching pass iterates
// those vectors front to back — ties and duplicates therefore resolve
// identically for any thread count.
#include "series/matcher.hpp"

#include <unordered_map>

#include "util/rng.hpp"

namespace opcua_study {

namespace {

HostPosture absorb(const HostScanRecord& host) {
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
  switch (strongest_mode) {
    case MessageSecurityMode::Sign: p.mode_bucket = 1; break;
    case MessageSecurityMode::SignAndEncrypt: p.mode_bucket = 2; break;
    default: p.mode_bucket = 0; break;  // None or no endpoints
  }

  const SecurityPolicy max = strongest_policy(host);
  const auto& info = policy_info(max);
  p.policy_bucket = info.secure ? 2 : info.deprecated ? 1 : 0;
  for (const auto policy : host.advertised_policies()) {
    p.supports_deprecated |= policy_info(policy).deprecated;
  }
  p.anonymous = host.anonymous_offered;
  // The paper's §5.2 deficiency definition — the assess/ reference helper,
  // so the diff can never drift from the per-campaign analyses.
  p.deficient = is_deficient(host);

  p.fps = host.distinct_cert_fingerprints();
  std::sort(p.fps.begin(), p.fps.end());
  p.fps.erase(std::unique(p.fps.begin(), p.fps.end()), p.fps.end());
  return p;
}

// ------------------------------------------- v6 columnar fast path ----

/// Per-dictionary-entry facts the posture absorb needs — computed once per
/// distinct certificate in the file instead of once per host occurrence.
struct DictPostureEntry {
  std::uint64_t fp64 = 0;
  bool parsed = false;
  HashAlgorithm hash = HashAlgorithm::sha1;
  std::size_t key_bits = 0;
};

/// Built in dictionary blocks on `pool`, each entry into its own slot by
/// id, so the result is identical for any thread count.
std::vector<DictPostureEntry> build_posture_dict(const SnapshotReader& reader,
                                                 const ThreadPool& pool) {
  std::vector<DictPostureEntry> dict(reader.cert_count());
  pool.parallel_for_blocks(
      dict.size(), SnapshotReader::kDictBlock, [&](std::size_t begin, std::size_t end) {
        for (std::size_t id = begin; id < end; ++id) {
          const auto cert_id = static_cast<std::uint32_t>(id);
          DictPostureEntry& entry = dict[id];
          entry.fp64 = reader.cert_fp64(cert_id);
          try {
            const Certificate cert = x509_parse(reader.cert_der(cert_id));
            entry.parsed = true;
            entry.hash = cert.signature_hash;
            entry.key_bits = cert.key_bits();
          } catch (const DecodeError&) {
          }
        }
      });
  return dict;
}

/// Columnar mirror of absorb(): every posture field is either a fixed
/// column, a mask derivation (policy table rank order equals enum order,
/// so the highest set bit is the strongest policy), or a dictionary
/// lookup keyed by the record's cert id head list. The var record is only
/// touched for that head list — strings, endpoints and nodes stay encoded.
HostPosture absorb_columnar(const ColumnView& view, std::size_t i,
                            const std::vector<DictPostureEntry>& dict,
                            std::vector<std::uint32_t>& ids) {
  HostPosture p;
  p.ip = view.ip[i];
  p.port = view.port[i];
  p.asn = view.asn[i];
  p.uri_hash = view.uri_hash[i];
  if (view.flags[i] & snapshot_flags::kProtocol) {
    // The protocol tail is the last byte of the var slice (after the
    // scan-quality tail, when both are present) — no cursor walk needed.
    const std::uint32_t end = view.var_offsets[i + 1];
    if (end == view.var_offsets[i]) {
      throw DecodeError("var record too short for its protocol tail");
    }
    const std::uint8_t code = view.var_blob[end - 1];
    if (code == 0 || code >= kProtocolCount) {
      throw DecodeError("snapshot record: invalid protocol value " + std::to_string(code));
    }
    p.protocol = static_cast<ProtocolId>(code);
  }

  const std::uint8_t mode_mask = view.mode_mask[i];
  p.mode_bucket = (mode_mask & (1u << static_cast<int>(MessageSecurityMode::SignAndEncrypt)))  ? 2
                  : (mode_mask & (1u << static_cast<int>(MessageSecurityMode::Sign))) ? 1
                                                                                      : 0;

  const std::uint8_t policy_mask = view.policy_mask[i];
  SecurityPolicy max = SecurityPolicy::None;
  bool supports_deprecated = false;
  for (int code = 0; code <= 5; ++code) {
    if (!(policy_mask & (1u << code))) continue;
    const auto policy = static_cast<SecurityPolicy>(code);
    max = policy;
    supports_deprecated |= policy_info(policy).deprecated;
  }
  const auto& info = policy_info(max);
  p.policy_bucket = info.secure ? 2 : info.deprecated ? 1 : 0;
  p.supports_deprecated = supports_deprecated;
  p.anonymous = (view.flags[i] & snapshot_flags::kAnonymousOffered) != 0;

  ids.clear();
  VarRecordCursor cursor(view.var_record(i));
  cursor.cert_ids(ids);
  const DictPostureEntry* primary = nullptr;
  for (const std::uint32_t id : ids) {
    if (id >= dict.size()) {
      throw DecodeError("certificate id " + std::to_string(id) + " out of dictionary range (" +
                        std::to_string(dict.size()) + " entries)");
    }
    const DictPostureEntry& entry = dict[id];
    p.fps.push_back(entry.fp64);
    if (primary == nullptr && entry.parsed) primary = &entry;
  }
  const bool cert_too_weak =
      primary != nullptr && max != SecurityPolicy::None &&
      classify_certificate(max, primary->hash, primary->key_bits) == CertConformance::too_weak;
  p.deficient = max == SecurityPolicy::None || info.deprecated || cert_too_weak || p.anonymous;

  std::sort(p.fps.begin(), p.fps.end());
  p.fps.erase(std::unique(p.fps.begin(), p.fps.end()), p.fps.end());
  return p;
}

std::uint64_t address_key(const HostPosture& p) {
  // Protocol in the high bits: the same (ip, port) answering a different
  // protocol is a different endpoint identity.
  return static_cast<std::uint64_t>(p.protocol) << 48 |
         static_cast<std::uint64_t>(p.ip) << 16 | p.port;
}

/// Certificate-match corroboration: a second identity signal agreeing
/// across the link. Zero ASNs / empty URIs never corroborate — absence of
/// information on both sides is not agreement.
bool corroborated(const HostPosture& a, const HostPosture& b) {
  if (a.asn != 0 && a.asn == b.asn) return true;
  if (a.uri_hash != 0 && a.uri_hash == b.uri_hash) return true;
  return false;
}

}  // namespace

double match_confidence(MatchEvidence evidence) {
  switch (evidence) {
    case MatchEvidence::address: return 1.0;
    case MatchEvidence::cert_corroborated: return 0.9;
    case MatchEvidence::cert_bare: return 0.6;
    case MatchEvidence::none: break;
  }
  return 0.0;
}

double mean_match_confidence(std::uint64_t by_address, std::uint64_t by_cert_corroborated,
                             std::uint64_t by_cert_bare) {
  const std::uint64_t links = by_address + by_cert_corroborated + by_cert_bare;
  if (links == 0) return 0;
  const double weighted =
      static_cast<double>(by_address) * match_confidence(MatchEvidence::address) +
      static_cast<double>(by_cert_corroborated) *
          match_confidence(MatchEvidence::cert_corroborated) +
      static_cast<double>(by_cert_bare) * match_confidence(MatchEvidence::cert_bare);
  return weighted / static_cast<double>(links);
}

std::vector<HostPosture> collect_postures(const RecordSource& source, ThreadPool& pool) {
  const std::size_t final_week = source.week_count() - 1;
  std::vector<std::size_t> final_chunks;
  for (std::size_t c = 0; c < source.chunk_count(); ++c) {
    if (source.chunk_week(c) == final_week) final_chunks.push_back(c);
  }
  std::vector<std::vector<HostPosture>> partials(final_chunks.size());
  std::vector<HostPosture> postures;
  postures.reserve(source.week_meta(final_week).host_count);
  const SnapshotReader* col = source.columnar_reader();
  std::vector<DictPostureEntry> dict;
  if (col != nullptr) dict = build_posture_dict(*col, pool);
  // Early prefix merge: completed chunk partials are appended (in chunk
  // order) and freed while later chunks are still being absorbed.
  pool.parallel_for_merged(
      final_chunks.size(),
      [&](std::size_t i) {
        if (col != nullptr) {
          const std::size_t chunk = final_chunks[i];
          const ColumnView view = col->column_view(chunk);
          try {
            std::vector<std::uint32_t> ids;
            partials[i].reserve(view.records);
            for (std::size_t r = 0; r < view.records; ++r) {
              partials[i].push_back(absorb_columnar(view, r, dict, ids));
            }
          } catch (const DecodeError& e) {
            throw SnapshotError("corrupt chunk " + std::to_string(chunk) + " (v6, chunk at byte " +
                                std::to_string(col->chunks()[chunk].file_offset) +
                                "): " + e.what());
          }
          return;
        }
        source.visit_chunk(final_chunks[i],
                           [&](const HostScanRecord& host) { partials[i].push_back(absorb(host)); });
      },
      [&](std::size_t i) {
        for (auto& p : partials[i]) postures.push_back(std::move(p));
        partials[i] = {};
      });
  return postures;
}

MatchResult match_postures(const std::vector<HostPosture>& base,
                           const std::vector<HostPosture>& followup) {
  MatchResult match;
  match.base_of.assign(followup.size(), MatchResult::kUnmatched);
  match.evidence.assign(followup.size(), MatchEvidence::none);
  match.base_matched.assign(base.size(), false);

  // ---- pass 1: match by address -----------------------------------------
  std::unordered_map<std::uint64_t, std::uint32_t> base_by_address;
  base_by_address.reserve(base.size());
  for (std::uint32_t i = 0; i < base.size(); ++i) {
    base_by_address.emplace(address_key(base[i]), i);  // first record wins
  }
  for (std::uint32_t bi = 0; bi < followup.size(); ++bi) {
    const auto it = base_by_address.find(address_key(followup[bi]));
    if (it == base_by_address.end() || match.base_matched[it->second]) continue;
    match.base_of[bi] = it->second;
    match.evidence[bi] = MatchEvidence::address;
    match.base_matched[it->second] = true;
  }

  // ---- pass 2: re-identify churned hosts by certificate fingerprint ----
  // A fingerprint is a usable identity only when it points at exactly one
  // unmatched host on each side; reused certificates identify nobody.
  struct FpSlot {
    std::uint32_t count = 0;
    std::uint32_t index = 0;
  };
  std::unordered_map<std::uint64_t, FpSlot> base_fps;
  for (std::uint32_t ai = 0; ai < base.size(); ++ai) {
    if (match.base_matched[ai]) continue;
    for (const std::uint64_t fp : base[ai].fps) {
      FpSlot& slot = base_fps[fp];
      ++slot.count;
      slot.index = ai;
    }
  }
  std::unordered_map<std::uint64_t, std::uint32_t> followup_fp_count;
  for (std::uint32_t bi = 0; bi < followup.size(); ++bi) {
    if (match.base_of[bi] != MatchResult::kUnmatched) continue;
    for (const std::uint64_t fp : followup[bi].fps) ++followup_fp_count[fp];
  }
  for (std::uint32_t bi = 0; bi < followup.size(); ++bi) {
    if (match.base_of[bi] != MatchResult::kUnmatched) continue;
    for (const std::uint64_t fp : followup[bi].fps) {
      const auto it = base_fps.find(fp);
      if (it == base_fps.end() || it->second.count != 1) continue;
      if (followup_fp_count[fp] != 1 || match.base_matched[it->second.index]) continue;
      // One device serving two protocols reuses its certificate across
      // them; that never links an OPC UA identity to an MQTT one.
      if (base[it->second.index].protocol != followup[bi].protocol) continue;
      match.base_of[bi] = it->second.index;
      match.evidence[bi] = corroborated(base[it->second.index], followup[bi])
                               ? MatchEvidence::cert_corroborated
                               : MatchEvidence::cert_bare;
      match.base_matched[it->second.index] = true;
      break;
    }
  }
  return match;
}

CampaignDiff tally_step(const std::vector<HostPosture>& base,
                        const std::vector<HostPosture>& followup, const MatchResult& match) {
  CampaignDiff diff;
  diff.base_hosts = base.size();
  diff.followup_hosts = followup.size();

  for (const HostPosture& p : base) {
    ProtocolDiffRow& row = diff.by_protocol[p.protocol];
    ++row.base_hosts;
    row.base_deficient += p.deficient;
  }

  for (std::uint32_t bi = 0; bi < followup.size(); ++bi) {
    ProtocolDiffRow& proto_row = diff.by_protocol[followup[bi].protocol];
    ++proto_row.followup_hosts;
    proto_row.followup_deficient += followup[bi].deficient;
    if (match.base_of[bi] == MatchResult::kUnmatched) {
      ++diff.arrived;
      continue;
    }
    ++proto_row.matched;
    const HostPosture& from = base[match.base_of[bi]];
    const HostPosture& to = followup[bi];
    switch (match.evidence[bi]) {
      case MatchEvidence::address: ++diff.matched_by_address; break;
      case MatchEvidence::cert_corroborated:
        ++diff.matched_by_certificate;
        ++diff.cert_matches_corroborated;
        break;
      case MatchEvidence::cert_bare:
        ++diff.matched_by_certificate;
        ++diff.cert_matches_bare;
        break;
      case MatchEvidence::none: break;  // unreachable: handled above
    }
    ++diff.mode_transitions.counts[from.mode_bucket][to.mode_bucket];
    ++diff.policy_transitions.counts[from.policy_bucket][to.policy_bucket];

    if (from.supports_deprecated && to.supports_deprecated) ++diff.deprecated_retained;
    if (from.supports_deprecated && !to.supports_deprecated) ++diff.deprecated_dropped;
    if (!from.supports_deprecated && to.supports_deprecated) ++diff.deprecated_adopted;
    if (from.anonymous && to.anonymous) ++diff.anonymous_retained;
    if (from.anonymous && !to.anonymous) ++diff.anonymous_dropped;
    if (!from.anonymous && to.anonymous) ++diff.anonymous_adopted;

    if (from.fps.empty() && to.fps.empty()) {
      ++diff.certs_absent;
    } else if (from.fps == to.fps) {
      ++diff.certs_verbatim;
    } else if (from.fps.empty()) {
      ++diff.certs_gained;
    } else if (to.fps.empty()) {
      ++diff.certs_lost;
    } else {
      bool overlap = false;
      for (const std::uint64_t fp : to.fps) {
        overlap |= std::binary_search(from.fps.begin(), from.fps.end(), fp);
      }
      if (overlap) {
        ++diff.certs_rotated;
      } else {
        ++diff.certs_renewed;
      }
    }

    if (from.deficient && to.deficient) ++diff.still_deficient;
    if (from.deficient && !to.deficient) ++diff.remediated;
    if (!from.deficient && to.deficient) ++diff.regressed;
    if (!from.deficient && !to.deficient) ++diff.never_deficient;
  }
  for (std::uint32_t ai = 0; ai < base.size(); ++ai) diff.retired += !match.base_matched[ai];
  return diff;
}

}  // namespace opcua_study
