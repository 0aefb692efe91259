// The pairwise campaign diff, re-expressed as the N=2 specialization of
// the series matcher: collect postures for both campaigns, run the
// two-pass matcher, tally the transition report. All the determinism
// reasoning lives with the shared core in src/series/matcher.cpp.
#include "diff/diff.hpp"

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/matcher.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

std::uint64_t TransitionMatrix::total() const {
  std::uint64_t sum = 0;
  for (const auto& row : counts) {
    for (const std::uint64_t c : row) sum += c;
  }
  return sum;
}

std::uint64_t TransitionMatrix::upgraded() const {
  std::uint64_t sum = 0;
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = from + 1; to < 3; ++to) sum += counts[from][to];
  }
  return sum;
}

std::uint64_t TransitionMatrix::downgraded() const {
  std::uint64_t sum = 0;
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < from; ++to) sum += counts[from][to];
  }
  return sum;
}

double CampaignDiff::mean_match_confidence() const {
  return opcua_study::mean_match_confidence(matched_by_address, cert_matches_corroborated,
                                            cert_matches_bare);
}

bool CampaignDiff::counts_equal(const CampaignDiff& other) const {
  auto strip = [](CampaignDiff d) {
    d.base_week.campaign_label.clear();
    d.base_week.campaign_epoch_days = 0;
    d.followup_week.campaign_label.clear();
    d.followup_week.campaign_epoch_days = 0;
    return d;
  };
  return strip(*this) == strip(other);
}

CampaignDiff diff_campaigns(const SnapshotReader& base, const SnapshotReader& followup,
                            const DiffOptions& options) {
  const obs::WallTimer pass_timer(obs::Metric::diff_pass_wall_us);
  if (base.snapshots().empty() || followup.snapshots().empty()) {
    throw SnapshotError("campaign diff needs >= 1 measurement per campaign");
  }
  const SnapshotMeta base_week = base.snapshots().back();
  const SnapshotMeta followup_week = followup.snapshots().back();
  if (options.validate_pairing) validate_campaign_chain({base_week, followup_week});

  ThreadPool pool(options.threads);
  const std::vector<HostPosture> a = collect_postures(base, pool);
  const std::vector<HostPosture> b = collect_postures(followup, pool);
  CampaignDiff diff = tally_step(a, b, match_postures(a, b));
  diff.base_week = base_week;
  diff.followup_week = followup_week;
  return diff;
}

CampaignDiff diff_files(const std::string& base_path, std::uint64_t base_seed,
                        const std::string& followup_path, std::uint64_t followup_seed,
                        const DiffOptions& options) {
  const SnapshotReader base(base_path, base_seed);
  const SnapshotReader followup(followup_path, followup_seed);
  return diff_campaigns(base, followup, options);
}

CampaignDiff diff_snapshots(const std::vector<ScanSnapshot>& base,
                            const std::vector<ScanSnapshot>& followup,
                            const DiffOptions& options) {
  const SnapshotReader base_reader(std::make_shared<const Bytes>(encode_snapshots(base)), 0);
  const SnapshotReader followup_reader(std::make_shared<const Bytes>(encode_snapshots(followup)),
                                       0);
  return diff_campaigns(base_reader, followup_reader, options);
}

void append_campaign_diff_fields(JsonWriter& json, const CampaignDiff& diff) {
  auto campaign = [&](const char* key, const SnapshotMeta& week, std::uint64_t hosts) {
    json.key(key)
        .begin_object()
        .field("label", week.campaign_label)
        .field("epoch_days", static_cast<std::uint64_t>(week.campaign_epoch_days))
        .field("date_days", static_cast<std::uint64_t>(week.date_days))
        .field("hosts", hosts)
        .end_object();
  };
  auto matrix = [&](const char* key, const TransitionMatrix& m, const char* const buckets[3]) {
    json.key(key).begin_object().key("buckets").begin_array();
    for (std::size_t i = 0; i < 3; ++i) json.value(buckets[i]);
    json.end_array().key("counts").begin_array();
    for (std::size_t from = 0; from < 3; ++from) {
      json.begin_array();
      for (std::size_t to = 0; to < 3; ++to) json.value(m.counts[from][to]);
      json.end_array();
    }
    json.end_array()
        .field("upgraded", m.upgraded())
        .field("downgraded", m.downgraded())
        .end_object();
  };
  campaign("base", diff.base_week, diff.base_hosts);
  campaign("followup", diff.followup_week, diff.followup_hosts);
  json.key("population")
      .begin_object()
      .field("matched_by_address", diff.matched_by_address)
      .field("matched_by_certificate", diff.matched_by_certificate)
      .field("retired", diff.retired)
      .field("arrived", diff.arrived)
      .end_object();
  // Per-protocol population split; single-protocol pairs carry one row.
  json.key("protocols").begin_object();
  for (const auto& [protocol, row] : diff.by_protocol) {
    json.key(protocol_name(protocol))
        .begin_object()
        .field("base_hosts", row.base_hosts)
        .field("followup_hosts", row.followup_hosts)
        .field("matched", row.matched)
        .field("base_deficient", row.base_deficient)
        .field("followup_deficient", row.followup_deficient)
        .end_object();
  }
  json.end_object();
  // Matcher evidence grading: link counts per evidence class, the fixed
  // per-link confidence each class carries, and the confidence-weighted
  // mean — the audit trail for re-identification quality.
  json.key("match_evidence")
      .begin_object()
      .field("address", diff.matched_by_address)
      .field("certificate_corroborated", diff.cert_matches_corroborated)
      .field("certificate_bare", diff.cert_matches_bare)
      .key("link_confidence")
      .begin_object()
      .field("address", match_confidence(MatchEvidence::address))
      .field("certificate_corroborated", match_confidence(MatchEvidence::cert_corroborated))
      .field("certificate_bare", match_confidence(MatchEvidence::cert_bare))
      .end_object()
      .field("mean_confidence", diff.mean_match_confidence())
      .end_object();
  matrix("mode_transitions", diff.mode_transitions, kModeBuckets);
  matrix("policy_transitions", diff.policy_transitions, kPolicyBuckets);
  json.key("deprecated")
      .begin_object()
      .field("retained", diff.deprecated_retained)
      .field("dropped", diff.deprecated_dropped)
      .field("adopted", diff.deprecated_adopted)
      .end_object();
  json.key("anonymous")
      .begin_object()
      .field("retained", diff.anonymous_retained)
      .field("dropped", diff.anonymous_dropped)
      .field("adopted", diff.anonymous_adopted)
      .end_object();
  json.key("certificates")
      .begin_object()
      .field("verbatim", diff.certs_verbatim)
      .field("renewed", diff.certs_renewed)
      .field("rotated", diff.certs_rotated)
      .field("gained", diff.certs_gained)
      .field("lost", diff.certs_lost)
      .field("absent", diff.certs_absent)
      .end_object();
  json.key("deficiency")
      .begin_object()
      .field("still_deficient", diff.still_deficient)
      .field("remediated", diff.remediated)
      .field("regressed", diff.regressed)
      .field("never_deficient", diff.never_deficient)
      .end_object();
}

std::string campaign_diff_json(const CampaignDiff& diff) {
  JsonWriter json;
  json.begin_object();
  append_campaign_diff_fields(json, diff);
  json.end_object();
  return json.str();
}

}  // namespace opcua_study
