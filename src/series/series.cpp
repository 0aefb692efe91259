// CampaignSet plumbing and the N-way series analysis.
//
// The analysis engine is SeriesBuilder: it holds at most two posture
// vectors (the adjacent pair being matched) plus one Timeline per live
// host. Timelines advance sequentially over record-ordered posture
// vectors, so every derived statistic inherits the matcher's
// determinism: identical for any thread count, for streamed vs.
// in-memory members, and for sketch-fed vs. record-walked postures.
// analyze_series is the batch driver — open each member, produce its
// postures (sketch sidecar when present and valid, posture pass
// otherwise), feed the builder; the study service keeps a builder
// resident and appends to it instead.
#include "series/series.hpp"

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "series/matcher.hpp"
#include "series/sketch.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {

// ------------------------------------------------------------ CampaignSet

void CampaignSet::add_file(std::string path, std::uint64_t seed) {
  CampaignMember member;
  member.path = std::move(path);
  member.seed = seed;
  members_.push_back(std::move(member));
}

void CampaignSet::add_snapshots(const std::vector<ScanSnapshot>& snapshots, std::string label,
                                std::int64_t epoch_days) {
  CampaignMember member;
  member.image = std::make_shared<const Bytes>(encode_snapshots(snapshots, member.seed));
  member.label = std::move(label);
  member.epoch_days = epoch_days;
  members_.push_back(std::move(member));
}

CampaignSet::OpenMember CampaignSet::open(std::size_t index) const {
  const CampaignMember& member = members_.at(index);
  OpenMember open;
  if (member.file_backed()) {
    open.reader_ = std::make_unique<SnapshotReader>(member.path, member.seed);
  } else {
    open.reader_ = std::make_unique<SnapshotReader>(member.image, member.seed);
  }
  if (open.reader_->snapshots().empty()) {
    throw SnapshotError("campaign series: member " + std::to_string(index) +
                        " holds no measurement");
  }
  open.final_meta_ = open.reader_->snapshots().back();
  if (!campaign_declared(open.final_meta_)) {
    open.final_meta_.campaign_label = member.label;
    open.final_meta_.campaign_epoch_days = member.epoch_days;
  }
  return open;
}

std::vector<SnapshotMeta> CampaignSet::final_metas() const {
  std::vector<SnapshotMeta> metas;
  metas.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) metas.push_back(open(i).final_meta());
  return metas;
}

void CampaignSet::validate() const { validate_campaign_chain(final_metas()); }

// ---------------------------------------------------------- SeriesBuilder

namespace {

std::uint64_t count_deficient(const std::vector<HostPosture>& postures) {
  std::uint64_t deficient = 0;
  for (const HostPosture& p : postures) deficient += p.deficient;
  return deficient;
}

void split_by_protocol(const std::vector<HostPosture>& postures, SeriesMemberStats& stats) {
  for (const HostPosture& p : postures) {
    stats.hosts_by_protocol[p.protocol]++;
    stats.deficient_by_protocol[p.protocol] += p.deficient;
  }
}

}  // namespace

double SeriesAnalysis::mean_link_confidence() const {
  return mean_match_confidence(links_by_address, links_by_cert_corroborated, links_by_cert_bare);
}

SeriesBuilder::SeriesBuilder(bool validate_ordering) : validate_ordering_(validate_ordering) {}

void SeriesBuilder::close_timeline(SeriesAnalysis& out, const Timeline& state,
                                   bool censored) const {
  if (out.timelines.length_histogram.size() <= state.length) {
    out.timelines.length_histogram.resize(state.length + 1, 0);
  }
  out.timelines.length_histogram[state.length] += 1;
  // A full-span timeline is by definition still alive at the last member,
  // so only a censored (end-of-series) close can ever satisfy this; a
  // retirement close always has length < the member count.
  if (censored && state.first_member == 0 && state.length == finals_.size()) {
    ++out.timelines.full_span;
  }
  if (censored) ++out.timelines.censored;
  if (state.started_insecure) {
    ++out.remediation.insecure_at_start;
    if (state.secure_after > 0) {
      const auto k = static_cast<std::size_t>(state.secure_after);
      if (out.remediation.steps_to_secure.size() <= k) {
        out.remediation.steps_to_secure.resize(k + 1, 0);
      }
      out.remediation.steps_to_secure[k] += 1;
      ++out.remediation.remediated;
    } else {
      ++out.remediation.never_remediated;
      if (censored) ++out.remediation.censored;
    }
    if (state.relapsed) ++out.remediation.relapsed;
  }
}

void SeriesBuilder::add_member(SnapshotMeta final_meta, std::vector<HostPosture> postures) {
  if (validate_ordering_) {
    std::vector<SnapshotMeta> chain = finals_;
    chain.push_back(final_meta);
    validate_campaign_chain(chain);  // throws before any state mutates
  }
  const std::size_t m = finals_.size();
  if (m == 0) {
    // Member 0: one fresh timeline per host.
    active_.resize(postures.size());
    for (std::size_t i = 0; i < postures.size(); ++i) {
      active_[i] = {0, 1, postures[i].policy_bucket < 2,
                    postures[i].policy_bucket == 2 ? 0 : -1, false};
    }
    acc_.timelines.total = postures.size();
    SeriesMemberStats stats;
    stats.meta = final_meta;
    stats.hosts = postures.size();
    stats.deficient = count_deficient(postures);
    split_by_protocol(postures, stats);
    stats.arrived = postures.size();
    acc_.members.push_back(std::move(stats));
    finals_.push_back(std::move(final_meta));
    current_ = std::move(postures);
    return;
  }

  // One match + one tally against the retained previous postures — no
  // earlier member is touched, whatever m is.
  const MatchResult match = match_postures(current_, postures);
  CampaignDiff step = tally_step(current_, postures, match);
  step.base_week = finals_[m - 1];
  step.followup_week = final_meta;
  acc_.links_by_address += step.matched_by_address;
  acc_.links_by_cert_corroborated += step.cert_matches_corroborated;
  acc_.links_by_cert_bare += step.cert_matches_bare;

  SeriesMemberStats stats;
  stats.meta = final_meta;
  stats.hosts = postures.size();
  stats.deficient = count_deficient(postures);
  split_by_protocol(postures, stats);
  stats.matched_from_previous = step.matched();
  stats.arrived = step.arrived;
  acc_.members[m - 1].retired_into_next = step.retired;
  acc_.members.push_back(std::move(stats));
  acc_.steps.push_back(std::move(step));

  std::vector<Timeline> next_active(postures.size());
  for (std::uint32_t bi = 0; bi < postures.size(); ++bi) {
    const std::uint32_t ai = match.base_of[bi];
    if (ai == MatchResult::kUnmatched) {
      // Fresh arrival: a new timeline starts here.
      next_active[bi] = {static_cast<std::uint32_t>(m), 1, postures[bi].policy_bucket < 2,
                         postures[bi].policy_bucket == 2 ? 0 : -1, false};
      ++acc_.timelines.total;
      continue;
    }
    Timeline state = active_[ai];
    ++state.length;
    if (postures[bi].policy_bucket == 2) {
      if (state.secure_after < 0) state.secure_after = static_cast<std::int32_t>(state.length - 1);
    } else if (state.secure_after >= 0) {
      state.relapsed = true;  // had reached secure, dropped below again
    }
    next_active[bi] = state;
  }
  // Timelines without a successor close now (their host retired).
  for (std::uint32_t ai = 0; ai < current_.size(); ++ai) {
    if (!match.base_matched[ai]) close_timeline(acc_, active_[ai], /*censored=*/false);
  }
  current_ = std::move(postures);
  active_ = std::move(next_active);
  finals_.push_back(std::move(final_meta));
}

SeriesAnalysis SeriesBuilder::analysis() const {
  const std::size_t n = finals_.size();
  if (n < 2) {
    throw SnapshotError("campaign series needs >= 2 members (got " + std::to_string(n) + ")");
  }
  SeriesAnalysis out = acc_;
  // Retirement closes only ever reach length n-1 / secure_after n-2, so
  // sizing to the batch shape here is always a grow, never a truncation.
  if (out.timelines.length_histogram.size() < n + 1) {
    out.timelines.length_histogram.resize(n + 1, 0);
  }
  if (out.remediation.steps_to_secure.size() < n) out.remediation.steps_to_secure.resize(n, 0);
  // Every still-live timeline closes censored — cut by the end of
  // observation, not by churn. The builder itself keeps them live.
  for (const Timeline& state : active_) close_timeline(out, state, /*censored=*/true);
  return out;
}

std::size_t SeriesBuilder::resident_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += current_.capacity() * sizeof(HostPosture);
  for (const HostPosture& p : current_) bytes += p.fps.capacity() * sizeof(std::uint64_t);
  bytes += active_.capacity() * sizeof(Timeline);
  bytes += finals_.capacity() * sizeof(SnapshotMeta);
  for (const SnapshotMeta& meta : finals_) bytes += meta.campaign_label.capacity();
  bytes += acc_.members.capacity() * sizeof(SeriesMemberStats);
  bytes += acc_.steps.capacity() * sizeof(CampaignDiff);
  bytes += acc_.timelines.length_histogram.capacity() * sizeof(std::uint64_t);
  bytes += acc_.remediation.steps_to_secure.capacity() * sizeof(std::uint64_t);
  return bytes;
}

// --------------------------------------------------------- analyze_series

namespace {

/// Postures for one opened member: the sketch sidecar when enabled,
/// file-backed, present and fingerprint-valid; the posture pass
/// otherwise (in-memory members never have a sidecar). A stale sidecar
/// throws (read_posture_sketch) — it is never silently skipped.
std::vector<HostPosture> member_postures(const CampaignSet& set, std::size_t index,
                                         const CampaignSet::OpenMember& member,
                                         const SeriesOptions& options, ThreadPool& pool) {
  if (options.use_sketches && set.member(index).file_backed()) {
    const std::string& path = set.member(index).path;
    auto sketched = read_posture_sketch(posture_sketch_path(path), path,
                                        member.reader().file_fingerprint(),
                                        member.reader().snapshots().back().host_count);
    if (sketched) return *std::move(sketched);
  }
  return collect_postures(member.reader(), pool);
}

}  // namespace

SeriesAnalysis analyze_series(const CampaignSet& set, const SeriesOptions& options) {
  const obs::WallTimer pass_timer(obs::Metric::series_pass_wall_us);
  if (set.size() < 2) {
    throw SnapshotError("campaign series needs >= 2 members (got " +
                        std::to_string(set.size()) + ")");
  }
  ThreadPool pool(options.threads);
  SeriesBuilder builder(options.validate_ordering);
  // Each member is opened exactly once, when the walk reaches it; its
  // identity is validated against the chain seen so far before any of
  // its postures are produced, so an out-of-order member fails before
  // its posture work (and a truncated file fails at its open).
  for (std::size_t m = 0; m < set.size(); ++m) {
    const CampaignSet::OpenMember member = set.open(m);
    if (options.validate_ordering) {
      std::vector<SnapshotMeta> chain = builder.finals();
      chain.push_back(member.final_meta());
      validate_campaign_chain(chain);
    }
    builder.add_member(member.final_meta(),
                       member_postures(set, m, member, options, pool));
  }
  return builder.analysis();
}

// ----------------------------------------------------------------- report

void append_series_analysis_fields(JsonWriter& json, const SeriesAnalysis& analysis) {
  json.key("members").begin_array();
  for (const SeriesMemberStats& member : analysis.members) {
    json.begin_object()
        .field("label", member.meta.campaign_label)
        .field("epoch_days", static_cast<std::uint64_t>(member.meta.campaign_epoch_days))
        .field("date_days", static_cast<std::uint64_t>(member.meta.date_days))
        .field("hosts", member.hosts)
        .field("deficient", member.deficient)
        .field("matched_from_previous", member.matched_from_previous)
        .field("arrived", member.arrived)
        .field("retired_into_next", member.retired_into_next);
    json.key("protocols").begin_object();
    for (const auto& [protocol, hosts] : member.hosts_by_protocol) {
      const auto it = member.deficient_by_protocol.find(protocol);
      json.key(protocol_name(protocol))
          .begin_object()
          .field("hosts", hosts)
          .field("deficient", it == member.deficient_by_protocol.end() ? 0 : it->second)
          .end_object();
    }
    json.end_object().end_object();
  }
  json.end_array();
  json.key("steps").begin_array();
  for (const CampaignDiff& step : analysis.steps) {
    json.begin_object();
    append_campaign_diff_fields(json, step);
    json.end_object();
  }
  json.end_array();
  json.key("timelines")
      .begin_object()
      .field("total", analysis.timelines.total)
      .field("full_span", analysis.timelines.full_span)
      .field("censored", analysis.timelines.censored)
      .key("length_histogram")
      .begin_array();
  for (std::size_t len = 1; len < analysis.timelines.length_histogram.size(); ++len) {
    json.begin_object()
        .field("members", static_cast<std::uint64_t>(len))
        .field("timelines", analysis.timelines.length_histogram[len])
        .end_object();
  }
  json.end_array().end_object();
  json.key("remediation")
      .begin_object()
      .field("insecure_at_start", analysis.remediation.insecure_at_start)
      .field("remediated", analysis.remediation.remediated)
      .field("never_remediated", analysis.remediation.never_remediated)
      .field("relapsed", analysis.remediation.relapsed)
      .field("censored", analysis.remediation.censored)
      .key("steps_to_secure")
      .begin_array();
  for (std::size_t k = 1; k < analysis.remediation.steps_to_secure.size(); ++k) {
    json.begin_object()
        .field("campaigns", static_cast<std::uint64_t>(k))
        .field("timelines", analysis.remediation.steps_to_secure[k])
        .end_object();
  }
  json.end_array().end_object();
  json.key("match_evidence")
      .begin_object()
      .field("address", analysis.links_by_address)
      .field("certificate_corroborated", analysis.links_by_cert_corroborated)
      .field("certificate_bare", analysis.links_by_cert_bare)
      .key("link_confidence")
      .begin_object()
      .field("address", match_confidence(MatchEvidence::address))
      .field("certificate_corroborated", match_confidence(MatchEvidence::cert_corroborated))
      .field("certificate_bare", match_confidence(MatchEvidence::cert_bare))
      .end_object()
      .field("mean_confidence", analysis.mean_link_confidence())
      .end_object();
}

std::string series_analysis_json(const SeriesAnalysis& analysis) {
  JsonWriter json;
  json.begin_object();
  append_series_analysis_fields(json, analysis);
  json.end_object();
  return json.str();
}

}  // namespace opcua_study
