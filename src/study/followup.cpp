#include "study/followup.hpp"

#include "series/sketch.hpp"
#include "util/rng.hpp"

namespace opcua_study {

namespace {

constexpr std::int64_t kTwoYearsDays = 730;

/// The per-step model configuration extend_series derives: seed, label,
/// and epoch are pure functions of (config, ordinal), so iterating K
/// times yields decorrelated transitions and a valid campaign chain (see
/// followup.hpp). An explicit config.epoch_days anchors the *first*
/// extension and advances two years per further step — without the
/// advance every generated member would share one epoch and the chain
/// validation would rightly reject the series.
FollowupConfig series_step_config(const FollowupConfig& config, std::size_t ordinal) {
  FollowupConfig step = config;
  step.seed = hash64("series-step:" + std::to_string(config.seed) + ":" +
                     std::to_string(ordinal));
  if (step.campaign_label.empty()) {
    step.campaign_label = "followup-" + std::to_string(ordinal);
  } else if (ordinal > 1) {
    step.campaign_label += "-" + std::to_string(ordinal);
  }
  if (step.epoch_days != 0) {
    step.epoch_days += static_cast<std::int64_t>(ordinal - 1) * kTwoYearsDays;
  }
  return step;
}

}  // namespace

std::int64_t followup_epoch_days(const FollowupConfig& config, std::int64_t base_final_days) {
  return config.epoch_days != 0 ? config.epoch_days : base_final_days + kTwoYearsDays;
}

SnapshotMeta followup_shell(const FollowupConfig& config, const SnapshotMeta& base_final) {
  SnapshotMeta shell;
  shell.measurement_index = 0;
  shell.date_days = followup_epoch_days(config, base_final.date_days);
  // The follow-up scan sweeps the same Internet: probe effort carries
  // over; only the population in the records changes.
  shell.probes_sent = base_final.probes_sent;
  shell.tcp_open_count = base_final.tcp_open_count;
  shell.campaign_label = config.campaign_label;
  shell.campaign_epoch_days = shell.date_days;
  return shell;
}

void evolve_final_measurement(const SnapshotReader& base, const FollowupConfig& config,
                              const std::function<void(HostScanRecord&&)>& emit) {
  if (base.snapshots().empty()) {
    throw SnapshotError("follow-up study needs a base campaign with >= 1 measurement");
  }
  const FollowupModel model(config);
  const std::size_t final_week = base.snapshots().size() - 1;
  std::vector<HostScanRecord> records;  // one decode buffer for the whole walk
  for (std::size_t c = 0; c < base.chunks().size(); ++c) {
    if (base.chunks()[c].snapshot_ordinal != final_week) continue;
    base.read_chunk(c, records);
    for (const HostScanRecord& host : records) {
      if (auto evolved = model.evolve(host)) emit(std::move(*evolved));
    }
  }
  model.visit_new_deployments(base.snapshots()[final_week].host_count, emit);
}

std::vector<ScanSnapshot> run_followup_study(const std::vector<ScanSnapshot>& base,
                                             const FollowupConfig& config) {
  if (base.empty()) {
    throw SnapshotError("follow-up study needs a base campaign with >= 1 measurement");
  }
  const SnapshotReader reader(std::make_shared<const Bytes>(encode_snapshots(base)), 0);
  const SnapshotMeta shell = followup_shell(config, reader.snapshots().back());
  ScanSnapshot snapshot;
  snapshot.measurement_index = shell.measurement_index;
  snapshot.date_days = shell.date_days;
  snapshot.probes_sent = shell.probes_sent;
  snapshot.tcp_open_count = shell.tcp_open_count;
  snapshot.hosts.reserve(base.back().hosts.size());
  evolve_final_measurement(reader, config,
                           [&](HostScanRecord&& host) { snapshot.hosts.push_back(std::move(host)); });
  return {std::move(snapshot)};
}

void run_followup_study_streamed(const SnapshotReader& reader, const FollowupConfig& config,
                                 SnapshotWriter& writer) {
  if (reader.snapshots().empty()) {
    throw SnapshotError("follow-up study needs a base campaign with >= 1 measurement");
  }
  const SnapshotMeta shell = followup_shell(config, reader.snapshots().back());
  writer.set_campaign(config.campaign_label, shell.date_days);
  writer.begin_snapshot(shell.measurement_index, shell.date_days);
  evolve_final_measurement(reader, config,
                           [&](HostScanRecord&& host) { writer.add_host(host); });
  writer.end_snapshot(shell.probes_sent, shell.tcp_open_count);
  writer.finish();
}

SnapshotMeta extend_series(CampaignSet& set, const FollowupConfig& config) {
  if (set.empty()) {
    throw SnapshotError("extend_series needs a series with >= 1 member");
  }
  const CampaignSet::OpenMember last = set.open(set.size() - 1);
  const FollowupConfig step = series_step_config(config, set.size());
  SnapshotMeta shell = followup_shell(step, last.final_meta());
  ScanSnapshot snapshot;
  snapshot.measurement_index = shell.measurement_index;
  snapshot.date_days = shell.date_days;
  snapshot.probes_sent = shell.probes_sent;
  snapshot.tcp_open_count = shell.tcp_open_count;
  snapshot.hosts.reserve(last.final_meta().host_count);
  evolve_final_measurement(last.reader(), step,
                           [&](HostScanRecord&& host) { snapshot.hosts.push_back(std::move(host)); });
  shell.host_count = snapshot.hosts.size();
  set.add_snapshots({std::move(snapshot)}, shell.campaign_label, shell.campaign_epoch_days);
  return shell;
}

SnapshotMeta extend_series(CampaignSet& set, const FollowupConfig& config,
                           const std::string& path, std::uint64_t file_seed) {
  if (set.empty()) {
    throw SnapshotError("extend_series needs a series with >= 1 member");
  }
  std::uint64_t hosts = 0;
  SnapshotMeta shell;
  {
    const CampaignSet::OpenMember last = set.open(set.size() - 1);
    const FollowupConfig step = series_step_config(config, set.size());
    shell = followup_shell(step, last.final_meta());
    SnapshotWriter writer(path, file_seed);
    writer.set_campaign(shell.campaign_label, shell.campaign_epoch_days);
    writer.begin_snapshot(shell.measurement_index, shell.date_days);
    evolve_final_measurement(last.reader(), step, [&](HostScanRecord&& host) {
      writer.add_host(host);
      ++hosts;
    });
    writer.end_snapshot(shell.probes_sent, shell.tcp_open_count);
    writer.finish();
  }
  shell.host_count = hosts;
  // Cut the new member's posture sketch now, while the file is hot: one
  // posture pass here is what lets every later series append load the
  // sidecar instead of re-walking the member.
  ThreadPool inline_pool(1);
  ensure_posture_sketch(path, file_seed, inline_pool);
  set.add_file(path, file_seed);
  return shell;
}

}  // namespace opcua_study
