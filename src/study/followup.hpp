// Follow-up-study orchestration: replay the evolution model over a
// recorded base campaign to produce later measurements — one follow-up
// (the "two years later" snapshot the diff subsystem compares against),
// or, iterated through extend_series(), a whole N-campaign series.
//
// Every entry point evolves the *final* measurement of its base campaign
// (the paper's headline snapshot) host by host in record order —
// survivors first, then the new deployments — through one shared
// SnapshotReader-driven core (an in-memory base is encoded into a v6 image
// first), so the streamed, in-memory, and series paths all produce
// identical measurements. The streamed variants hold one
// decoded chunk plus the certificate mint fleet; the base campaign is
// never materialized.
#pragma once

#include "population/followup.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/series.hpp"

namespace opcua_study {

/// Evolve `base` (full campaign, in memory) into a one-measurement
/// follow-up campaign. Throws SnapshotError when `base` is empty.
std::vector<ScanSnapshot> run_followup_study(const std::vector<ScanSnapshot>& base,
                                             const FollowupConfig& config);

/// Same campaign streamed: the base's final measurement is read chunk by
/// chunk from `reader` and the evolved records appended to `writer`
/// (campaign label/epoch stamped, finish() called on completion).
void run_followup_study_streamed(const SnapshotReader& reader, const FollowupConfig& config,
                                 SnapshotWriter& writer);

/// The effective epoch of a follow-up campaign: the configured value, or
/// the base campaign's final measurement plus two years when unset.
std::int64_t followup_epoch_days(const FollowupConfig& config, std::int64_t base_final_days);

/// The follow-up measurement's identity (date/epoch, carried-over probe
/// effort, campaign label) derived from the base campaign's final
/// measurement before any record is evolved. host_count is left 0 — it is
/// only known once the evolution ran.
SnapshotMeta followup_shell(const FollowupConfig& config, const SnapshotMeta& base_final);

/// The shared evolution core: stream the final measurement of `base`
/// through the FollowupModel and call `emit` for every record of the
/// follow-up measurement (survivors in record order, then the new
/// deployments). Throws SnapshotError when `base` holds no measurement.
void evolve_final_measurement(const SnapshotReader& base, const FollowupConfig& config,
                              const std::function<void(HostScanRecord&&)>& emit);

/// Append one generated follow-up member to a campaign series: the final
/// measurement of the current last member is evolved and added as a new
/// member (in-memory here; file-backed in the overload below). Returns
/// the new member's final-measurement metadata (host_count filled in).
///
/// Iterating K times grows a deterministic N-campaign series:
///  - the model seed is folded with the new member's ordinal
///    (hash64("series-step:<seed>:<ordinal>")), so a host surviving
///    several steps draws fresh transitions each time instead of
///    replaying the same fate;
///  - an empty config.campaign_label derives "followup-<ordinal>", and a
///    non-empty one is suffixed "-<ordinal>" from the second extension
///    on, so default-config iteration yields distinct chain labels;
///  - an unset epoch derives final-measurement date + two years per
///    step; an explicit config.epoch_days anchors the first extension
///    and likewise advances two years per further step, so iteration
///    always yields a strictly increasing (chain-valid) epoch sequence.
/// Both overloads produce identical records and identities for the same
/// set state, so file-backed and in-memory series are interchangeable.
SnapshotMeta extend_series(CampaignSet& set, const FollowupConfig& config);

/// File-backed variant: the evolved member is streamed into a snapshot
/// file at `path` under `file_seed` and appended to the set as a file
/// member. A posture sketch sidecar (`<path>.sketch`) is written
/// alongside — the one posture pass the incremental-series contract
/// allows for a new member happens here, so later appends to a resident
/// series load the sidecar instead of re-walking the file.
SnapshotMeta extend_series(CampaignSet& set, const FollowupConfig& config,
                           const std::string& path, std::uint64_t file_seed);

}  // namespace opcua_study
