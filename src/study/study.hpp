// One-call orchestration of the full measurement study — the entry point
// benches and examples share.
#pragma once

#include "population/deploy.hpp"
#include "population/plan.hpp"
#include "scanner/campaign.hpp"
#include "scanner/snapshot_io.hpp"
#include "study/options.hpp"

namespace opcua_study {

struct StudyConfig {
  std::uint64_t seed = 20200209;
  int dummy_hosts = 20000;
  bool traverse_address_space = true;
  /// Keygen workers for deployment (see DeployConfig::key_threads);
  /// snapshots are field-identical for any value.
  int key_threads = 0;
  std::string key_cache_path = KeyFactory::default_cache_path();
  /// > 1: run_full_study_streamed partitions each measurement across
  /// shards and hands finished shard batches to the writer directly
  /// (shard-major host order, bytes identical for any scan_threads).
  /// 1 keeps the legacy sweep-order file, byte-identical to older caches.
  int shards = 1;
  /// Worker threads for the sharded scan; 0 = hardware concurrency.
  int scan_threads = 0;
};

/// The scanner's own identity (self-signed certificate with research
/// contact info, as the paper's ethics setup prescribes).
ClientConfig make_scanner_identity(std::uint64_t seed, KeyFactory& keys);

/// Run one weekly measurement (rebuilds the simulated Internet for that
/// week, sweeps, grabs, follows references). The ScanOptions form applies
/// the shared knobs — fault profile, protocol mix, in-flight window — to
/// the single unsharded campaign (shards/threads are ignored here); the
/// plain form is the all-defaults wrapper.
ScanSnapshot run_measurement(const StudyConfig& config, int week, const ScanOptions& options);
ScanSnapshot run_measurement(const StudyConfig& config, int week);

/// Run all eight measurements of the paper's campaign.
std::vector<ScanSnapshot> run_full_study(const StudyConfig& config);

/// Same campaign, but each weekly measurement is appended to `writer`
/// (chunked v6 snapshot stream) and dropped — the in-memory high-water
/// mark is one measurement, not eight. finish() is called on completion.
///
/// In series terms (src/series/): this produces *member 0* of a campaign
/// series. Add the recorded file to a CampaignSet and grow the rest of
/// the series with extend_series (study/followup.hpp), then feed the set
/// to analyze_series.
///
/// The ScanOptions form is canonical — shards, threads, faults and the
/// protocol mix all come from the shared options (options.shards wins
/// over StudyConfig::shards). The two-argument form wraps it, lifting
/// StudyConfig::shards/scan_threads into an options value.
void run_full_study_streamed(const StudyConfig& config, SnapshotWriter& writer,
                             const ScanOptions& options);
void run_full_study_streamed(const StudyConfig& config, SnapshotWriter& writer);

}  // namespace opcua_study
