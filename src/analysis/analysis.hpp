// Shared analysis library — every figure/table of the paper computed in
// one pass framework over a recorded campaign.
//
// The assess/ layer holds the reference per-snapshot implementations (one
// function per figure, whole snapshot in RAM). This library computes the
// same statistics — bit-identical, the tests assert it — from the chunked
// columns of a SnapshotReader in bounded memory: chunk partials are
// aggregated by thread-pool workers and merged in chunk-index order, so
// the result is independent of thread count and scheduling. That is what
// lets one Aggregator serve the 1k-host paper reproduction and a
// million-host follow-up campaign alike (cf. Dahlmanns et al., PAM 2022).
// The reader is the only input: a file, or an in-memory campaign encoded
// into a v6 image (analyze_snapshots).
//
// Pass structure:
//   pass 1  census of the final measurement's certificates (reuse
//           clusters; optionally the RSA modulus corpus for §5.3)
//   pass 2  everything else: per-week tallies, the final measurement's
//           figure statistics (which need the pass-1 reuse sets), and the
//           cross-week host history for renewal detection
//   finalize  ordered merges -> StudyAnalysis
#pragma once

#include <cstdint>

#include "assess/assess.hpp"
#include "scanner/snapshot_io.hpp"

namespace opcua_study {

struct AnalysisOptions {
  /// Worker threads for chunk aggregation; 0 = hardware concurrency,
  /// 1 = inline on the caller. The result is identical for any value.
  int threads = 1;
  /// Run the §5.3 batch-GCD shared-prime sweep (expensive at scale).
  bool shared_primes = false;
  /// Worker threads for the batch-GCD product/remainder trees (0 =
  /// hardware concurrency, matching the reference assess_shared_primes).
  int shared_prime_threads = 0;
};

/// Scan-quality tallies of one measurement: how completely the grabs ran
/// once fault injection (netsim/faults.hpp) is in play. All-zero fault
/// counters and all-complete grades on fault-free data.
struct ScanQualityWeek {
  int measurement_index = 0;
  std::uint64_t hosts = 0;        // records, including discovery servers
  std::uint64_t complete = 0;     // per ProbeOutcome grade
  std::uint64_t truncated = 0;
  std::uint64_t degraded = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t faulted = 0;      // hosts that saw >= 1 injected fault
  std::uint64_t recovered = 0;    // faulted hosts still graded complete
  std::uint64_t retries = 0;      // retry attempts across all hosts
  std::uint64_t fault_events = 0; // injected faults across all hosts

  friend bool operator==(const ScanQualityWeek&, const ScanQualityWeek&) = default;
};

/// Scan-quality section of a study: per-week tallies plus study totals.
struct ScanQualityStats {
  std::vector<ScanQualityWeek> weeks;
  std::uint64_t hosts = 0, complete = 0, truncated = 0, degraded = 0, unreachable = 0;
  std::uint64_t faulted = 0, recovered = 0, retries = 0, fault_events = 0;
  /// recovered / faulted; 1.0 when nothing faulted (a fault-free campaign
  /// trivially recovered everything).
  double recovery_rate = 1.0;

  friend bool operator==(const ScanQualityStats&, const ScanQualityStats&) = default;
};

/// Every statistic the benches/examples render, computed together.
/// Figure/table members cover the final measurement (the paper's headline
/// 2020-08-30 snapshot); `longitudinal` covers all measurements.
struct StudyAnalysis {
  std::vector<SnapshotMeta> weeks;

  ModePolicyStats modes;              // Fig. 3
  CertConformanceStats certificates;  // Fig. 4
  ReuseStats reuse;                   // Fig. 5
  SharedPrimeStats shared_primes;     // §5.3 (only when options request it)
  AuthStats auth;                     // Fig. 6 / Table 2
  AccessRightsStats access_rights;    // Fig. 7
  DeficitBreakdown deficits;          // Fig. 8
  LongitudinalStats longitudinal;     // Fig. 2 / §5.5
  ScanQualityStats scan_quality;      // fault/retry/recovery rates
  ProtocolStats protocols;            // per-protocol population split

  double shared_prime_seconds = 0;  // batch-GCD wall time, 0 if skipped

  /// Figure-output identity, ignoring the timing field — the invariant
  /// the determinism tests and the pipeline bench assert.
  bool figures_equal(const StudyAnalysis& other) const;
};

/// Entry points. analyze_file/analyze_reader stream chunk-by-chunk and
/// never materialize a full snapshot; analyze_snapshots serves callers
/// that already hold the vector (and the equivalence tests) by encoding it
/// once into an in-memory image and reading that.
StudyAnalysis analyze_reader(const SnapshotReader& reader, const AnalysisOptions& options = {});
StudyAnalysis analyze_file(const std::string& path, std::uint64_t seed,
                           const AnalysisOptions& options = {});
StudyAnalysis analyze_snapshots(const std::vector<ScanSnapshot>& snapshots,
                                const AnalysisOptions& options = {});

}  // namespace opcua_study
