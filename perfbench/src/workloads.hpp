// The benchmark's workloads. Each fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and records
// every correctness check it makes.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Consecutive weekly measurements of the calibrated paper population,
/// ending at the final week, sharded and streamed to v6 files.
void run_scan_weeks(const Options& options, Report& report);

/// Generate the seed's RSA key corpus for the scanned weeks into
/// options.key_corpus with a throwaway deployer. Idempotent.
void warm_key_corpus(const Options& options);

/// Read-side batch analysis of a synthetic K-member campaign history.
void run_history_batch(const Options& options, Report& report);

/// A resident query service under a closed-loop read load with a writer
/// landing new campaigns between reads.
void run_svc_mixed(const Options& options, Report& report);

}  // namespace perfbench
