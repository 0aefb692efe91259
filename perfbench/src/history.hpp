// Seeded synthetic campaign history shared by the history_batch and
// svc_mixed workloads.
//
// Member 0 is a base campaign of `base_hosts` hosts in the posture shape
// of the repository's diff, series and service benches: four endpoint
// archetypes, a third of hosts offering anonymous access, most hosts with
// a unique certificate and every fifth presenting a shared device-image
// certificate of a small signed fleet (the paper's Fig. 5 reuse). Members
// 1.. are grown with extend_series: survivors keep their certificates,
// renewals and new deployments draw from the follow-up model's minted
// fleet. Every member is a v6 snapshot file with a posture sketch sidecar
// for the extended members (extend_series writes one).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HistoryConfig {
  std::uint64_t seed = 1;
  std::size_t base_hosts = 40000;
  std::size_t members = 6;
  std::string dir;  // member files go here
};

struct History {
  std::vector<std::string> paths;
  std::vector<std::uint64_t> file_seeds;
  std::uint64_t records = 0;  // final-measurement hosts over all members
};

History build_history(const HistoryConfig& config);

/// Remove the member files and their sketch sidecars.
void remove_history(const History& history);

}  // namespace perfbench
