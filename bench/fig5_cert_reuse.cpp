// Figure 5: certificate reuse — hosts authenticating with the same
// certificate, and the autonomous systems those hosts sit in.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const ReuseStats& stats = analysis.reuse;

  std::puts("Figure 5: certificates reused across hosts (reproduced)\n");
  TextTable table;
  table.set_header({"certificate", "hosts", "ASes", "subject organization", ""});
  int shown = 0;
  for (const auto& cluster : stats.clusters) {
    table.add_row({cluster.fingerprint_hex.substr(0, 12), fmt_int(cluster.host_count),
                   fmt_int(static_cast<long>(cluster.ases.size())), cluster.subject_organization,
                   render_bar(cluster.host_count, 400, 30)});
    if (++shown == 21) break;
  }
  std::fputs(table.str().c_str(), stdout);

  const auto& top = stats.clusters.front();
  std::vector<ComparisonRow> rows = {
      compare_num("certificates on >= 3 hosts", 9, stats.clusters_ge3, 0),
      compare_num("largest cluster host count", 385, top.host_count, 0),
      compare_num("largest cluster AS spread", 24, static_cast<double>(top.ases.size()), 0),
      compare_num("2nd same-manufacturer cluster (9 hosts)", 9, stats.clusters[1].host_count, 0),
      compare_num("2nd cluster AS spread", 8, static_cast<double>(stats.clusters[1].ases.size()),
                  0),
      compare_num("3rd same-manufacturer cluster (6 hosts)", 6, stats.clusters[2].host_count, 0),
      compare_num("3rd cluster AS spread", 5, static_cast<double>(stats.clusters[2].ases.size()),
                  0),
  };
  std::fputs(render_comparison("Figure 5 vs paper", rows).c_str(), stdout);
  std::printf("\ndistinct certificates in this measurement: %d (see EXPERIMENTS.md for the\n"
              "interpretation of the paper's x-axis extent)\n",
              stats.distinct_certificates);
  return all_reproduced(rows) ? 0 : 1;
}
