// Figure 7: fraction of anonymously readable / writable nodes and
// executable functions across all publicly accessible hosts (1-CDF).
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const AccessRightsStats& stats = analysis.access_rights;

  std::puts("Figure 7: anonymous access rights on accessible hosts (reproduced)\n");
  std::puts("fraction of hosts (1-CDF) -> fraction of nodes accessible to them");
  TextTable table;
  table.set_header({"top hosts", "readable nodes", "writable nodes", "executable functions"});
  const auto read_curve = AccessRightsStats::survival_curve(stats.read_fractions);
  const auto write_curve = AccessRightsStats::survival_curve(stats.write_fractions);
  const auto exec_curve = AccessRightsStats::survival_curve(stats.exec_fractions);
  for (std::size_t i = 0; i < read_curve.size(); i += 2) {
    table.add_row({fmt_pct(read_curve[i].first, 0), fmt_pct(read_curve[i].second, 1),
                   fmt_pct(write_curve[i].second, 1), fmt_pct(exec_curve[i].second, 1)});
  }
  std::fputs(table.str().c_str(), stdout);

  const double read97 = AccessRightsStats::hosts_above(stats.read_fractions, 0.97);
  const double write10 = AccessRightsStats::hosts_above(stats.write_fractions, 0.10);
  const double exec86 = AccessRightsStats::hosts_above(stats.exec_fractions, 0.86);

  std::printf("\nhosts reading  > 97%% of nodes: %s %s\n", render_bar(read97, 1.0).c_str(),
              fmt_pct(read97).c_str());
  std::printf("hosts writing  > 10%% of nodes: %s %s\n", render_bar(write10, 1.0).c_str(),
              fmt_pct(write10).c_str());
  std::printf("hosts executing> 86%% of funcs: %s %s\n\n", render_bar(exec86, 1.0).c_str(),
              fmt_pct(exec86).c_str());

  std::vector<ComparisonRow> rows = {
      compare_num("accessible hosts traversed", 493,
                  static_cast<double>(stats.read_fractions.size()), 0),
      {"hosts able to read > 97% of nodes", "90%", fmt_pct(read97), std::abs(read97 - 0.90) < 0.025},
      {"hosts able to write > 10% of nodes", "33%", fmt_pct(write10),
       std::abs(write10 - 0.33) < 0.025},
      {"hosts able to execute > 86% of functions", "61%", fmt_pct(exec86),
       std::abs(exec86 - 0.61) < 0.025},
  };
  std::fputs(render_comparison("Figure 7 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
