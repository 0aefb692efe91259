// §5.5 "A Lack of Longitudinal Improvements": weekly deficiency stability,
// certificate renewals on static IPs, the cross-measurement certificate
// corpus and its SHA-1 NotBefore dates, and the growth of the reused-
// certificate fleet.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"
#include "util/date.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const LongitudinalStats& stats = analysis.longitudinal;

  std::puts("Section 5.5: longitudinal analysis (reproduced)\n");
  TextTable table;
  table.set_header({"measurement", "servers", "deficient", "%", "reused-cert devices"});
  for (const auto& week : stats.weeks) {
    table.add_row({format_date(civil_from_days(week.date_days)), fmt_int(week.servers),
                   fmt_int(week.deficient), fmt_double(week.deficient_pct, 2),
                   fmt_int(week.reuse_devices)});
  }
  std::fputs(table.str().c_str(), stdout);

  std::printf("\ndeficiency: avg %.2f%%  std %.2f  min %.2f%%  max %.2f%%\n",
              stats.deficiency_avg, stats.deficiency_std, stats.deficiency_min,
              stats.deficiency_max);
  std::printf("certificates collected over all measurements: %zu distinct\n",
              stats.total_distinct_certificates);
  std::printf("SHA-1 certificates with NotBefore >= 2017: %zu, >= 2019: %zu\n",
              stats.sha1_after_2017, stats.sha1_after_2019);
  std::printf("renewals on static IPs: %zu (software update in %d, SHA-1 replaced in %d, "
              "downgraded in %d)\n\n",
              stats.renewals.size(), stats.renewals_with_software_update, stats.sha1_upgrades,
              stats.downgrades);

  const int reuse_first = stats.weeks.front().reuse_devices;
  const int reuse_last = stats.weeks.back().reuse_devices;
  const int reuse_prev = stats.weeks[stats.weeks.size() - 2].reuse_devices;
  std::vector<ComparisonRow> rows = {
      {"avg weekly deficiency", "92%", fmt_double(stats.deficiency_avg, 2) + "%",
       std::abs(stats.deficiency_avg - 92.0) < 0.5},
      {"weekly deficiency std", "0.8", fmt_double(stats.deficiency_std, 2),
       std::abs(stats.deficiency_std - 0.8) < 0.4},
      {"weekly deficiency min", "91%", fmt_double(stats.deficiency_min, 2) + "%",
       stats.deficiency_min >= 91.0 && stats.deficiency_min < 92.0},
      {"weekly deficiency max", "94%", fmt_double(stats.deficiency_max, 2) + "%",
       stats.deficiency_max <= 94.0 && stats.deficiency_max > 93.0},
      compare_num("distinct certificates over the study", 4296,
                  static_cast<double>(stats.total_distinct_certificates), 0),
      compare_num("SHA-1 certs created after 2017 deprecation", 2174,
                  static_cast<double>(stats.sha1_after_2017), 0),
      compare_num("SHA-1 certs created since 2019", 1923,
                  static_cast<double>(stats.sha1_after_2019), 0),
      compare_num("certificate renewals on static IPs", 84,
                  static_cast<double>(stats.renewals.size()), 0),
      compare_num("renewals with software update", 9, stats.renewals_with_software_update, 0),
      compare_num("renewals replacing SHA-1", 7, stats.sha1_upgrades, 0),
      compare_num("renewals downgrading to SHA-1", 1, stats.downgrades, 0),
      compare_num("reused-cert devices first measurement", 263, reuse_first, 0),
      compare_num("reused-cert devices last measurement", 400, reuse_last, 0),
      compare_num("reuse growth in final week (+3)", 3, reuse_last - reuse_prev, 0),
  };
  std::fputs(render_comparison("Section 5.5 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
