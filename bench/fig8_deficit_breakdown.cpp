// Figure 8: configuration deficits split by manufacturer (8a) and by
// autonomous system (8b), plus the paper's headline deficit roll-up.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

namespace {

void print_breakdown(const char* title,
                     const std::map<std::string, std::map<std::string, int>>& by_label) {
  std::printf("%s\n", title);
  for (const auto& [deficit, labels] : by_label) {
    int total = 0;
    for (const auto& [label, count] : labels) total += count;
    std::printf("  %-22s %4d total: ", deficit.c_str(), total);
    // Largest contributors first.
    std::vector<std::pair<int, std::string>> sorted;
    for (const auto& [label, count] : labels) sorted.emplace_back(count, label);
    std::sort(sorted.rbegin(), sorted.rend());
    int shown = 0;
    for (const auto& [count, label] : sorted) {
      if (shown++ == 4) break;
      std::printf("%s=%d ", label.c_str(), count);
    }
    std::puts("");
  }
}

}  // namespace

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const DeficitBreakdown& stats = analysis.deficits;

  std::puts("Figure 8: deficit classes (reproduced)\n");
  TextTable table;
  table.set_header({"deficit", "hosts", ""});
  table.add_row({"None (no security)", fmt_int(stats.none_only),
                 render_bar(stats.none_only, 600, 30)});
  table.add_row({"Deprecated policies (max)", fmt_int(stats.deprecated_only),
                 render_bar(stats.deprecated_only, 600, 30)});
  table.add_row({"Too weak certificate", fmt_int(stats.weak_certificate),
                 render_bar(stats.weak_certificate, 600, 30)});
  table.add_row({"Certificate reuse", fmt_int(stats.cert_reuse),
                 render_bar(stats.cert_reuse, 600, 30)});
  table.add_row({"Anonymous access", fmt_int(stats.anonymous_access),
                 render_bar(stats.anonymous_access, 600, 30)});
  std::fputs(table.str().c_str(), stdout);
  std::puts("");

  print_breakdown("Figure 8a: by manufacturer", stats.by_manufacturer);
  std::puts("");
  {
    // 8b: translate AS keys into printable labels.
    std::map<std::string, std::map<std::string, int>> by_as_label;
    for (const auto& [deficit, ases] : stats.by_as) {
      for (const auto& [asn, count] : ases) {
        by_as_label[deficit]["AS" + std::to_string(asn)] = count;
      }
    }
    print_breakdown("Figure 8b: by autonomous system", by_as_label);
  }

  const double pct = static_cast<double>(stats.deficient_total) / stats.servers;
  std::vector<ComparisonRow> rows = {
      compare_num("None-only hosts", 270, stats.none_only, 0),
      compare_num("deprecated-max hosts", 280, stats.deprecated_only, 0),
      compare_num("weak-certificate hosts", 591, stats.weak_certificate, 0),
      // 418 = the manufacturer's three clusters (385+9+6, §5.3) plus six
      // 3-host clusters the paper's ">= 3 hosts" threshold also captures.
      compare_num("certificate-reuse hosts (>=3 clusters)", 418, stats.cert_reuse, 0),
      compare_num("anonymous access offered", 572, stats.anonymous_access, 0),
      compare_num("deficient total", 1025, stats.deficient_total, 0),
      {"deficient share", "92%", fmt_pct(pct), std::abs(pct - 0.92) < 0.005},
  };
  std::fputs(render_comparison("Figure 8 / headline vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
