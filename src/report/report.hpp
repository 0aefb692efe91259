// Plain-text rendering of tables, bars and paper-vs-measured comparisons.
// Every bench binary prints through these helpers so the regenerated
// tables/figures share one look.
#pragma once

#include <string>
#include <vector>

namespace opcua_study {

class TextTable {
 public:
  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void add_separator();
  std::string str() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty row = separator
};

/// Horizontal ASCII bar scaled to `max`.
std::string render_bar(double value, double max, int width = 40);

/// "paper vs measured" comparison block with a ✓/✗ marker per row.
struct ComparisonRow {
  std::string metric;
  std::string paper;
  std::string measured;
  bool matches = true;
};

std::string render_comparison(const std::string& title, const std::vector<ComparisonRow>& rows);

/// True when every row matches: the paper benches exit non-zero
/// otherwise, so a figure that stops reproducing fails CI.
bool all_reproduced(const std::vector<ComparisonRow>& rows);

std::string fmt_int(long v);
std::string fmt_pct(double fraction_0_to_1, int decimals = 1);
std::string fmt_double(double v, int decimals = 2);

/// Convenience for numeric rows: marks rows as matching when |a-b| <= tol.
ComparisonRow compare_num(const std::string& metric, double paper, double measured,
                          double tolerance = 0.5);

}  // namespace opcua_study
