#include "report/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace opcua_study {

void TextTable::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void TextTable::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

void TextTable::add_separator() { rows_.emplace_back(); }

std::string TextTable::str() const {
  std::vector<std::size_t> widths;
  auto account = [&widths](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  };
  account(header_);
  for (const auto& row : rows_) account(row);

  std::ostringstream out;
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : "";
      out << (i ? "  " : "") << cell << std::string(widths[i] - cell.size(), ' ');
    }
    out << '\n';
  };
  auto print_rule = [&] {
    std::size_t total = 0;
    for (std::size_t w : widths) total += w;
    out << std::string(total + 2 * (widths.empty() ? 0 : widths.size() - 1), '-') << '\n';
  };
  if (!header_.empty()) {
    print_row(header_);
    print_rule();
  }
  for (const auto& row : rows_) {
    if (row.empty()) {
      print_rule();
    } else {
      print_row(row);
    }
  }
  return out.str();
}

std::string render_bar(double value, double max, int width) {
  if (max <= 0) max = 1;
  const int filled = static_cast<int>(std::lround(std::clamp(value / max, 0.0, 1.0) * width));
  return std::string(static_cast<std::size_t>(filled), '#') +
         std::string(static_cast<std::size_t>(width - filled), '.');
}

std::string render_comparison(const std::string& title, const std::vector<ComparisonRow>& rows) {
  TextTable table;
  table.set_header({"metric", "paper", "measured", ""});
  bool all_ok = true;
  for (const auto& row : rows) {
    table.add_row({row.metric, row.paper, row.measured, row.matches ? "ok" : "MISMATCH"});
    all_ok &= row.matches;
  }
  std::ostringstream out;
  out << "== " << title << " ==\n"
      << table.str() << (all_ok ? "[all reproduced]" : "[DEVIATIONS PRESENT]") << "\n";
  return out.str();
}

bool all_reproduced(const std::vector<ComparisonRow>& rows) {
  for (const auto& row : rows) {
    if (!row.matches) return false;
  }
  return true;
}

std::string fmt_int(long v) { return std::to_string(v); }

std::string fmt_pct(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string fmt_double(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

ComparisonRow compare_num(const std::string& metric, double paper, double measured,
                          double tolerance) {
  const bool is_integral = std::abs(paper - std::round(paper)) < 1e-9;
  return {metric, is_integral ? fmt_int(static_cast<long>(paper)) : fmt_double(paper),
          std::abs(measured - std::round(measured)) < 1e-9
              ? fmt_int(static_cast<long>(measured))
              : fmt_double(measured),
          std::abs(paper - measured) <= tolerance};
}

}  // namespace opcua_study
