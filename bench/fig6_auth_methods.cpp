// Figure 6: authentication methods, accessibility and classification of
// all reachable servers.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  const AuthStats& stats = analysis.auth;

  std::puts("Figure 6: offered authentication methods and accessibility (reproduced)\n");
  TextTable table;
  table.set_header({"tokens", "hosts", "accessible", "auth-rejected", "cert not accepted"});
  for (const auto& row : stats.rows) {
    std::string tokens;
    if (row.anonymous) tokens += "anon ";
    if (row.credentials) tokens += "cred ";
    if (row.certificate) tokens += "cert ";
    if (row.token) tokens += "token";
    table.add_row({tokens, fmt_int(row.total()),
                   fmt_int(row.production + row.test + row.unclassified),
                   fmt_int(row.auth_rejected), fmt_int(row.channel_rejected)});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\naccessibility overview:");
  std::printf("accessible        %s %d\n", render_bar(stats.accessible, stats.servers).c_str(),
              stats.accessible);
  std::printf("auth rejected     %s %d\n", render_bar(stats.auth_rejected, stats.servers).c_str(),
              stats.auth_rejected);
  std::printf("cert not accepted %s %d\n\n",
              render_bar(stats.channel_rejected, stats.servers).c_str(), stats.channel_rejected);

  std::vector<ComparisonRow> rows = {
      compare_num("servers", 1114, stats.servers, 0),
      compare_num("secure channel possible for anyone", 1034, stats.channel_capable, 0),
      compare_num("certificate not accepted", 80, stats.channel_rejected, 0),
      compare_num("anonymous access offered", 572, stats.anonymous_offered, 0),
      compare_num("anonymous among channel-capable (50%)", 563,
                  stats.anonymous_channel_capable, 0),
      compare_num("anonymous despite forced security (71)", 71, stats.anonymous_secure_only, 0),
      compare_num("publicly accessible", 493, stats.accessible, 0),
  };
  std::fputs(render_comparison("Figure 6 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
