// Figure 3: security modes and policies — support / least-secure /
// most-secure host counts, measured over the wire on the final snapshot.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  ModePolicyStats stats = analysis.modes;

  std::puts("Figure 3 (left): security modes\n");
  TextTable modes;
  modes.set_header({"mode", "supported", "least secure", "most secure", ""});
  for (const auto mode : {MessageSecurityMode::None, MessageSecurityMode::Sign,
                          MessageSecurityMode::SignAndEncrypt}) {
    modes.add_row({security_mode_name(mode), fmt_int(stats.mode_support[mode]),
                   fmt_int(stats.mode_least[mode]), fmt_int(stats.mode_most[mode]),
                   render_bar(stats.mode_support[mode], stats.servers, 30)});
  }
  std::fputs(modes.str().c_str(), stdout);

  std::puts("\nFigure 3 (right): security policies\n");
  TextTable policies;
  policies.set_header({"policy", "supported", "least secure", "most secure", ""});
  for (const auto policy : kAllPolicies) {
    policies.add_row({std::string(policy_info(policy).short_name),
                      fmt_int(stats.policy_support[policy]), fmt_int(stats.policy_least[policy]),
                      fmt_int(stats.policy_most[policy]),
                      render_bar(stats.policy_support[policy], stats.servers, 30)});
  }
  std::fputs(policies.str().c_str(), stdout);

  using SP = SecurityPolicy;
  using MSM = MessageSecurityMode;
  std::vector<ComparisonRow> rows = {
      compare_num("servers", 1114, stats.servers, 0),
      compare_num("mode None supported", 1035, stats.mode_support[MSM::None], 0),
      compare_num("mode Sign supported", 588, stats.mode_support[MSM::Sign], 0),
      compare_num("mode SignAndEncrypt supported", 843, stats.mode_support[MSM::SignAndEncrypt], 0),
      compare_num("Sign as least secure", 28, stats.mode_least[MSM::Sign], 0),
      compare_num("SignAndEncrypt as least secure", 51, stats.mode_least[MSM::SignAndEncrypt], 0),
      compare_num("Sign as most secure", 1, stats.mode_most[MSM::Sign], 0),
      compare_num("only mode None (no security)", 270, stats.none_only, 0),
      compare_num("secure mode available (844 = 75%)", 844, stats.secure_mode_capable, 0),
      compare_num("policy None supported", 1035, stats.policy_support[SP::None], 0),
      compare_num("policy D1 supported", 715, stats.policy_support[SP::Basic128Rsa15], 0),
      compare_num("policy D2 supported", 762, stats.policy_support[SP::Basic256], 0),
      compare_num("policy S1 supported", 10, stats.policy_support[SP::Aes128Sha256RsaOaep], 0),
      compare_num("policy S2 supported", 564, stats.policy_support[SP::Basic256Sha256], 0),
      compare_num("policy S3 supported", 8, stats.policy_support[SP::Aes256Sha256RsaPss], 0),
      compare_num("deprecated policy supported (70%)", 786, stats.deprecated_supported, 0),
      compare_num("deprecated as most secure", 280, stats.deprecated_max, 0),
      compare_num("strong policy enforced (1.4%)", 16, stats.strong_enforcing, 0),
      compare_num("strong policy available", 564, stats.strong_capable, 0),
      compare_num("D1 as least secure", 13, stats.policy_least[SP::Basic128Rsa15], 0),
      compare_num("D2 as least secure", 50, stats.policy_least[SP::Basic256], 0),
      compare_num("S2 as most secure", 556, stats.policy_most[SP::Basic256Sha256], 0),
      compare_num("S3 as most secure", 8, stats.policy_most[SP::Aes256Sha256RsaPss], 0),
  };
  std::fputs(render_comparison("Figure 3 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
