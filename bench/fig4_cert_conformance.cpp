// Figure 4: certificates delivered per announced policy, classified by
// signature hash and key length; conformance annotations (↓ too weak /
// ↑ too strong) against the policy requirements.
#include <cstdio>

#include "bench_common.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  const StudyAnalysis analysis = bench::run_analysis();
  CertConformanceStats stats = analysis.certificates;

  std::puts("Figure 4: certificates implementing announced policies (reproduced)\n");
  TextTable table;
  table.set_header({"policy", "certs", "MD5/1024", "SHA1/1024", "SHA1/2048", "SHA256/2048",
                    "SHA256/4096", "too weak", "too strong"});
  for (const auto policy : kAllPolicies) {
    auto count = [&](HashAlgorithm h, std::size_t bits) {
      const auto& classes = stats.class_counts[policy];
      const auto it = classes.find({h, bits});
      return it == classes.end() ? 0 : it->second;
    };
    table.add_row({std::string(policy_info(policy).short_name),
                   fmt_int(stats.announced_with_cert[policy]),
                   fmt_int(count(HashAlgorithm::md5, 1024)),
                   fmt_int(count(HashAlgorithm::sha1, 1024)),
                   fmt_int(count(HashAlgorithm::sha1, 2048)),
                   fmt_int(count(HashAlgorithm::sha256, 2048)),
                   fmt_int(count(HashAlgorithm::sha256, 4096)),
                   policy == SecurityPolicy::None ? "-" : fmt_int(stats.too_weak[policy]),
                   policy == SecurityPolicy::None ? "-" : fmt_int(stats.too_strong[policy])});
  }
  std::fputs(table.str().c_str(), stdout);

  using SP = SecurityPolicy;
  std::vector<ComparisonRow> rows = {
      compare_num("S2 announcers with too-weak certs (\"429\" marker: 409)", 409,
                  stats.too_weak[SP::Basic256Sha256], 0),
      compare_num("D1 announcers with too-strong certs (75)", 75,
                  stats.too_strong[SP::Basic128Rsa15], 0),
      compare_num("D2 announcers with too-strong certs (5)", 5, stats.too_strong[SP::Basic256], 0),
      compare_num("S1 announcers with too-weak certs (7)", 7,
                  stats.too_weak[SP::Aes128Sha256RsaOaep], 0),
      compare_num("hosts delivering certificates", 1074, stats.hosts_with_cert, 0),
      compare_num("CA-signed certificates (paper: 2)", 2, stats.ca_signed, 0),
      compare_num("weaker in practice than strongest policy (591 = 70% of 844)", 591,
                  stats.weaker_than_max, 0),
  };
  std::fputs(render_comparison("Figure 4 vs paper", rows).c_str(), stdout);
  std::puts("(paper's figure annotates exactly these four bars; MD5 segments on the D1/D2");
  std::puts(" bars correspond to the unannotated MD5 legend entries — see EXPERIMENTS.md)");
  return all_reproduced(rows) ? 0 : 1;
}
