// Table 1: OPC UA security policies — ciphers, key lengths, deprecation.
// Regenerated from the stack's policy registry (the same table drives the
// secure-channel crypto and all conformance classification).
#include <cstdio>

#include "opcua/secpolicy.hpp"
#include "report/report.hpp"

using namespace opcua_study;

int main() {
  TextTable table;
  table.set_header({"Policy", "Sig. Hash", "Cert. Hash", "Key Len. [bit]", "A", "Status"});
  for (const auto policy : kAllPolicies) {
    const auto& info = policy_info(policy);
    std::string sig = "-", cert_hash = "-", keys = "-";
    if (policy != SecurityPolicy::None) {
      sig = info.asym_signature == AsymmetricSignature::pkcs1v15_sha1 ? "SHA1" : "SHA256";
      cert_hash = hash_name(info.min_cert_hash);
      if (info.max_cert_hash != info.min_cert_hash) {
        cert_hash += ", " + hash_name(info.max_cert_hash);
      }
      keys = "[" + std::to_string(info.min_key_bits) + "; " + std::to_string(info.max_key_bits) + "]";
    }
    table.add_row({std::string(info.name), sig, cert_hash, keys, std::string(info.short_name),
                   info.deprecated ? "deprecated (2017)" : (info.secure ? "recommended" : "none")});
  }
  std::puts("Table 1: OPC UA security policies (paper's registry, reproduced)\n");
  std::fputs(table.str().c_str(), stdout);

  std::vector<ComparisonRow> rows = {
      compare_num("policies total", 6, static_cast<double>(std::size(kAllPolicies)), 0),
      compare_num("deprecated policies (D1, D2)", 2,
                  static_cast<double>(policy_info(SecurityPolicy::Basic128Rsa15).deprecated +
                                      policy_info(SecurityPolicy::Basic256).deprecated),
                  0),
      compare_num("secure policies (S1-S3)", 3,
                  static_cast<double>(policy_info(SecurityPolicy::Aes128Sha256RsaOaep).secure +
                                      policy_info(SecurityPolicy::Basic256Sha256).secure +
                                      policy_info(SecurityPolicy::Aes256Sha256RsaPss).secure),
                  0),
      compare_num("D1 max key bits", 2048,
                  static_cast<double>(policy_info(SecurityPolicy::Basic128Rsa15).max_key_bits), 0),
      compare_num("S2 min key bits", 2048,
                  static_cast<double>(policy_info(SecurityPolicy::Basic256Sha256).min_key_bits), 0),
  };
  std::fputs(render_comparison("Table 1 vs paper", rows).c_str(), stdout);
  return all_reproduced(rows) ? 0 : 1;
}
