// Report rendering and snapshot persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "report/report.hpp"
#include "scanner/snapshot_io.hpp"
#include "temp_dir.hpp"

namespace opcua_study {
namespace {

TEST(Report, TableAlignsColumns) {
  TextTable table;
  table.set_header({"a", "long-header", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"wide-cell", "x", ""});
  const std::string out = table.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  // Every line has the same length (fixed-width columns).
  std::size_t first_len = out.find('\n');
  std::size_t pos = first_len + 1;
  while (pos < out.size()) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Report, Bars) {
  EXPECT_EQ(render_bar(0, 100, 10), "..........");
  EXPECT_EQ(render_bar(100, 100, 10), "##########");
  EXPECT_EQ(render_bar(50, 100, 10), "#####.....");
  EXPECT_EQ(render_bar(200, 100, 10), "##########");  // clamped
  EXPECT_EQ(render_bar(5, 0, 4), "####");              // degenerate max
}

TEST(Report, Formatting) {
  EXPECT_EQ(fmt_int(42), "42");
  EXPECT_EQ(fmt_pct(0.9203, 1), "92.0%");
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
}

TEST(Report, ComparisonMarksMismatches) {
  const auto good = compare_num("x", 10, 10, 0);
  const auto bad = compare_num("y", 10, 12, 1);
  EXPECT_TRUE(good.matches);
  EXPECT_FALSE(bad.matches);
  const std::string block = render_comparison("t", {good, bad});
  EXPECT_NE(block.find("MISMATCH"), std::string::npos);
  EXPECT_NE(block.find("DEVIATIONS PRESENT"), std::string::npos);
  const std::string clean = render_comparison("t", {good});
  EXPECT_NE(clean.find("[all reproduced]"), std::string::npos);
}

ScanSnapshot sample_snapshot() {
  ScanSnapshot snapshot;
  snapshot.measurement_index = 7;
  snapshot.date_days = 18504;
  snapshot.probes_sent = 1000;
  snapshot.tcp_open_count = 50;
  HostScanRecord host;
  host.ip = make_ipv4(20, 0, 0, 5);
  host.port = 4840;
  host.asn = 64500;
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.application_uri = "urn:test:device";
  host.application_type = ApplicationType::Server;
  host.software_version = "1.2.0";
  EndpointObservation ep;
  ep.url = "opc.tcp://20.0.0.5:4840/";
  ep.mode = MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(SecurityPolicy::Basic256Sha256).uri);
  ep.policy = SecurityPolicy::Basic256Sha256;
  ep.policy_known = true;
  ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
  ep.certificate_der = {1, 2, 3, 4, 5};
  host.endpoints.push_back(ep);
  host.referenced_targets.emplace_back(make_ipv4(20, 0, 0, 9), 4841);
  host.channel = ChannelOutcome::established;
  host.channel_policy = SecurityPolicy::Basic256Sha256;
  host.channel_mode = MessageSecurityMode::SignAndEncrypt;
  host.anonymous_offered = true;
  host.session = SessionOutcome::accessible;
  host.namespaces = {"http://opcfoundation.org/UA/", "urn:plant"};
  NodeObservation node;
  node.browse_name = "m3InflowPerHour";
  node.node_class = NodeClass::Variable;
  node.readable = true;
  host.nodes.push_back(node);
  host.bytes_sent = 123456;
  host.duration_seconds = 110.5;
  snapshot.hosts.push_back(std::move(host));
  return snapshot;
}

TEST(SnapshotIo, RoundTrip) {
  const std::string path = temp_path("opcua_study_test_snapshots.bin");
  const std::vector<ScanSnapshot> snapshots = {sample_snapshot()};
  save_snapshots(path, 42, snapshots);

  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1u);
  const ScanSnapshot& snapshot = loaded->front();
  EXPECT_EQ(snapshot.measurement_index, 7);
  EXPECT_EQ(snapshot.probes_sent, 1000u);
  ASSERT_EQ(snapshot.hosts.size(), 1u);
  const HostScanRecord& host = snapshot.hosts.front();
  EXPECT_EQ(host.ip, make_ipv4(20, 0, 0, 5));
  EXPECT_EQ(host.application_uri, "urn:test:device");
  ASSERT_EQ(host.endpoints.size(), 1u);
  EXPECT_EQ(host.endpoints[0].policy, SecurityPolicy::Basic256Sha256);
  EXPECT_TRUE(host.endpoints[0].policy_known);
  EXPECT_EQ(host.endpoints[0].token_types.size(), 2u);
  EXPECT_EQ(host.endpoints[0].certificate_der, (Bytes{1, 2, 3, 4, 5}));
  ASSERT_EQ(host.referenced_targets.size(), 1u);
  EXPECT_EQ(host.referenced_targets[0].second, 4841);
  EXPECT_EQ(host.session, SessionOutcome::accessible);
  ASSERT_EQ(host.nodes.size(), 1u);
  EXPECT_EQ(host.nodes[0].browse_name, "m3InflowPerHour");
  EXPECT_DOUBLE_EQ(host.duration_seconds, 110.5);

  // Wrong seed -> cache miss.
  EXPECT_FALSE(load_snapshots(path, 43).has_value());
  // Missing file -> cache miss.
  EXPECT_FALSE(load_snapshots(temp_path("no_such_snapshot_file.bin"), 42).has_value());
  std::remove(path.c_str());
}

TEST(SnapshotIo, CorruptFileRejected) {
  const std::string path = temp_path("opcua_study_corrupt.bin");
  save_snapshots(path, 42, {sample_snapshot()});
  // Truncate.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(load_snapshots(path, 42).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opcua_study
