// Chunked snapshot pipeline + shared analysis library:
//  - v6 (columnar + cert dictionary) round trips across chunk boundaries;
//    the retired v4/v5 headers are rejected by name,
//  - truncated / corrupt files fail with SnapshotError instead of
//    yielding garbage records; out-of-range dictionary ids are rejected;
//    a dictionary spanning several parallel verify blocks reports the
//    lowest corrupt entry on every run,
//  - the streaming Aggregator is deterministic in the thread count and
//    chunking and bit-identical to the assess/ reference implementations,
//  - in-memory campaigns (encoded into v6 images) analyze, diff and
//    chain into series exactly like the same records read from files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/analysis.hpp"
#include "assess/assess.hpp"
#include "crypto/keycache.hpp"
#include "diff/diff.hpp"
#include "scanner/snapshot_io.hpp"
#include "series/series.hpp"
#include "util/date.hpp"
#include "temp_dir.hpp"

namespace opcua_study {
namespace {

Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Certificates shared across synthetic hosts so the reuse/deficit/
/// longitudinal passes have real clusters, renewals, and weak keys.
const std::vector<Bytes>& cert_fleet() {
  static const std::vector<Bytes> fleet = [] {
    KeyFactory keys(777, "");
    std::vector<Bytes> ders;
    for (int i = 0; i < 6; ++i) {
      const RsaKeyPair kp = keys.get("pipe-test-" + std::to_string(i), 512);
      CertificateSpec spec;
      spec.subject = {"device " + std::to_string(i),
                      i < 2 ? "Bachmann electronic" : "Test Org", "DE"};
      spec.signature_hash = i % 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
      spec.serial = Bignum{static_cast<std::uint64_t>(100 + i)};
      spec.not_before_days = days_from_civil({2018 + i % 3, 1, 1});
      spec.not_after_days = spec.not_before_days + 3650;
      spec.application_uri = "urn:test:device:" + std::to_string(i);
      ders.push_back(x509_create(spec, kp.pub, kp.priv));
    }
    return ders;
  }();
  return fleet;
}

HostScanRecord make_host(std::size_t i, int week) {
  HostScanRecord host;
  host.ip = static_cast<Ipv4>(0x14000000u + static_cast<std::uint32_t>(i));
  host.port = i % 9 == 0 ? 4841 : kOpcUaDefaultPort;
  host.asn = 64500 + static_cast<std::uint32_t>(i % 5);
  host.tcp_open = true;
  host.speaks_opcua = true;
  host.found_via_reference = i % 7 == 0;
  host.application_uri =
      i % 3 == 0 ? "urn:bachmann:test-" + std::to_string(i) : "urn:generic:test-" + std::to_string(i);
  host.software_version = (i % 11 == 0 && week > 0) ? "2.0" : "1.0";
  if (i % 10 == 9) host.application_type = ApplicationType::DiscoveryServer;

  EndpointObservation ep;
  ep.url = "opc.tcp://t" + std::to_string(i) + ":4840/";
  const SecurityPolicy policy = i % 4 == 0   ? SecurityPolicy::None
                                : i % 4 == 1 ? SecurityPolicy::Basic256
                                             : SecurityPolicy::Basic256Sha256;
  ep.mode = policy == SecurityPolicy::None ? MessageSecurityMode::None
                                           : MessageSecurityMode::SignAndEncrypt;
  ep.policy_uri = std::string(policy_info(policy).uri);
  ep.policy = policy;
  ep.policy_known = true;
  ep.token_types = i % 2 ? std::vector<UserTokenType>{UserTokenType::Anonymous,
                                                      UserTokenType::UserName}
                         : std::vector<UserTokenType>{UserTokenType::Anonymous};
  // Certificate rotation in the final week on some hosts -> renewal events.
  const std::size_t cert_index = (i + ((week > 0 && i % 11 == 0) ? 1 : 0)) % cert_fleet().size();
  if (i % 4 != 0) ep.certificate_der = cert_fleet()[cert_index];
  host.endpoints.push_back(std::move(ep));

  host.channel = i % 8 == 7 ? ChannelOutcome::cert_rejected : ChannelOutcome::established;
  host.anonymous_offered = true;
  host.session = (i % 3 == 0 && host.channel == ChannelOutcome::established)
                     ? SessionOutcome::accessible
                     : SessionOutcome::auth_rejected;
  host.namespaces = {"http://opcfoundation.org/UA/"};
  if (host.session == SessionOutcome::accessible) {
    if (i % 6 == 0) host.namespaces.push_back("urn:plant:unit");
    for (int n = 0; n < 5; ++n) {
      NodeObservation node;
      node.browse_name = "n" + std::to_string(n);
      node.node_class = n < 4 ? NodeClass::Variable : NodeClass::Method;
      node.readable = true;
      node.writable = n % 2 == 0;
      node.executable = n == 4 && i % 2 == 0;
      host.nodes.push_back(node);
    }
  }
  host.bytes_sent = 1000 + i;
  host.duration_seconds = 100.0 + static_cast<double>(i % 20);
  return host;
}

std::vector<ScanSnapshot> make_study(std::size_t hosts_per_week, int weeks = 2) {
  std::vector<ScanSnapshot> snapshots;
  for (int week = 0; week < weeks; ++week) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = week;
    snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
    snapshot.probes_sent = 1000 * (week + 1);
    snapshot.tcp_open_count = 100 * (week + 1);
    for (std::size_t i = 0; i < hosts_per_week; ++i) {
      snapshot.hosts.push_back(make_host(i, week));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

TEST(SnapshotV6, RoundTripAcrossChunkBoundaries) {
  const std::string path = temp_path("opcua_test_v6_chunks.bin");
  const std::vector<ScanSnapshot> study = make_study(10);

  // chunk_records = 3 forces boundaries inside each measurement (10 hosts
  // -> chunks of 3+3+3+1) and a fresh chunk per measurement.
  SnapshotWriter writer(path, 42, 3);
  for (const auto& snapshot : study) writer.add_snapshot(snapshot);
  writer.finish();

  const SnapshotReader reader(path, 42);
  EXPECT_EQ(reader.version(), 6u);
  EXPECT_GT(reader.cert_count(), 0u);
  ASSERT_EQ(reader.snapshots().size(), 2u);
  EXPECT_EQ(reader.snapshots()[0].host_count, 10u);
  EXPECT_EQ(reader.snapshots()[1].measurement_index, 1);
  EXPECT_EQ(reader.snapshots()[1].probes_sent, 2000u);
  ASSERT_EQ(reader.chunks().size(), 8u);  // 4 per measurement
  EXPECT_EQ(reader.chunks()[3].record_count, 1u);
  EXPECT_EQ(reader.chunks()[4].snapshot_ordinal, 1u);

  // Chunk-by-chunk iteration reassembles the records exactly.
  EXPECT_EQ(reader.load_all(), study);
  std::vector<HostScanRecord> streamed;
  reader.for_each_host([&](std::size_t week, const HostScanRecord& host) {
    if (week == 0) streamed.push_back(host);
  });
  EXPECT_EQ(streamed, study[0].hosts);

  const auto loaded = load_snapshots(path, 42);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, study);
  std::remove(path.c_str());
}

TEST(SnapshotV6, AbandonedWriterLeavesUnloadableFile) {
  // A writer destroyed without finish() — e.g. stack unwinding after a
  // failed campaign — must not seal the partial dataset: a 3-of-8-week
  // file that loads cleanly would silently skew every longitudinal stat.
  // The writer streams into a sibling .tmp and only finish() renames it,
  // so the final path never even exists for an abandoned campaign.
  const std::string path = temp_path("opcua_test_abandoned.bin");
  std::remove(path.c_str());
  {
    SnapshotWriter writer(path, 42);
    writer.add_snapshot(make_study(4, 1).front());
    // no finish()
  }
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("not found"), std::string::npos);
  // The partial bytes sit in the unsealed temp file, which also refuses
  // to load (no trailer was ever written).
  std::string tmp_error;
  EXPECT_FALSE(load_snapshots(path + ".tmp", 42, &tmp_error).has_value());
  EXPECT_NE(tmp_error.find("unsealed"), std::string::npos);
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotV6, SeedAndVersionMismatchRejected) {
  const std::string path = temp_path("opcua_test_seed.bin");
  save_snapshots(path, 42, make_study(3, 1));
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 43, &error).has_value());
  EXPECT_NE(error.find("seed mismatch"), std::string::npos);
  EXPECT_FALSE(load_snapshots(temp_path("no_such_snapshot_file.bin"), 42).has_value());
  std::remove(path.c_str());
}

TEST(SnapshotV6, TruncationAlwaysFailsCleanly) {
  const std::string path = temp_path("opcua_test_trunc.bin");
  const std::string cut_path = temp_path("opcua_test_trunc_cut.bin");
  save_snapshots(path, 42, make_study(6, 1));
  const Bytes full = read_file_bytes(path);
  ASSERT_GT(full.size(), 64u);

  // Every truncation point (dense near both ends, strided through the
  // middle) must produce a SnapshotError — never garbage records, never a
  // crash.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < std::min<std::size_t>(full.size(), 40); ++n) cuts.push_back(n);
  for (std::size_t n = 40; n + 1 < full.size(); n += 97) cuts.push_back(n);
  for (std::size_t back = 1; back <= 24 && back < full.size(); ++back) {
    cuts.push_back(full.size() - back);
  }
  for (const std::size_t cut : cuts) {
    write_file_bytes(cut_path, Bytes(full.begin(), full.begin() + static_cast<long>(cut)));
    std::string error;
    EXPECT_FALSE(load_snapshots(cut_path, 42, &error).has_value()) << "cut at " << cut;
    EXPECT_FALSE(error.empty()) << "cut at " << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(SnapshotV6, CorruptEnumValuesRejected) {
  const std::string path = temp_path("opcua_test_enum.bin");
  std::vector<ScanSnapshot> study = make_study(3, 1);
  // An out-of-range enum hidden behind a reinterpreted cast — exactly what
  // a flipped bit in a record payload produces.
  study[0].hosts[1].application_type = static_cast<ApplicationType>(0x2a);
  save_snapshots(path, 42, study);
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("application type"), std::string::npos);

  study[0].hosts[1].application_type = ApplicationType::Server;
  study[0].hosts[2].session = static_cast<SessionOutcome>(9);
  save_snapshots(path, 42, study);
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("session outcome"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotV6, RandomPayloadCorruptionNeverCrashes) {
  const std::string path = temp_path("opcua_test_fuzz.bin");
  const std::string bad_path = temp_path("opcua_test_fuzz_bad.bin");
  save_snapshots(path, 42, make_study(5, 1));
  const Bytes full = read_file_bytes(path);
  // Deterministic xorshift so the sweep is reproducible.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int trial = 0; trial < 200; ++trial) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    Bytes mutated = full;
    mutated[state % mutated.size()] ^= static_cast<std::uint8_t>(1u << (state % 8));
    write_file_bytes(bad_path, mutated);
    // Either the flip lands somewhere harmless (a string byte) and the
    // file still loads, or it must be rejected — never UB, never garbage
    // enum values (gtest would flag a crash/sanitizer fault here).
    const auto loaded = load_snapshots(bad_path, 42);
    if (loaded.has_value()) {
      ASSERT_EQ(loaded->size(), 1u);
      EXPECT_EQ(loaded->front().hosts.size(), 5u);
    }
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

std::uint32_t read_le32(const Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t read_le64(const Bytes& b, std::size_t at) {
  return static_cast<std::uint64_t>(read_le32(b, at)) |
         (static_cast<std::uint64_t>(read_le32(b, at + 4)) << 32);
}

void write_le32(Bytes& b, std::size_t at, std::uint32_t value) {
  b[at] = static_cast<std::uint8_t>(value);
  b[at + 1] = static_cast<std::uint8_t>(value >> 8);
  b[at + 2] = static_cast<std::uint8_t>(value >> 16);
  b[at + 3] = static_cast<std::uint8_t>(value >> 24);
}

/// Byte offset of the v6 certificate dictionary, recovered the same way
/// the reader finds it: trailer -> footer -> dict_offset field.
std::size_t v6_dict_offset(const Bytes& b) {
  const std::size_t footer = static_cast<std::size_t>(read_le64(b, b.size() - 12));
  const std::uint32_t snapshot_count = read_le32(b, footer + 4);
  std::size_t at = footer + 8 + 36ull * snapshot_count;
  const std::uint32_t chunk_count = read_le32(b, at);
  at += 4 + 24ull * chunk_count;
  return static_cast<std::size_t>(read_le64(b, at));
}

TEST(SnapshotV6, VarOffsetTableCorruptionRejected) {
  const std::string path = temp_path("opcua_test_v6_offsets.bin");
  const std::string bad_path = temp_path("opcua_test_v6_offsets_bad.bin");
  save_snapshots(path, 42, make_study(10, 1));
  const Bytes full = read_file_bytes(path);

  // First chunk header sits right after the 16-byte file header; its
  // var_offsets table (n + 1 u32s) starts 24 header + 32n column bytes in.
  const std::size_t chunk = 16;
  ASSERT_EQ(read_le32(full, chunk), 0x4b4e4843u);  // 'CHNK'
  const std::uint32_t n = read_le32(full, chunk + 8);
  ASSERT_EQ(n, 10u);
  const std::size_t offsets = chunk + 24 + 32ull * n;

  const auto expect_rejected = [&](const Bytes& mutated, const char* what) {
    write_file_bytes(bad_path, mutated);
    std::string error;
    EXPECT_FALSE(load_snapshots(bad_path, 42, &error).has_value()) << what;
    EXPECT_NE(error.find("var offsets"), std::string::npos) << what << ": " << error;
  };

  Bytes nonzero_first = full;
  write_le32(nonzero_first, offsets, 1);
  expect_rejected(nonzero_first, "offsets[0] != 0");

  Bytes non_monotone = full;
  ASSERT_GT(read_le32(full, offsets + 4), 0u);  // record 0 has var bytes
  write_le32(non_monotone, offsets + 8, 0);     // offsets[2] < offsets[1]
  expect_rejected(non_monotone, "non-monotone offsets");

  Bytes short_cover = full;
  write_le32(short_cover, offsets + 4ull * n, read_le32(full, offsets + 4ull * n) - 1);
  expect_rejected(short_cover, "offsets stop short of the var column");

  Bytes overflow = full;
  write_le32(overflow, offsets + 4ull * n, 0xffffffffu);
  expect_rejected(overflow, "offsets[n] = 0xffffffff");

  // Strided bit flips across the whole table: every one either still
  // loads (a slack byte is impossible here, but symmetry with the payload
  // fuzz) or throws SnapshotError — never UB.
  for (std::size_t bit = 0; bit < 4ull * (n + 1) * 8; bit += 7) {
    Bytes mutated = full;
    mutated[offsets + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    write_file_bytes(bad_path, mutated);
    const auto loaded = load_snapshots(bad_path, 42);
    if (loaded.has_value()) {
      EXPECT_EQ(loaded->front().hosts.size(), 10u);
    }
  }

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(SnapshotV6, CertDictionaryCorruptionRejected) {
  const std::string path = temp_path("opcua_test_v6_dict.bin");
  const std::string bad_path = temp_path("opcua_test_v6_dict_bad.bin");
  save_snapshots(path, 42, make_study(10, 1));
  const Bytes full = read_file_bytes(path);
  const std::size_t dict = v6_dict_offset(full);
  ASSERT_EQ(read_le32(full, dict), 0x43494443u);  // 'CDIC'
  const std::uint32_t entries = read_le32(full, dict + 4);
  ASSERT_GT(entries, 0u);  // the cert fleet interned at least one DER

  const auto expect_rejected = [&](const Bytes& mutated, const char* what) {
    write_file_bytes(bad_path, mutated);
    std::string error;
    EXPECT_FALSE(load_snapshots(bad_path, 42, &error).has_value()) << what;
    EXPECT_NE(error.find("dictionary"), std::string::npos) << what << ": " << error;
  };

  Bytes bad_magic = full;
  bad_magic[dict] ^= 0xff;
  expect_rejected(bad_magic, "dictionary magic");

  Bytes bad_count = full;
  write_le32(bad_count, dict + 4, entries + 1);
  expect_rejected(bad_count, "entry count disagrees with footer");

  // Entry 0: u64 fingerprint, i32 DER length, DER bytes. Corrupting the
  // stored fingerprint or any DER byte must fail the open-time
  // recompute-and-compare.
  Bytes bad_fp = full;
  bad_fp[dict + 8] ^= 0x01;
  expect_rejected(bad_fp, "stored fingerprint");

  const std::uint32_t der_len = read_le32(full, dict + 16);
  ASSERT_GT(der_len, 8u);
  Bytes bad_der = full;
  bad_der[dict + 20 + der_len / 2] ^= 0x10;
  expect_rejected(bad_der, "DER content");

  Bytes bad_len = full;
  write_le32(bad_len, dict + 16, 0);
  expect_rejected(bad_len, "zero-length DER");

  // Strided flips across the whole dictionary region never crash.
  const std::size_t dict_end = static_cast<std::size_t>(read_le64(full, full.size() - 12));
  for (std::size_t at = dict; at < dict_end; at += 13) {
    Bytes mutated = full;
    mutated[at] ^= 0x40;
    write_file_bytes(bad_path, mutated);
    const auto loaded = load_snapshots(bad_path, 42);
    if (loaded.has_value()) {
      EXPECT_EQ(loaded->front().hosts.size(), 10u);
    }
  }

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

/// One DER per host: `count` distinct certificates signed by one key, so
/// a dictionary spans several SnapshotReader::kDictBlock verify blocks.
std::vector<Bytes> distinct_cert_corpus(std::size_t count) {
  KeyFactory keys(778, "");
  const RsaKeyPair kp = keys.get("pipe-test-blocks", 512);
  std::vector<Bytes> ders;
  for (std::size_t i = 0; i < count; ++i) {
    CertificateSpec spec;
    spec.subject = {"block device " + std::to_string(i), i % 3 ? "Test Org" : "Bachmann electronic",
                    "DE"};
    spec.signature_hash = i % 2 ? HashAlgorithm::sha1 : HashAlgorithm::sha256;
    spec.serial = Bignum{static_cast<std::uint64_t>(1000 + i)};
    spec.not_before_days = days_from_civil({2018 + static_cast<int>(i % 3), 1, 1});
    spec.not_after_days = spec.not_before_days + 3650;
    spec.application_uri = "urn:test:block:" + std::to_string(i);
    ders.push_back(x509_create(spec, kp.pub, kp.priv));
  }
  return ders;
}

/// A one-measurement campaign whose host i carries certs[i % size]: the
/// dictionary interns the corpus in id order. The follow-up drops some
/// hosts, moves some to new addresses and rotates a few certificates.
std::vector<ScanSnapshot> block_campaign(const std::vector<Bytes>& certs, std::size_t hosts,
                                         int week) {
  ScanSnapshot snapshot;
  snapshot.measurement_index = week;
  snapshot.date_days = days_from_civil({2020, 2, 9}) + 28 * week;
  for (std::size_t i = 0; i < hosts; ++i) {
    if (week > 0 && i % 17 == 0) continue;
    HostScanRecord host = make_host(i, week);
    if (week > 0 && i % 19 == 0) host.ip += 0x100000;
    const std::size_t rotate = (week > 0 && i % 13 == 0) ? 1 : 0;
    host.endpoints.front().certificate_der = certs[(i + rotate) % certs.size()];
    snapshot.hosts.push_back(std::move(host));
  }
  return {snapshot};
}

/// Byte offset of dictionary entry `index`'s DER (entries: u64 fp64,
/// i32 length, DER).
std::size_t v6_dict_der_offset(const Bytes& b, std::size_t index) {
  std::size_t at = v6_dict_offset(b) + 8;
  for (std::size_t i = 0; i < index; ++i) at += 12 + read_le32(b, at + 8);
  return at + 12;
}

TEST(SnapshotV6, MultiBlockDictionaryVerifiesInParallel) {
  constexpr std::size_t kBlock = SnapshotReader::kDictBlock;
  const std::vector<Bytes> certs = distinct_cert_corpus(3 * kBlock + 40);
  const std::string base_path = temp_path("opcua_test_v6_blocks_0.bin");
  const std::string next_path = temp_path("opcua_test_v6_blocks_1.bin");
  const std::string bad_path = temp_path("opcua_test_v6_blocks_bad.bin");
  save_snapshots(base_path, 42, block_campaign(certs, certs.size() + 60, 0));
  save_snapshots(next_path, 42, block_campaign(certs, certs.size() + 60, 1));

  {
    // Clean open: every entry verifies, ids stay in first-appearance order.
    const SnapshotReader reader(base_path, 42);
    ASSERT_EQ(reader.cert_count(), certs.size());
    ASSERT_GE(reader.cert_count(), 3 * kBlock + 1);
    for (std::uint32_t id = 0; id < reader.cert_count(); ++id) {
      EXPECT_EQ(reader.cert_fp64(id), certificate_fingerprint64(certs[id])) << id;
    }
  }

  const Bytes full = read_file_bytes(base_path);
  const std::size_t low = kBlock + 5;       // in block 1
  const std::size_t high = 2 * kBlock + 7;  // in block 2
  const auto open_error = [&](const Bytes& mutated) {
    write_file_bytes(bad_path, mutated);
    try {
      const SnapshotReader reader(bad_path, 42);
    } catch (const SnapshotError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto names = [](const std::string& error, std::size_t entry) {
    return error.find("dictionary entry " + std::to_string(entry) + " fingerprint mismatch") !=
           std::string::npos;
  };

  // Two corrupt DERs in different blocks: the lower entry is named on
  // every run, whichever block a worker finishes first.
  Bytes two_bad = full;
  two_bad[v6_dict_der_offset(full, low) + 9] ^= 0x04;
  two_bad[v6_dict_der_offset(full, high) + 9] ^= 0x04;
  for (int run = 0; run < 20; ++run) {
    const std::string error = open_error(two_bad);
    EXPECT_TRUE(names(error, low)) << "run " << run << ": " << error;
  }
  Bytes high_bad = full;
  high_bad[v6_dict_der_offset(full, high) + 9] ^= 0x04;
  EXPECT_TRUE(names(open_error(high_bad), high));

  // A structural error after a corrupt DER still reports the DER: the
  // error a sequential entry-by-entry check would meet first.
  Bytes then_zero_length = full;
  then_zero_length[v6_dict_der_offset(full, low) + 9] ^= 0x04;
  write_le32(then_zero_length, v6_dict_der_offset(full, high) - 4, 0);
  EXPECT_TRUE(names(open_error(then_zero_length), low));
  Bytes zero_length = full;
  write_le32(zero_length, v6_dict_der_offset(full, high) - 4, 0);
  EXPECT_NE(open_error(zero_length).find("dictionary entry " + std::to_string(high) +
                                         " has no DER bytes"),
            std::string::npos);

  // The block-parallel dictionary caches give the same answers at any
  // thread count.
  AnalysisOptions study1;
  study1.threads = 1;
  AnalysisOptions study4;
  study4.threads = 4;
  {
    const SnapshotReader reader(base_path, 42);
    const StudyAnalysis one = analyze_reader(reader, study1);
    EXPECT_TRUE(analyze_reader(reader, study4).figures_equal(one));
    EXPECT_GT(one.reuse.distinct_certificates, static_cast<int>(3 * kBlock));
  }
  DiffOptions diff1;
  diff1.threads = 1;
  DiffOptions diff4;
  diff4.threads = 4;
  const CampaignDiff diff = diff_files(base_path, 42, next_path, 42, diff1);
  EXPECT_GT(diff.matched_by_certificate, 0u);  // moved hosts re-identified
  EXPECT_EQ(campaign_diff_json(diff_files(base_path, 42, next_path, 42, diff4)),
            campaign_diff_json(diff));

  CampaignSet set;
  set.add_file(base_path, 42);
  set.add_file(next_path, 42);
  SeriesOptions series1;
  series1.threads = 1;
  series1.use_sketches = false;
  SeriesOptions series4 = series1;
  series4.threads = 4;
  EXPECT_EQ(series_analysis_json(analyze_series(set, series4)),
            series_analysis_json(analyze_series(set, series1)));

  std::remove(base_path.c_str());
  std::remove(next_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(SnapshotV6, EmptyAndRuntFilesNameTheirSize) {
  const std::string path = temp_path("opcua_test_v6_runt.bin");
  write_file_bytes(path, Bytes{});
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("empty (0 bytes)"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;

  write_file_bytes(path, Bytes{0x4f, 0x55, 0x41, 0x53, 0x06});  // 5 of 16 header bytes
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("5"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Analysis, MatchesAssessReferenceBitForBit) {
  const std::vector<ScanSnapshot> study = make_study(60);
  const StudyAnalysis analysis = analyze_snapshots(study, {});

  EXPECT_EQ(analysis.modes, assess_modes_policies(study.back()));
  EXPECT_EQ(analysis.certificates, assess_certificates(study.back()));
  EXPECT_EQ(analysis.reuse, assess_reuse(study.back()));
  EXPECT_EQ(analysis.auth, assess_auth(study.back()));
  EXPECT_EQ(analysis.access_rights, assess_access_rights(study.back()));
  EXPECT_EQ(analysis.deficits, assess_deficits(study.back()));
  EXPECT_EQ(analysis.longitudinal, assess_longitudinal(study));

  // The synthetic study is rich enough to exercise the interesting paths.
  EXPECT_GT(analysis.reuse.clusters_ge3, 0);
  EXPECT_GT(analysis.deficits.cert_reuse, 0);
  EXPECT_FALSE(analysis.longitudinal.renewals.empty());
  EXPECT_GT(analysis.longitudinal.weeks.back().reuse_devices, 0);
  EXPECT_FALSE(analysis.access_rights.read_fractions.empty());
}

TEST(Analysis, SharedPrimesMatchesReference) {
  const std::vector<ScanSnapshot> study = make_study(24, 1);
  AnalysisOptions options;
  options.shared_primes = true;
  options.shared_prime_threads = 1;
  const StudyAnalysis analysis = analyze_snapshots(study, options);
  EXPECT_EQ(analysis.shared_primes, assess_shared_primes(study.back()));
  EXPECT_GT(analysis.shared_primes.distinct_moduli, 0u);
}

TEST(Analysis, DeterministicAcrossThreadsAndChunking) {
  const std::string path = temp_path("opcua_test_determinism.bin");
  const std::vector<ScanSnapshot> study = make_study(120);
  {
    // Small chunks -> many parallel work units with odd-sized tails.
    SnapshotWriter writer(path, 42, 17);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  AnalysisOptions serial;
  serial.threads = 1;
  AnalysisOptions parallel;
  parallel.threads = 8;
  const StudyAnalysis reference = analyze_snapshots(study, serial);
  const StudyAnalysis streamed1 = analyze_file(path, 42, serial);
  const StudyAnalysis streamed8 = analyze_file(path, 42, parallel);
  EXPECT_TRUE(streamed1.figures_equal(reference));
  EXPECT_TRUE(streamed8.figures_equal(reference));

  const SnapshotReader tiny_chunks(std::make_shared<const Bytes>(encode_snapshots(study, 0, 7)),
                                   0);
  EXPECT_TRUE(analyze_reader(tiny_chunks, parallel).figures_equal(reference));
  std::remove(path.c_str());
}

TEST(Analysis, EmptyAndSingleWeekStudies) {
  const std::string path = temp_path("opcua_test_empty.bin");
  {
    SnapshotWriter writer(path, 42);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  EXPECT_EQ(reader.snapshots().size(), 0u);
  EXPECT_EQ(reader.total_records(), 0u);
  const StudyAnalysis empty = analyze_reader(reader, {});
  EXPECT_TRUE(empty.weeks.empty());
  EXPECT_EQ(empty.modes.servers, 0);

  const std::vector<ScanSnapshot> one_week = make_study(8, 1);
  const StudyAnalysis analysis = analyze_snapshots(one_week, {});
  EXPECT_EQ(analysis.modes, assess_modes_policies(one_week.back()));
  EXPECT_EQ(analysis.longitudinal, assess_longitudinal(one_week));
  std::remove(path.c_str());
}

TEST(StreamedStudyWriter, MatchesBatchSave) {
  // The streamed writer (one measurement at a time) and save_snapshots
  // (whole vector) must produce files with identical logical content.
  const std::string batch_path = temp_path("opcua_test_batch.bin");
  const std::string stream_path = temp_path("opcua_test_stream.bin");
  const std::vector<ScanSnapshot> study = make_study(20, 3);
  save_snapshots(batch_path, 42, study);
  {
    SnapshotWriter writer(stream_path, 42);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  EXPECT_EQ(read_file_bytes(batch_path), read_file_bytes(stream_path));
  std::remove(batch_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(SnapshotV6, FiguresIdenticalAcrossThreads) {
  const std::string path = temp_path("opcua_test_fig_v6.bin");
  const std::vector<ScanSnapshot> study = make_study(48);
  {
    SnapshotWriter writer(path, 42, 11);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }

  // The file read in 11-record chunks and the in-memory reference (one
  // default-size chunk per week) agree figure for figure at any thread
  // count, the §5.3 sweep included.
  AnalysisOptions serial;
  serial.threads = 1;
  serial.shared_primes = true;
  serial.shared_prime_threads = 1;
  AnalysisOptions parallel = serial;
  parallel.threads = 8;
  const StudyAnalysis reference = analyze_snapshots(study, serial);
  EXPECT_TRUE(analyze_file(path, 42, serial).figures_equal(reference));
  EXPECT_TRUE(analyze_file(path, 42, parallel).figures_equal(reference));
  std::remove(path.c_str());
}

TEST(SnapshotV6, DictionaryIdOutOfRangeRejected) {
  const std::string path = temp_path("opcua_test_dict_range.bin");
  const std::vector<ScanSnapshot> study = make_study(10, 1);
  {
    SnapshotWriter writer(path, 42, 3);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  Bytes bytes = read_file_bytes(path);
  std::uint64_t chunk1_offset = 0;
  {
    const SnapshotReader reader(path, 42);
    ASSERT_GE(reader.chunks().size(), 2u);
    ASSERT_EQ(reader.chunks()[1].record_count, 3u);
    chunk1_offset = reader.chunks()[1].file_offset;
  }
  // Chunk 1's first record is host 3, which carries a certificate: its var
  // record starts with u16 head count, then the u32 dictionary ids. Patch
  // the first id to a value far past the dictionary.
  const std::size_t id_offset = chunk1_offset + 24 + (47 * 3 + 4) + 2;
  bytes[id_offset + 0] = 0xfe;
  bytes[id_offset + 1] = 0xff;
  bytes[id_offset + 2] = 0xff;
  bytes[id_offset + 3] = 0xff;
  write_file_bytes(path, bytes);

  std::string error;
  EXPECT_FALSE(load_snapshots(path, 42, &error).has_value());
  EXPECT_NE(error.find("certificate id"), std::string::npos) << error;
  EXPECT_NE(error.find("dictionary range"), std::string::npos) << error;
  // The columnar figure pass must reject it too, not index out of bounds.
  EXPECT_THROW(analyze_file(path, 42, {}), SnapshotError);
  std::remove(path.c_str());
}

TEST(SnapshotV6, SeedMismatchNamesFormatVersion) {
  const std::string path = temp_path("opcua_test_seed_v6.bin");
  save_snapshots(path, 42, make_study(3, 1));

  // The mis-seed diagnostic names the detected format version and the
  // offset of the seed field, so operators can see *what* they opened.
  std::string error;
  EXPECT_FALSE(load_snapshots(path, 43, &error).has_value());
  EXPECT_NE(error.find("seed mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("byte offset 8"), std::string::npos) << error;
  EXPECT_NE(error.find("v6"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotV6, RetiredFormatHeadersRejectedByName) {
  // A file from the retired row formats: a valid magic, version 4 or 5,
  // and whatever body. The reader refuses it up front and says which
  // format it found and where, so a stale cache is recognizable (and the
  // bench cache re-records itself on exactly this SnapshotError).
  const std::string path = temp_path("opcua_test_retired.bin");
  for (const std::uint8_t version : {4, 5}) {
    Bytes header = {0x53, 0x41, 0x55, 0x4f, version, 0, 0, 0};  // 'OUAS', version
    for (int i = 0; i < 8; ++i) {  // u64 seed 42, little-endian
      header.push_back(static_cast<std::uint8_t>(std::uint64_t{42} >> (8 * i)));
    }
    header.resize(header.size() + 64, 0);  // a body the reader never walks
    write_file_bytes(path, header);
    try {
      const SnapshotReader reader(path, 42);
      FAIL() << "v" << int{version} << " header accepted";
    } catch (const SnapshotError& e) {
      const std::string error = e.what();
      EXPECT_NE(error.find("retired snapshot format v" + std::to_string(version)),
                std::string::npos)
          << error;
      EXPECT_NE(error.find(path), std::string::npos) << error;
    }
    // The same bytes as an in-memory image fail the same way.
    EXPECT_THROW(SnapshotReader(std::make_shared<const Bytes>(header), 42), SnapshotError);
  }
  std::remove(path.c_str());
}

TEST(SnapshotV6, ReadChunkBufferOverloadMatches) {
  const std::string path = temp_path("opcua_test_buffer.bin");
  const std::vector<ScanSnapshot> study = make_study(10);
  {
    SnapshotWriter writer(path, 42, 4);
    for (const auto& snapshot : study) writer.add_snapshot(snapshot);
    writer.finish();
  }
  const SnapshotReader reader(path, 42);
  std::vector<HostScanRecord> buffer;  // reused across every chunk
  for (std::size_t c = 0; c < reader.chunks().size(); ++c) {
    reader.read_chunk(c, buffer);
    EXPECT_EQ(buffer, reader.read_chunk(c)) << "chunk " << c;
  }
  std::remove(path.c_str());
}

TEST(SnapshotV6, DistinctCertFingerprintsMatchDistinctCertificates) {
  for (std::size_t i = 0; i < 12; ++i) {
    HostScanRecord host = make_host(i, 0);
    // Duplicate an endpoint so the distinct filter has work to do.
    if (!host.endpoints.empty()) host.endpoints.push_back(host.endpoints.front());
    const std::vector<Bytes> ders = host.distinct_certificates();
    const std::vector<std::uint64_t> fps = host.distinct_cert_fingerprints();
    ASSERT_EQ(fps.size(), ders.size());
    for (std::size_t k = 0; k < ders.size(); ++k) {
      EXPECT_EQ(fps[k], certificate_fingerprint64(ders[k]));
    }
  }
}

TEST(SnapshotV6, DictionaryCompressionShrinksFile) {
  const std::string path = temp_path("opcua_test_size_v6.bin");
  const std::vector<ScanSnapshot> study = make_study(200);
  save_snapshots(path, 42, study);
  // The fleet shares 6 certificates across 400 host records: the
  // dictionary stores each DER once, so the whole file is smaller than
  // the certificate bytes alone would be if every endpoint carried its
  // DER inline.
  std::size_t inline_der_bytes = 0;
  for (const auto& snapshot : study) {
    for (const auto& host : snapshot.hosts) {
      for (const auto& ep : host.endpoints) inline_der_bytes += ep.certificate_der.size();
    }
  }
  const std::size_t file_size = read_file_bytes(path).size();
  EXPECT_EQ(SnapshotReader(path, 42).cert_count(), cert_fleet().size());
  EXPECT_LT(file_size, inline_der_bytes)
      << "file=" << file_size << " inline DER=" << inline_der_bytes;
  std::remove(path.c_str());
}

// ------------------------------------------- in-memory images == files ----

TEST(InMemoryImage, MatchesFileForAnalysisDiffAndSeries) {
  // The in-memory entry points encode their vectors into v6 images and
  // read them through SnapshotReader; every result must equal the same
  // records written to files — at a small ragged chunk size and the
  // default, on one thread and four.
  const std::vector<ScanSnapshot> base = make_study(40);
  std::vector<ScanSnapshot> followup = make_study(36, 3);
  for (auto& host : followup.back().hosts) {
    if (host.ip % 5 == 0) host.ip += 0x100000;  // churned addresses
  }
  for (const std::uint32_t chunk : {7u, SnapshotWriter::kDefaultChunkRecords}) {
    const std::string base_path = temp_path("opcua_test_mem_base.bin");
    const std::string followup_path = temp_path("opcua_test_mem_followup.bin");
    const auto write = [&](const std::string& path, const std::vector<ScanSnapshot>& study) {
      SnapshotWriter writer(path, 42, chunk);
      for (const auto& snapshot : study) writer.add_snapshot(snapshot);
      writer.finish();
    };
    write(base_path, base);
    write(followup_path, followup);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", threads " + std::to_string(threads));
      AnalysisOptions analysis_options;
      analysis_options.threads = threads;
      EXPECT_TRUE(analyze_snapshots(base, analysis_options)
                      .figures_equal(analyze_file(base_path, 42, analysis_options)));

      DiffOptions diff_options;
      diff_options.threads = threads;
      diff_options.validate_pairing = false;
      const CampaignDiff from_files =
          diff_files(base_path, 42, followup_path, 42, diff_options);
      EXPECT_EQ(campaign_diff_json(diff_snapshots(base, followup, diff_options)),
                campaign_diff_json(from_files));
      EXPECT_GT(from_files.retired, 0u);

      SeriesOptions series_options;
      series_options.threads = threads;
      series_options.use_sketches = false;
      series_options.validate_ordering = false;
      CampaignSet files;
      files.add_file(base_path, 42);
      files.add_file(followup_path, 42);
      CampaignSet memory;
      memory.add_snapshots(base);
      memory.add_snapshots(followup);
      EXPECT_EQ(series_analysis_json(analyze_series(memory, series_options)),
                series_analysis_json(analyze_series(files, series_options)));
    }
    std::remove(base_path.c_str());
    std::remove(followup_path.c_str());
  }
}

TEST(InMemoryImage, WriterImageEqualsFileBytes) {
  const std::string path = temp_path("opcua_test_image.bin");
  const std::vector<ScanSnapshot> study = make_study(10);
  save_snapshots(path, 42, study);
  EXPECT_EQ(encode_snapshots(study, 42), read_file_bytes(path));

  SnapshotWriter writer(42, 3);
  EXPECT_THROW(writer.take_image(), SnapshotError);  // not sealed yet
  for (const auto& snapshot : study) writer.add_snapshot(snapshot);
  writer.finish();
  const SnapshotReader reader(std::make_shared<const Bytes>(writer.take_image()), 42);
  EXPECT_EQ(reader.chunks().size(), 8u);
  EXPECT_EQ(reader.load_all(), study);

  // A truncated image is rejected like a truncated file.
  Bytes cut = encode_snapshots(study, 42);
  cut.resize(cut.size() - 5);
  EXPECT_THROW(SnapshotReader(std::make_shared<const Bytes>(cut), 42), SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opcua_study
