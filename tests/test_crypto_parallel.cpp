// Determinism guards for the parallel crypto fast path.
//
// The PR that parallelized deployment keygen pinned one invariant above
// all: thread count must never change a single bit of the study corpus.
// Every key label owns an independent Rng stream, so (a) KeyFactory
// prefetch on N workers produces the same cache as serial get() calls,
// (b) a Deployer running with key_threads=4 yields a scan snapshot that
// is field-identical to key_threads=1, and (c) batch_gcd verdicts are
// invariant under its worker count. CI runs this as the ctest guard for
// the parallel deployment path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "crypto/keycache.hpp"
#include "population/deploy.hpp"
#include "scanner/campaign.hpp"
#include "study/sharded.hpp"
#include "study/study.hpp"
#include "util/thread_pool.hpp"

namespace opcua_study {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  // Serial pool runs inline.
  ThreadPool serial(1);
  int calls = 0;
  serial.parallel_for(5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  // Exceptions propagate to the caller.
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(KeyFactoryParallel, PrefetchMatchesSerialGeneration) {
  KeyFactory serial(909, "");
  KeyFactory parallel(909, "");
  const std::vector<std::pair<std::string, std::size_t>> wants = {
      {"host-1", 512}, {"host-2", 512}, {"group-7", 512}, {"host-3-dual", 512},
      {"host-1", 512},  // duplicate request must not double-generate
  };
  parallel.prefetch(wants, 4);
  EXPECT_EQ(parallel.generated(), 4u);
  for (const auto& [label, bits] : wants) {
    const RsaKeyPair a = serial.get(label, bits);
    const RsaKeyPair b = parallel.get(label, bits);
    EXPECT_EQ(a.pub, b.pub) << label;
    EXPECT_EQ(a.priv.p, b.priv.p) << label;
    EXPECT_EQ(a.priv.q, b.priv.q) << label;
    EXPECT_EQ(a.priv.d, b.priv.d) << label;
  }
  // Prefetched entries are cache hits for get().
  EXPECT_EQ(parallel.cache_hits(), wants.size());
  // A second prefetch of the same labels is a no-op.
  parallel.prefetch(wants, 4);
  EXPECT_EQ(parallel.generated(), 4u);
}

TEST(KeyFactoryParallel, FlushIsAtomicAndPreservesForeignSeeds) {
  const std::string cache = "/tmp/opcua_study_test_keycache_atomic";
  std::remove(cache.c_str());
  std::remove((cache + ".tmp").c_str());
  {
    KeyFactory other(1, cache);
    other.get("host-9", 512);
  }
  {
    KeyFactory mine(2, cache);
    mine.prefetch({{"host-1", 512}}, 2);
    mine.flush();
    // The temp file must not linger after a successful flush.
    std::ifstream tmp(cache + ".tmp");
    EXPECT_FALSE(tmp.good());
  }
  // Both seeds survive the rewrite.
  KeyFactory other_again(1, cache);
  KeyFactory mine_again(2, cache);
  other_again.get("host-9", 512);
  mine_again.get("host-1", 512);
  EXPECT_EQ(other_again.generated(), 0u);
  EXPECT_EQ(mine_again.generated(), 0u);
  std::remove(cache.c_str());
}

// A compact population exercising every key path: reuse groups, dual
// certificates, CA-signed certificates, ephemerals, keyless hosts, and
// week-7 renewals of a primary and of a dual certificate.
PopulationPlan small_plan() {
  PopulationPlan plan;
  ReuseGroupPlan group;
  group.id = 0;
  group.key_bits = 1024;
  group.subject_organization = "FactoryImages GmbH";
  plan.reuse_groups.push_back(group);
  for (int i = 0; i < 14; ++i) {
    HostPlan host;
    host.index = i;
    host.cohort = "parallel-test";
    host.manufacturer = "other";
    host.application_uri = "urn:test:par:" + std::to_string(i);
    host.product_uri = "http://example.org/par";
    host.application_name = "par host " + std::to_string(i);
    host.asn = 64503 + static_cast<std::uint32_t>(i % 3);
    host.modes = {MessageSecurityMode::None};
    host.policies = {SecurityPolicy::None};
    host.tokens = {UserTokenType::Anonymous};
    host.outcome = PlannedOutcome::accessible;
    host.classification = PlannedClass::test;
    host.variable_count = 3;
    host.method_count = 1;
    host.certificate.present = i % 5 != 4;
    host.certificate.key_bits = 1024;
    host.certificate.not_before_days = days_from_civil({2019, 3, 1});
    if (i % 4 == 0) host.certificate.reuse_group = 0;
    if (i == 1) host.certificate.dual_certificate = true;
    if (i == 2) host.certificate.ca_signed = true;
    if (i == 3) host.certificate.ephemeral = true;
    if (i == 5) host.renewal = RenewalPlan{7, HashAlgorithm::sha1, false, false};
    if (i == 6) {
      host.certificate.dual_certificate = true;
      host.renewal = RenewalPlan{7, HashAlgorithm::sha1, true, true};
    }
    plan.hosts.push_back(std::move(host));
  }
  return plan;
}

ScanSnapshot scan_with_key_threads(const PopulationPlan& plan, int key_threads) {
  DeployConfig config;
  config.seed = 4242;
  config.dummy_hosts = 40;
  config.fast_keys = true;
  config.key_threads = key_threads;
  config.key_cache_path = "";  // in-memory: forces real generation
  Deployer deployer(plan, config);
  Network net;
  deployer.deploy_week(net, 7);

  KeyFactory scanner_keys(4242, "");
  CampaignConfig campaign_config;
  campaign_config.seed = 4242;
  campaign_config.grabber.client = make_scanner_identity(4242, scanner_keys);
  Campaign campaign(campaign_config, net);
  return campaign.run(7);
}

TEST(ParallelDeployment, SnapshotIdenticalAcrossKeyThreadCounts) {
  // The CI guard: threads=4 deployment must produce a snapshot that is
  // field-identical to threads=1 — same hosts, same certificates, same
  // endpoints, record for record.
  const PopulationPlan plan = small_plan();
  const ScanSnapshot serial = scan_with_key_threads(plan, 1);
  const ScanSnapshot parallel = scan_with_key_threads(plan, 4);
  ASSERT_EQ(serial.hosts.size(), parallel.hosts.size());
  EXPECT_TRUE(serial == parallel);
  EXPECT_GT(serial.hosts.size(), 0u);
}

// Two weeks on one Deployer, four shards: week 6 is cold (every key
// assembled, every certificate signed), week 7 is warm (only the
// ephemeral host and the two renewals sign anew; the rest is memoised).
std::vector<ScanSnapshot> sharded_weeks_with_key_threads(const PopulationPlan& plan,
                                                         int key_threads) {
  DeployConfig config;
  config.seed = 4242;
  config.dummy_hosts = 40;
  config.fast_keys = true;
  config.key_threads = key_threads;
  config.key_cache_path = "";
  Deployer deployer(plan, config);

  KeyFactory scanner_keys(4242, "");
  ShardedCampaignConfig sharded;
  sharded.campaign.seed = 4242;
  sharded.campaign.grabber.client = make_scanner_identity(4242, scanner_keys);
  sharded.shards = 4;
  sharded.threads = 2;
  std::vector<ScanSnapshot> weeks;
  for (const int week : {6, 7}) weeks.push_back(run_sharded_campaign(deployer, week, sharded));
  return weeks;
}

/// application URI -> the distinct certificate DERs the host presented.
std::map<std::string, std::vector<Bytes>> certificates_by_host(const ScanSnapshot& snapshot) {
  std::map<std::string, std::vector<Bytes>> out;
  for (const auto& host : snapshot.hosts) {
    if (!host.application_uri.empty()) out[host.application_uri] = host.distinct_certificates();
  }
  return out;
}

TEST(ParallelDeployment, ShardedColdThenWarmWeekIdenticalAcrossKeyThreadCounts) {
  const PopulationPlan plan = small_plan();
  const std::vector<ScanSnapshot> serial = sharded_weeks_with_key_threads(plan, 1);
  const std::vector<ScanSnapshot> parallel = sharded_weeks_with_key_threads(plan, 4);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t w = 0; w < serial.size(); ++w) {
    EXPECT_EQ(certificates_by_host(serial[w]), certificates_by_host(parallel[w])) << "week " << w;
    EXPECT_TRUE(serial[w] == parallel[w]) << "week " << w;
  }

  // The warm week really re-signs: the ephemeral host and both renewals
  // present new DERs, a plain host presents the memoised one.
  const auto cold = certificates_by_host(serial[0]);
  const auto warm = certificates_by_host(serial[1]);
  ASSERT_EQ(cold.size(), warm.size());
  for (const int changed : {3, 5, 6}) {
    const std::string uri = "urn:test:par:" + std::to_string(changed);
    ASSERT_TRUE(cold.contains(uri) && warm.contains(uri)) << uri;
    EXPECT_NE(cold.at(uri), warm.at(uri)) << uri;
  }
  EXPECT_EQ(cold.at("urn:test:par:6").front(), warm.at("urn:test:par:6").front())
      << "a dual renewal keeps the primary certificate";
  EXPECT_EQ(cold.at("urn:test:par:7"), warm.at("urn:test:par:7"));
  EXPECT_FALSE(cold.at("urn:test:par:2").empty()) << "CA-signed host carries a certificate";
}

}  // namespace
}  // namespace opcua_study
