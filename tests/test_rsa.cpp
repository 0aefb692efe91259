// RSA keygen, PKCS#1 v1.5 / OAEP / PSS round-trips and negative cases.
// Test keys are small (512/768 bit) to keep the suite fast; the study
// corpus uses 1024-4096 via the KeyFactory disk cache.
#include <gtest/gtest.h>

#include "crypto/keycache.hpp"
#include "crypto/rsa.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace opcua_study {
namespace {

const RsaKeyPair& test_key_512() {
  static const RsaKeyPair kp = [] {
    Rng rng(1001);
    return rsa_generate(rng, 512, 8);
  }();
  return kp;
}

const RsaKeyPair& test_key_768() {
  static const RsaKeyPair kp = [] {
    Rng rng(1002);
    return rsa_generate(rng, 768, 8);
  }();
  return kp;
}

TEST(RsaKeygen, KeyShape) {
  const auto& kp = test_key_512();
  EXPECT_EQ(kp.pub.n.bit_length(), 512u);
  EXPECT_EQ(kp.pub.e.low_u64(), 65537u);
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.pub.n);
  EXPECT_NE(kp.priv.p, kp.priv.q);
  // d*e == 1 mod phi
  const Bignum phi = (kp.priv.p - Bignum{1}) * (kp.priv.q - Bignum{1});
  EXPECT_EQ((kp.priv.d * kp.priv.e) % phi, Bignum{1});
}

TEST(RsaKeygen, RawRoundTripViaCrt) {
  const auto& kp = test_key_512();
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const Bignum m = Bignum::random_below(rng, kp.pub.n);
    EXPECT_EQ(rsa_public_op(kp.pub, rsa_private_op(kp.priv, m)), m);
    EXPECT_EQ(rsa_private_op(kp.priv, rsa_public_op(kp.pub, m)), m);
  }
}

class RsaSignature : public ::testing::TestWithParam<HashAlgorithm> {};

TEST_P(RsaSignature, Pkcs1v15SignVerify) {
  const HashAlgorithm alg = GetParam();
  const auto& kp = test_key_768();
  const Bytes msg = to_bytes("OPC UA secure channel handshake");
  const Bytes sig = rsa_pkcs1v15_sign(kp.priv, alg, msg);
  EXPECT_EQ(sig.size(), kp.pub.modulus_bytes());
  EXPECT_TRUE(rsa_pkcs1v15_verify(kp.pub, alg, msg, sig));
  // Tampered message / signature must fail.
  Bytes bad_msg = msg;
  bad_msg[0] ^= 1;
  EXPECT_FALSE(rsa_pkcs1v15_verify(kp.pub, alg, bad_msg, sig));
  Bytes bad_sig = sig;
  bad_sig[10] ^= 1;
  EXPECT_FALSE(rsa_pkcs1v15_verify(kp.pub, alg, msg, bad_sig));
  // Wrong key must fail.
  EXPECT_FALSE(rsa_pkcs1v15_verify(test_key_512().pub, alg, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(AllHashes, RsaSignature,
                         ::testing::Values(HashAlgorithm::md5, HashAlgorithm::sha1,
                                           HashAlgorithm::sha256));

TEST(RsaPss, SignVerifyAndTamper) {
  const auto& kp = test_key_768();
  Rng rng(3);
  const Bytes msg = to_bytes("Aes256_Sha256_RsaPss policy signature");
  const Bytes sig = rsa_pss_sign(kp.priv, HashAlgorithm::sha256, msg, rng);
  EXPECT_TRUE(rsa_pss_verify(kp.pub, HashAlgorithm::sha256, msg, sig));
  Bytes bad = msg;
  bad.push_back('!');
  EXPECT_FALSE(rsa_pss_verify(kp.pub, HashAlgorithm::sha256, bad, sig));
  Bytes bad_sig = sig;
  bad_sig[0] ^= 0x80;
  EXPECT_FALSE(rsa_pss_verify(kp.pub, HashAlgorithm::sha256, msg, bad_sig));
  // PSS is randomized: two signatures differ but both verify.
  const Bytes sig2 = rsa_pss_sign(kp.priv, HashAlgorithm::sha256, msg, rng);
  EXPECT_NE(sig, sig2);
  EXPECT_TRUE(rsa_pss_verify(kp.pub, HashAlgorithm::sha256, msg, sig2));
}

TEST(RsaEncrypt, Pkcs1v15RoundTrip) {
  const auto& kp = test_key_512();
  Rng rng(4);
  for (std::size_t len : {0u, 1u, 16u, 32u, 53u}) {  // 53 = 64-11 max
    const Bytes pt = rng.bytes(len);
    const Bytes ct = rsa_pkcs1v15_encrypt(kp.pub, pt, rng);
    EXPECT_EQ(ct.size(), kp.pub.modulus_bytes());
    const auto back = rsa_pkcs1v15_decrypt(kp.priv, ct);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, pt);
  }
  EXPECT_THROW(rsa_pkcs1v15_encrypt(kp.pub, rng.bytes(54), rng), std::invalid_argument);
  EXPECT_EQ(rsa_pkcs1v15_max_plaintext(kp.pub), 53u);
}

TEST(RsaEncrypt, OaepRoundTripSha1AndSha256) {
  const auto& kp = test_key_768();
  Rng rng(5);
  for (HashAlgorithm alg : {HashAlgorithm::sha1, HashAlgorithm::sha256}) {
    const std::size_t max_len = rsa_oaep_max_plaintext(kp.pub, alg);
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, max_len / 2, max_len}) {
      const Bytes pt = rng.bytes(len);
      const Bytes ct = rsa_oaep_encrypt(kp.pub, alg, pt, rng);
      const auto back = rsa_oaep_decrypt(kp.priv, alg, ct);
      ASSERT_TRUE(back.has_value()) << hash_name(alg) << " len=" << len;
      EXPECT_EQ(*back, pt);
    }
    EXPECT_THROW(rsa_oaep_encrypt(kp.pub, alg, rng.bytes(max_len + 1), rng),
                 std::invalid_argument);
  }
}

TEST(RsaEncrypt, DecryptRejectsGarbage) {
  const auto& kp = test_key_512();
  Rng rng(6);
  const Bytes garbage = rng.bytes(kp.pub.modulus_bytes());
  // Overwhelmingly likely to fail padding checks.
  EXPECT_FALSE(rsa_pkcs1v15_decrypt(kp.priv, garbage).has_value());
  EXPECT_FALSE(rsa_oaep_decrypt(kp.priv, HashAlgorithm::sha1, garbage).has_value());
  EXPECT_FALSE(rsa_pkcs1v15_decrypt(kp.priv, Bytes(3, 0)).has_value());
}

TEST(KeyFactory, DeterministicAndCached) {
  const std::string cache = temp_path("opcua_study_test_keycache");
  std::remove(cache.c_str());
  {
    KeyFactory f1(77, cache);
    const RsaKeyPair a = f1.get("host-1", 512);
    const RsaKeyPair b = f1.get("host-1", 512);
    EXPECT_EQ(a.pub, b.pub);
    EXPECT_EQ(f1.generated(), 1u);
    EXPECT_EQ(f1.cache_hits(), 1u);
    const RsaKeyPair c = f1.get("host-2", 512);
    EXPECT_FALSE(c.pub == a.pub);
  }
  {
    // Fresh factory must load from disk, not regenerate.
    KeyFactory f2(77, cache);
    const RsaKeyPair a = f2.get("host-1", 512);
    EXPECT_EQ(f2.generated(), 0u);
    EXPECT_EQ(f2.cache_hits(), 1u);
    // And a different seed must not see those entries.
    KeyFactory f3(78, cache);
    const RsaKeyPair other = f3.get("host-1", 512);
    EXPECT_FALSE(other.pub == a.pub);
    EXPECT_EQ(f3.generated(), 1u);
  }
  std::remove(cache.c_str());
}

TEST(KeyFactory, SameLabelDifferentBitsAreIndependent) {
  KeyFactory f(5, "");
  const RsaKeyPair small = f.get("host", 512);
  EXPECT_EQ(small.pub.n.bit_length(), 512u);
}

}  // namespace
}  // namespace opcua_study
