// HMAC (RFC 2202/4231 vectors), P_SHA KDF, and AES-CBC (FIPS-197 / SP 800-38A).
#include <gtest/gtest.h>

#include <string>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace opcua_study {
namespace {

TEST(Hmac, Rfc2202Sha1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::sha1, key, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  const Bytes key2 = to_bytes("Jefe");
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::sha1, key2, to_bytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc4231Sha256) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::sha256, key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Case 3: 0xaa*20 key, 0xdd*50 data
  const Bytes key3(20, 0xaa);
  const Bytes data3(50, 0xdd);
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::sha256, key3, data3)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc2202Md5) {
  const Bytes key(16, 0x0b);
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::md5, key, to_bytes("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(to_hex(hmac(HashAlgorithm::sha1, key,
                        to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

// The keyed type a channel keeps (pad states hashed once) against the
// one-shot hmac() on RFC 2202 / RFC 4231 inputs, including keys over the
// 64-byte block (hashed first) and empty data, for all three hashes. The
// known answers pin both; the split form mac(head, tail) must equal the
// joined input at every split point, and one Hmac must give the same
// answer on reuse.
TEST(Hmac, KeyedEqualsOneShotOnRfcVectors) {
  struct Case {
    HashAlgorithm alg;
    Bytes key;
    Bytes data;
    const char* expected;
  };
  const Bytes hi = to_bytes("Hi There");
  const Bytes jefe_data = to_bytes("what do ya want for nothing?");
  const Bytes long_data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const Case cases[] = {
      {HashAlgorithm::md5, Bytes(16, 0x0b), hi, "9294727a3638bb1c13f48ef8158bfc9d"},
      {HashAlgorithm::md5, to_bytes("Jefe"), jefe_data, "750c783e6ab0b503eaa86e310a5db738"},
      {HashAlgorithm::md5, Bytes(80, 0xaa), long_data, "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"},
      {HashAlgorithm::md5, Bytes{}, Bytes{}, "74e6f7298a9c2d168935f58c001bad88"},
      {HashAlgorithm::sha1, Bytes(20, 0x0b), hi, "b617318655057264e28bc0b6fb378c8ef146be00"},
      {HashAlgorithm::sha1, to_bytes("Jefe"), jefe_data,
       "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
      {HashAlgorithm::sha1, Bytes(80, 0xaa), long_data,
       "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
      {HashAlgorithm::sha1, to_bytes("Jefe"), Bytes{}, "09d9e59d72239e62a8155c583d52743de9b7231a"},
      {HashAlgorithm::sha256, Bytes(20, 0x0b), hi,
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {HashAlgorithm::sha256, to_bytes("Jefe"), jefe_data,
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {HashAlgorithm::sha256, Bytes(131, 0xaa), long_data,
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {HashAlgorithm::sha256, Bytes{}, Bytes{},
       "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(hash_name(c.alg) + " key " + std::to_string(c.key.size()) + "B data " +
                 std::to_string(c.data.size()) + "B");
    const Hmac keyed(c.alg, c.key);
    EXPECT_EQ(to_hex(hmac(c.alg, c.key, c.data)), c.expected);
    EXPECT_EQ(to_hex(keyed.mac(c.data)), c.expected);
    EXPECT_EQ(to_hex(keyed.mac(c.data)), c.expected) << "reused";
    const std::span<const std::uint8_t> data(c.data);
    for (std::size_t split = 0; split <= data.size(); ++split) {
      EXPECT_EQ(to_hex(keyed.mac(data.first(split), data.subspan(split))), c.expected) << split;
    }
  }
}

TEST(PHash, ExpandsToRequestedLengthDeterministically) {
  Rng rng(7);
  const Bytes secret = rng.bytes(32);
  const Bytes seed = rng.bytes(32);
  for (std::size_t len : {1u, 16u, 20u, 33u, 64u, 100u, 256u}) {
    const Bytes a = p_hash(HashAlgorithm::sha256, secret, seed, len);
    const Bytes b = p_hash(HashAlgorithm::sha256, secret, seed, len);
    EXPECT_EQ(a.size(), len);
    EXPECT_EQ(a, b);
  }
  // Prefix property: shorter expansions are prefixes of longer ones.
  const Bytes long_out = p_hash(HashAlgorithm::sha1, secret, seed, 96);
  const Bytes short_out = p_hash(HashAlgorithm::sha1, secret, seed, 40);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

TEST(PHash, DistinctForSwappedSecretAndSeed) {
  Rng rng(8);
  const Bytes a = rng.bytes(16), b = rng.bytes(16);
  EXPECT_NE(p_hash(HashAlgorithm::sha256, a, b, 32), p_hash(HashAlgorithm::sha256, b, a, 32));
}

TEST(Aes, Fips197KnownAnswer128) {
  // FIPS-197 Appendix C.1
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex({out, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(to_hex({back, 16}), to_hex(pt));
}

TEST(Aes, Fips197KnownAnswer256) {
  // FIPS-197 Appendix C.3
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex({out, 16}), "8ea2b7ca516745bfeafc49904b496089");
  std::uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(to_hex({back, 16}), to_hex(pt));
}

TEST(Aes, Fips197KnownAnswer192) {
  // FIPS-197 Appendix C.2
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  std::uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(to_hex({out, 16}), "dda97ca4864cdfe06eaf70a0ec0d7191");
  std::uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(to_hex({back, 16}), to_hex(pt));
}

TEST(AesCbc, Sp80038aVector) {
  // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt (first two blocks).
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
  const Bytes ct = aes_cbc_encrypt(key, iv, pt);
  EXPECT_EQ(to_hex(ct), "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2");
  EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt);
}

class AesCbcRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(AesCbcRoundTrip, EncryptDecryptIdentity) {
  const auto [key_len, blocks] = GetParam();
  Rng rng(static_cast<std::uint64_t>(key_len * 1000 + blocks));
  const Bytes key = rng.bytes(key_len);
  const Bytes iv = rng.bytes(16);
  const Bytes pt = rng.bytes(blocks * 16);
  const Bytes ct = aes_cbc_encrypt(key, iv, pt);
  EXPECT_EQ(ct.size(), pt.size());
  if (!pt.empty()) {
    EXPECT_NE(ct, pt);
  }
  EXPECT_EQ(aes_cbc_decrypt(key, iv, ct), pt);
}

// NIST SP 800-38A F.2.1-F.2.6: CBC-AES128/192/256, all four blocks, both
// directions (the .Decrypt vectors are the .Encrypt ones read backwards).
struct CbcVector {
  const char* name;
  const char* key;
  const char* ciphertext;
};

class AesCbcSp80038a : public ::testing::TestWithParam<CbcVector> {};

TEST_P(AesCbcSp80038a, EncryptAndDecrypt) {
  const CbcVector& v = GetParam();
  const Bytes key = from_hex(v.key);
  const Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(aes_cbc_encrypt(key, iv, pt)), v.ciphertext);
  EXPECT_EQ(to_hex(aes_cbc_decrypt(key, iv, from_hex(v.ciphertext))), to_hex(pt));
}

INSTANTIATE_TEST_SUITE_P(
    AllKeySizes, AesCbcSp80038a,
    ::testing::Values(
        CbcVector{"F21_F22_Aes128", "2b7e151628aed2a6abf7158809cf4f3c",
                  "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
                  "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"},
        CbcVector{"F23_F24_Aes192", "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                  "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a"
                  "571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd"},
        CbcVector{"F25_F26_Aes256",
                  "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                  "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
                  "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b"}),
    [](const ::testing::TestParamInfo<CbcVector>& info) { return std::string(info.param.name); });

INSTANTIATE_TEST_SUITE_P(KeySizesAndLengths, AesCbcRoundTrip,
                         ::testing::Combine(::testing::Values(std::size_t{16}, std::size_t{24},
                                                              std::size_t{32}),
                                            ::testing::Values(std::size_t{0}, std::size_t{1},
                                                              std::size_t{2}, std::size_t{17})));

TEST(AesCbc, RejectsBadInputs) {
  const Bytes key(16, 0), iv(16, 0);
  EXPECT_THROW(aes_cbc_encrypt(key, iv, Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(aes_cbc_encrypt(key, Bytes(8, 0), Bytes(16, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(10, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace opcua_study
