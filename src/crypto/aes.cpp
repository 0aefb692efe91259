#include "crypto/aes.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace opcua_study {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

constexpr std::uint32_t pack(std::uint8_t b0, std::uint8_t b1, std::uint8_t b2, std::uint8_t b3) {
  return (std::uint32_t{b0} << 24) | (std::uint32_t{b1} << 16) | (std::uint32_t{b2} << 8) | b3;
}

/// Round tables over big-endian column words (row 0 in the top byte).
/// te[0][x] is column (2,1,1,3)·S[x], the SubBytes+MixColumns contribution
/// of a row-0 byte; td[0][x] is (14,9,13,11)·InvS[x]. te[r] / td[r] are the
/// same words rotated right by 8r bits, for a byte that sits in row r.
struct Tables {
  std::uint32_t te[4][256];
  std::uint32_t td[4][256];
  std::uint8_t inv_sbox[256];
};

constexpr Tables make_tables() {
  Tables t{};
  for (int i = 0; i < 256; ++i) t.inv_sbox[kSbox[i]] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    const std::uint8_t v = t.inv_sbox[i];
    const std::uint32_t e = pack(gmul(s, 2), s, s, gmul(s, 3));
    const std::uint32_t d = pack(gmul(v, 14), gmul(v, 9), gmul(v, 13), gmul(v, 11));
    for (int r = 0; r < 4; ++r) {
      t.te[r][i] = std::rotr(e, 8 * r);
      t.td[r][i] = std::rotr(d, 8 * r);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint32_t load_be32(const std::uint8_t* p) {
  return pack(p[0], p[1], p[2], p[3]);
}

void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// One full round's column: rows 0..3 taken from state words a, b, c, d
/// (ShiftRows / InvShiftRows is the caller's choice of words).
std::uint32_t table_round(const std::uint32_t (&t)[4][256], std::uint32_t a, std::uint32_t b,
                          std::uint32_t c, std::uint32_t d) {
  return t[0][a >> 24] ^ t[1][(b >> 16) & 0xff] ^ t[2][(c >> 8) & 0xff] ^ t[3][d & 0xff];
}

/// The last round's column: S-box only, no (Inv)MixColumns.
std::uint32_t box_round(const std::uint8_t (&box)[256], std::uint32_t a, std::uint32_t b,
                        std::uint32_t c, std::uint32_t d) {
  return pack(box[a >> 24], box[(b >> 16) & 0xff], box[(c >> 8) & 0xff], box[d & 0xff]);
}

std::uint32_t sub_word(std::uint32_t w) {
  return box_round(kSbox, w, w, w, w);
}

void check_cbc_args(std::span<const std::uint8_t> iv, std::size_t size, const char* what) {
  if (iv.size() != 16) throw std::invalid_argument("CBC IV must be 16 bytes");
  if (size % 16 != 0) throw std::invalid_argument(std::string("CBC ") + what + " not block-aligned");
}

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw std::invalid_argument("AES key must be 16/24/32 bytes");
  }
  const std::size_t nk = key.size() / 4;
  rounds_ = static_cast<int>(nk) + 6;
  const std::size_t total_words = 4 * static_cast<std::size_t>(rounds_ + 1);
  std::uint32_t* w = enc_keys_;
  for (std::size_t i = 0; i < nk; ++i) w[i] = load_be32(&key[4 * i]);
  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = sub_word(std::rotl(temp, 8)) ^ (std::uint32_t{kRcon[i / nk]} << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  // Equivalent inverse cipher (FIPS-197 §5.3.5): round keys in reverse
  // order, InvMixColumns applied to every one but the first and last.
  // td[r][S[x]] is InvMixColumns of byte x in row r.
  for (int round = 0; round <= rounds_; ++round) {
    const std::uint32_t* src = &enc_keys_[4 * (rounds_ - round)];
    std::uint32_t* dst = &dec_keys_[4 * round];
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t sk = sub_word(src[i]);
      dst[i] = round == 0 || round == rounds_ ? src[i] : table_round(kTables.td, sk, sk, sk, sk);
    }
  }
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const std::uint32_t* rk = enc_keys_;
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  const auto& te = kTables.te;
  for (int round = 1; round < rounds_; ++round) {
    rk += 4;
    // ShiftRows: row r of column c comes from column c + r.
    const std::uint32_t t0 = table_round(te, s0, s1, s2, s3) ^ rk[0];
    const std::uint32_t t1 = table_round(te, s1, s2, s3, s0) ^ rk[1];
    const std::uint32_t t2 = table_round(te, s2, s3, s0, s1) ^ rk[2];
    const std::uint32_t t3 = table_round(te, s3, s0, s1, s2) ^ rk[3];
    s0 = t0, s1 = t1, s2 = t2, s3 = t3;
  }
  rk += 4;
  store_be32(box_round(kSbox, s0, s1, s2, s3) ^ rk[0], out);
  store_be32(box_round(kSbox, s1, s2, s3, s0) ^ rk[1], out + 4);
  store_be32(box_round(kSbox, s2, s3, s0, s1) ^ rk[2], out + 8);
  store_be32(box_round(kSbox, s3, s0, s1, s2) ^ rk[3], out + 12);
}

void Aes::decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  const std::uint32_t* rk = dec_keys_;
  std::uint32_t s0 = load_be32(in) ^ rk[0];
  std::uint32_t s1 = load_be32(in + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(in + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(in + 12) ^ rk[3];
  const auto& td = kTables.td;
  for (int round = 1; round < rounds_; ++round) {
    rk += 4;
    // InvShiftRows: row r of column c comes from column c - r.
    const std::uint32_t t0 = table_round(td, s0, s3, s2, s1) ^ rk[0];
    const std::uint32_t t1 = table_round(td, s1, s0, s3, s2) ^ rk[1];
    const std::uint32_t t2 = table_round(td, s2, s1, s0, s3) ^ rk[2];
    const std::uint32_t t3 = table_round(td, s3, s2, s1, s0) ^ rk[3];
    s0 = t0, s1 = t1, s2 = t2, s3 = t3;
  }
  rk += 4;
  const auto& inv = kTables.inv_sbox;
  store_be32(box_round(inv, s0, s3, s2, s1) ^ rk[0], out);
  store_be32(box_round(inv, s1, s0, s3, s2) ^ rk[1], out + 4);
  store_be32(box_round(inv, s2, s1, s0, s3) ^ rk[2], out + 8);
  store_be32(box_round(inv, s3, s2, s1, s0) ^ rk[3], out + 12);
}

Bytes Aes::cbc_encrypt(std::span<const std::uint8_t> iv,
                       std::span<const std::uint8_t> plaintext) const {
  check_cbc_args(iv, plaintext.size(), "plaintext");
  Bytes out(plaintext.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < plaintext.size(); off += 16) {
    std::uint8_t block[16];
    for (std::size_t i = 0; i < 16; ++i) block[i] = static_cast<std::uint8_t>(plaintext[off + i] ^ chain[i]);
    encrypt_block(block, &out[off]);
    chain = &out[off];
  }
  return out;
}

Bytes Aes::cbc_decrypt(std::span<const std::uint8_t> iv,
                       std::span<const std::uint8_t> ciphertext) const {
  check_cbc_args(iv, ciphertext.size(), "ciphertext");
  Bytes out(ciphertext.size());
  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < ciphertext.size(); off += 16) {
    decrypt_block(&ciphertext[off], &out[off]);
    for (std::size_t i = 0; i < 16; ++i) out[off + i] ^= chain[i];
    chain = &ciphertext[off];
  }
  return out;
}

Bytes aes_cbc_encrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> plaintext) {
  return Aes(key).cbc_encrypt(iv, plaintext);
}

Bytes aes_cbc_decrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> ciphertext) {
  return Aes(key).cbc_decrypt(iv, ciphertext);
}

}  // namespace opcua_study
