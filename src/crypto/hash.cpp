#include "crypto/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace opcua_study {

std::size_t digest_size(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return Md5::kDigestSize;
    case HashAlgorithm::sha1: return Sha1::kDigestSize;
    case HashAlgorithm::sha256: return Sha256::kDigestSize;
  }
  throw std::logic_error("bad hash algorithm");
}

std::string hash_name(HashAlgorithm alg) {
  switch (alg) {
    case HashAlgorithm::md5: return "MD5";
    case HashAlgorithm::sha1: return "SHA-1";
    case HashAlgorithm::sha256: return "SHA-256";
  }
  return "?";
}

// ------------------------------------------------------- block feed ----

namespace {

// All three hashes are Merkle-Damgard over 64-byte blocks; these two
// helpers are the only place bytes move through a hasher's buffer.

/// Absorbs `data`: tops up a buffered partial block, hashes every whole
/// block straight from the input span, and buffers the remaining tail.
template <typename ProcessBlock>
void feed_blocks(std::uint8_t (&buf)[64], std::size_t& buf_len,
                 std::span<const std::uint8_t> data, ProcessBlock&& process) {
  if (data.empty()) return;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buf_len > 0) {
    const std::size_t take = std::min(n, 64 - buf_len);
    std::memcpy(buf + buf_len, p, take);
    buf_len += take;
    p += take;
    n -= take;
    if (buf_len < 64) return;
    process(buf);
    buf_len = 0;
  }
  for (; n >= 64; p += 64, n -= 64) process(p);
  if (n > 0) {
    std::memcpy(buf, p, n);
    buf_len = n;
  }
}

/// Pads the buffered tail (0x80, zeros, 64-bit message bit length in the
/// algorithm's byte order) and hashes the final one or two blocks.
template <typename ProcessBlock>
void finish_blocks(std::uint8_t (&buf)[64], std::size_t buf_len, std::uint64_t total_bytes,
                   bool big_endian_length, ProcessBlock&& process) {
  buf[buf_len++] = 0x80;
  if (buf_len > 56) {
    std::memset(buf + buf_len, 0, 64 - buf_len);
    process(buf);
    buf_len = 0;
  }
  std::memset(buf + buf_len, 0, 56 - buf_len);
  const std::uint64_t bit_len = total_bytes * 8;
  for (int i = 0; i < 8; ++i) {
    buf[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (big_endian_length ? 7 - i : i)));
  }
  process(buf);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

// ---------------------------------------------------------------- MD5 ----

static constexpr std::uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

static constexpr int kMd5S[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                                  5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                                  4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                                  6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

Md5::Md5() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) | (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f += a + kMd5K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b += std::rotl(f, kMd5S[i]);
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  total_ += data.size();
  feed_blocks(buf_, buf_len_, data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Md5::kDigestSize> Md5::digest() {
  finish_blocks(buf_, buf_len_, total_, false,
                [this](const std::uint8_t* block) { process_block(block); });
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 4; ++b) out[static_cast<std::size_t>(i * 4 + b)] = static_cast<std::uint8_t>(h_[i] >> (8 * b));
  }
  return out;
}

// --------------------------------------------------------------- SHA-1 ----

Sha1::Sha1() {
  h_[0] = 0x67452301;
  h_[1] = 0xefcdab89;
  h_[2] = 0x98badcfe;
  h_[3] = 0x10325476;
  h_[4] = 0xc3d2e1f0;
}

void Sha1::process_block(const std::uint8_t* block) {
  // 16-word rolling schedule: round i >= 16 rewrites w[i % 16] in place
  // from w[i-3], w[i-8], w[i-14] and w[i-16]. One fully unrolled loop per
  // round function, so no round branches on its index.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  };
  const auto schedule = [&](int i) {
    std::uint32_t& slot = w[i & 15];
    slot = std::rotl(w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ slot, 1);
    return slot;
  };
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) round(d ^ (b & (c ^ d)), 0x5a827999, w[i]);
#pragma GCC unroll 4
  for (int i = 16; i < 20; ++i) round(d ^ (b & (c ^ d)), 0x5a827999, schedule(i));
#pragma GCC unroll 20
  for (int i = 20; i < 40; ++i) round(b ^ c ^ d, 0x6ed9eba1, schedule(i));
#pragma GCC unroll 20
  for (int i = 40; i < 60; ++i) round((b & c) | (d & (b | c)), 0x8f1bbcdc, schedule(i));
#pragma GCC unroll 20
  for (int i = 60; i < 80; ++i) round(b ^ c ^ d, 0xca62c1d6, schedule(i));
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_ += data.size();
  feed_blocks(buf_, buf_len_, data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Sha1::kDigestSize> Sha1::digest() {
  finish_blocks(buf_, buf_len_, total_, true,
                [this](const std::uint8_t* block) { process_block(block); });
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 5; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[static_cast<std::size_t>(i * 4 + b)] = static_cast<std::uint8_t>(h_[i] >> (8 * (3 - b)));
    }
  }
  return out;
}

// ------------------------------------------------------------- SHA-256 ----

static constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

Sha256::Sha256() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
}

void Sha256::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_ += data.size();
  feed_blocks(buf_, buf_len_, data, [this](const std::uint8_t* block) { process_block(block); });
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest() {
  finish_blocks(buf_, buf_len_, total_, true,
                [this](const std::uint8_t* block) { process_block(block); });
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[static_cast<std::size_t>(i * 4 + b)] = static_cast<std::uint8_t>(h_[i] >> (8 * (3 - b)));
    }
  }
  return out;
}

// ------------------------------------------------------------ one-shot ----

Bytes hash(HashAlgorithm alg, std::span<const std::uint8_t> data) {
  switch (alg) {
    case HashAlgorithm::md5: {
      Md5 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
    case HashAlgorithm::sha1: {
      Sha1 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
    case HashAlgorithm::sha256: {
      Sha256 h;
      h.update(data);
      auto d = h.digest();
      return Bytes(d.begin(), d.end());
    }
  }
  throw std::logic_error("bad hash algorithm");
}

Bytes hash(HashAlgorithm alg, std::string_view data) {
  return hash(alg, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

}  // namespace opcua_study
