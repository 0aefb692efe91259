#include "crypto/hmac.hpp"

#include <algorithm>

namespace opcua_study {

namespace {

constexpr std::size_t kBlockSize = 64;  // all three hashes use 64-byte blocks

/// A fresh hash state for `alg`, after absorbing the 64-byte `pad`.
std::variant<Md5, Sha1, Sha256> padded_state(HashAlgorithm alg,
                                             std::span<const std::uint8_t> pad) {
  std::variant<Md5, Sha1, Sha256> state;
  switch (alg) {
    case HashAlgorithm::md5: state.emplace<Md5>(); break;
    case HashAlgorithm::sha1: state.emplace<Sha1>(); break;
    case HashAlgorithm::sha256: state.emplace<Sha256>(); break;
  }
  std::visit([&](auto& h) { h.update(pad); }, state);
  return state;
}

}  // namespace

Hmac::Hmac(HashAlgorithm alg, std::span<const std::uint8_t> key) {
  std::uint8_t k[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    const Bytes digest = hash(alg, key);
    std::copy(digest.begin(), digest.end(), k);
  } else {
    std::copy(key.begin(), key.end(), k);
  }
  std::uint8_t pad[kBlockSize];
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  inner_ = padded_state(alg, pad);
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  outer_ = padded_state(alg, pad);
}

Bytes Hmac::mac(std::span<const std::uint8_t> head, std::span<const std::uint8_t> tail) const {
  return std::visit(
      [&](auto inner) {
        inner.update(head);
        inner.update(tail);
        auto outer = std::get<decltype(inner)>(outer_);
        outer.update(inner.digest());
        const auto digest = outer.digest();
        return Bytes(digest.begin(), digest.end());
      },
      inner_);
}

Bytes hmac(HashAlgorithm alg, std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> data) {
  return Hmac(alg, key).mac(data);
}

Bytes p_hash(HashAlgorithm alg, std::span<const std::uint8_t> secret,
             std::span<const std::uint8_t> seed, std::size_t length) {
  const Hmac keyed(alg, secret);
  Bytes out;
  out.reserve(length);
  Bytes a(seed.begin(), seed.end());  // A(0) = seed
  while (out.size() < length) {
    a = keyed.mac(a);  // A(i) = HMAC(secret, A(i-1))
    const Bytes chunk = keyed.mac(a, seed);
    const std::size_t take = std::min(chunk.size(), length - out.size());
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return out;
}

}  // namespace opcua_study
