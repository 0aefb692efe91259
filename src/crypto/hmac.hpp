// HMAC (RFC 2104) and the TLS-style P_SHA pseudo-random function.
//
// OPC UA SecureConversation derives its symmetric signing/encryption keys
// and IVs from the channel nonces with P_SHA1 (Basic128Rsa15, Basic256) or
// P_SHA256 (the SHA-256 policy family) — OPC 10000-6 §6.7.5.
#pragma once

#include <span>
#include <variant>

#include "crypto/hash.hpp"
#include "util/bytes.hpp"

namespace opcua_study {

/// HMAC under one key. The key's inner and outer pad blocks are hashed at
/// construction, so each mac() hashes only the message and the inner
/// digest. A secure channel keeps one per direction for its whole life;
/// hmac() and p_hash() are built on it too, so there is one HMAC path.
class Hmac {
 public:
  Hmac(HashAlgorithm alg, std::span<const std::uint8_t> key);

  /// HMAC(key, head || tail); the split lets callers MAC two pieces
  /// without joining them first.
  Bytes mac(std::span<const std::uint8_t> head, std::span<const std::uint8_t> tail = {}) const;

 private:
  using State = std::variant<Md5, Sha1, Sha256>;
  State inner_;  // hash state after absorbing key ^ ipad
  State outer_;  // hash state after absorbing key ^ opad
};

Bytes hmac(HashAlgorithm alg, std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> data);

/// P_HASH(secret, seed) expanded to `length` bytes (RFC 5246 §5 without the
/// label; OPC UA feeds the remote nonce as secret and local nonce as seed).
Bytes p_hash(HashAlgorithm alg, std::span<const std::uint8_t> secret,
             std::span<const std::uint8_t> seed, std::size_t length);

}  // namespace opcua_study
