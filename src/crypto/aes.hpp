// AES-128/192/256 in CBC mode.
//
// OPC UA SecureConversation encrypts symmetric message chunks with
// AES-CBC; the IV comes from the P_SHA key derivation, not from a
// per-message random (OPC 10000-6). Every secured MSG chunk of an
// address-space traversal passes through here, so the rounds are 32-bit
// table lookups (four encrypt and four decrypt T-tables, built at compile
// time from the S-box) and decryption runs the equivalent inverse cipher
// over round keys pre-mixed at construction. A channel expands its key
// once and reuses the Aes object for every message.
//
// Table lookups index memory by secret state, so this kernel is NOT
// constant-time: like the bignum core it is built to reproduce a
// measurement study, never to protect real systems.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace opcua_study {

class Aes {
 public:
  /// Key must be 16, 24 or 32 bytes.
  explicit Aes(std::span<const std::uint8_t> key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  /// CBC without padding: data size must be a multiple of 16 (OPC UA pads at
  /// the SecureConversation layer before encrypting).
  Bytes cbc_encrypt(std::span<const std::uint8_t> iv, std::span<const std::uint8_t> plaintext) const;
  Bytes cbc_decrypt(std::span<const std::uint8_t> iv, std::span<const std::uint8_t> ciphertext) const;

 private:
  int rounds_ = 0;
  std::uint32_t enc_keys_[60] = {};  // FIPS-197 key schedule, 4 words a round
  std::uint32_t dec_keys_[60] = {};  // reversed, inner rounds InvMixColumns'd
};

/// One-shot CBC with a fresh key expansion.
Bytes aes_cbc_encrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> plaintext);
Bytes aes_cbc_decrypt(std::span<const std::uint8_t> key, std::span<const std::uint8_t> iv,
                      std::span<const std::uint8_t> ciphertext);

}  // namespace opcua_study
