#include "opcua/secureconv.hpp"

#include <algorithm>

#include "opcua/encoding.hpp"

namespace opcua_study {

DerivedKeys derive_keys(SecurityPolicy policy, std::span<const std::uint8_t> secret,
                        std::span<const std::uint8_t> seed) {
  const SecurityPolicyInfo& info = policy_info(policy);
  DerivedKeys keys;
  if (policy == SecurityPolicy::None) return keys;
  const std::size_t total = info.sym_sig_key_bytes + info.sym_enc_key_bytes + 16;
  const Bytes block = p_hash(info.kdf_hash, secret, seed, total);
  auto it = block.begin();
  keys.sig_key.assign(it, it + static_cast<std::ptrdiff_t>(info.sym_sig_key_bytes));
  it += static_cast<std::ptrdiff_t>(info.sym_sig_key_bytes);
  keys.enc_key.assign(it, it + static_cast<std::ptrdiff_t>(info.sym_enc_key_bytes));
  it += static_cast<std::ptrdiff_t>(info.sym_enc_key_bytes);
  keys.iv.assign(it, it + 16);
  keys.signer.emplace(info.sym_mac_hash, keys.sig_key);
  keys.cipher.emplace(keys.enc_key);
  return keys;
}

namespace {

/// The expanded state a secured MSG chunk needs; derive_keys() sets it.
void require_channel_state(const DerivedKeys& keys) {
  if (!keys.signer || !keys.cipher) {
    throw std::invalid_argument("secured MSG requires keys from derive_keys");
  }
}

Bytes asym_sign(const SecurityPolicyInfo& info, const RsaPrivateKey& key,
                std::span<const std::uint8_t> data, Rng& rng) {
  switch (info.asym_signature) {
    case AsymmetricSignature::pkcs1v15_sha1:
      return rsa_pkcs1v15_sign(key, HashAlgorithm::sha1, data);
    case AsymmetricSignature::pkcs1v15_sha256:
      return rsa_pkcs1v15_sign(key, HashAlgorithm::sha256, data);
    case AsymmetricSignature::pss_sha256:
      return rsa_pss_sign(key, HashAlgorithm::sha256, data, rng);
    case AsymmetricSignature::none: return {};
  }
  return {};
}

bool asym_verify(const SecurityPolicyInfo& info, const RsaPublicKey& key,
                 std::span<const std::uint8_t> data, std::span<const std::uint8_t> sig) {
  switch (info.asym_signature) {
    case AsymmetricSignature::pkcs1v15_sha1:
      return rsa_pkcs1v15_verify(key, HashAlgorithm::sha1, data, sig);
    case AsymmetricSignature::pkcs1v15_sha256:
      return rsa_pkcs1v15_verify(key, HashAlgorithm::sha256, data, sig);
    case AsymmetricSignature::pss_sha256:
      return rsa_pss_verify(key, HashAlgorithm::sha256, data, sig);
    case AsymmetricSignature::none: return true;
  }
  return false;
}

std::size_t asym_plain_block(const SecurityPolicyInfo& info, const RsaPublicKey& key) {
  switch (info.asym_encryption) {
    case AsymmetricEncryption::pkcs1v15: return rsa_pkcs1v15_max_plaintext(key);
    case AsymmetricEncryption::oaep_sha1: return rsa_oaep_max_plaintext(key, HashAlgorithm::sha1);
    case AsymmetricEncryption::oaep_sha256:
      return rsa_oaep_max_plaintext(key, HashAlgorithm::sha256);
    case AsymmetricEncryption::none: return 0;
  }
  return 0;
}

Bytes asym_encrypt_block(const SecurityPolicyInfo& info, const RsaPublicKey& key,
                         std::span<const std::uint8_t> block, Rng& rng) {
  switch (info.asym_encryption) {
    case AsymmetricEncryption::pkcs1v15: return rsa_pkcs1v15_encrypt(key, block, rng);
    case AsymmetricEncryption::oaep_sha1:
      return rsa_oaep_encrypt(key, HashAlgorithm::sha1, block, rng);
    case AsymmetricEncryption::oaep_sha256:
      return rsa_oaep_encrypt(key, HashAlgorithm::sha256, block, rng);
    case AsymmetricEncryption::none: return Bytes(block.begin(), block.end());
  }
  return {};
}

std::optional<Bytes> asym_decrypt_block(const SecurityPolicyInfo& info, const RsaPrivateKey& key,
                                        std::span<const std::uint8_t> block) {
  switch (info.asym_encryption) {
    case AsymmetricEncryption::pkcs1v15: return rsa_pkcs1v15_decrypt(key, block);
    case AsymmetricEncryption::oaep_sha1:
      return rsa_oaep_decrypt(key, HashAlgorithm::sha1, block);
    case AsymmetricEncryption::oaep_sha256:
      return rsa_oaep_decrypt(key, HashAlgorithm::sha256, block);
    case AsymmetricEncryption::none: return Bytes(block.begin(), block.end());
  }
  return std::nullopt;
}

void write_asym_security_header(UaWriter& w, const OpnSecurity& sec) {
  w.string(std::string(policy_info(sec.policy).uri));
  if (sec.policy == SecurityPolicy::None || sec.local_cert_der.empty()) {
    w.null_byte_string();
  } else {
    w.byte_string(sec.local_cert_der);
  }
  if (sec.policy == SecurityPolicy::None || sec.remote_cert_thumbprint.empty()) {
    w.null_byte_string();
  } else {
    w.byte_string(sec.remote_cert_thumbprint);
  }
}

}  // namespace

Bytes build_opn(std::uint32_t channel_id, const OpnSecurity& sec, SequenceHeader seq,
                std::span<const std::uint8_t> body, Rng& rng) {
  const SecurityPolicyInfo& info = policy_info(sec.policy);

  // Unencrypted prefix: channel id + asymmetric security header.
  UaWriter prefix_writer;
  prefix_writer.u32(channel_id);
  write_asym_security_header(prefix_writer, sec);
  const Bytes prefix = prefix_writer.take();

  // Plain region: sequence header + body.
  UaWriter plain_writer;
  plain_writer.u32(seq.sequence_number);
  plain_writer.u32(seq.request_id);
  plain_writer.base().raw(body);
  Bytes plain = plain_writer.take();

  if (sec.policy == SecurityPolicy::None) {
    Bytes full = prefix;
    full.insert(full.end(), plain.begin(), plain.end());
    return frame_message("OPN", full);
  }
  if (sec.local_private == nullptr || sec.remote_public == nullptr) {
    throw std::invalid_argument("secured OPN requires both keys");
  }

  const std::size_t sig_len = sec.local_private->modulus_bytes();
  const std::size_t plain_block = asym_plain_block(info, *sec.remote_public);
  const std::size_t cipher_block = sec.remote_public->modulus_bytes();
  // plain + padding + 1 (padding size byte) + signature must fill blocks.
  const std::size_t unpadded = plain.size() + 1 + sig_len;
  const std::size_t padding = (plain_block - unpadded % plain_block) % plain_block;
  const std::size_t n_blocks = (unpadded + padding) / plain_block;
  const std::size_t final_size = 8 + prefix.size() + n_blocks * cipher_block;

  // To-be-signed: header (with final size) + prefix + plain + padding + size byte.
  Bytes to_sign;
  {
    ByteWriter w;
    w.raw(std::string_view("OPN"));
    w.u8('F');
    w.u32(static_cast<std::uint32_t>(final_size));
    w.raw(prefix);
    w.raw(plain);
    for (std::size_t i = 0; i < padding; ++i) w.u8(static_cast<std::uint8_t>(padding));
    w.u8(static_cast<std::uint8_t>(padding));
    to_sign = w.take();
  }
  const Bytes signature = asym_sign(info, *sec.local_private, to_sign, rng);
  if (signature.size() != sig_len) throw std::logic_error("asym signature length mismatch");

  // Full plaintext to encrypt = plain + padding + size byte + signature.
  Bytes full_plain = plain;
  for (std::size_t i = 0; i < padding; ++i) full_plain.push_back(static_cast<std::uint8_t>(padding));
  full_plain.push_back(static_cast<std::uint8_t>(padding));
  full_plain.insert(full_plain.end(), signature.begin(), signature.end());

  Bytes out;
  out.reserve(final_size);
  {
    ByteWriter w;
    w.raw(std::string_view("OPN"));
    w.u8('F');
    w.u32(static_cast<std::uint32_t>(final_size));
    w.raw(prefix);
    out = w.take();
  }
  for (std::size_t off = 0; off < full_plain.size(); off += plain_block) {
    const std::size_t n = std::min(plain_block, full_plain.size() - off);
    const Bytes block = asym_encrypt_block(
        info, *sec.remote_public, std::span<const std::uint8_t>(full_plain).subspan(off, n), rng);
    out.insert(out.end(), block.begin(), block.end());
  }
  if (out.size() != final_size) throw std::logic_error("OPN size bookkeeping error");
  return out;
}

OpnParsed parse_opn(std::span<const std::uint8_t> wire, const RsaPrivateKey* local_private) {
  const Frame frame = parse_frame(wire);
  if (frame.type != "OPN") throw DecodeError("not an OPN frame");
  UaReader r(frame.body);
  OpnParsed out;
  out.channel_id = r.u32();
  out.policy_uri = r.string();
  const auto policy = policy_from_uri(out.policy_uri);
  if (!policy) throw DecodeError("unknown security policy URI: " + out.policy_uri);
  out.policy = *policy;
  out.sender_cert_der = r.byte_string();
  out.receiver_cert_thumbprint = r.byte_string();

  if (out.policy == SecurityPolicy::None) {
    out.seq.sequence_number = r.u32();
    out.seq.request_id = r.u32();
    out.body = r.base().raw(r.remaining());
    return out;
  }
  if (local_private == nullptr) throw DecodeError("secured OPN but no private key to decrypt");
  const SecurityPolicyInfo& info = policy_info(out.policy);

  const std::size_t cipher_block = local_private->modulus_bytes();
  const std::size_t encrypted_len = r.remaining();
  if (encrypted_len == 0 || encrypted_len % cipher_block != 0) {
    throw DecodeError("OPN encrypted region not block-aligned");
  }
  Bytes plain;
  for (std::size_t off = 0; off < encrypted_len; off += cipher_block) {
    const auto block = asym_decrypt_block(info, *local_private, r.base().view(cipher_block));
    if (!block) throw DecodeError("OPN block decryption failed");
    plain.insert(plain.end(), block->begin(), block->end());
  }

  const Certificate sender_cert = x509_parse(out.sender_cert_der);
  const std::size_t sig_len = sender_cert.public_key.modulus_bytes();
  if (plain.size() < sig_len + 9) throw DecodeError("OPN plaintext too short");
  const Bytes signature(plain.end() - static_cast<std::ptrdiff_t>(sig_len), plain.end());
  const std::size_t padding = plain[plain.size() - sig_len - 1];

  // Rebuild the signed view: wire prefix (header + channel id + security
  // header) + plaintext up to and including the padding-size byte.
  const std::size_t prefix_len = wire.size() - encrypted_len;
  Bytes signed_view(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(prefix_len));
  signed_view.insert(signed_view.end(), plain.begin(),
                     plain.end() - static_cast<std::ptrdiff_t>(sig_len));
  if (!asym_verify(info, sender_cert.public_key, signed_view, signature)) {
    throw DecodeError("OPN signature verification failed");
  }

  const std::size_t body_end = plain.size() - sig_len - 1 - padding;
  if (body_end < 8) throw DecodeError("OPN body underflow");
  for (std::size_t i = 0; i < padding; ++i) {
    if (plain[body_end + i] != padding) throw DecodeError("OPN padding corrupt");
  }
  UaReader pr(std::span<const std::uint8_t>(plain).first(body_end));
  out.seq.sequence_number = pr.u32();
  out.seq.request_id = pr.u32();
  out.body = pr.base().raw(pr.remaining());
  return out;
}

// ------------------------------------------------------------------ MSG ----

Bytes build_msg(std::string_view frame_type, std::uint32_t channel_id, std::uint32_t token_id,
                SequenceHeader seq, std::span<const std::uint8_t> body, SecurityPolicy policy,
                MessageSecurityMode mode, const DerivedKeys& sender_keys) {
  const SecurityPolicyInfo& info = policy_info(policy);
  UaWriter plain_writer;
  plain_writer.u32(seq.sequence_number);
  plain_writer.u32(seq.request_id);
  plain_writer.base().raw(body);
  Bytes plain = plain_writer.take();

  UaWriter prefix_writer;
  prefix_writer.u32(channel_id);
  prefix_writer.u32(token_id);
  const Bytes prefix = prefix_writer.take();

  if (mode == MessageSecurityMode::None || policy == SecurityPolicy::None) {
    Bytes full = prefix;
    full.insert(full.end(), plain.begin(), plain.end());
    return frame_message(frame_type, full);
  }

  require_channel_state(sender_keys);
  const std::size_t sig_len = digest_size(info.sym_mac_hash);
  const bool encrypt = mode == MessageSecurityMode::SignAndEncrypt;
  std::size_t padding = 0;
  if (encrypt) {
    const std::size_t unpadded = plain.size() + 1 + sig_len;
    padding = (16 - unpadded % 16) % 16;
  }
  const std::size_t secured_len = plain.size() + (encrypt ? padding + 1 : 0) + sig_len;
  const std::size_t final_size = 8 + prefix.size() + secured_len;

  Bytes to_sign;
  {
    ByteWriter w;
    w.raw(frame_type);
    w.u8('F');
    w.u32(static_cast<std::uint32_t>(final_size));
    w.raw(prefix);
    w.raw(plain);
    if (encrypt) {
      for (std::size_t i = 0; i < padding; ++i) w.u8(static_cast<std::uint8_t>(padding));
      w.u8(static_cast<std::uint8_t>(padding));
    }
    to_sign = w.take();
  }
  const Bytes signature = sender_keys.signer->mac(to_sign);

  Bytes secured = plain;
  if (encrypt) {
    for (std::size_t i = 0; i < padding; ++i) secured.push_back(static_cast<std::uint8_t>(padding));
    secured.push_back(static_cast<std::uint8_t>(padding));
  }
  secured.insert(secured.end(), signature.begin(), signature.end());
  if (encrypt) secured = sender_keys.cipher->cbc_encrypt(sender_keys.iv, secured);

  ByteWriter w;
  w.raw(frame_type);
  w.u8('F');
  w.u32(static_cast<std::uint32_t>(final_size));
  w.raw(prefix);
  w.raw(secured);
  Bytes out = w.take();
  if (out.size() != final_size) throw std::logic_error("MSG size bookkeeping error");
  return out;
}

MsgParsed parse_msg(std::span<const std::uint8_t> wire, SecurityPolicy policy,
                    MessageSecurityMode mode, const DerivedKeys& sender_keys) {
  const Frame frame = parse_frame(wire);
  if (frame.type != "MSG" && frame.type != "CLO") throw DecodeError("not a MSG/CLO frame");
  const SecurityPolicyInfo& info = policy_info(policy);
  UaReader r(frame.body);
  MsgParsed out;
  out.channel_id = r.u32();
  out.token_id = r.u32();

  if (mode == MessageSecurityMode::None || policy == SecurityPolicy::None) {
    out.seq.sequence_number = r.u32();
    out.seq.request_id = r.u32();
    out.body = r.base().raw(r.remaining());
    return out;
  }

  require_channel_state(sender_keys);
  const std::size_t sig_len = digest_size(info.sym_mac_hash);
  const bool encrypted = mode == MessageSecurityMode::SignAndEncrypt;
  Bytes secured = r.base().raw(r.remaining());
  if (encrypted) {
    if (secured.size() % 16 != 0) throw DecodeError("MSG ciphertext not block-aligned");
    secured = sender_keys.cipher->cbc_decrypt(sender_keys.iv, secured);
  }
  if (secured.size() < sig_len + 8) throw DecodeError("MSG too short");
  const std::span<const std::uint8_t> secured_view(secured);
  std::size_t body_end = secured.size() - sig_len;

  // Signed view: frame header + channel/token ids off the wire, then the
  // decrypted region up to the signature.
  const std::size_t prefix_len = 8 + 8;
  const Bytes expected =
      sender_keys.signer->mac(wire.first(prefix_len), secured_view.first(body_end));
  if (!std::ranges::equal(expected, secured_view.subspan(body_end))) {
    throw DecodeError("MSG signature verification failed");
  }

  if (encrypted) {
    const std::size_t padding = secured[body_end - 1];
    if (body_end < padding + 1 + 8) throw DecodeError("MSG padding underflow");
    for (std::size_t i = 0; i < padding; ++i) {
      if (secured[body_end - 2 - i] != padding) throw DecodeError("MSG padding corrupt");
    }
    body_end -= padding + 1;
  }
  UaReader pr(secured_view.first(body_end));
  out.seq.sequence_number = pr.u32();
  out.seq.request_id = pr.u32();
  out.body = pr.base().raw(pr.remaining());
  return out;
}

}  // namespace opcua_study
