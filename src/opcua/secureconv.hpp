// UA SecureConversation (OPC 10000-6 §6): securing OPN and MSG chunks.
//
// OPN chunks carry an asymmetric security header (policy URI, sender
// certificate, receiver certificate thumbprint) and — for any policy other
// than None — are signed with the sender's private key and encrypted with
// the receiver's public key. MSG chunks carry a symmetric header (token id)
// and use keys derived from the handshake nonces via P_SHA.
//
// Layout of the secured region (after the security header):
//   SequenceHeader | Body | Padding* | PaddingSize | Signature
// The signature covers the whole chunk up to (excluding) itself, with the
// final message size already patched into the header, exactly as the spec
// requires. Single-chunk messages only ('F'), which the study's message
// sizes never exceed.
#pragma once

#include <optional>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/x509.hpp"
#include "opcua/secpolicy.hpp"
#include "opcua/transport.hpp"
#include "util/rng.hpp"

namespace opcua_study {

/// Symmetric key block for one direction of a channel, with the key
/// material already expanded: every MSG chunk the direction carries reuses
/// the same HMAC pad states and AES schedules.
struct DerivedKeys {
  Bytes sig_key;
  Bytes enc_key;
  Bytes iv;
  std::optional<Hmac> signer;  // keyed with sig_key
  std::optional<Aes> cipher;   // expanded from enc_key
};

/// OPC UA key derivation: keys for the direction whose *remote* nonce is the
/// secret and *local* nonce is the seed (OPC 10000-6 §6.7.5). Empty for
/// policy None; otherwise `signer` and `cipher` are set.
DerivedKeys derive_keys(SecurityPolicy policy, std::span<const std::uint8_t> secret,
                        std::span<const std::uint8_t> seed);

struct SequenceHeader {
  std::uint32_t sequence_number = 1;
  std::uint32_t request_id = 1;
};

// ------------------------------------------------------------------ OPN ----

struct OpnSecurity {
  SecurityPolicy policy = SecurityPolicy::None;
  /// Sender side (signing); null for policy None.
  const RsaPrivateKey* local_private = nullptr;
  Bytes local_cert_der;
  /// Receiver side (encryption); null for policy None.
  const RsaPublicKey* remote_public = nullptr;
  Bytes remote_cert_thumbprint;
};

Bytes build_opn(std::uint32_t channel_id, const OpnSecurity& sec, SequenceHeader seq,
                std::span<const std::uint8_t> body, Rng& rng);

struct OpnParsed {
  std::uint32_t channel_id = 0;
  std::string policy_uri;
  SecurityPolicy policy = SecurityPolicy::None;
  Bytes sender_cert_der;           // empty if none sent
  Bytes receiver_cert_thumbprint;  // empty if none sent
  SequenceHeader seq;
  Bytes body;
};

/// Parse and (for secured policies) decrypt + verify an OPN chunk.
/// `local_private` is the receiver's key for decryption; signature is
/// verified against the sender certificate embedded in the message.
/// Throws DecodeError on malformed or cryptographically invalid chunks.
OpnParsed parse_opn(std::span<const std::uint8_t> wire, const RsaPrivateKey* local_private);

// ------------------------------------------------------------------ MSG ----

Bytes build_msg(std::string_view frame_type, std::uint32_t channel_id, std::uint32_t token_id,
                SequenceHeader seq, std::span<const std::uint8_t> body, SecurityPolicy policy,
                MessageSecurityMode mode, const DerivedKeys& sender_keys);

struct MsgParsed {
  std::uint32_t channel_id = 0;
  std::uint32_t token_id = 0;
  SequenceHeader seq;
  Bytes body;
};

MsgParsed parse_msg(std::span<const std::uint8_t> wire, SecurityPolicy policy,
                    MessageSecurityMode mode, const DerivedKeys& sender_keys);

}  // namespace opcua_study
