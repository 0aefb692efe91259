#include "scanner/snapshot_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>

#include <chrono>

#include "crypto/x509.hpp"
#include "obs/metrics.hpp"
#include "opcua/encoding.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OPCUA_STUDY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define OPCUA_STUDY_HAVE_MMAP 0
#endif

namespace opcua_study {

namespace {

constexpr std::uint32_t kMagic = 0x4f554153;       // "OUAS"
constexpr std::uint32_t kVersionV4 = 4;
constexpr std::uint32_t kVersionV5 = 5;
constexpr std::uint32_t kVersionV6 = 6;
constexpr std::uint32_t kChunkMagic = 0x4b4e4843;  // "CHNK"
constexpr std::uint32_t kFooterMagic = 0x544f4f46; // "FOOT"
constexpr std::uint32_t kDictMagic = 0x43494443;   // "CDIC"
constexpr std::uint32_t kCampaignMagic = 0x504d4143;  // "CAMP"
constexpr std::uint32_t kProtocolMagic = 0x544f5250;  // "PROT"
constexpr std::uint32_t kEndMagic = 0x50414e53;    // "SNAP"
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kChunkHeaderBytes = 4 + 4 + 4 + 8;        // v5
constexpr std::size_t kV6ChunkHeaderBytes = 4 + 4 + 4 + 4 + 8;  // v6, 8-aligned
constexpr std::size_t kTrailerBytes = 8 + 4;
// Sanity ceilings: a corrupt length field must fail fast, not drive a
// multi-gigabyte reserve() or an hours-long decode loop.
constexpr std::uint32_t kMaxSnapshots = 100000;
constexpr std::uint64_t kMaxChunks = 1u << 26;
constexpr std::uint64_t kMaxDictEntries = 1u << 26;

std::string version_tag(std::uint32_t version) { return "v" + std::to_string(version); }

/// "opcua+mqtt-tls" for a protocol mask (bit p = protocol id p).
std::string protocol_set_name(std::uint32_t mask) {
  std::string s;
  for (std::uint32_t p = 0; p < 32; ++p) {
    if (mask & (1u << p)) {
      if (!s.empty()) s += "+";
      s += protocol_name(static_cast<ProtocolId>(p));
    }
  }
  return s;
}

/// Error-message context naming what protocol family the failing data
/// claims to hold: "protocols=opcua+mqtt-tls" for v6 (a v6 file without a
/// protocol block is OPC-UA-only by construction), "pre-protocol v5/v4"
/// for the row formats, which predate the protocol column entirely.
std::string protocol_context(std::uint32_t version, std::uint32_t mask) {
  if (version != kVersionV6) return "pre-protocol " + version_tag(version);
  return "protocols=" + (mask == 0 ? std::string("opcua") : protocol_set_name(mask));
}

/// v6 chunk payloads are padded so every chunk header lands on an 8-byte
/// boundary (the header itself is 24 bytes, the file header 16): typed
/// column spans over the mapping are always aligned.
std::uint64_t v6_padding(std::uint64_t payload_bytes) { return (8 - payload_bytes % 8) % 8; }

// Portable little-endian loads for the v6 row decoder (works on any host
// endianness; the zero-copy ColumnView tier is little-endian only and
// gated by SnapshotReader::columnar()).
std::uint16_t le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
double lef64(const std::uint8_t* p) {
  const std::uint64_t bits = le64(p);
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void write_host(UaWriter& w, const HostScanRecord& host) {
  // The row formats predate fault injection and have no slot for the
  // scan-quality fields; silently dropping them would make a v5 round
  // trip lossy, so refuse instead (fault-free records always pass).
  if (host.completeness != ProbeOutcome::complete || host.retries != 0 ||
      host.fault_events != 0) {
    throw SnapshotError(
        "v5/v4 snapshot formats cannot encode scan-quality fields; "
        "write fault-injected campaigns as v6");
  }
  // Same stance for the protocol column: pre-protocol formats would decode
  // an MQTT broker as an OPC UA server, so refuse rather than lose the id.
  if (host.protocol != ProtocolId::opcua) {
    throw SnapshotError("v5/v4 snapshot formats cannot encode non-OPC-UA records (got " +
                        protocol_name(host.protocol) + "); write mixed campaigns as v6");
  }
  w.u32(host.ip);
  w.u16(host.port);
  w.u32(host.asn);
  w.boolean(host.tcp_open);
  w.boolean(host.speaks_opcua);
  w.boolean(host.found_via_reference);
  w.string(host.application_uri);
  w.string(host.product_uri);
  w.string(host.application_name);
  w.u32(static_cast<std::uint32_t>(host.application_type));
  w.string(host.software_version);
  w.u32(static_cast<std::uint32_t>(host.endpoints.size()));
  for (const auto& ep : host.endpoints) {
    w.string(ep.url);
    w.u32(static_cast<std::uint32_t>(ep.mode));
    w.string(ep.policy_uri);
    w.u32(static_cast<std::uint32_t>(ep.token_types.size()));
    for (const auto t : ep.token_types) w.u32(static_cast<std::uint32_t>(t));
    w.byte_string(ep.certificate_der);
  }
  w.u32(static_cast<std::uint32_t>(host.referenced_targets.size()));
  for (const auto& [ip, port] : host.referenced_targets) {
    w.u32(ip);
    w.u16(port);
  }
  w.u32(static_cast<std::uint32_t>(host.channel));
  w.u32(static_cast<std::uint32_t>(host.channel_policy));
  w.u32(static_cast<std::uint32_t>(host.channel_mode));
  w.boolean(host.server_signature_valid);
  w.boolean(host.anonymous_offered);
  w.u32(static_cast<std::uint32_t>(host.session));
  w.string_array(host.namespaces);
  w.u32(static_cast<std::uint32_t>(host.nodes.size()));
  for (const auto& node : host.nodes) {
    w.string(node.browse_name);
    w.u32(static_cast<std::uint32_t>(node.node_class));
    w.boolean(node.readable);
    w.boolean(node.writable);
    w.boolean(node.executable);
  }
  w.boolean(host.traversal_truncated);
  w.u64(host.bytes_sent);
  w.f64(host.duration_seconds);
}

// Enum fields come off disk as raw integers; a flipped bit must surface as
// a DecodeError, not as an out-of-range enum that downstream switch
// statements silently misclassify.
std::uint32_t checked_enum(UaReader& r, std::uint32_t max, const char* field) {
  const std::uint32_t v = r.u32();
  if (v > max) {
    throw DecodeError(std::string("snapshot record: invalid ") + field + " value " +
                      std::to_string(v));
  }
  return v;
}

std::uint32_t checked_enum8(std::uint8_t v, std::uint32_t max, const char* field) {
  if (v > max) {
    throw DecodeError(std::string("snapshot record: invalid ") + field + " value " +
                      std::to_string(v));
  }
  return v;
}

NodeClass node_class_from_value(std::uint32_t v) {
  switch (v) {
    case 0: return NodeClass::Unspecified;
    case 1: return NodeClass::Object;
    case 2: return NodeClass::Variable;
    case 4: return NodeClass::Method;
    default:
      throw DecodeError("snapshot record: invalid node class value " + std::to_string(v));
  }
}

NodeClass checked_node_class(UaReader& r) { return node_class_from_value(r.u32()); }

HostScanRecord read_host(UaReader& r) {
  HostScanRecord host;
  host.ip = r.u32();
  host.port = r.u16();
  host.asn = r.u32();
  host.tcp_open = r.boolean();
  host.speaks_opcua = r.boolean();
  host.found_via_reference = r.boolean();
  host.application_uri = r.string();
  host.product_uri = r.string();
  host.application_name = r.string();
  host.application_type = static_cast<ApplicationType>(checked_enum(r, 3, "application type"));
  host.software_version = r.string();
  const std::uint32_t n_eps = r.u32();
  for (std::uint32_t i = 0; i < n_eps; ++i) {
    EndpointObservation ep;
    ep.url = r.string();
    ep.mode = static_cast<MessageSecurityMode>(checked_enum(r, 3, "security mode"));
    ep.policy_uri = r.string();
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      ep.policy = *policy;
      ep.policy_known = true;
    }
    const std::uint32_t n_tokens = r.u32();
    for (std::uint32_t t = 0; t < n_tokens; ++t) {
      ep.token_types.push_back(
          static_cast<UserTokenType>(checked_enum(r, 3, "user token type")));
    }
    ep.certificate_der = r.byte_string();
    host.endpoints.push_back(std::move(ep));
  }
  const std::uint32_t n_refs = r.u32();
  for (std::uint32_t i = 0; i < n_refs; ++i) {
    const Ipv4 ip = r.u32();
    const std::uint16_t port = r.u16();
    host.referenced_targets.emplace_back(ip, port);
  }
  host.channel = static_cast<ChannelOutcome>(checked_enum(r, 3, "channel outcome"));
  host.channel_policy = static_cast<SecurityPolicy>(checked_enum(r, 5, "channel policy"));
  host.channel_mode = static_cast<MessageSecurityMode>(checked_enum(r, 3, "channel mode"));
  host.server_signature_valid = r.boolean();
  host.anonymous_offered = r.boolean();
  host.session = static_cast<SessionOutcome>(checked_enum(r, 3, "session outcome"));
  host.namespaces = r.string_array();
  const std::uint32_t n_nodes = r.u32();
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    NodeObservation node;
    node.browse_name = r.string();
    node.node_class = checked_node_class(r);
    node.readable = r.boolean();
    node.writable = r.boolean();
    node.executable = r.boolean();
    host.nodes.push_back(std::move(node));
  }
  host.traversal_truncated = r.boolean();
  host.bytes_sent = r.u64();
  host.duration_seconds = r.f64();
  return host;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SnapshotError("snapshot file not found: " + path);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Column base pointers of one v6 chunk payload. Offsets follow the
/// format comment in snapshot_io.hpp: columns in decreasing alignment,
/// fixed section 47n+4 bytes, var column behind it.
struct V6Layout {
  std::size_t n = 0;
  std::uint64_t var_bytes = 0;
  const std::uint8_t* bytes_sent = nullptr;
  const std::uint8_t* uri_hash = nullptr;
  const std::uint8_t* duration = nullptr;
  const std::uint8_t* ip = nullptr;
  const std::uint8_t* asn = nullptr;
  const std::uint8_t* var_offsets = nullptr;  // n + 1 little-endian u32s
  const std::uint8_t* port = nullptr;
  const std::uint8_t* application_type = nullptr;
  const std::uint8_t* channel = nullptr;
  const std::uint8_t* channel_policy = nullptr;
  const std::uint8_t* channel_mode = nullptr;
  const std::uint8_t* session = nullptr;
  const std::uint8_t* flags = nullptr;
  const std::uint8_t* mode_mask = nullptr;
  const std::uint8_t* policy_mask = nullptr;
  const std::uint8_t* token_mask = nullptr;
  const std::uint8_t* var = nullptr;
};

V6Layout v6_layout(const std::uint8_t* payload, std::uint64_t payload_bytes, std::uint32_t n) {
  const std::uint64_t fixed = 47ull * n + 4;
  if (payload_bytes < fixed) throw DecodeError("chunk payload shorter than its fixed columns");
  V6Layout lay;
  lay.n = n;
  lay.var_bytes = payload_bytes - fixed;
  if (lay.var_bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw DecodeError("var column too large for its u32 offsets");
  }
  const std::uint8_t* p = payload;
  lay.bytes_sent = p; p += 8ull * n;
  lay.uri_hash = p; p += 8ull * n;
  lay.duration = p; p += 8ull * n;
  lay.ip = p; p += 4ull * n;
  lay.asn = p; p += 4ull * n;
  lay.var_offsets = p; p += 4ull * (n + 1);
  lay.port = p; p += 2ull * n;
  lay.application_type = p; p += n;
  lay.channel = p; p += n;
  lay.channel_policy = p; p += n;
  lay.channel_mode = p; p += n;
  lay.session = p; p += n;
  lay.flags = p; p += n;
  lay.mode_mask = p; p += n;
  lay.policy_mask = p; p += n;
  lay.token_mask = p; p += n;
  lay.var = p;
  return lay;
}

void validate_var_offsets(const V6Layout& lay) {
  std::uint32_t prev = le32(lay.var_offsets);
  if (prev != 0) throw DecodeError("var offsets do not start at zero");
  for (std::size_t i = 1; i <= lay.n; ++i) {
    const std::uint32_t cur = le32(lay.var_offsets + 4 * i);
    if (cur < prev) throw DecodeError("var offsets not monotone");
    prev = cur;
  }
  if (prev != lay.var_bytes) throw DecodeError("var offsets do not cover the var column");
}

std::uint32_t checked_cert_id(std::uint32_t id, std::size_t dict_size) {
  if (id >= dict_size) {
    throw DecodeError("certificate id " + std::to_string(id) + " out of dictionary range (" +
                      std::to_string(dict_size) + " entries)");
  }
  return id;
}

/// Decode record i of a v6 chunk back into a full HostScanRecord. The
/// derived columns (uri_hash, mode/policy/token masks) and the head cert
/// id list are re-derived from the decoded fields and cross-checked, so
/// corruption in either representation surfaces as a DecodeError.
HostScanRecord read_host_v6(const SnapshotReader& reader, const V6Layout& lay, std::size_t i) {
  HostScanRecord host;
  host.ip = le32(lay.ip + 4 * i);
  host.port = le16(lay.port + 2 * i);
  host.asn = le32(lay.asn + 4 * i);
  const std::uint8_t flags = lay.flags[i];
  if (flags & ~snapshot_flags::kAllFlags) {
    throw DecodeError("snapshot record: invalid flags value " + std::to_string(flags));
  }
  host.tcp_open = flags & snapshot_flags::kTcpOpen;
  host.speaks_opcua = flags & snapshot_flags::kSpeaksOpcua;
  host.found_via_reference = flags & snapshot_flags::kFoundViaReference;
  host.server_signature_valid = flags & snapshot_flags::kServerSignatureValid;
  host.anonymous_offered = flags & snapshot_flags::kAnonymousOffered;
  host.traversal_truncated = flags & snapshot_flags::kTraversalTruncated;
  host.application_type = static_cast<ApplicationType>(
      checked_enum8(lay.application_type[i], 3, "application type"));
  host.channel = static_cast<ChannelOutcome>(checked_enum8(lay.channel[i], 3, "channel outcome"));
  host.channel_policy =
      static_cast<SecurityPolicy>(checked_enum8(lay.channel_policy[i], 5, "channel policy"));
  host.channel_mode =
      static_cast<MessageSecurityMode>(checked_enum8(lay.channel_mode[i], 3, "channel mode"));
  host.session = static_cast<SessionOutcome>(checked_enum8(lay.session[i], 3, "session outcome"));
  host.bytes_sent = le64(lay.bytes_sent + 8 * i);
  host.duration_seconds = lef64(lay.duration + 8 * i);

  const std::uint32_t var_begin = le32(lay.var_offsets + 4 * i);
  const std::uint32_t var_end = le32(lay.var_offsets + 4 * (i + 1));
  UaReader r(std::span<const std::uint8_t>(lay.var + var_begin, var_end - var_begin));
  const std::uint16_t head_n = r.u16();
  std::vector<std::uint32_t> head;
  head.reserve(head_n);
  for (std::uint16_t k = 0; k < head_n; ++k) {
    head.push_back(checked_cert_id(r.u32(), reader.cert_count()));
  }
  host.application_uri = r.string();
  host.product_uri = r.string();
  host.application_name = r.string();
  host.software_version = r.string();
  const std::uint32_t n_eps = r.u32();
  std::vector<std::uint32_t> ep_ids;
  for (std::uint32_t e = 0; e < n_eps; ++e) {
    EndpointObservation ep;
    ep.url = r.string();
    ep.mode = static_cast<MessageSecurityMode>(checked_enum8(r.byte(), 3, "security mode"));
    const std::uint8_t code = r.byte();
    if (code == 0xff) {
      ep.policy_uri = r.string();
      if (const auto policy = policy_from_uri(ep.policy_uri)) {
        ep.policy = *policy;
        ep.policy_known = true;
      }
    } else if (code <= 5) {
      ep.policy = static_cast<SecurityPolicy>(code);
      ep.policy_known = true;
      ep.policy_uri = std::string(policy_info(ep.policy).uri);
    } else {
      throw DecodeError("snapshot record: invalid policy code value " + std::to_string(code));
    }
    const std::uint8_t n_tokens = r.byte();
    for (std::uint8_t t = 0; t < n_tokens; ++t) {
      ep.token_types.push_back(
          static_cast<UserTokenType>(checked_enum8(r.byte(), 3, "user token type")));
    }
    const std::uint32_t cert_id = r.u32();
    if (cert_id != kNoCertId) {
      checked_cert_id(cert_id, reader.cert_count());
      const auto der = reader.cert_der(cert_id);
      ep.certificate_der.assign(der.begin(), der.end());
    }
    ep_ids.push_back(cert_id);
    host.endpoints.push_back(std::move(ep));
  }
  const std::uint32_t n_refs = r.u32();
  for (std::uint32_t k = 0; k < n_refs; ++k) {
    const Ipv4 ip = r.u32();
    const std::uint16_t port = r.u16();
    host.referenced_targets.emplace_back(ip, port);
  }
  host.namespaces = r.string_array();
  const std::uint32_t n_nodes = r.u32();
  for (std::uint32_t k = 0; k < n_nodes; ++k) {
    NodeObservation node;
    node.browse_name = r.string();
    node.node_class = node_class_from_value(r.byte());
    const std::uint8_t access = r.byte();
    if (access & ~0x7u) {
      throw DecodeError("snapshot record: invalid node access bits " + std::to_string(access));
    }
    node.readable = access & 0x1;
    node.writable = access & 0x2;
    node.executable = access & 0x4;
    host.nodes.push_back(std::move(node));
  }
  if (flags & snapshot_flags::kScanQuality) {
    const std::uint8_t completeness = r.byte();
    if (completeness > 3) {
      throw DecodeError("snapshot record: invalid completeness value " +
                        std::to_string(completeness));
    }
    host.completeness = static_cast<ProbeOutcome>(completeness);
    host.retries = r.u16();
    host.fault_events = r.u16();
    if (completeness == 0 && host.retries == 0 && host.fault_events == 0) {
      throw DecodeError("snapshot record: all-zero scan-quality tail (non-canonical)");
    }
  }
  if (flags & snapshot_flags::kProtocol) {
    const std::uint8_t protocol = r.byte();
    if (protocol == 0) {
      throw DecodeError(
          "snapshot record: zero protocol tail byte (non-canonical; OPC UA records carry "
          "no protocol tail)");
    }
    if (protocol >= kProtocolCount) {
      throw DecodeError("snapshot record: invalid protocol value " + std::to_string(protocol));
    }
    host.protocol = static_cast<ProtocolId>(protocol);
  }
  if (!r.done()) throw DecodeError("var record longer than its fields");

  // Cross-check every derived representation against the decoded record.
  std::vector<std::uint32_t> expect_head;
  std::uint8_t mode_mask = 0, policy_mask = 0, token_mask = 0;
  for (std::size_t e = 0; e < host.endpoints.size(); ++e) {
    const EndpointObservation& ep = host.endpoints[e];
    mode_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(ep.mode));
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      policy_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(*policy));
    }
    for (const UserTokenType t : ep.token_types) {
      token_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(t));
    }
    const std::uint32_t id = ep_ids[e];
    if (id != kNoCertId &&
        std::find(expect_head.begin(), expect_head.end(), id) == expect_head.end()) {
      expect_head.push_back(id);
    }
  }
  if (head != expect_head) {
    throw DecodeError("certificate id list disagrees with the record's endpoints");
  }
  if (mode_mask != lay.mode_mask[i] || policy_mask != lay.policy_mask[i] ||
      token_mask != lay.token_mask[i]) {
    throw DecodeError("derived security columns disagree with the record's endpoints");
  }
  const std::uint64_t uri_hash =
      host.application_uri.empty() ? 0 : hash64(host.application_uri);
  if (uri_hash != le64(lay.uri_hash + 8 * i)) {
    throw DecodeError("uri hash column disagrees with the record's application URI");
  }
  return host;
}

}  // namespace

// -------------------------------------------------- var-record cursor ----

void VarRecordCursor::skip_string() {
  const std::int32_t len = r_.i32();
  if (len > 0) r_.base().skip(static_cast<std::size_t>(len));
}

void VarRecordCursor::advance(int target) {
  if (stage_ > target) {
    throw DecodeError("var record cursor: fields must be read in field order");
  }
  while (stage_ < target) {
    switch (stage_) {
      case kCertIds: {
        const std::uint16_t n = r_.u16();
        r_.base().skip(4ull * n);
        break;
      }
      case kApplicationUri:
      case kProductUri:
      case kApplicationName:
      case kSoftwareVersion:
        skip_string();
        break;
      case kEndpoints: {
        const std::uint32_t n = r_.u32();
        for (std::uint32_t e = 0; e < n; ++e) {
          skip_string();  // url
          r_.byte();      // mode
          const std::uint8_t code = r_.byte();
          if (code == 0xff) {
            skip_string();  // explicit policy URI
          } else if (code > 5) {
            throw DecodeError("snapshot record: invalid policy code value " +
                              std::to_string(code));
          }
          const std::uint8_t n_tokens = r_.byte();
          r_.base().skip(n_tokens);
          r_.u32();  // cert id
        }
        break;
      }
      case kRefs: {
        const std::uint32_t n = r_.u32();
        r_.base().skip(6ull * n);
        break;
      }
      case kNamespaces: {
        const std::int32_t n = r_.i32();
        for (std::int32_t k = 0; k < n; ++k) skip_string();
        break;
      }
      default:
        break;
    }
    ++stage_;
  }
}

void VarRecordCursor::cert_ids(std::vector<std::uint32_t>& out) {
  advance(kCertIds);
  out.clear();
  const std::uint16_t n = r_.u16();
  out.reserve(n);
  for (std::uint16_t k = 0; k < n; ++k) out.push_back(r_.u32());
  stage_ = kApplicationUri;
}

std::string VarRecordCursor::application_uri() {
  advance(kApplicationUri);
  std::string s = r_.string();
  stage_ = kProductUri;
  return s;
}

std::string VarRecordCursor::product_uri() {
  advance(kProductUri);
  std::string s = r_.string();
  stage_ = kApplicationName;
  return s;
}

std::string VarRecordCursor::application_name() {
  advance(kApplicationName);
  std::string s = r_.string();
  stage_ = kSoftwareVersion;
  return s;
}

std::string VarRecordCursor::software_version() {
  advance(kSoftwareVersion);
  std::string s = r_.string();
  stage_ = kEndpoints;
  return s;
}

std::vector<std::string> VarRecordCursor::namespaces() {
  advance(kNamespaces);
  std::vector<std::string> out = r_.string_array();
  stage_ = kNodes;
  return out;
}

void VarRecordCursor::visit_nodes(
    const std::function<void(NodeClass, bool, bool, bool)>& fn) {
  advance(kNodes);
  const std::uint32_t n = r_.u32();
  for (std::uint32_t k = 0; k < n; ++k) {
    skip_string();  // browse name
    const NodeClass node_class = node_class_from_value(r_.byte());
    const std::uint8_t access = r_.byte();
    if (access & ~0x7u) {
      throw DecodeError("snapshot record: invalid node access bits " + std::to_string(access));
    }
    fn(node_class, access & 0x1, access & 0x2, access & 0x4);
  }
  stage_ = kNodes + 1;
}

// ------------------------------------------------------------- writer ----

/// v6 per-chunk column accumulators plus the growing var column. One set
/// per open chunk; cleared on flush. Dictionary state lives on the writer
/// (file scope), not here.
struct SnapshotWriter::ColumnBuffers {
  std::vector<std::uint64_t> bytes_sent, uri_hash;
  std::vector<double> duration;
  std::vector<std::uint32_t> ip, asn, var_ends;
  std::vector<std::uint16_t> port;
  std::vector<std::uint8_t> application_type, channel, channel_policy, channel_mode, session,
      flags, mode_mask, policy_mask, token_mask;
  UaWriter var;
  std::vector<std::uint32_t> head_scratch;

  void clear() {
    bytes_sent.clear();
    uri_hash.clear();
    duration.clear();
    ip.clear();
    asn.clear();
    var_ends.clear();
    port.clear();
    application_type.clear();
    channel.clear();
    channel_policy.clear();
    channel_mode.clear();
    session.clear();
    flags.clear();
    mode_mask.clear();
    policy_mask.clear();
    token_mask.clear();
    var = UaWriter();
  }
};

SnapshotWriter::SnapshotWriter(const std::string& path, std::uint64_t seed,
                               std::uint32_t chunk_records, std::uint32_t format_version)
    : path_(path),
      seed_(seed),
      chunk_records_(std::max<std::uint32_t>(1, chunk_records)),
      format_version_(format_version) {
  if (format_version_ != kVersionV5 && format_version_ != kVersionV6) {
    throw SnapshotError("unsupported snapshot write version " +
                        std::to_string(format_version_) + ": " + path);
  }
  if (format_version_ == kVersionV6) cols_ = std::make_unique<ColumnBuffers>();
  // Write into a sibling temp file; finish() renames it over `path` so a
  // crash mid-campaign can never leave a half-written file at the final
  // name (same pattern as the key-cache flush).
  out_.open(path + ".tmp", std::ios::binary | std::ios::trunc);
  if (!out_) throw SnapshotError("cannot open snapshot file for writing: " + path + ".tmp");
  UaWriter header;
  header.u32(kMagic);
  header.u32(format_version_);
  header.u64(seed);
  const Bytes& bytes = header.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file_pos_ = bytes.size();
}

SnapshotWriter::~SnapshotWriter() {
  // No auto-seal: a writer destroyed without finish() — e.g. during stack
  // unwinding after a failed campaign — must leave the file *unsealed*
  // (no trailer), so readers reject the partial dataset instead of
  // silently analyzing a truncated study.
}

void SnapshotWriter::set_campaign(const std::string& label, std::int64_t epoch_days) {
  if (finished_) throw SnapshotError("snapshot writer already finished: " + path_);
  campaign_label_ = label;
  campaign_epoch_days_ = epoch_days;
  campaign_set_ = true;
}

void SnapshotWriter::begin_snapshot(int measurement_index, std::int64_t date_days) {
  if (finished_) throw SnapshotError("snapshot writer already finished: " + path_);
  if (in_snapshot_) throw SnapshotError("begin_snapshot while a snapshot is open: " + path_);
  SnapshotMeta meta;
  meta.measurement_index = measurement_index;
  meta.date_days = date_days;
  meta.campaign_label = campaign_label_;
  meta.campaign_epoch_days = campaign_epoch_days_;
  snapshots_.push_back(meta);
  in_snapshot_ = true;
}

std::uint32_t SnapshotWriter::intern_certificate(const Bytes& der) {
  const std::uint64_t fp = certificate_fingerprint64(der);
  std::vector<std::uint32_t>& ids = dict_index_[fp];
  for (const std::uint32_t id : ids) {
    if (dict_ders_[id] == der) return id;
  }
  if (dict_ders_.size() >= kNoCertId) {
    throw SnapshotError("certificate dictionary overflow: " + path_);
  }
  const std::uint32_t id = static_cast<std::uint32_t>(dict_ders_.size());
  dict_ders_.push_back(der);
  dict_fps_.push_back(fp);
  ids.push_back(id);
  return id;
}

void SnapshotWriter::add_host_v6(const HostScanRecord& host) {
  ColumnBuffers& c = *cols_;
  c.ip.push_back(host.ip);
  c.port.push_back(host.port);
  c.asn.push_back(host.asn);
  c.bytes_sent.push_back(host.bytes_sent);
  c.duration.push_back(host.duration_seconds);
  c.uri_hash.push_back(host.application_uri.empty() ? 0 : hash64(host.application_uri));
  c.application_type.push_back(static_cast<std::uint8_t>(host.application_type));
  c.channel.push_back(static_cast<std::uint8_t>(host.channel));
  c.channel_policy.push_back(static_cast<std::uint8_t>(host.channel_policy));
  c.channel_mode.push_back(static_cast<std::uint8_t>(host.channel_mode));
  c.session.push_back(static_cast<std::uint8_t>(host.session));
  std::uint8_t flags = 0;
  if (host.tcp_open) flags |= snapshot_flags::kTcpOpen;
  if (host.speaks_opcua) flags |= snapshot_flags::kSpeaksOpcua;
  if (host.found_via_reference) flags |= snapshot_flags::kFoundViaReference;
  if (host.server_signature_valid) flags |= snapshot_flags::kServerSignatureValid;
  if (host.anonymous_offered) flags |= snapshot_flags::kAnonymousOffered;
  if (host.traversal_truncated) flags |= snapshot_flags::kTraversalTruncated;
  const bool scan_quality = host.completeness != ProbeOutcome::complete ||
                            host.retries != 0 || host.fault_events != 0;
  if (scan_quality) flags |= snapshot_flags::kScanQuality;
  const bool foreign_protocol = host.protocol != ProtocolId::opcua;
  if (foreign_protocol) flags |= snapshot_flags::kProtocol;
  c.flags.push_back(flags);

  // Per-endpoint pass: derived masks + dictionary interning. The head id
  // list mirrors distinct_certificates(): distinct ids, first-seen
  // endpoint order (interning dedups by DER content, so id identity is
  // content identity).
  std::uint8_t mode_mask = 0, policy_mask = 0, token_mask = 0;
  std::vector<std::uint32_t>& head = c.head_scratch;
  head.clear();
  std::vector<std::uint32_t> ep_ids;
  ep_ids.reserve(host.endpoints.size());
  for (const EndpointObservation& ep : host.endpoints) {
    mode_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(ep.mode));
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      policy_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(*policy));
    }
    for (const UserTokenType t : ep.token_types) {
      token_mask |= static_cast<std::uint8_t>(1u << static_cast<std::uint32_t>(t));
    }
    std::uint32_t id = kNoCertId;
    if (!ep.certificate_der.empty()) {
      id = intern_certificate(ep.certificate_der);
      if (std::find(head.begin(), head.end(), id) == head.end()) head.push_back(id);
    }
    ep_ids.push_back(id);
  }
  c.mode_mask.push_back(mode_mask);
  c.policy_mask.push_back(policy_mask);
  c.token_mask.push_back(token_mask);

  UaWriter& w = c.var;
  if (head.size() > 0xffff) {
    throw SnapshotError("host advertises more than 65535 distinct certificates: " + path_);
  }
  w.u16(static_cast<std::uint16_t>(head.size()));
  for (const std::uint32_t id : head) w.u32(id);
  w.string(host.application_uri);
  w.string(host.product_uri);
  w.string(host.application_name);
  w.string(host.software_version);
  w.u32(static_cast<std::uint32_t>(host.endpoints.size()));
  for (std::size_t e = 0; e < host.endpoints.size(); ++e) {
    const EndpointObservation& ep = host.endpoints[e];
    w.string(ep.url);
    w.byte(static_cast<std::uint8_t>(ep.mode));
    // The policy code mirrors the read-side normalization: v5 readers
    // re-derive (policy, policy_known) from the URI, so only the URI's
    // identity is stored — canonically (one byte) when it names a table
    // policy, verbatim behind the 255 escape otherwise.
    if (const auto policy = policy_from_uri(ep.policy_uri)) {
      w.byte(static_cast<std::uint8_t>(*policy));
    } else {
      w.byte(0xff);
      w.string(ep.policy_uri);
    }
    if (ep.token_types.size() > 0xff) {
      throw SnapshotError("endpoint advertises more than 255 token types: " + path_);
    }
    w.byte(static_cast<std::uint8_t>(ep.token_types.size()));
    for (const UserTokenType t : ep.token_types) w.byte(static_cast<std::uint8_t>(t));
    w.u32(ep_ids[e]);
  }
  w.u32(static_cast<std::uint32_t>(host.referenced_targets.size()));
  for (const auto& [ip, port] : host.referenced_targets) {
    w.u32(ip);
    w.u16(port);
  }
  w.string_array(host.namespaces);
  w.u32(static_cast<std::uint32_t>(host.nodes.size()));
  for (const NodeObservation& node : host.nodes) {
    w.string(node.browse_name);
    w.byte(static_cast<std::uint8_t>(node.node_class));
    std::uint8_t access = 0;
    if (node.readable) access |= 0x1;
    if (node.writable) access |= 0x2;
    if (node.executable) access |= 0x4;
    w.byte(access);
  }
  if (scan_quality) {
    w.byte(static_cast<std::uint8_t>(host.completeness));
    w.u16(host.retries);
    w.u16(host.fault_events);
  }
  // The protocol byte is always the last byte of the slice, so columnar
  // consumers can peel it off without a cursor walk (nonzero by
  // construction: protocol 0 never sets the flag).
  if (foreign_protocol) w.byte(static_cast<std::uint8_t>(host.protocol));
  if (w.bytes().size() > std::numeric_limits<std::uint32_t>::max()) {
    throw SnapshotError("chunk var column exceeds 4 GiB; lower chunk_records: " + path_);
  }
  c.var_ends.push_back(static_cast<std::uint32_t>(w.bytes().size()));
}

void SnapshotWriter::add_host(const HostScanRecord& host) {
  if (!in_snapshot_) throw SnapshotError("add_host outside begin/end_snapshot: " + path_);
  if (format_version_ == kVersionV6) {
    add_host_v6(host);
  } else {
    UaWriter w;
    write_host(w, host);
    const Bytes& encoded = w.bytes();
    chunk_buf_.insert(chunk_buf_.end(), encoded.begin(), encoded.end());
  }
  snapshots_.back().protocol_mask |= 1u << static_cast<std::uint32_t>(host.protocol);
  ++buffered_records_;
  ++snapshots_.back().host_count;
  if (buffered_records_ >= chunk_records_) flush_chunk();
}

void SnapshotWriter::end_snapshot(std::uint64_t probes_sent, std::uint64_t tcp_open_count) {
  if (!in_snapshot_) throw SnapshotError("end_snapshot without begin_snapshot: " + path_);
  snapshots_.back().probes_sent = probes_sent;
  snapshots_.back().tcp_open_count = tcp_open_count;
  flush_chunk();  // chunks never straddle measurements
  in_snapshot_ = false;
}

void SnapshotWriter::add_snapshot(const ScanSnapshot& snapshot) {
  begin_snapshot(snapshot.measurement_index, snapshot.date_days);
  for (const auto& host : snapshot.hosts) add_host(host);
  end_snapshot(snapshot.probes_sent, snapshot.tcp_open_count);
}

void SnapshotWriter::flush_chunk() {
  if (buffered_records_ == 0) return;
  const bool obs_on = obs::enabled();
  const auto wall_start =
      obs_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  SnapshotChunkInfo info;
  info.snapshot_ordinal = static_cast<std::uint32_t>(snapshots_.size() - 1);
  info.record_count = buffered_records_;
  info.file_offset = file_pos_;

  UaWriter w;
  if (format_version_ == kVersionV6) {
    const ColumnBuffers& c = *cols_;
    const std::size_t n = buffered_records_;
    info.payload_bytes = 47ull * n + 4 + c.var.bytes().size();
    w.u32(kChunkMagic);
    w.u32(info.snapshot_ordinal);
    w.u32(info.record_count);
    w.u32(0);  // reserved: keeps the header 24 bytes, i.e. 8-aligned
    w.u64(info.payload_bytes);
    for (const std::uint64_t v : c.bytes_sent) w.u64(v);
    for (const std::uint64_t v : c.uri_hash) w.u64(v);
    for (const double v : c.duration) w.f64(v);
    for (const std::uint32_t v : c.ip) w.u32(v);
    for (const std::uint32_t v : c.asn) w.u32(v);
    w.u32(0);
    for (const std::uint32_t v : c.var_ends) w.u32(v);
    for (const std::uint16_t v : c.port) w.u16(v);
    w.base().raw(c.application_type);
    w.base().raw(c.channel);
    w.base().raw(c.channel_policy);
    w.base().raw(c.channel_mode);
    w.base().raw(c.session);
    w.base().raw(c.flags);
    w.base().raw(c.mode_mask);
    w.base().raw(c.policy_mask);
    w.base().raw(c.token_mask);
    w.base().raw(c.var.bytes());
    const std::uint64_t pad = v6_padding(info.payload_bytes);
    for (std::uint64_t p = 0; p < pad; ++p) w.byte(0);
    cols_->clear();
  } else {
    info.payload_bytes = chunk_buf_.size();
    w.u32(kChunkMagic);
    w.u32(info.snapshot_ordinal);
    w.u32(info.record_count);
    w.u64(info.payload_bytes);
    w.base().raw(chunk_buf_);
    chunk_buf_.clear();
  }
  const Bytes& bytes = w.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file_pos_ += bytes.size();
  chunks_.push_back(info);
  buffered_records_ = 0;
  if (obs_on) {
    obs::add(obs::Metric::snapshot_chunks_written);
    obs::add(obs::Metric::snapshot_bytes_written, bytes.size());
    obs::add(obs::Metric::snapshot_write_wall_us,
             static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - wall_start)
                                            .count()));
  }
}

void SnapshotWriter::finish() {
  if (finished_) return;
  if (in_snapshot_) throw SnapshotError("finish with an open snapshot: " + path_);
  std::uint64_t dict_offset = 0;
  std::uint64_t dict_bytes = 0;
  if (format_version_ == kVersionV6) {
    dict_offset = file_pos_;
    UaWriter d;
    d.u32(kDictMagic);
    d.u32(static_cast<std::uint32_t>(dict_ders_.size()));
    for (std::size_t i = 0; i < dict_ders_.size(); ++i) {
      d.u64(dict_fps_[i]);
      d.byte_string(dict_ders_[i]);
    }
    const Bytes& db = d.bytes();
    out_.write(reinterpret_cast<const char*>(db.data()),
               static_cast<std::streamsize>(db.size()));
    dict_bytes = db.size();
    file_pos_ += dict_bytes;
  }
  const std::uint64_t footer_offset = file_pos_;
  UaWriter w;
  w.u32(kFooterMagic);
  w.u32(static_cast<std::uint32_t>(snapshots_.size()));
  for (const auto& meta : snapshots_) {
    w.i32(meta.measurement_index);
    w.i64(meta.date_days);
    w.u64(meta.probes_sent);
    w.u64(meta.tcp_open_count);
    w.u64(meta.host_count);
  }
  w.u32(static_cast<std::uint32_t>(chunks_.size()));
  for (const auto& chunk : chunks_) {
    w.u32(chunk.snapshot_ordinal);
    w.u32(chunk.record_count);
    w.u64(chunk.file_offset);
    w.u64(chunk.payload_bytes);
  }
  if (format_version_ == kVersionV6) {
    w.u64(dict_offset);
    w.u64(dict_bytes);
    w.u32(static_cast<std::uint32_t>(dict_ders_.size()));
  }
  if (campaign_set_) {
    w.u32(kCampaignMagic);
    for (const auto& meta : snapshots_) {
      w.string(meta.campaign_label);
      w.i64(meta.campaign_epoch_days);
    }
  }
  if (format_version_ == kVersionV6) {
    // The protocol block exists only for mixed fleets: an OPC-UA-only
    // campaign omits it (readers leave every mask 0 = undeclared) and the
    // file stays byte-identical to pre-protocol output.
    bool any_foreign = false;
    for (const auto& meta : snapshots_) any_foreign |= (meta.protocol_mask & ~1u) != 0;
    if (any_foreign) {
      w.u32(kProtocolMagic);
      for (const auto& meta : snapshots_) w.u32(meta.protocol_mask);
    }
  }
  w.u64(footer_offset);
  w.u32(kEndMagic);
  const Bytes& bytes = w.bytes();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.close();
  if (!out_) throw SnapshotError("write failure while sealing snapshot file: " + path_ + ".tmp");
  const std::string tmp = path_ + ".tmp";
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot move sealed snapshot file into place: " + tmp + " -> " + path_);
  }
  finished_ = true;
}

// ------------------------------------------------------------- reader ----

SnapshotReader::SnapshotReader(const std::string& path, std::uint64_t seed) : path_(path) {
  std::uint64_t file_size = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SnapshotError("snapshot file not found: " + path);
    in.seekg(0, std::ios::end);
    file_size = static_cast<std::uint64_t>(in.tellg());
    if (file_size == 0) {
      throw SnapshotError("snapshot file is empty (0 bytes): " + path);
    }
    if (file_size < kHeaderBytes) {
      throw SnapshotError("snapshot file truncated: " + path + " holds only " +
                          std::to_string(file_size) + " bytes, need at least " +
                          std::to_string(kHeaderBytes) + " for the header");
    }
    Bytes header(kHeaderBytes);
    in.seekg(0);
    in.read(reinterpret_cast<char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
    UaReader hr(header);
    if (hr.u32() != kMagic) throw SnapshotError("not a snapshot file (bad magic): " + path);
    version_ = hr.u32();
    if (version_ != kVersionV4 && version_ != kVersionV5 && version_ != kVersionV6) {
      throw SnapshotError("unsupported snapshot version " + std::to_string(version_) + ": " +
                          path);
    }
    const std::uint64_t file_seed = hr.u64();
    if (file_seed != seed) {
      throw SnapshotError("snapshot seed mismatch at byte offset 8 (" + version_tag(version_) +
                          " file seed " + std::to_string(file_seed) + ", expected " +
                          std::to_string(seed) + "): " + path);
    }

    if (version_ == kVersionV5) {
      // v5: trailer -> footer -> validated chunk index.
      if (file_size < kHeaderBytes + kTrailerBytes) {
        throw SnapshotError("snapshot file truncated before trailer (v5): " + path +
                            " holds only " + std::to_string(file_size) + " bytes, need at least " +
                            std::to_string(kHeaderBytes + kTrailerBytes));
      }
      Bytes trailer(kTrailerBytes);
      in.seekg(static_cast<std::streamoff>(file_size - kTrailerBytes));
      in.read(reinterpret_cast<char*>(trailer.data()),
              static_cast<std::streamsize>(trailer.size()));
      UaReader tr(trailer);
      const std::uint64_t footer_offset = tr.u64();
      if (tr.u32() != kEndMagic) {
        throw SnapshotError(
            "snapshot file truncated or unsealed (missing end marker at byte offset " +
            std::to_string(file_size - 4) + ", v5): " + path);
      }
      if (footer_offset < kHeaderBytes || footer_offset > file_size - kTrailerBytes) {
        throw SnapshotError("snapshot footer offset out of range (v5): " + path);
      }
      Bytes footer(static_cast<std::size_t>(file_size - kTrailerBytes - footer_offset));
      in.seekg(static_cast<std::streamoff>(footer_offset));
      in.read(reinterpret_cast<char*>(footer.data()),
              static_cast<std::streamsize>(footer.size()));
      if (!in) throw SnapshotError("read failure in snapshot footer: " + path);
      try {
        UaReader r(footer);
        if (r.u32() != kFooterMagic) throw DecodeError("bad footer magic");
        const std::uint32_t snapshot_count = r.u32();
        if (snapshot_count > kMaxSnapshots) {
          throw DecodeError("implausible snapshot count " + std::to_string(snapshot_count));
        }
        snapshots_.reserve(snapshot_count);
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          SnapshotMeta meta;
          meta.measurement_index = r.i32();
          meta.date_days = r.i64();
          meta.probes_sent = r.u64();
          meta.tcp_open_count = r.u64();
          meta.host_count = r.u64();
          snapshots_.push_back(meta);
        }
        const std::uint32_t chunk_count = r.u32();
        if (chunk_count > kMaxChunks) {
          throw DecodeError("implausible chunk count " + std::to_string(chunk_count));
        }
        chunks_.reserve(chunk_count);
        std::vector<std::uint64_t> records_seen(snapshot_count, 0);
        std::uint64_t min_offset = kHeaderBytes;
        for (std::uint32_t i = 0; i < chunk_count; ++i) {
          SnapshotChunkInfo chunk;
          chunk.snapshot_ordinal = r.u32();
          chunk.record_count = r.u32();
          chunk.file_offset = r.u64();
          chunk.payload_bytes = r.u64();
          if (chunk.snapshot_ordinal >= snapshot_count) {
            throw DecodeError("chunk " + std::to_string(i) + " references snapshot " +
                              std::to_string(chunk.snapshot_ordinal) + " of " +
                              std::to_string(snapshot_count));
          }
          if (chunk.record_count == 0) {
            throw DecodeError("chunk " + std::to_string(i) + " is empty");
          }
          // Chunks are written back to back in index order; each must lie
          // fully inside the data region [header, footer).
          if (chunk.file_offset < min_offset ||
              chunk.payload_bytes > footer_offset - kChunkHeaderBytes ||
              chunk.file_offset + kChunkHeaderBytes + chunk.payload_bytes > footer_offset) {
            throw DecodeError("chunk " + std::to_string(i) + " extent out of range");
          }
          min_offset = chunk.file_offset + kChunkHeaderBytes + chunk.payload_bytes;
          records_seen[chunk.snapshot_ordinal] += chunk.record_count;
          if (!chunks_.empty() && chunk.snapshot_ordinal < chunks_.back().snapshot_ordinal) {
            throw DecodeError("chunk index not ordered by snapshot");
          }
          chunks_.push_back(chunk);
        }
        if (!r.done()) {
          // Optional campaign block: files written before labels existed
          // (or without set_campaign) simply end after the chunk table.
          if (r.u32() != kCampaignMagic) throw DecodeError("bad campaign block magic");
          for (std::uint32_t i = 0; i < snapshot_count; ++i) {
            snapshots_[i].campaign_label = r.string();
            snapshots_[i].campaign_epoch_days = r.i64();
          }
        }
        if (!r.done()) throw DecodeError("trailing bytes in footer");
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          if (records_seen[i] != snapshots_[i].host_count) {
            throw DecodeError("snapshot " + std::to_string(i) + " indexes " +
                              std::to_string(records_seen[i]) + " records but declares " +
                              std::to_string(snapshots_[i].host_count));
          }
        }
      } catch (const DecodeError& e) {
        throw SnapshotError("corrupt snapshot footer in " + path + " (v5, footer at byte " +
                            std::to_string(footer_offset) + "): " + e.what());
      }
      return;
    }
  }

  if (version_ == kVersionV4) {
    // v4: monolithic stream — decode once to synthesize the chunk index.
    // Legacy files are the small pre-chunking caches, so keeping the raw
    // bytes resident is acceptable; v5/v6 readers never decode-at-open.
    heap_data_ = read_file(path);
    data_ = heap_data_.data();
    data_size_ = heap_data_.size();
    UaReader r(heap_data_);
    try {
      r.u32();  // magic
      r.u32();  // version
      r.u64();  // seed
      const std::uint32_t count = r.u32();
      if (count > kMaxSnapshots) {
        throw DecodeError("implausible snapshot count " + std::to_string(count));
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        SnapshotMeta meta;
        meta.measurement_index = r.i32();
        meta.date_days = r.i64();
        meta.probes_sent = r.u64();
        meta.tcp_open_count = r.u64();
        const std::uint32_t n_hosts = r.u32();
        meta.host_count = n_hosts;
        std::uint32_t remaining_hosts = n_hosts;
        while (remaining_hosts > 0) {
          SnapshotChunkInfo chunk;
          chunk.snapshot_ordinal = i;
          chunk.record_count =
              std::min<std::uint32_t>(remaining_hosts, SnapshotWriter::kDefaultChunkRecords);
          chunk.file_offset = r.base().position();
          for (std::uint32_t h = 0; h < chunk.record_count; ++h) read_host(r);
          chunk.payload_bytes = r.base().position() - chunk.file_offset;
          chunks_.push_back(chunk);
          remaining_hosts -= chunk.record_count;
        }
        snapshots_.push_back(meta);
      }
      if (!r.done()) {
        throw DecodeError(std::to_string(r.remaining()) + " trailing bytes after last snapshot");
      }
    } catch (const DecodeError& e) {
      throw SnapshotError("corrupt v4 snapshot file " + path + " (at byte " +
                          std::to_string(r.base().position()) + "): " + e.what());
    }
    return;
  }

  if (version_ == kVersionV6) open_v6(file_size);
}

SnapshotReader::~SnapshotReader() {
#if OPCUA_STUDY_HAVE_MMAP
  if (mmap_ptr_ != nullptr) ::munmap(mmap_ptr_, mmap_len_);
#endif
}

void SnapshotReader::open_v6(std::uint64_t file_size) {
#if OPCUA_STUDY_HAVE_MMAP
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE,
                       fd, 0);
      if (p != MAP_FAILED) {
        mmap_ptr_ = p;
        mmap_len_ = static_cast<std::size_t>(st.st_size);
        data_ = static_cast<const std::uint8_t*>(p);
        data_size_ = mmap_len_;
      }
    }
    ::close(fd);
  }
#endif
  if (data_ == nullptr) {
    // Heap fallback (no mmap on this platform, or the map failed): one
    // resident copy, same lifetime and alignment guarantees.
    heap_data_ = read_file(path_);
    data_ = heap_data_.data();
    data_size_ = heap_data_.size();
  }
  if (data_size_ != file_size) {
    throw SnapshotError("snapshot file changed size while opening: " + path_);
  }

  if (data_size_ < kHeaderBytes + kTrailerBytes) {
    throw SnapshotError("snapshot file truncated before trailer (v6): " + path_ +
                        " holds only " + std::to_string(data_size_) + " bytes, need at least " +
                        std::to_string(kHeaderBytes + kTrailerBytes));
  }
  UaReader tr(std::span<const std::uint8_t>(data_ + data_size_ - kTrailerBytes, kTrailerBytes));
  const std::uint64_t footer_offset = tr.u64();
  if (tr.u32() != kEndMagic) {
    throw SnapshotError(
        "snapshot file truncated or unsealed (missing end marker at byte offset " +
        std::to_string(data_size_ - 4) + ", v6): " + path_);
  }
  if (footer_offset < kHeaderBytes || footer_offset > data_size_ - kTrailerBytes) {
    throw SnapshotError("snapshot footer offset out of range (v6): " + path_);
  }
  std::uint64_t dict_offset = 0;
  std::uint64_t dict_bytes = 0;
  std::uint32_t dict_count = 0;
  try {
    UaReader r(std::span<const std::uint8_t>(data_ + footer_offset,
                                             data_size_ - kTrailerBytes - footer_offset));
    if (r.u32() != kFooterMagic) throw DecodeError("bad footer magic");
    const std::uint32_t snapshot_count = r.u32();
    if (snapshot_count > kMaxSnapshots) {
      throw DecodeError("implausible snapshot count " + std::to_string(snapshot_count));
    }
    snapshots_.reserve(snapshot_count);
    for (std::uint32_t i = 0; i < snapshot_count; ++i) {
      SnapshotMeta meta;
      meta.measurement_index = r.i32();
      meta.date_days = r.i64();
      meta.probes_sent = r.u64();
      meta.tcp_open_count = r.u64();
      meta.host_count = r.u64();
      snapshots_.push_back(meta);
    }
    const std::uint32_t chunk_count = r.u32();
    if (chunk_count > kMaxChunks) {
      throw DecodeError("implausible chunk count " + std::to_string(chunk_count));
    }
    chunks_.reserve(chunk_count);
    std::vector<std::uint64_t> records_seen(snapshot_count, 0);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      SnapshotChunkInfo chunk;
      chunk.snapshot_ordinal = r.u32();
      chunk.record_count = r.u32();
      chunk.file_offset = r.u64();
      chunk.payload_bytes = r.u64();
      if (chunk.snapshot_ordinal >= snapshot_count) {
        throw DecodeError("chunk " + std::to_string(i) + " references snapshot " +
                          std::to_string(chunk.snapshot_ordinal) + " of " +
                          std::to_string(snapshot_count));
      }
      if (chunk.record_count == 0) throw DecodeError("chunk " + std::to_string(i) + " is empty");
      records_seen[chunk.snapshot_ordinal] += chunk.record_count;
      if (!chunks_.empty() && chunk.snapshot_ordinal < chunks_.back().snapshot_ordinal) {
        throw DecodeError("chunk index not ordered by snapshot");
      }
      chunks_.push_back(chunk);
    }
    dict_offset = r.u64();
    dict_bytes = r.u64();
    dict_count = r.u32();
    if (dict_count > kMaxDictEntries) {
      throw DecodeError("implausible certificate dictionary size " + std::to_string(dict_count));
    }
    if (dict_offset < kHeaderBytes || dict_bytes < 8 || dict_bytes > footer_offset ||
        dict_offset > footer_offset - dict_bytes) {
      throw DecodeError("certificate dictionary extent out of range");
    }
    // Chunk extents validate against the dictionary, which begins where
    // the (8-aligned, padded) chunk region ends.
    std::uint64_t min_offset = kHeaderBytes;
    for (std::uint32_t i = 0; i < chunks_.size(); ++i) {
      const SnapshotChunkInfo& chunk = chunks_[i];
      if (chunk.file_offset % 8 != 0) {
        throw DecodeError("chunk " + std::to_string(i) + " misaligned");
      }
      if (chunk.file_offset < min_offset ||
          chunk.payload_bytes > dict_offset - kV6ChunkHeaderBytes ||
          chunk.file_offset + kV6ChunkHeaderBytes + chunk.payload_bytes +
                  v6_padding(chunk.payload_bytes) >
              dict_offset) {
        throw DecodeError("chunk " + std::to_string(i) + " extent out of range");
      }
      min_offset = chunk.file_offset + kV6ChunkHeaderBytes + chunk.payload_bytes +
                   v6_padding(chunk.payload_bytes);
    }
    // Optional blocks, each at most once, in write order: campaign
    // identity ('CAMP'), then per-snapshot protocol masks ('PROT').
    // Files predating either block simply end after the dictionary info.
    bool saw_campaign = false;
    bool saw_protocol = false;
    while (!r.done()) {
      const std::uint32_t block_magic = r.u32();
      if (block_magic == kCampaignMagic && !saw_campaign && !saw_protocol) {
        saw_campaign = true;
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          snapshots_[i].campaign_label = r.string();
          snapshots_[i].campaign_epoch_days = r.i64();
        }
      } else if (block_magic == kProtocolMagic && !saw_protocol) {
        saw_protocol = true;
        for (std::uint32_t i = 0; i < snapshot_count; ++i) {
          snapshots_[i].protocol_mask = r.u32();
        }
      } else {
        throw DecodeError("bad optional footer block magic");
      }
    }
    for (std::uint32_t i = 0; i < snapshot_count; ++i) {
      if (records_seen[i] != snapshots_[i].host_count) {
        throw DecodeError("snapshot " + std::to_string(i) + " indexes " +
                          std::to_string(records_seen[i]) + " records but declares " +
                          std::to_string(snapshots_[i].host_count));
      }
    }
  } catch (const DecodeError& e) {
    throw SnapshotError("corrupt snapshot footer in " + path_ + " (v6, footer at byte " +
                        std::to_string(footer_offset) + "): " + e.what());
  }

  // Certificate dictionary: every entry's stored fingerprint must match a
  // recomputation from its DER — a flipped bit in either fails the open.
  // The structural walk is serial; the recomputation runs on a pool in
  // fixed blocks of entries and reports the lowest mismatching entry. A
  // structural error is reported only when no entry before it mismatches,
  // so the error is always the one a sequential entry-by-entry check
  // meets first, for any thread count.
  try {
    const auto verify_fingerprints = [&] {
      std::vector<char> mismatch(dict_.size(), 0);
      ThreadPool(0).parallel_for_blocks(
          dict_.size(), kDictBlock, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const DictEntry& entry = dict_[i];
              mismatch[i] = certificate_fingerprint64({data_ + entry.offset, entry.length}) !=
                            entry.fp64;
            }
          });
      const auto bad = std::find(mismatch.begin(), mismatch.end(), 1);
      if (bad != mismatch.end()) {
        throw DecodeError("dictionary entry " + std::to_string(bad - mismatch.begin()) +
                          " fingerprint mismatch");
      }
    };
    UaReader d(std::span<const std::uint8_t>(data_ + dict_offset,
                                             static_cast<std::size_t>(dict_bytes)));
    if (d.u32() != kDictMagic) throw DecodeError("bad certificate dictionary magic");
    const std::uint32_t count = d.u32();
    if (count != dict_count) {
      throw DecodeError("dictionary declares " + std::to_string(count) +
                        " entries but the footer indexes " + std::to_string(dict_count));
    }
    dict_.reserve(count);
    try {
      for (std::uint32_t i = 0; i < count; ++i) {
        DictEntry entry;
        entry.fp64 = d.u64();
        const std::int32_t length = d.i32();
        if (length <= 0) {
          throw DecodeError("dictionary entry " + std::to_string(i) + " has no DER bytes");
        }
        entry.length = static_cast<std::uint32_t>(length);
        entry.offset = dict_offset + d.base().position();
        d.base().view(entry.length);  // bounds check only
        dict_.push_back(entry);
      }
      if (!d.done()) throw DecodeError("trailing bytes in certificate dictionary");
    } catch (const DecodeError&) {
      verify_fingerprints();  // an earlier mismatch takes precedence
      throw;
    }
    verify_fingerprints();
  } catch (const DecodeError& e) {
    std::uint32_t mask = 0;
    for (const auto& meta : snapshots_) mask |= meta.protocol_mask;
    throw SnapshotError("corrupt certificate dictionary in " + path_ + " (v6, " +
                        protocol_context(version_, mask) + ", dictionary at byte " +
                        std::to_string(dict_offset) + "): " + e.what());
  }
}

bool SnapshotReader::columnar() const {
  return version_ == kVersionV6 && std::endian::native == std::endian::little;
}

std::span<const std::uint8_t> SnapshotReader::cert_der(std::uint32_t cert_id) const {
  if (cert_id >= dict_.size()) {
    throw SnapshotError("certificate id " + std::to_string(cert_id) +
                        " out of dictionary range (" + std::to_string(dict_.size()) +
                        " entries) in " + path_);
  }
  const DictEntry& entry = dict_[cert_id];
  return {data_ + entry.offset, entry.length};
}

std::uint64_t SnapshotReader::total_records() const {
  std::uint64_t total = 0;
  for (const auto& meta : snapshots_) total += meta.host_count;
  return total;
}

std::uint64_t SnapshotReader::file_fingerprint() const {
  // Folds the validated structural metadata — format version, every
  // measurement's identity/counters, the complete chunk index, and the
  // dictionary shape — into one 64-bit value. Snapshot output is a pure
  // function of (records, seed), so any record change moves a chunk
  // payload size or host count and therefore the fingerprint; sidecar
  // files (posture sketches) staple themselves to this value to detect a
  // swapped or rewritten snapshot without re-reading record bytes.
  std::string acc = "snapshot-fp:v" + std::to_string(version_);
  for (const auto& meta : snapshots_) {
    acc += ';';
    acc += std::to_string(meta.measurement_index) + ',' + std::to_string(meta.date_days) + ',' +
           std::to_string(meta.probes_sent) + ',' + std::to_string(meta.tcp_open_count) + ',' +
           std::to_string(meta.host_count) + ',' + meta.campaign_label + ',' +
           std::to_string(meta.campaign_epoch_days) + ',' + std::to_string(meta.protocol_mask);
  }
  for (const auto& chunk : chunks_) {
    acc += '|';
    acc += std::to_string(chunk.snapshot_ordinal) + ',' + std::to_string(chunk.record_count) +
           ',' + std::to_string(chunk.file_offset) + ',' + std::to_string(chunk.payload_bytes);
  }
  acc += "#dict:" + std::to_string(dict_.size());
  for (const auto& entry : dict_) acc += ',' + std::to_string(entry.fp64);
  return hash64(acc);
}

std::vector<HostScanRecord> SnapshotReader::read_chunk(std::size_t chunk_index) const {
  std::vector<HostScanRecord> records;
  read_chunk(chunk_index, records);
  return records;
}

void SnapshotReader::read_chunk(std::size_t chunk_index,
                                std::vector<HostScanRecord>& out) const {
  out.clear();
  if (chunk_index >= chunks_.size()) {
    throw SnapshotError("chunk index " + std::to_string(chunk_index) + " out of range in " +
                        path_);
  }
  const SnapshotChunkInfo& info = chunks_[chunk_index];
  out.reserve(info.record_count);
  const bool obs_on = obs::enabled();
  const auto wall_start =
      obs_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  const auto note_read = [&] {
    if (!obs_on) return;
    obs::add(obs::Metric::snapshot_chunks_read);
    obs::add(obs::Metric::snapshot_bytes_read, info.payload_bytes);
    obs::add(obs::Metric::snapshot_read_wall_us,
             static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                            std::chrono::steady_clock::now() - wall_start)
                                            .count()));
  };
  try {
    if (version_ == kVersionV4) {
      UaReader r(std::span<const std::uint8_t>(data_ + info.file_offset, info.payload_bytes));
      for (std::uint32_t i = 0; i < info.record_count; ++i) out.push_back(read_host(r));
      note_read();
      return;
    }
    if (version_ == kVersionV6) {
      const std::uint8_t* base = data_ + info.file_offset;
      UaReader h(std::span<const std::uint8_t>(base, kV6ChunkHeaderBytes));
      if (h.u32() != kChunkMagic || h.u32() != info.snapshot_ordinal ||
          h.u32() != info.record_count || h.u32() != 0 || h.u64() != info.payload_bytes) {
        throw DecodeError("chunk header disagrees with footer index");
      }
      const V6Layout lay =
          v6_layout(base + kV6ChunkHeaderBytes, info.payload_bytes, info.record_count);
      validate_var_offsets(lay);
      for (std::uint32_t i = 0; i < info.record_count; ++i) {
        out.push_back(read_host_v6(*this, lay, i));
      }
      note_read();
      return;
    }
    // v5: each call opens its own stream so thread-pool workers can decode
    // disjoint chunks concurrently without sharing a file cursor.
    std::ifstream in(path_, std::ios::binary);
    if (!in) throw SnapshotError("snapshot file vanished: " + path_);
    in.seekg(static_cast<std::streamoff>(info.file_offset));
    Bytes data(kChunkHeaderBytes + info.payload_bytes);
    in.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(data.size()));
    if (!in) throw SnapshotError("read failure in chunk of " + path_);
    UaReader r(data);
    if (r.u32() != kChunkMagic || r.u32() != info.snapshot_ordinal ||
        r.u32() != info.record_count || r.u64() != info.payload_bytes) {
      throw DecodeError("chunk header disagrees with footer index");
    }
    for (std::uint32_t i = 0; i < info.record_count; ++i) out.push_back(read_host(r));
    if (!r.done()) throw DecodeError("chunk payload longer than its records");
    note_read();
  } catch (const DecodeError& e) {
    throw SnapshotError(
        "corrupt chunk " + std::to_string(chunk_index) + " in " + path_ + " (" +
        version_tag(version_) + ", " +
        protocol_context(version_, snapshots_[info.snapshot_ordinal].protocol_mask) +
        ", chunk at byte " + std::to_string(info.file_offset) + "): " + e.what());
  }
}

ColumnView SnapshotReader::column_view(std::size_t chunk_index) const {
  if (!columnar()) {
    throw SnapshotError("column_view requires a v6 snapshot on a little-endian host: " + path_);
  }
  if (chunk_index >= chunks_.size()) {
    throw SnapshotError("chunk index " + std::to_string(chunk_index) + " out of range in " +
                        path_);
  }
  const SnapshotChunkInfo& info = chunks_[chunk_index];
  try {
    const std::uint8_t* base = data_ + info.file_offset;
    UaReader h(std::span<const std::uint8_t>(base, kV6ChunkHeaderBytes));
    if (h.u32() != kChunkMagic || h.u32() != info.snapshot_ordinal ||
        h.u32() != info.record_count || h.u32() != 0 || h.u64() != info.payload_bytes) {
      throw DecodeError("chunk header disagrees with footer index");
    }
    const V6Layout lay =
        v6_layout(base + kV6ChunkHeaderBytes, info.payload_bytes, info.record_count);
    validate_var_offsets(lay);
    ColumnView view;
    view.snapshot_ordinal = info.snapshot_ordinal;
    view.records = lay.n;
    view.bytes_sent = {reinterpret_cast<const std::uint64_t*>(lay.bytes_sent), lay.n};
    view.uri_hash = {reinterpret_cast<const std::uint64_t*>(lay.uri_hash), lay.n};
    view.duration_seconds = {reinterpret_cast<const double*>(lay.duration), lay.n};
    view.ip = {reinterpret_cast<const std::uint32_t*>(lay.ip), lay.n};
    view.asn = {reinterpret_cast<const std::uint32_t*>(lay.asn), lay.n};
    view.var_offsets = {reinterpret_cast<const std::uint32_t*>(lay.var_offsets), lay.n + 1};
    view.port = {reinterpret_cast<const std::uint16_t*>(lay.port), lay.n};
    view.application_type = {lay.application_type, lay.n};
    view.channel = {lay.channel, lay.n};
    view.channel_policy = {lay.channel_policy, lay.n};
    view.channel_mode = {lay.channel_mode, lay.n};
    view.session = {lay.session, lay.n};
    view.flags = {lay.flags, lay.n};
    view.mode_mask = {lay.mode_mask, lay.n};
    view.policy_mask = {lay.policy_mask, lay.n};
    view.token_mask = {lay.token_mask, lay.n};
    view.var_blob = {lay.var, static_cast<std::size_t>(lay.var_bytes)};
    // A column view is a zero-copy chunk read: same coverage accounting as
    // the record-decoding path, just without the decode cost.
    obs::add(obs::Metric::snapshot_chunks_read);
    obs::add(obs::Metric::snapshot_bytes_read, info.payload_bytes);
    return view;
  } catch (const DecodeError& e) {
    throw SnapshotError(
        "corrupt chunk " + std::to_string(chunk_index) + " in " + path_ + " (v6, " +
        protocol_context(version_, snapshots_[info.snapshot_ordinal].protocol_mask) +
        ", chunk at byte " + std::to_string(info.file_offset) + "): " + e.what());
  }
}

void SnapshotReader::for_each_host(
    const std::function<void(std::size_t, const HostScanRecord&)>& fn) const {
  std::vector<HostScanRecord> records;  // one decode buffer for the whole walk
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    read_chunk(c, records);
    for (const auto& record : records) fn(chunks_[c].snapshot_ordinal, record);
  }
}

std::vector<ScanSnapshot> SnapshotReader::load_all() const {
  std::vector<ScanSnapshot> out;
  out.reserve(snapshots_.size());
  for (const auto& meta : snapshots_) {
    ScanSnapshot snapshot;
    snapshot.measurement_index = meta.measurement_index;
    snapshot.date_days = meta.date_days;
    snapshot.probes_sent = meta.probes_sent;
    snapshot.tcp_open_count = meta.tcp_open_count;
    snapshot.hosts.reserve(meta.host_count);
    out.push_back(std::move(snapshot));
  }
  std::vector<HostScanRecord> records;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    read_chunk(c, records);
    auto& hosts = out[chunks_[c].snapshot_ordinal].hosts;
    for (auto& record : records) hosts.push_back(std::move(record));
  }
  return out;
}

// ---------------------------------------------------------- functions ----

void save_snapshots(const std::string& path, std::uint64_t seed,
                    const std::vector<ScanSnapshot>& snapshots) {
  SnapshotWriter writer(path, seed);
  for (const auto& snapshot : snapshots) writer.add_snapshot(snapshot);
  writer.finish();
}

std::optional<std::vector<ScanSnapshot>> load_snapshots(const std::string& path,
                                                        std::uint64_t seed,
                                                        std::string* error) {
  try {
    SnapshotReader reader(path, seed);
    return reader.load_all();
  } catch (const SnapshotError& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

void save_snapshots_v4(const std::string& path, std::uint64_t seed,
                       const std::vector<ScanSnapshot>& snapshots) {
  UaWriter w;
  w.u32(kMagic);
  w.u32(kVersionV4);
  w.u64(seed);
  w.u32(static_cast<std::uint32_t>(snapshots.size()));
  for (const auto& snapshot : snapshots) {
    w.i32(snapshot.measurement_index);
    w.i64(snapshot.date_days);
    w.u64(snapshot.probes_sent);
    w.u64(snapshot.tcp_open_count);
    w.u32(static_cast<std::uint32_t>(snapshot.hosts.size()));
    for (const auto& host : snapshot.hosts) write_host(w, host);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError("cannot open snapshot file for writing: " + tmp);
    const Bytes& data = w.bytes();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.close();
    if (!out) throw SnapshotError("write failure while writing snapshot file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot move snapshot file into place: " + tmp + " -> " + path);
  }
}

bool campaign_declared(const SnapshotMeta& meta) {
  return !meta.campaign_label.empty() || meta.campaign_epoch_days != 0;
}

void validate_campaign_chain(const std::vector<SnapshotMeta>& members) {
  const SnapshotMeta* prev = nullptr;        // last declared member
  const SnapshotMeta* prev_epoch = nullptr;  // last declared member with a non-zero epoch
  const SnapshotMeta* prev_proto = nullptr;  // last member with a declared protocol mask
  for (const SnapshotMeta& member : members) {
    // Protocol sets must agree across the whole chain: a series mixing an
    // OPC-UA-only campaign with a mixed-fleet one would diff incomparable
    // populations. Mask 0 (pre-protocol files) anchors nothing.
    if (member.protocol_mask != 0) {
      if (prev_proto != nullptr && prev_proto->protocol_mask != member.protocol_mask) {
        throw SnapshotError("campaign chain: campaign '" + member.campaign_label + "' scans " +
                            protocol_set_name(member.protocol_mask) +
                            " but its predecessor '" + prev_proto->campaign_label + "' scans " +
                            protocol_set_name(prev_proto->protocol_mask));
      }
      prev_proto = &member;
    }
    if (!campaign_declared(member)) continue;  // legacy input: nothing to anchor
    if (prev != nullptr && prev->campaign_label == member.campaign_label &&
        prev->campaign_epoch_days == member.campaign_epoch_days) {
      throw SnapshotError("campaign chain: consecutive members declare the same campaign '" +
                          member.campaign_label + "'");
    }
    // Epochs compare against the last member that *declared* one, so a
    // label-only member in between cannot hide a time-reversed series.
    if (prev_epoch != nullptr && member.campaign_epoch_days != 0 &&
        member.campaign_epoch_days <= prev_epoch->campaign_epoch_days) {
      throw SnapshotError("campaign chain: campaign '" + member.campaign_label + "' (epoch " +
                          std::to_string(member.campaign_epoch_days) +
                          ") is not after its predecessor '" + prev_epoch->campaign_label +
                          "' (epoch " + std::to_string(prev_epoch->campaign_epoch_days) + ")");
    }
    prev = &member;
    if (member.campaign_epoch_days != 0) prev_epoch = &member;
  }
}

}  // namespace opcua_study
