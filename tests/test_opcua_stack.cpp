// End-to-end OPC UA stack tests: encoding round-trips, transport framing,
// secure conversation, and full client↔server exchanges over the simulated
// network — for every security policy and mode combination of Table 1.
#include <gtest/gtest.h>

#include "crypto/x509.hpp"
#include "netsim/opcua_service.hpp"
#include "opcua/client.hpp"
#include "util/date.hpp"
#include "util/hex.hpp"

namespace opcua_study {
namespace {

// ------------------------------------------------------- shared fixtures ----

struct TestIdentity {
  RsaKeyPair keys;
  Bytes cert_der;
};

TestIdentity make_identity(const std::string& cn, std::uint64_t seed, HashAlgorithm sig_hash,
                           std::size_t bits = 768) {
  Rng rng(seed);
  TestIdentity id;
  id.keys = rsa_generate(rng, bits, 8);
  CertificateSpec spec;
  spec.subject = {cn, "Test Org", "DE"};
  spec.signature_hash = sig_hash;
  spec.serial = Bignum{seed};
  spec.not_before_days = days_from_civil({2019, 1, 1});
  spec.not_after_days = days_from_civil({2030, 1, 1});
  spec.application_uri = "urn:" + cn;
  id.cert_der = x509_create(spec, id.keys.pub, id.keys.priv);
  return id;
}

const TestIdentity& server_identity() {
  static const TestIdentity id = make_identity("test-server", 9001, HashAlgorithm::sha256);
  return id;
}

const TestIdentity& client_identity() {
  static const TestIdentity id = make_identity("test-scanner", 9002, HashAlgorithm::sha256);
  return id;
}

std::shared_ptr<AddressSpace> make_space() {
  auto space = std::make_shared<AddressSpace>();
  const std::uint16_t ns = space->add_namespace("urn:test:vendor");
  space->add_object(NodeId(ns, 100), node_ids::kObjectsFolder, "Plant");
  space->add_variable(NodeId(ns, 101), NodeId(ns, 100), "m3InflowPerHour", Variant{12.5},
                      access_level::kCurrentRead);
  space->add_variable(NodeId(ns, 102), NodeId(ns, 100), "rSetFillLevel", Variant{80.0},
                      access_level::kCurrentRead | access_level::kCurrentWrite);
  space->add_variable(NodeId(ns, 103), NodeId(ns, 100), "secret", Variant{"classified"}, 0);
  space->add_method(NodeId(ns, 104), NodeId(ns, 100), "AddEndpoint", true);
  space->add_method(NodeId(ns, 105), NodeId(ns, 100), "Reboot", false);
  return space;
}

ServerConfig make_server_config(SecurityPolicy policy, MessageSecurityMode mode,
                                bool with_none_endpoint = true) {
  ServerConfig config;
  config.identity.application_uri = "urn:test-server";
  config.identity.product_uri = "urn:test:product";
  config.identity.application_name = "Test Server";
  config.certificates = {server_identity().cert_der};
  config.private_keys = {server_identity().keys.priv};
  config.address_space = make_space();
  if (with_none_endpoint) {
    EndpointConfig none_ep;
    none_ep.url = "opc.tcp://10.0.0.1:4840/";
    none_ep.mode = MessageSecurityMode::None;
    none_ep.policy = SecurityPolicy::None;
    none_ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
    config.endpoints.push_back(none_ep);
  }
  if (policy != SecurityPolicy::None) {
    EndpointConfig secure_ep;
    secure_ep.url = "opc.tcp://10.0.0.1:4840/";
    secure_ep.mode = mode;
    secure_ep.policy = policy;
    secure_ep.token_types = {UserTokenType::Anonymous, UserTokenType::UserName};
    config.endpoints.push_back(secure_ep);
  }
  return config;
}

struct Rig {
  Network net;
  std::shared_ptr<Server> server;
  std::unique_ptr<NetConnection> conn;
  std::unique_ptr<Client> client;

  explicit Rig(ServerConfig config) {
    server = std::make_shared<Server>(std::move(config), 77);
    const Ipv4 ip = make_ipv4(10, 0, 0, 1);
    net.listen(ip, kOpcUaDefaultPort, make_opcua_factory(server));
    conn = net.connect(ip, kOpcUaDefaultPort);
    ClientConfig cc;
    cc.certificate_der = client_identity().cert_der;
    cc.private_key = client_identity().keys.priv;
    client = std::make_unique<Client>(cc, *conn, Rng(123));
  }
};

// ------------------------------------------------------------- encoding ----

TEST(UaEncoding, NodeIdFormsRoundTrip) {
  UaWriter w;
  w.node_id(NodeId(0, 84));           // two-byte
  w.node_id(NodeId(3, 1025));         // four-byte
  w.node_id(NodeId(300, 500000));     // numeric
  w.node_id(NodeId(2, "m3Inflow"));   // string
  UaReader r(w.bytes());
  EXPECT_EQ(r.node_id(), NodeId(0, 84));
  EXPECT_EQ(r.node_id(), NodeId(3, 1025));
  EXPECT_EQ(r.node_id(), NodeId(300, 500000));
  EXPECT_EQ(r.node_id(), NodeId(2, "m3Inflow"));
  EXPECT_TRUE(r.done());
}

TEST(UaEncoding, StringsAndNulls) {
  UaWriter w;
  w.string("hello");
  w.null_string();
  w.string("");
  UaReader r(w.bytes());
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.string(), "");
}

TEST(UaEncoding, VariantsRoundTrip) {
  const std::vector<Variant> values = {
      Variant{},
      Variant{true},
      Variant{std::int32_t{-5}},
      Variant{std::uint32_t{17}},
      Variant{std::int64_t{1} << 40},
      Variant{2.75},
      Variant{"text value"},
      Variant{Bytes{1, 2, 3}},
      Variant{std::vector<std::string>{"http://opcfoundation.org/UA/", "urn:vendor"}},
  };
  UaWriter w;
  for (const auto& v : values) w.variant(v);
  UaReader r(w.bytes());
  for (const auto& v : values) EXPECT_EQ(r.variant(), v);
}

TEST(UaEncoding, DataValueWithStatus) {
  DataValue dv;
  dv.status = StatusCode::BadNotReadable;
  UaWriter w;
  w.data_value(dv);
  UaReader r(w.bytes());
  const DataValue back = r.data_value();
  EXPECT_EQ(back.status, StatusCode::BadNotReadable);
  EXPECT_TRUE(back.value.empty());
}

TEST(UaEncoding, EndpointDescriptionRoundTrip) {
  EndpointDescription e;
  e.endpoint_url = "opc.tcp://192.0.2.1:4840/";
  e.server.application_uri = "urn:dev";
  e.server.application_name = {"en", "Device"};
  e.server_certificate = {1, 2, 3, 4};
  e.security_mode = MessageSecurityMode::SignAndEncrypt;
  e.security_policy_uri = std::string(policy_info(SecurityPolicy::Basic256Sha256).uri);
  UserTokenPolicy t;
  t.policy_id = "anonymous";
  t.token_type = UserTokenType::Anonymous;
  e.user_identity_tokens.push_back(t);
  UaWriter w;
  e.encode(w);
  UaReader r(w.bytes());
  const EndpointDescription back = EndpointDescription::decode(r);
  EXPECT_EQ(back.endpoint_url, e.endpoint_url);
  EXPECT_EQ(back.security_mode, MessageSecurityMode::SignAndEncrypt);
  EXPECT_EQ(back.server_certificate, e.server_certificate);
  ASSERT_EQ(back.user_identity_tokens.size(), 1u);
  EXPECT_EQ(back.user_identity_tokens[0].token_type, UserTokenType::Anonymous);
}

TEST(UaEncoding, ServiceEnvelope) {
  GetEndpointsRequest req;
  req.endpoint_url = "opc.tcp://host:4840/";
  const Bytes packed = pack_service(req);
  EXPECT_EQ(peek_type_id(packed), type_ids::kGetEndpointsRequest);
  const auto back = unpack_service<GetEndpointsRequest>(packed);
  EXPECT_EQ(back.endpoint_url, req.endpoint_url);
  EXPECT_THROW(unpack_service<BrowseRequest>(packed), DecodeError);
}

// ------------------------------------------------------------ transport ----

TEST(Transport, FrameRoundTrip) {
  const Bytes body = to_bytes("payload");
  const Bytes wire = frame_message("HEL", body);
  const Frame frame = parse_frame(wire);
  EXPECT_EQ(frame.type, "HEL");
  EXPECT_EQ(frame.body, body);
  Bytes bad = wire;
  bad.pop_back();
  EXPECT_THROW(parse_frame(bad), DecodeError);
}

TEST(Transport, HelloAckErrRoundTrip) {
  HelloMessage hello;
  hello.endpoint_url = "opc.tcp://10.0.0.1:4840/";
  EXPECT_EQ(HelloMessage::decode(hello.encode()).endpoint_url, hello.endpoint_url);
  ErrorMessage err;
  err.error = StatusCode::BadSecurityChecksFailed;
  err.reason = "nope";
  const ErrorMessage back = ErrorMessage::decode(err.encode());
  EXPECT_EQ(back.error, StatusCode::BadSecurityChecksFailed);
  EXPECT_EQ(back.reason, "nope");
}

// ------------------------------------------------- secure conversation ----

class SecureConversation : public ::testing::TestWithParam<SecurityPolicy> {};

TEST_P(SecureConversation, OpnRoundTripAllPolicies) {
  const SecurityPolicy policy = GetParam();
  Rng rng(5);
  const Bytes body = to_bytes("open secure channel request body");
  OpnSecurity sec;
  sec.policy = policy;
  if (policy != SecurityPolicy::None) {
    sec.local_private = &client_identity().keys.priv;
    sec.local_cert_der = client_identity().cert_der;
    sec.remote_public = &server_identity().keys.pub;
    sec.remote_cert_thumbprint = x509_thumbprint(server_identity().cert_der);
  }
  const Bytes wire = build_opn(42, sec, SequenceHeader{7, 9}, body, rng);
  if (policy != SecurityPolicy::None) {
    // Body must not appear in the clear.
    const std::string wire_str(wire.begin(), wire.end());
    EXPECT_EQ(wire_str.find("open secure channel"), std::string::npos);
  }
  const OpnParsed parsed = parse_opn(
      wire, policy == SecurityPolicy::None ? nullptr : &server_identity().keys.priv);
  EXPECT_EQ(parsed.channel_id, 42u);
  EXPECT_EQ(parsed.policy, policy);
  EXPECT_EQ(parsed.seq.sequence_number, 7u);
  EXPECT_EQ(parsed.seq.request_id, 9u);
  EXPECT_EQ(parsed.body, body);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SecureConversation, ::testing::ValuesIn(kAllPolicies));

TEST(SecureConversationNegative, WrongKeyFailsToParse) {
  Rng rng(6);
  OpnSecurity sec;
  sec.policy = SecurityPolicy::Basic256Sha256;
  sec.local_private = &client_identity().keys.priv;
  sec.local_cert_der = client_identity().cert_der;
  sec.remote_public = &server_identity().keys.pub;
  sec.remote_cert_thumbprint = x509_thumbprint(server_identity().cert_der);
  const Bytes wire = build_opn(1, sec, SequenceHeader{1, 1}, to_bytes("x"), rng);
  EXPECT_THROW(parse_opn(wire, &client_identity().keys.priv), DecodeError);
}

class SymmetricSecurity
    : public ::testing::TestWithParam<std::tuple<SecurityPolicy, MessageSecurityMode>> {};

TEST_P(SymmetricSecurity, MsgRoundTrip) {
  const auto [policy, mode] = GetParam();
  Rng rng(7);
  const Bytes client_nonce = rng.bytes(32);
  const Bytes server_nonce = rng.bytes(32);
  const DerivedKeys sender = derive_keys(policy, server_nonce, client_nonce);
  const Bytes body = to_bytes("browse request payload: rSetFillLevel");
  const Bytes wire = build_msg("MSG", 3, 4, SequenceHeader{10, 11}, body, policy, mode, sender);
  if (mode == MessageSecurityMode::SignAndEncrypt) {
    const std::string wire_str(wire.begin(), wire.end());
    EXPECT_EQ(wire_str.find("rSetFillLevel"), std::string::npos);
  }
  const MsgParsed parsed = parse_msg(wire, policy, mode, sender);
  EXPECT_EQ(parsed.channel_id, 3u);
  EXPECT_EQ(parsed.token_id, 4u);
  EXPECT_EQ(parsed.body, body);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndModes, SymmetricSecurity,
    ::testing::Combine(::testing::Values(SecurityPolicy::Basic128Rsa15, SecurityPolicy::Basic256,
                                         SecurityPolicy::Aes128Sha256RsaOaep,
                                         SecurityPolicy::Basic256Sha256,
                                         SecurityPolicy::Aes256Sha256RsaPss),
                       ::testing::Values(MessageSecurityMode::Sign,
                                         MessageSecurityMode::SignAndEncrypt)));

// Wire bytes pinned from the per-message key-expansion implementation: the
// channel's expanded AES schedule and HMAC pad states, reused across two
// messages, must produce exactly the same chunks, and parse them back.
struct PinnedMsg {
  SecurityPolicy policy;
  MessageSecurityMode mode;
  const char* first_hex;   // SequenceHeader{10, 11}
  const char* second_hex;  // SequenceHeader{12, 13}, same channel keys
};

class SymmetricSecurityPinned : public ::testing::TestWithParam<PinnedMsg> {};

TEST_P(SymmetricSecurityPinned, ChannelStateKeepsWireBytes) {
  const PinnedMsg& pin = GetParam();
  Rng rng(13);
  const std::size_t nonce_bytes = policy_info(pin.policy).nonce_bytes;
  const Bytes client_nonce = rng.bytes(nonce_bytes);
  const Bytes server_nonce = rng.bytes(nonce_bytes);
  const DerivedKeys keys = derive_keys(pin.policy, server_nonce, client_nonce);
  const Bytes body = to_bytes("browse request payload: rSetFillLevel");
  const Bytes first =
      build_msg("MSG", 3, 4, SequenceHeader{10, 11}, body, pin.policy, pin.mode, keys);
  const Bytes second =
      build_msg("MSG", 3, 4, SequenceHeader{12, 13}, body, pin.policy, pin.mode, keys);
  EXPECT_EQ(to_hex(first), pin.first_hex);
  EXPECT_EQ(to_hex(second), pin.second_hex);
  for (const Bytes* wire : {&first, &second}) {
    const MsgParsed parsed = parse_msg(*wire, pin.policy, pin.mode, keys);
    EXPECT_EQ(parsed.channel_id, 3u);
    EXPECT_EQ(parsed.token_id, 4u);
    EXPECT_EQ(parsed.body, body);
  }
  EXPECT_EQ(parse_msg(second, pin.policy, pin.mode, keys).seq.request_id, 13u);
}

INSTANTIATE_TEST_SUITE_P(
    WireBytes, SymmetricSecurityPinned,
    ::testing::Values(
        PinnedMsg{SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt,
                  "4d534746600000000300000004000000c8afe96d2526747035b72a4ce8be80bc26ae19dd"
                  "580070c01d3163f256ac8d776ee4237e202982a7a76a45d5675c0ef3588dd599a896449d"
                  "9da6dab3152d1fc25bbaf082c3078adb2055e01f6947ec26",
                  "4d534746600000000300000004000000ecda8f13f65194237ac37b5c99e88e60b59c0a04"
                  "e537e6c41b3d9dc870234573cd8162595a12f71c39335b5a3ab3d644f8cc9ac139a970c7"
                  "28585d5fd69913afeda380f30bc65c568ea4b2c037c6a29b"},
        PinnedMsg{SecurityPolicy::Basic128Rsa15, MessageSecurityMode::Sign,
                  "4d5347465100000003000000040000000a0000000b00000062726f777365207265717565"
                  "7374207061796c6f61643a207253657446696c6c4c6576656c3eeb6299481736d0d971fc"
                  "f1e4d10c5bdb7305ea",
                  "4d5347465100000003000000040000000c0000000d00000062726f777365207265717565"
                  "7374207061796c6f61643a207253657446696c6c4c6576656c51cd69889e9b72bebd7edf"
                  "692bdde9e40f764998"}),
    [](const ::testing::TestParamInfo<PinnedMsg>& info) {
      return info.param.policy == SecurityPolicy::Basic256Sha256
                 ? std::string("Basic256Sha256SignAndEncrypt")
                 : std::string("Basic128Rsa15Sign");
    });

TEST(SymmetricSecurityNegative, TamperedMessageRejected) {
  Rng rng(8);
  const DerivedKeys keys = derive_keys(SecurityPolicy::Basic256Sha256, rng.bytes(32), rng.bytes(32));
  Bytes wire = build_msg("MSG", 1, 1, SequenceHeader{1, 1}, to_bytes("data"),
                         SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign, keys);
  wire[wire.size() - 5] ^= 1;
  EXPECT_THROW(
      parse_msg(wire, SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign, keys),
      DecodeError);
}

TEST(KeyDerivation, DirectionsDiffer) {
  Rng rng(9);
  const Bytes a = rng.bytes(32), b = rng.bytes(32);
  const DerivedKeys ab = derive_keys(SecurityPolicy::Basic256Sha256, a, b);
  const DerivedKeys ba = derive_keys(SecurityPolicy::Basic256Sha256, b, a);
  EXPECT_NE(ab.sig_key, ba.sig_key);
  EXPECT_NE(ab.enc_key, ba.enc_key);
  EXPECT_EQ(ab.sig_key.size(), 32u);
  EXPECT_EQ(ab.enc_key.size(), 32u);
  EXPECT_EQ(ab.iv.size(), 16u);
}

// ----------------------------------------------------- client <-> server ----

TEST(ClientServer, DiscoveryOnNoneChannel) {
  Rig rig(make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt));
  EXPECT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  EXPECT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<EndpointDescription> endpoints;
  EXPECT_EQ(rig.client->get_endpoints("opc.tcp://10.0.0.1:4840/", endpoints), StatusCode::Good);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].security_mode, MessageSecurityMode::None);
  EXPECT_EQ(endpoints[1].security_mode, MessageSecurityMode::SignAndEncrypt);
  EXPECT_FALSE(endpoints[1].server_certificate.empty());
  // Certificate in the endpoint must parse as the server's cert.
  const Certificate cert = x509_parse(endpoints[1].server_certificate);
  EXPECT_EQ(cert.subject.common_name, "test-server");
}

class ClientServerSecure
    : public ::testing::TestWithParam<std::tuple<SecurityPolicy, MessageSecurityMode>> {};

TEST_P(ClientServerSecure, FullSessionOverSecureChannel) {
  const auto [policy, mode] = GetParam();
  Rig rig(make_server_config(policy, mode));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(policy, mode, server_identity().cert_der), StatusCode::Good);

  Client::SessionInfo info;
  ASSERT_EQ(rig.client->create_session(&info), StatusCode::Good);
  EXPECT_TRUE(info.server_signature_valid);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);

  // Browse to the vendor object and read values.
  std::vector<ReferenceDescription> refs;
  ASSERT_EQ(rig.client->browse(node_ids::kObjectsFolder, refs), StatusCode::Good);
  ASSERT_EQ(refs.size(), 2u);  // Server + Plant
  DataValue dv;
  ASSERT_EQ(rig.client->read(NodeId(1, 101), AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.value, Variant{12.5});
  // Unreadable node yields BadNotReadable, not data.
  ASSERT_EQ(rig.client->read(NodeId(1, 103), AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.status, StatusCode::BadNotReadable);
  EXPECT_EQ(rig.client->close_session(), StatusCode::Good);
}

INSTANTIATE_TEST_SUITE_P(
    SecureVariants, ClientServerSecure,
    ::testing::Values(
        std::make_tuple(SecurityPolicy::Basic128Rsa15, MessageSecurityMode::Sign),
        std::make_tuple(SecurityPolicy::Basic256, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Aes128Sha256RsaOaep, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign),
        std::make_tuple(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt),
        std::make_tuple(SecurityPolicy::Aes256Sha256RsaPss, MessageSecurityMode::SignAndEncrypt)));

TEST(ClientServer, StrictServerRejectsSelfSignedCert) {
  ServerConfig config =
      make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt);
  config.trust_all_client_certs = false;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  const StatusCode status = rig.client->open_channel(
      SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt,
      server_identity().cert_der);
  EXPECT_EQ(status, StatusCode::BadSecurityChecksFailed);
  EXPECT_FALSE(rig.client->channel_open());
}

TEST(ClientServer, AnonymousRejectedWhenNotOffered) {
  ServerConfig config =
      make_server_config(SecurityPolicy::Basic256Sha256, MessageSecurityMode::SignAndEncrypt);
  for (auto& ep : config.endpoints) ep.token_types = {UserTokenType::UserName};
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_anonymous(), StatusCode::BadIdentityTokenRejected);
}

TEST(ClientServer, FaultyServerRejectsAnonymousDespiteOffering) {
  ServerConfig config =
      make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.reject_anonymous_sessions = true;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_anonymous(), StatusCode::BadIdentityTokenRejected);
}

TEST(ClientServer, UsernameAuthentication) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.users = {{"operator", "hunter2"}};
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_username("operator", "wrong"),
            StatusCode::BadUserAccessDenied);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  EXPECT_EQ(rig.client->activate_session_username("operator", "hunter2"), StatusCode::Good);
}

TEST(ClientServer, BrowseRequiresActivatedSession) {
  Rig rig(make_server_config(SecurityPolicy::None, MessageSecurityMode::None));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<ReferenceDescription> refs;
  EXPECT_EQ(rig.client->browse(node_ids::kRootFolder, refs), StatusCode::BadSessionNotActivated);
}

TEST(ClientServer, NamespaceArrayAndSoftwareVersion) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  config.identity.software_version = "3.1.4";
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);
  std::vector<std::string> namespaces;
  ASSERT_EQ(rig.client->read_string_array(node_ids::kNamespaceArray, namespaces),
            StatusCode::Good);
  ASSERT_EQ(namespaces.size(), 2u);
  EXPECT_EQ(namespaces[0], "http://opcfoundation.org/UA/");
  EXPECT_EQ(namespaces[1], "urn:test:vendor");
  DataValue dv;
  ASSERT_EQ(rig.client->read(node_ids::kSoftwareVersion, AttributeId::Value, dv), StatusCode::Good);
  EXPECT_EQ(dv.value, Variant{"3.1.4"});
}

TEST(ClientServer, BrowseContinuationPoints) {
  ServerConfig config = make_server_config(SecurityPolicy::None, MessageSecurityMode::None);
  auto space = std::make_shared<AddressSpace>();
  const std::uint16_t ns = space->add_namespace("urn:many");
  space->add_object(NodeId(ns, 1), node_ids::kObjectsFolder, "Bucket");
  for (std::uint32_t i = 0; i < 25; ++i) {
    space->add_variable(NodeId(ns, 100 + i), NodeId(ns, 1), "v" + std::to_string(i), Variant{1.0},
                        access_level::kCurrentRead);
  }
  config.address_space = space;
  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  ASSERT_EQ(rig.client->create_session(), StatusCode::Good);
  ASSERT_EQ(rig.client->activate_session_anonymous(), StatusCode::Good);
  std::vector<ReferenceDescription> refs;
  ASSERT_EQ(rig.client->browse(NodeId(ns, 1), refs, 10), StatusCode::Good);
  EXPECT_EQ(refs.size(), 25u);  // gathered through continuation points
}

TEST(ClientServer, DummyServiceIsNotOpcUa) {
  Network net;
  const Ipv4 ip = make_ipv4(10, 9, 9, 9);
  net.listen(ip, kOpcUaDefaultPort, [] {
    return std::make_unique<DummyBannerService>("nginx");
  });
  auto conn = net.connect(ip, kOpcUaDefaultPort);
  ASSERT_NE(conn, nullptr);
  ClientConfig cc;
  Client client(cc, *conn, Rng(1));
  EXPECT_NE(client.hello("opc.tcp://10.9.9.9:4840/"), StatusCode::Good);
}

TEST(ClientServer, ConnectionToClosedPortFails) {
  Network net;
  EXPECT_EQ(net.connect(make_ipv4(10, 1, 1, 1), kOpcUaDefaultPort), nullptr);
  EXPECT_FALSE(net.syn_probe(make_ipv4(10, 1, 1, 1), kOpcUaDefaultPort));
}

TEST(ClientServer, TrafficIsAccounted) {
  Rig rig(make_server_config(SecurityPolicy::None, MessageSecurityMode::None));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  EXPECT_GT(rig.conn->bytes_sent(), 0u);
  EXPECT_GT(rig.conn->bytes_received(), 0u);
  EXPECT_GT(rig.net.clock().now_us(), 0u);
}

TEST(ClientServer, DiscoveryServerAnnouncesForeignEndpoints) {
  ServerConfig config;
  config.identity.application_uri = "urn:discovery";
  config.identity.application_type = ApplicationType::DiscoveryServer;
  EndpointConfig ep;
  ep.url = "opc.tcp://10.0.0.1:4840/";
  ep.certificate_index = -1;
  config.endpoints.push_back(ep);
  EndpointDescription foreign;
  foreign.endpoint_url = "opc.tcp://10.0.0.2:4841/";
  foreign.server.application_uri = "urn:other-server";
  foreign.security_mode = MessageSecurityMode::None;
  foreign.security_policy_uri = std::string(policy_info(SecurityPolicy::None).uri);
  config.foreign_endpoints.push_back(foreign);
  ApplicationDescription known;
  known.application_uri = "urn:other-server";
  known.discovery_urls = {"opc.tcp://10.0.0.2:4841/"};
  config.known_servers.push_back(known);

  Rig rig(std::move(config));
  ASSERT_EQ(rig.client->hello("opc.tcp://10.0.0.1:4840/"), StatusCode::Good);
  ASSERT_EQ(rig.client->open_channel(SecurityPolicy::None, MessageSecurityMode::None),
            StatusCode::Good);
  std::vector<EndpointDescription> endpoints;
  ASSERT_EQ(rig.client->get_endpoints("opc.tcp://10.0.0.1:4840/", endpoints), StatusCode::Good);
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[1].endpoint_url, "opc.tcp://10.0.0.2:4841/");
  std::vector<ApplicationDescription> servers;
  ASSERT_EQ(rig.client->find_servers("opc.tcp://10.0.0.1:4840/", servers), StatusCode::Good);
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[1].application_uri, "urn:other-server");
}

}  // namespace
}  // namespace opcua_study
