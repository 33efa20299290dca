// End-to-end handshake tests: negotiation over the Section 3.1 suite
// space, data transfer, resumption, and failure modes.
#include <gtest/gtest.h>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/protocol/handshake.hpp"

namespace mapsec::protocol {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

/// Shared PKI fixture: one CA, one server identity (RSA-512 for speed).
class HandshakeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x7157);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new CertificateAuthority("TestRoot", *ca_key_, 0, kNow * 2);
    server_cert_ = new Certificate(
        ca_->issue("server.test", server_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete server_cert_;
    delete ca_;
    delete server_key_;
    delete ca_key_;
  }

  HandshakeConfig client_config(crypto::Rng& rng) const {
    HandshakeConfig cfg;
    cfg.rng = &rng;
    cfg.now = kNow;
    cfg.trusted_roots = {ca_->root()};
    return cfg;
  }

  HandshakeConfig server_config(crypto::Rng& rng) const {
    HandshakeConfig cfg;
    cfg.rng = &rng;
    cfg.now = kNow;
    cfg.cert_chain = {*server_cert_};
    cfg.private_key = &server_key_->priv;
    return cfg;
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static CertificateAuthority* ca_;
  static Certificate* server_cert_;
};

crypto::RsaKeyPair* HandshakeTest::ca_key_ = nullptr;
crypto::RsaKeyPair* HandshakeTest::server_key_ = nullptr;
CertificateAuthority* HandshakeTest::ca_ = nullptr;
Certificate* HandshakeTest::server_cert_ = nullptr;

// Parameterized over every cipher suite.
class HandshakeSuiteTest
    : public HandshakeTest,
      public ::testing::WithParamInterface<CipherSuite> {};

TEST_P(HandshakeSuiteTest, FullHandshakeAndBidirectionalData) {
  crypto::HmacDrbg crng(1), srng(2);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {GetParam()};
  TlsClient client(ccfg);
  TlsServer server(server_config(srng));

  run_handshake(client, server);
  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());
  EXPECT_EQ(client.summary().suite, GetParam());
  EXPECT_EQ(server.summary().suite, GetParam());
  EXPECT_FALSE(client.summary().resumed);
  EXPECT_EQ(client.master_secret(), server.master_secret());

  // Client -> server.
  const Bytes ping = to_bytes("GET /secure HTTP/1.0");
  const auto got = server.recv_data(client.send_data(ping));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], ping);
  // Server -> client.
  const Bytes pong = to_bytes("HTTP/1.0 200 OK");
  const auto got2 = client.recv_data(server.send_data(pong));
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(got2[0], pong);
}

TEST_P(HandshakeSuiteTest, ResumptionWorksOnEverySuite) {
  crypto::HmacDrbg crng(70), srng(71);
  SessionCache cache;
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {GetParam()};
  TlsClient first(ccfg);
  TlsServer first_server(server_config(srng), &cache);
  run_handshake(first, first_server);

  TlsClient second(ccfg);
  second.set_resume_session(first.summary().session_id,
                            first.master_secret(), first.summary().suite);
  TlsServer second_server(server_config(srng), &cache);
  run_handshake(second, second_server);
  ASSERT_TRUE(second.established());
  EXPECT_TRUE(second.summary().resumed);
  EXPECT_EQ(second.summary().suite, GetParam());
  EXPECT_EQ(second.summary().rsa_public_ops, 0);
  EXPECT_EQ(second_server.summary().rsa_private_ops, 0);
  EXPECT_EQ(second_server.summary().dh_ops, 0);  // DHE skipped too
  const auto got =
      second_server.recv_data(second.send_data(to_bytes("resumed!")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], to_bytes("resumed!"));
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, HandshakeSuiteTest, ::testing::ValuesIn(all_suites()),
    [](const ::testing::TestParamInfo<CipherSuite>& info) {
      return suite_info(info.param).name;
    });

TEST_F(HandshakeTest, ServerPrefersItsOwnSuiteOrder) {
  crypto::HmacDrbg crng(3), srng(4);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {CipherSuite::kRsaRc4128Md5,
                         CipherSuite::kRsa3DesEdeCbcSha};
  HandshakeConfig scfg = server_config(srng);
  scfg.offered_suites = {CipherSuite::kRsa3DesEdeCbcSha,
                         CipherSuite::kRsaRc4128Md5};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  EXPECT_EQ(client.summary().suite, CipherSuite::kRsa3DesEdeCbcSha);
}

TEST_F(HandshakeTest, NoCommonSuiteFails) {
  crypto::HmacDrbg crng(5), srng(6);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {CipherSuite::kRsaRc4128Md5};
  HandshakeConfig scfg = server_config(srng);
  scfg.offered_suites = {CipherSuite::kRsaAes128CbcSha};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(HandshakeTest, UntrustedCaRejected) {
  crypto::HmacDrbg crng(7), srng(8), karng(9);
  // Client trusts a different root.
  const crypto::RsaKeyPair other = crypto::rsa_generate(karng, 512);
  CertificateAuthority other_ca("OtherRoot", other, 0, kNow * 2);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.trusted_roots = {other_ca.root()};
  TlsClient client(ccfg);
  TlsServer server(server_config(srng));
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(HandshakeTest, ExpiredCertificateRejected) {
  crypto::HmacDrbg crng(10), srng(11);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.now = kNow * 3;  // long after expiry
  HandshakeConfig scfg = server_config(srng);
  TlsClient client(ccfg);
  TlsServer server(scfg);
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(HandshakeTest, VersionMismatchRejected) {
  crypto::HmacDrbg crng(12), srng(13);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.version = ProtocolVersion::kSsl30;
  TlsClient client(ccfg);
  TlsServer server(server_config(srng));  // TLS 1.0
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(HandshakeTest, WtlsProfileHandshake) {
  // The WTLS adaptation: same machinery under the WTLS version constant.
  crypto::HmacDrbg crng(14), srng(15);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.version = ProtocolVersion::kWtls1;
  HandshakeConfig scfg = server_config(srng);
  scfg.version = ProtocolVersion::kWtls1;
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  EXPECT_TRUE(client.established());
  EXPECT_EQ(client.summary().version, ProtocolVersion::kWtls1);
}

TEST_F(HandshakeTest, TamperedFlightDetected) {
  crypto::HmacDrbg crng(16), srng(17);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  Bytes hello = client.process({});
  Bytes server_flight = server.process(hello);
  Bytes client_flight = client.process(server_flight);
  client_flight[client_flight.size() - 3] ^= 0x80;  // corrupt Finished
  EXPECT_THROW(server.process(client_flight), std::runtime_error);
}

TEST_F(HandshakeTest, RsaOpAccounting) {
  crypto::HmacDrbg crng(18), srng(19);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  run_handshake(client, server);
  // Client: 1 chain signature check + 1 premaster encryption.
  EXPECT_EQ(client.summary().rsa_public_ops, 2);
  EXPECT_EQ(client.summary().rsa_private_ops, 0);
  // Server: 1 premaster decryption.
  EXPECT_EQ(server.summary().rsa_private_ops, 1);
  EXPECT_GT(client.summary().bytes_sent, 0u);
  EXPECT_EQ(client.summary().bytes_sent, server.summary().bytes_received);
  EXPECT_EQ(server.summary().bytes_sent, client.summary().bytes_received);
}

TEST_F(HandshakeTest, ResumptionSkipsRsa) {
  crypto::HmacDrbg crng(20), srng(21);
  SessionCache cache;

  // First connection: full handshake, server caches the session.
  TlsClient client1(client_config(crng));
  TlsServer server1(server_config(srng), &cache);
  run_handshake(client1, server1);
  EXPECT_EQ(cache.size(), 1u);
  const Bytes sid = client1.summary().session_id;
  const Bytes master(client1.master_secret());
  const CipherSuite suite = client1.summary().suite;

  // Second connection: abbreviated handshake.
  TlsClient client2(client_config(crng));
  client2.set_resume_session(sid, master, suite);
  TlsServer server2(server_config(srng), &cache);
  run_handshake(client2, server2);
  ASSERT_TRUE(client2.established());
  EXPECT_TRUE(client2.summary().resumed);
  EXPECT_TRUE(server2.summary().resumed);
  // No RSA at all on the resumed handshake — the whole point for a
  // MIPS-constrained handset.
  EXPECT_EQ(client2.summary().rsa_public_ops, 0);
  EXPECT_EQ(server2.summary().rsa_private_ops, 0);
  // Fewer wire bytes too.
  EXPECT_LT(client2.summary().bytes_received,
            client1.summary().bytes_received);

  // And data still flows.
  const auto got = server2.recv_data(client2.send_data(to_bytes("resumed")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], to_bytes("resumed"));
}

TEST_F(HandshakeTest, UnknownSessionIdFallsBackToFull) {
  crypto::HmacDrbg crng(22), srng(23);
  SessionCache cache;
  TlsClient client(client_config(crng));
  client.set_resume_session(to_bytes("bogus-session-id"), Bytes(48, 1),
                            CipherSuite::kRsa3DesEdeCbcSha);
  TlsServer server(server_config(srng), &cache);
  run_handshake(client, server);
  EXPECT_TRUE(client.established());
  EXPECT_FALSE(client.summary().resumed);
  EXPECT_EQ(server.summary().rsa_private_ops, 1);
}

TEST_F(HandshakeTest, ResumedSessionsDeriveFreshKeys) {
  // Same master secret, new randoms -> different record keys. Verify by
  // checking that wire bytes for the same plaintext differ across the two
  // connections.
  crypto::HmacDrbg crng(24), srng(25);
  SessionCache cache;
  TlsClient c1(client_config(crng));
  TlsServer s1(server_config(srng), &cache);
  run_handshake(c1, s1);

  TlsClient c2(client_config(crng));
  c2.set_resume_session(c1.summary().session_id, c1.master_secret(),
                        c1.summary().suite);
  TlsServer s2(server_config(srng), &cache);
  run_handshake(c2, s2);

  EXPECT_NE(c1.send_data(to_bytes("same plaintext")),
            c2.send_data(to_bytes("same plaintext")));
}

// ---- DHE key exchange ----------------------------------------------------------

TEST_F(HandshakeTest, DheHandshakeAgreesAndTransfersData) {
  crypto::HmacDrbg crng(40), srng(41), grng(42);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {CipherSuite::kDheRsaAes128CbcSha};
  HandshakeConfig scfg = server_config(srng);
  // Small generated group keeps the test fast; production uses Oakley 2.
  const crypto::DhGroup group = crypto::DhGroup::generate(grng, 160);
  ccfg.dhe_group = group;  // (client takes the group from SKE anyway)
  scfg.dhe_group = group;
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  ASSERT_TRUE(client.established());
  EXPECT_EQ(client.summary().key_exchange, KeyExchange::kDheRsa);
  EXPECT_EQ(client.master_secret(), server.master_secret());
  EXPECT_GE(client.summary().dh_ops, 2);
  EXPECT_GE(server.summary().dh_ops, 2);
  // Server signed the ephemeral params.
  EXPECT_EQ(server.summary().rsa_private_ops, 1);
  const auto got = server.recv_data(client.send_data(to_bytes("via DHE")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], to_bytes("via DHE"));
}

TEST_F(HandshakeTest, DheEphemeralsDifferAcrossConnections) {
  // Forward secrecy's mechanism: fresh ephemerals => fresh master secret.
  crypto::HmacDrbg grng(43);
  const crypto::DhGroup group = crypto::DhGroup::generate(grng, 160);
  crypto::Bytes first_master;
  for (int i = 0; i < 2; ++i) {
    crypto::HmacDrbg crng(44 + i), srng(46 + i);
    HandshakeConfig ccfg = client_config(crng);
    ccfg.offered_suites = {CipherSuite::kDheRsa3DesEdeCbcSha};
    HandshakeConfig scfg = server_config(srng);
    scfg.dhe_group = group;
    TlsClient client(ccfg);
    TlsServer server(scfg);
    run_handshake(client, server);
    if (i == 0) {
      first_master = client.master_secret();
    } else {
      EXPECT_NE(client.master_secret(), first_master);
    }
  }
}

TEST_F(HandshakeTest, TamperedSkeSignatureRejected) {
  crypto::HmacDrbg crng(48), srng(49), grng(50);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {CipherSuite::kDheRsaAes128CbcSha};
  HandshakeConfig scfg = server_config(srng);
  scfg.dhe_group = crypto::DhGroup::generate(grng, 160);
  TlsClient client(ccfg);
  TlsServer server(scfg);
  crypto::Bytes hello = client.process({});
  crypto::Bytes flight = server.process(hello);
  // Flip a bit near the end of the flight: lands in SKE signature /
  // later messages; the client must reject rather than proceed.
  flight[flight.size() - 60] ^= 0x10;
  EXPECT_THROW(client.process(flight), std::runtime_error);
}

// ---- client authentication -------------------------------------------------------

class ClientAuthTest : public HandshakeTest {
 protected:
  static void SetUpTestSuite() {
    HandshakeTest::SetUpTestSuite();
    crypto::HmacDrbg rng(0xC11E);
    client_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    client_cert_ = new Certificate(
        ca_->issue("phone.user", client_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete client_cert_;
    delete client_key_;
    HandshakeTest::TearDownTestSuite();
  }
  static crypto::RsaKeyPair* client_key_;
  static Certificate* client_cert_;
};

crypto::RsaKeyPair* ClientAuthTest::client_key_ = nullptr;
Certificate* ClientAuthTest::client_cert_ = nullptr;

TEST_F(ClientAuthTest, MutualAuthentication) {
  crypto::HmacDrbg crng(60), srng(61);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.client_cert_chain = {*client_cert_};
  ccfg.client_private_key = &client_key_->priv;
  HandshakeConfig scfg = server_config(srng);
  scfg.request_client_auth = true;
  scfg.require_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  ASSERT_TRUE(server.established());
  EXPECT_TRUE(server.summary().client_authenticated);
  // The client signed once (CertificateVerify).
  EXPECT_EQ(client.summary().rsa_private_ops, 1);
}

TEST_F(ClientAuthTest, RequiredButAbsentFails) {
  crypto::HmacDrbg crng(62), srng(63);
  HandshakeConfig ccfg = client_config(crng);  // no client credentials
  HandshakeConfig scfg = server_config(srng);
  scfg.request_client_auth = true;
  scfg.require_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(ClientAuthTest, RequestedButOptionalSucceedsUnauthenticated) {
  crypto::HmacDrbg crng(64), srng(65);
  HandshakeConfig ccfg = client_config(crng);  // no client credentials
  HandshakeConfig scfg = server_config(srng);
  scfg.request_client_auth = true;
  scfg.require_client_auth = false;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  EXPECT_TRUE(server.established());
  EXPECT_FALSE(server.summary().client_authenticated);
}

TEST_F(ClientAuthTest, UntrustedClientCertRejected) {
  crypto::HmacDrbg crng(66), srng(67), rrng(68);
  // Client cert from a CA the server does not trust.
  const crypto::RsaKeyPair rogue_key = crypto::rsa_generate(rrng, 512);
  CertificateAuthority rogue("RogueRoot", rogue_key, 0, kNow * 2);
  const Certificate rogue_cert =
      rogue.issue("phone.user", client_key_->pub, 0, kNow * 2);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.client_cert_chain = {rogue_cert};
  ccfg.client_private_key = &client_key_->priv;
  HandshakeConfig scfg = server_config(srng);
  scfg.request_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(ClientAuthTest, StolenCertWithoutKeyRejected) {
  // An attacker presenting someone else's certificate cannot produce the
  // CertificateVerify signature.
  crypto::HmacDrbg crng(69), srng(70), wrng(71);
  const crypto::RsaKeyPair wrong_key = crypto::rsa_generate(wrng, 512);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.client_cert_chain = {*client_cert_};  // victim's cert
  ccfg.client_private_key = &wrong_key.priv; // attacker's key
  HandshakeConfig scfg = server_config(srng);
  scfg.request_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  EXPECT_THROW(run_handshake(client, server), HandshakeError);
}

TEST_F(ClientAuthTest, MutualAuthOverDhe) {
  crypto::HmacDrbg crng(72), srng(73), grng(74);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {CipherSuite::kDheRsa3DesEdeCbcSha};
  ccfg.client_cert_chain = {*client_cert_};
  ccfg.client_private_key = &client_key_->priv;
  HandshakeConfig scfg = server_config(srng);
  scfg.dhe_group = crypto::DhGroup::generate(grng, 160);
  scfg.request_client_auth = true;
  scfg.require_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);
  EXPECT_TRUE(server.summary().client_authenticated);
  EXPECT_EQ(server.summary().key_exchange, KeyExchange::kDheRsa);
  const auto got =
      client.recv_data(server.send_data(to_bytes("mutually authed")));
  ASSERT_EQ(got.size(), 1u);
}

TEST_F(HandshakeTest, DataBeforeEstablishmentThrows) {
  crypto::HmacDrbg crng(26);
  TlsClient client(client_config(crng));
  EXPECT_THROW(client.send_data(to_bytes("early")), HandshakeError);
  EXPECT_THROW(client.recv_data(to_bytes("early")), HandshakeError);
}

TEST_F(HandshakeTest, EavesdropperSeesNoPlaintext) {
  crypto::HmacDrbg crng(27), srng(28);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  std::vector<TappedFlight> tap;
  run_handshake(client, server, &tap);
  EXPECT_GE(tap.size(), 3u);

  const Bytes secret = to_bytes("4111-1111-1111-1111");  // card number
  const Bytes wire = client.send_data(secret);
  const auto it =
      std::search(wire.begin(), wire.end(), secret.begin(), secret.end());
  EXPECT_EQ(it, wire.end());
}

TEST_F(HandshakeTest, ServerConfigValidation) {
  crypto::HmacDrbg rng(29);
  HandshakeConfig cfg;
  cfg.rng = &rng;
  EXPECT_THROW(TlsServer{cfg}, std::invalid_argument);
  HandshakeConfig no_rng = server_config(rng);
  no_rng.rng = nullptr;
  EXPECT_THROW(TlsServer{no_rng}, std::invalid_argument);
}

// step_handshake is the single-flight primitive run_handshake is built
// on; an event-driven caller pumps it once per arriving flight.
TEST_F(HandshakeTest, StepHandshakeDrivesOneFlightAtATime) {
  crypto::HmacDrbg crng(90), srng(91);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));

  // Kick: the ClientHello needs no input.
  HandshakeStep to_server = step_handshake(client, {});
  ASSERT_FALSE(to_server.output.empty());
  ASSERT_FALSE(to_server.established);

  int flights = 0;
  while (!(client.established() && server.established())) {
    ASSERT_LT(++flights, 10);
    const HandshakeStep to_client = step_handshake(server, to_server.output);
    if (client.established() && to_client.output.empty()) break;
    to_server = step_handshake(client, to_client.output);
  }

  EXPECT_TRUE(client.established());
  EXPECT_TRUE(server.established());
  EXPECT_EQ(client.master_secret(), server.master_secret());

  // On an established endpoint the step is a no-op, not an error.
  const HandshakeStep idle = step_handshake(client, {});
  EXPECT_TRUE(idle.established);
  EXPECT_TRUE(idle.output.empty());
}

// ---- asynchronous public-key offload (async_pk) ---------------------------

// The async continuation must be a pure re-timing of the sync handshake:
// identical flights byte for byte, identical counters — only WHO runs the
// private-key op changes. This is the determinism contract the server's
// OffloadEngine integration relies on.
TEST_F(HandshakeTest, AsyncPkRsaTranscriptByteIdentical) {
  // Sync reference run.
  crypto::HmacDrbg crng_s(101), srng_s(102);
  TlsClient sync_client(client_config(crng_s));
  TlsServer sync_server(server_config(srng_s));
  const Bytes hello_s = sync_client.process({});
  const Bytes f1_s = sync_server.process(hello_s);
  const Bytes f2_s = sync_client.process(f1_s);
  const Bytes f3_s = sync_server.process(f2_s);
  const Bytes f4_s = sync_client.process(f3_s);
  ASSERT_TRUE(sync_server.established());

  // Async twin with identical seeds.
  crypto::HmacDrbg crng_a(101), srng_a(102);
  HandshakeConfig scfg = server_config(srng_a);
  scfg.async_pk = true;
  TlsClient client(client_config(crng_a));
  TlsServer server(scfg);
  const Bytes hello = client.process({});
  EXPECT_EQ(hello, hello_s);
  const Bytes f1 = server.process(hello);  // RSA suite: no pk op here
  EXPECT_EQ(f1, f1_s);
  EXPECT_FALSE(server.pk_pending());
  const Bytes f2 = client.process(f1);
  EXPECT_EQ(f2, f2_s);

  // The client flight carries the ClientKeyExchange: the server suspends
  // instead of decrypting inline.
  const HandshakeStep step = step_handshake(server, f2);
  ASSERT_TRUE(step.pk_pending);
  EXPECT_TRUE(step.output.empty());
  EXPECT_FALSE(step.established);
  ASSERT_TRUE(server.pk_pending());
  EXPECT_EQ(server.pending_pk_job().kind, PkJob::Kind::kRsaDecrypt);

  // A new flight while suspended is a protocol violation.
  EXPECT_THROW(server.process(f2), HandshakeError);

  // Service the job (as the OffloadEngine worker would) and resume.
  const PkResult result = run_pk_job(server.pending_pk_job());
  const Bytes f3 = server.resume_pk(result);
  EXPECT_EQ(f3, f3_s);
  ASSERT_TRUE(server.established());
  EXPECT_FALSE(server.pk_pending());
  const Bytes f4 = client.process(f3);
  EXPECT_EQ(f4, f4_s);
  ASSERT_TRUE(client.established());
  EXPECT_EQ(client.master_secret(), server.master_secret());
  EXPECT_EQ(server.summary().rsa_private_ops,
            sync_server.summary().rsa_private_ops);

  // The data path is live after an async establishment.
  const auto got = server.recv_data(client.send_data(to_bytes("async")));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], to_bytes("async"));
}

TEST_F(HandshakeTest, AsyncPkDheSuspendsMidServerFlight) {
  crypto::HmacDrbg grng(0xD4E);
  const crypto::DhGroup group = crypto::DhGroup::generate(grng, 160);

  crypto::HmacDrbg crng_s(103), srng_s(104);
  HandshakeConfig ccfg_s = client_config(crng_s);
  ccfg_s.offered_suites = {CipherSuite::kDheRsaAes128CbcSha};
  HandshakeConfig scfg_s = server_config(srng_s);
  scfg_s.dhe_group = group;
  TlsClient sync_client(ccfg_s);
  TlsServer sync_server(scfg_s);
  const Bytes hello_s = sync_client.process({});
  const Bytes f1_s = sync_server.process(hello_s);

  crypto::HmacDrbg crng_a(103), srng_a(104);
  HandshakeConfig ccfg = client_config(crng_a);
  ccfg.offered_suites = {CipherSuite::kDheRsaAes128CbcSha};
  HandshakeConfig scfg = server_config(srng_a);
  scfg.dhe_group = group;
  scfg.async_pk = true;
  TlsClient client(ccfg);
  TlsServer server(scfg);
  const Bytes hello = client.process({});
  EXPECT_EQ(hello, hello_s);

  // The ServerKeyExchange signature suspends the server's OWN flight.
  const HandshakeStep step = step_handshake(server, hello);
  ASSERT_TRUE(step.pk_pending);
  EXPECT_TRUE(step.output.empty());
  ASSERT_EQ(server.pending_pk_job().kind, PkJob::Kind::kRsaSign);
  const Bytes f1 = server.resume_pk(run_pk_job(server.pending_pk_job()));
  EXPECT_EQ(f1, f1_s);

  // A DHE ClientKeyExchange needs no RSA decrypt: the rest is synchronous.
  const Bytes f2 = client.process(f1);
  const Bytes f3 = server.process(f2);
  ASSERT_TRUE(server.established());
  client.process(f3);
  ASSERT_TRUE(client.established());
  EXPECT_EQ(client.master_secret(), server.master_secret());
}

TEST_F(HandshakeTest, AsyncPkResumeWithoutPendingJobThrows) {
  crypto::HmacDrbg srng(107);
  HandshakeConfig scfg = server_config(srng);
  scfg.async_pk = true;
  TlsServer server(scfg);
  EXPECT_THROW(server.resume_pk(PkResult{}), HandshakeError);
}

// A failed offload result (the job threw on the accelerator) fails the
// suspended handshake instead of resuming it.
TEST_F(HandshakeTest, AsyncPkFailedResultFailsTheHandshake) {
  crypto::HmacDrbg crng(110), srng(111);
  HandshakeConfig scfg = server_config(srng);
  scfg.async_pk = true;
  TlsClient client(client_config(crng));
  TlsServer server(scfg);
  const Bytes f1 = server.process(client.process({}));
  const HandshakeStep step = step_handshake(server, client.process(f1));
  ASSERT_TRUE(step.pk_pending);
  PkResult failed;
  failed.kind = server.pending_pk_job().kind;
  failed.error = "run_pk_job: decrypt without a private key";
  EXPECT_THROW(server.resume_pk(failed), HandshakeError);
  EXPECT_FALSE(server.pk_pending());
  EXPECT_FALSE(server.established());
}

TEST_F(HandshakeTest, RunHandshakeServicesAsyncServer) {
  crypto::HmacDrbg crng(108), srng(109);
  HandshakeConfig scfg = server_config(srng);
  scfg.async_pk = true;
  TlsClient client(client_config(crng));
  TlsServer server(scfg);
  run_handshake(client, server);
  EXPECT_TRUE(client.established());
  EXPECT_TRUE(server.established());
  EXPECT_EQ(client.master_secret(), server.master_secret());
}

TEST_F(ClientAuthTest, AsyncPkDoubleSuspensionCkeThenCertVerify) {
  // Sync reference.
  crypto::HmacDrbg crng_s(110), srng_s(111);
  HandshakeConfig ccfg_s = client_config(crng_s);
  ccfg_s.client_cert_chain = {*client_cert_};
  ccfg_s.client_private_key = &client_key_->priv;
  HandshakeConfig scfg_s = server_config(srng_s);
  scfg_s.request_client_auth = true;
  scfg_s.require_client_auth = true;
  scfg_s.trusted_roots = {ca_->root()};
  TlsClient sync_client(ccfg_s);
  TlsServer sync_server(scfg_s);
  const Bytes f1_s = sync_server.process(sync_client.process({}));
  const Bytes f2_s = sync_client.process(f1_s);
  const Bytes f3_s = sync_server.process(f2_s);
  ASSERT_TRUE(sync_server.established());

  // Async twin: the one client flight costs TWO suspensions — the
  // ClientKeyExchange decrypt, then the CertificateVerify check.
  crypto::HmacDrbg crng_a(110), srng_a(111);
  HandshakeConfig ccfg = client_config(crng_a);
  ccfg.client_cert_chain = {*client_cert_};
  ccfg.client_private_key = &client_key_->priv;
  HandshakeConfig scfg = server_config(srng_a);
  scfg.request_client_auth = true;
  scfg.require_client_auth = true;
  scfg.trusted_roots = {ca_->root()};
  scfg.async_pk = true;
  TlsClient client(ccfg);
  TlsServer server(scfg);
  const Bytes f1 = server.process(client.process({}));
  EXPECT_EQ(f1, f1_s);
  const Bytes f2 = client.process(f1);
  EXPECT_EQ(f2, f2_s);

  const HandshakeStep step = step_handshake(server, f2);
  ASSERT_TRUE(step.pk_pending);
  ASSERT_EQ(server.pending_pk_job().kind, PkJob::Kind::kRsaDecrypt);
  Bytes out = server.resume_pk(run_pk_job(server.pending_pk_job()));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(server.pk_pending());
  ASSERT_EQ(server.pending_pk_job().kind, PkJob::Kind::kRsaVerify);
  out = server.resume_pk(run_pk_job(server.pending_pk_job()));
  EXPECT_EQ(out, f3_s);
  ASSERT_TRUE(server.established());
  EXPECT_TRUE(server.summary().client_authenticated);
  EXPECT_EQ(server.summary().rsa_private_ops,
            sync_server.summary().rsa_private_ops);
  client.process(out);
  ASSERT_TRUE(client.established());
  EXPECT_EQ(client.master_secret(), server.master_secret());
}

}  // namespace
}  // namespace mapsec::protocol
