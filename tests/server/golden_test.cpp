// Golden pins for the simulated serving world.
//
// Every value below was recorded from the single-event-loop
// LoadGenerator and CampaignRunner bodies before the one-shard supervised
// tier replaced them. The unified world must reproduce them: the fleet
// transcript digest everywhere, and on loss-free bearers the whole
// outcome — completions, connection attempts, the handshake mix,
// refusals and the simulated duration to the microsecond. On lossy
// bearers only the digest and the completion count are pinned: channel
// weather is seeded by the connection's wire identity (client, attempt),
// not by global connect order, so retry counts and timing there are a
// different (equally valid) draw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "mapsec/chaos/campaign.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"

namespace mapsec::server {
namespace {

using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

/// One recorded outcome. `full_outcome` is false for lossy worlds, where
/// only the digest and the completion count are pinned.
struct Pin {
  const char* digest_hex;
  std::size_t completed;
  std::size_t attempts;
  std::uint64_t full;
  std::uint64_t resumed;
  std::uint64_t refused;
  std::uint64_t sim_us;
  bool full_outcome = true;
};

struct Outcome {
  std::string digest_hex;
  std::size_t completed = 0;
  std::size_t attempts = 0;
  std::uint64_t full = 0;
  std::uint64_t resumed = 0;
  std::uint64_t refused = 0;
  std::uint64_t sim_us = 0;
};

Outcome outcome_of(const LoadReport& r) {
  return {crypto::to_hex(r.fleet_digest),
          r.sessions_completed,
          r.connection_attempts,
          r.server.full_handshakes,
          r.server.resumed_handshakes,
          r.server.refused_connections,
          static_cast<std::uint64_t>(std::llround(r.sim_duration_s * 1e6))};
}

Outcome outcome_of(const chaos::CampaignReport& r) {
  return {crypto::to_hex(r.fleet_digest),
          r.sessions_completed,
          0,  // campaigns do not report connection attempts
          r.server.full_handshakes,
          r.server.resumed_handshakes,
          r.server.refused_connections,
          static_cast<std::uint64_t>(std::llround(r.sim_duration_s * 1e6))};
}

void expect_pinned(const char* world, const Outcome& got, const Pin& pin) {
  SCOPED_TRACE(world);
  // On failure, print the observed outcome in table form.
  char row[256];
  std::snprintf(row, sizeof row, "{\"%s\", %zu, %zu, %llu, %llu, %llu, %llu}",
                got.digest_hex.c_str(), got.completed, got.attempts,
                static_cast<unsigned long long>(got.full),
                static_cast<unsigned long long>(got.resumed),
                static_cast<unsigned long long>(got.refused),
                static_cast<unsigned long long>(got.sim_us));
  EXPECT_EQ(got.digest_hex, pin.digest_hex) << row;
  EXPECT_EQ(got.completed, pin.completed) << row;
  if (!pin.full_outcome) return;
  EXPECT_EQ(got.attempts, pin.attempts) << row;
  EXPECT_EQ(got.full, pin.full) << row;
  EXPECT_EQ(got.resumed, pin.resumed) << row;
  EXPECT_EQ(got.refused, pin.refused) << row;
  EXPECT_EQ(got.sim_us, pin.sim_us) << row;
}

class GoldenWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("SoakRoot", *ca_key_, 0,
                                             kNow * 2);
    server_cert_ = new protocol::Certificate(
        ca_->issue("server.test", server_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete server_cert_;
    delete ca_;
    delete server_key_;
    delete ca_key_;
  }

  static ServerConfig server_config() {
    ServerConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.cert_chain = {*server_cert_};
    cfg.handshake.private_key = &server_key_->priv;
    return cfg;
  }

  static ClientConfig client_config() {
    ClientConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.trusted_roots = {ca_->root()};
    cfg.handshake.offered_suites = {CipherSuite::kRsaAes128CbcSha};
    return cfg;
  }

  static LoadConfig load_config(std::size_t clients) {
    LoadConfig cfg;
    cfg.num_clients = clients;
    cfg.appliance = platform::Processor::strongarm_sa1100();
    return cfg;
  }

  static LoadConfig lossy(std::size_t clients, double loss,
                          std::uint64_t seed) {
    LoadConfig cfg = load_config(clients);
    cfg.channel.loss_rate = loss;
    cfg.channel.dup_rate = loss / 2;
    cfg.channel.reorder_rate = loss;
    cfg.seed = seed;
    return cfg;
  }

  /// The hardened chaos world of the campaign book.
  static chaos::CampaignConfig campaign_config(std::uint64_t seed) {
    chaos::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.honest_clients = 12;
    cfg.mean_interarrival_us = 3'000;
    cfg.server = server_config();
    cfg.server.max_handshake_queue = 24;
    cfg.server.degraded_high_watermark = 16;
    cfg.server.pipeline_workers = 1;
    cfg.client = client_config();
    cfg.client.retry_budget = 6;
    cfg.client.retry_backoff_us = 100'000;
    cfg.cache.capacity = 256;
    return cfg;
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* GoldenWorldTest::ca_key_ = nullptr;
crypto::RsaKeyPair* GoldenWorldTest::server_key_ = nullptr;
protocol::CertificateAuthority* GoldenWorldTest::ca_ = nullptr;
protocol::Certificate* GoldenWorldTest::server_cert_ = nullptr;

TEST_F(GoldenWorldTest, LossSweepReproducesSingleLoopWorld) {
  const Pin loss0 = {
      "e34aabb32f07d74c00678750a2ce0a16e5ff822f0aba056175a7a548a1c06814", 12,
      12, 12, 0, 0, 59164};
  const Pin loss5 = {
      "f6c49c5ca91f4a385098621c521aa9e792cab8ab9a68c19cb86a5e843e066d58", 12,
      12, 12, 0, 0, 198132, false};
  const Pin loss20 = {
      "30f573c8240fecd10bdffa0c718ca1c7ba7e8baabde0455119fb346ac9656503", 12,
      12, 12, 0, 0, 491617, false};
  expect_pinned("loss 0%",
                outcome_of(LoadGenerator(lossy(12, 0.0, 0xB0A7),
                                         server_config(), client_config(),
                                         {})
                               .run()),
                loss0);
  expect_pinned("loss 5%",
                outcome_of(LoadGenerator(lossy(12, 0.05, 0xB0A7 + 5),
                                         server_config(), client_config(),
                                         {})
                               .run()),
                loss5);
  expect_pinned("loss 20%",
                outcome_of(LoadGenerator(lossy(12, 0.20, 0xB0A7 + 20),
                                         server_config(), client_config(),
                                         {})
                               .run()),
                loss20);
}

TEST_F(GoldenWorldTest, SoakReproducesSingleLoopWorld) {
  ClientConfig client = client_config();
  client.sessions = 2;
  client.payloads_per_session = 2;
  client.payload_bytes = 128;
  LoadConfig load = load_config(500);
  load.channel.loss_rate = 0.05;
  load.channel.reorder_rate = 0.10;
  load.channel.dup_rate = 0.02;
  load.seed = 0x50AC;
  const Pin soak = {
      "04857ea8f96898e7c63fadac05bbaf3db6d540be28d15c64099203c48f76ed47",
      1000, 1000, 500, 500, 0, 5274402, false};
  expect_pinned("500-client soak",
                outcome_of(LoadGenerator(load, server_config(), client,
                                         {.capacity = 600, .ttl_us = 0})
                               .run()),
                soak);
}

TEST_F(GoldenWorldTest, ServingBehavioursReproduceSingleLoopWorld) {
  {
    ClientConfig client = client_config();
    client.sessions = 2;
    const Pin pin = {
        "36d9be8d9dc9588bd7c86c0b36dd659f62fc539f7868bab300319b308005017d",
        6, 6, 3, 3, 0, 107168};
    expect_pinned("cache resume",
                  outcome_of(LoadGenerator(load_config(3), server_config(),
                                           client, {})
                                 .run()),
                  pin);
  }
  {
    ClientConfig client = client_config();
    client.retry_budget = 3;
    client.handshake_timeout_us = 500'000;
    client.link.max_retries = 2;
    client.link.initial_rto_us = 20'000;
    LoadConfig load = load_config(1);
    load.channel.loss_rate = 1.0;
    const Pin pin = {
        "2b32db6c2c0a6235fb1397e8225ea85e0f0e6e8c7b126d0016ccbde0e667151e",
        0, 3, 0, 0, 0, 5880000};
    expect_pinned("black hole",
                  outcome_of(LoadGenerator(load, server_config(), client, {})
                                 .run()),
                  pin);
  }
  {
    ClientConfig client = client_config();
    client.payloads_per_session = 8;
    client.payload_bytes = 256;
    client.think_time_us = 0;
    ServerConfig server = server_config();
    server.max_pending_echo_bytes = 300;
    const Pin pin = {
        "31ba08b16a5cfb8ab9d1430954726fd10ce455b821e778229ba20985d55d403e",
        2, 2, 2, 0, 0, 12000};
    expect_pinned("backpressure",
                  outcome_of(LoadGenerator(load_config(2), server, client, {})
                                 .run()),
                  pin);
  }
  {
    ClientConfig client = client_config();
    client.linger = true;
    ServerConfig server = server_config();
    server.idle_timeout_us = 2'000'000;
    const Pin pin = {
        "2eeb74a6177f588d80c0c752b99556902ddf9682d0b906f5aa2adbaf8466a4e9",
        2, 2, 2, 0, 0, 2004168};
    expect_pinned("idle reap",
                  outcome_of(LoadGenerator(load_config(2), server, client, {})
                                 .run()),
                  pin);
  }
}

TEST_F(GoldenWorldTest, OffloadAdmissionReproducesSingleLoopWorld) {
  ServerConfig server = server_config();
  server.offload_workers = 1;
  server.max_handshake_queue = 4;
  LoadConfig load = load_config(24);
  load.mean_interarrival_us = 10;
  ClientConfig client = client_config();
  client.retry_budget = 6;
  const Pin pin = {
      "e3bbb3d855da1586dd6ec824ed74aa696b0ecdffaed2fda293d5f3915f368a3d",
      24, 84, 24, 0, 60, 6270636};
  expect_pinned("offload admission",
                outcome_of(LoadGenerator(load, server, client, {}).run()),
                pin);
}

TEST_F(GoldenWorldTest, FloodCampaignReproducesSingleLoopWorld) {
  chaos::CampaignConfig cfg = campaign_config(0xF10D);
  cfg.honest_clients = 8;
  cfg.client.sessions = 2;
  cfg.server.max_handshake_queue = 6;
  cfg.server.degraded_high_watermark = 4;
  cfg.server.degraded_low_watermark = 2;
  cfg.faults = {chaos::HandshakeFlood{.at_us = 15'000,
                                      .attackers = 6,
                                      .connections_each = 8,
                                      .interarrival_us = 3'000,
                                      .reach_key_exchange = true}};
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();
  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  const Pin pin = {
      "b71d3f976b14ebf75f1b585d604a79e2296c900ca0f4e8e8920a5e4fc5d7ebae",
      16, 0, 53, 8, 0, 6801000};
  expect_pinned("flood campaign", outcome_of(r), pin);
  EXPECT_EQ(r.attack_connections, 48u);
  EXPECT_EQ(r.attack_refused, 0u);
  EXPECT_EQ(r.server.degraded_refusals, 9u);
  EXPECT_EQ(r.server.handshake_rsa_private_ops, 53u);
  EXPECT_EQ(r.degraded_transitions, 5u);
}

TEST_F(GoldenWorldTest, RngExhaustionCampaignReproducesSingleLoopWorld) {
  chaos::CampaignConfig cfg = campaign_config(0xC9);
  cfg.faults = {chaos::RngExhaustion{.at_us = 5'000, .duration_us = 80'000},
                chaos::DispatchFailure{.at_us = 40'000,
                                       .duration_us = 200'000}};
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();
  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  const Pin pin = {
      "12fecfe7d01df80a5421dcf6a8f9b8e7ab685d21671daff2ebe2a770db9a84ea",
      12, 0, 12, 0, 0, 3178578};
  expect_pinned("rng exhaustion campaign", outcome_of(r), pin);
  EXPECT_EQ(r.server.poisoned_connections, 8u);
  EXPECT_EQ(r.server.handshakes_failed, 8u);
}

}  // namespace
}  // namespace mapsec::server
