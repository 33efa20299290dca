// mapsec::chaos soak tests: seeded fault-injection campaigns against the
// hardened SecureSessionServer. Every campaign mixes at least two fault
// classes and must satisfy the survival invariants (no livelock, byte-
// exact surviving sessions, conserved connection accounting, bounded
// memory), and the same seed must produce a bit-identical outcome for
// any PacketPipeline worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapsec/chaos/campaign.hpp"
#include "mapsec/chaos/exhaustible_rng.hpp"
#include "mapsec/chaos/wire_mutator.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/protocol/cert.hpp"

namespace mapsec::chaos {
namespace {

using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

// ----------------------------------------------------- ExhaustibleRng

TEST(ExhaustibleRngTest, ThrowsWhenDryAndRecoversOnRefill) {
  ExhaustibleRng rng(0x1234, 64);
  EXPECT_EQ(rng.bytes(32).size(), 32u);
  EXPECT_EQ(rng.remaining(), 32u);
  EXPECT_THROW(rng.bytes(33), RngExhaustedError);
  EXPECT_TRUE(rng.exhausted());          // failed draw drains the pool
  EXPECT_THROW(rng.bytes(1), RngExhaustedError);
  rng.refill(16);
  EXPECT_EQ(rng.bytes(16).size(), 16u);
  EXPECT_THROW(rng.bytes(1), RngExhaustedError);
}

TEST(ExhaustibleRngTest, MatchesPlainDrbgStreamWhileFunded) {
  ExhaustibleRng a(0x77, ExhaustibleRng::kUnlimited);
  crypto::HmacDrbg b(0x77);
  EXPECT_EQ(a.bytes(48), b.bytes(48));
}

TEST(ExhaustibleRngTest, ExhaustOnCommand) {
  ExhaustibleRng rng(0x9);
  rng.exhaust();
  EXPECT_THROW(rng.bytes(1), RngExhaustedError);
}

// -------------------------------------------------------- WireMutator

TEST(WireMutatorTest, DeterministicForSameSeedAndCorpus) {
  auto build = [] {
    WireMutator m(0xF00D);
    m.add_specimen({0x10, 1, 2, 3, 4, 5, 6, 7});
    m.add_specimen({0x11, 9, 9, 9});
    return m;
  };
  WireMutator a = build();
  WireMutator b = build();
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(WireMutatorTest, NeverEmitsAValidSpecimenVerbatim) {
  WireMutator m(0xBEEF);
  const crypto::Bytes specimen{0x10, 22, 3, 1, 0, 4, 1, 2, 3, 4};
  m.add_specimen(specimen);
  for (int i = 0; i < 500; ++i) EXPECT_NE(m.next(), specimen);
}

// --------------------------------------------------- campaign fixture

/// Shared PKI: one CA, one server identity (RSA-512 for speed).
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0xC405);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("ChaosRoot", *ca_key_, 0,
                                             kNow * 2);
    server_cert_ = new protocol::Certificate(
        ca_->issue("server.chaos", server_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete server_cert_;
    delete ca_;
    delete server_key_;
    delete ca_key_;
  }

  /// A hardened serving world on a clean bearer; campaigns perturb it.
  static CampaignConfig base_config(std::uint64_t seed) {
    CampaignConfig cfg;
    cfg.seed = seed;
    cfg.honest_clients = 12;
    cfg.mean_interarrival_us = 3'000;

    cfg.server.handshake.now = kNow;
    cfg.server.handshake.cert_chain = {*server_cert_};
    cfg.server.handshake.private_key = &server_key_->priv;
    cfg.server.max_handshake_queue = 24;
    cfg.server.degraded_high_watermark = 16;
    cfg.server.pipeline_workers = 1;

    cfg.client.handshake.now = kNow;
    cfg.client.handshake.trusted_roots = {ca_->root()};
    cfg.client.handshake.offered_suites = {CipherSuite::kRsaAes128CbcSha};
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

crypto::RsaKeyPair* ChaosTest::ca_key_ = nullptr;
crypto::RsaKeyPair* ChaosTest::server_key_ = nullptr;
protocol::CertificateAuthority* ChaosTest::ca_ = nullptr;
protocol::Certificate* ChaosTest::server_cert_ = nullptr;

struct Campaign {
  std::string name;
  CampaignConfig config;
  /// Floor on honest sessions that must still complete (faults may
  /// legitimately fail the rest — but they must fail CLEANLY).
  std::size_t min_completed = 1;
};

/// The campaign book: ten seeded scenarios, every one mixing at least
/// two fault classes.
std::vector<Campaign> campaign_book(const CampaignConfig& base) {
  std::vector<Campaign> book;
  auto add = [&](std::string name, std::uint64_t seed, FaultPlan faults,
                 auto&& tweak, std::size_t min_completed) {
    Campaign c{std::move(name), base, min_completed};
    c.config.seed = seed;
    c.config.faults = std::move(faults);
    tweak(c.config);
    book.push_back(std::move(c));
  };
  auto no_tweak = [](CampaignConfig&) {};

  add("blackout_plus_burst", 0xC1,
      {Blackout{.at_us = 50'000, .duration_us = 200'000},
       BurstLoss{.at_us = 0, .duration_us = 0, .loss_bad = 0.7}},
      no_tweak, 10);

  add("flap_plus_bandwidth_collapse", 0xC2,
      {BearerFlap{.at_us = 30'000,
                  .flaps = 3,
                  .period_us = 150'000,
                  .outage_us = 40'000},
       BandwidthCollapse{.at_us = 100'000,
                         .duration_us = 400'000,
                         .bytes_per_sec = 4'000}},
      no_tweak, 10);

  add("dispatch_failure_plus_worker_stall", 0xC3,
      {DispatchFailure{.at_us = 20'000, .duration_us = 0},
       WorkerStall{.at_us = 10'000,
                   .duration_us = 0,
                   .worker = 0,
                   .stall_ns = 20'000}},
      [](CampaignConfig& c) { c.server.pipeline_workers = 2; }, 12);

  add("rng_exhaustion_plus_blackout", 0xC4,
      {RngExhaustion{.at_us = 10'000, .duration_us = 100'000},
       Blackout{.at_us = 150'000, .duration_us = 100'000}},
      no_tweak, 10);

  add("flood_into_degraded_mode", 0xC5,
      {HandshakeFlood{.at_us = 20'000,
                      .attackers = 4,
                      .connections_each = 6,
                      .interarrival_us = 5'000,
                      .reach_key_exchange = true},
       MalformedTraffic{.at_us = 30'000,
                        .clients = 1,
                        .connections_each = 3,
                        .messages_per_connection = 3}},
      [](CampaignConfig& c) {
        c.client.sessions = 2;  // second session resumes under fire
        c.server.max_handshake_queue = 8;
        c.server.degraded_high_watermark = 5;
        c.server.degraded_low_watermark = 2;
      },
      8);

  add("malformed_plus_burst", 0xC6,
      {MalformedTraffic{.at_us = 10'000,
                        .clients = 2,
                        .connections_each = 5,
                        .messages_per_connection = 4},
       BurstLoss{.at_us = 0, .duration_us = 300'000, .loss_bad = 0.6}},
      no_tweak, 10);

  add("flood_plus_blackout", 0xC7,
      {HandshakeFlood{.at_us = 15'000,
                      .attackers = 3,
                      .connections_each = 5,
                      .interarrival_us = 8'000},
       Blackout{.at_us = 60'000, .duration_us = 150'000}},
      [](CampaignConfig& c) { c.server.max_handshake_queue = 10; }, 8);

  add("stall_plus_burst_plus_flap", 0xC8,
      {WorkerStall{.at_us = 0,
                   .duration_us = 0,
                   .worker = 1,
                   .stall_ns = 10'000},
       BurstLoss{.at_us = 20'000, .duration_us = 250'000, .loss_bad = 0.8},
       BearerFlap{.at_us = 40'000,
                  .flaps = 2,
                  .period_us = 200'000,
                  .outage_us = 50'000}},
      [](CampaignConfig& c) { c.server.pipeline_workers = 3; }, 9);

  add("rng_exhaustion_plus_dispatch_failure", 0xC9,
      {RngExhaustion{.at_us = 5'000, .duration_us = 80'000},
       DispatchFailure{.at_us = 40'000, .duration_us = 200'000}},
      no_tweak, 10);

  add("kitchen_sink", 0xCA,
      {Blackout{.at_us = 80'000, .duration_us = 120'000},
       BurstLoss{.at_us = 0, .duration_us = 0, .loss_bad = 0.5},
       HandshakeFlood{.at_us = 25'000,
                      .attackers = 2,
                      .connections_each = 4,
                      .interarrival_us = 10'000},
       MalformedTraffic{.at_us = 40'000,
                        .clients = 1,
                        .connections_each = 4,
                        .messages_per_connection = 2},
       WorkerStall{.at_us = 0,
                   .duration_us = 0,
                   .worker = 0,
                   .stall_ns = 15'000},
       DispatchFailure{.at_us = 100'000, .duration_us = 0},
       RngExhaustion{.at_us = 300'000, .duration_us = 50'000}},
      [](CampaignConfig& c) {
        c.server.pipeline_workers = 2;
        c.server.max_handshake_queue = 10;
        c.server.degraded_high_watermark = 7;
        c.server.degraded_low_watermark = 3;
      },
      6);

  return book;
}

class CampaignSoak : public ChaosTest,
                     public ::testing::WithParamInterface<std::size_t> {};

TEST_P(CampaignSoak, SurvivesWithInvariantsIntact) {
  const std::vector<Campaign> book = campaign_book(base_config(0));
  ASSERT_LT(GetParam(), book.size());
  const Campaign& campaign = book[GetParam()];
  SCOPED_TRACE(campaign.name);

  CampaignRunner runner(campaign.config);
  const CampaignReport report = runner.run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  EXPECT_EQ(report.sessions_attempted,
            campaign.config.honest_clients *
                static_cast<std::size_t>(campaign.config.client.sessions));
  // Every attempted session ends decisively: completed or cleanly failed.
  EXPECT_EQ(report.sessions_completed + report.sessions_failed,
            report.sessions_attempted);
  EXPECT_GE(report.sessions_completed, campaign.min_completed)
      << "too few sessions survived " << campaign.name;
  EXPECT_EQ(report.echo_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(CampaignBook, CampaignSoak,
                         ::testing::Range<std::size_t>(0, 10));

// Same seed, different pipeline worker counts: the outcome must be
// bit-identical — including under injected dispatch failure and worker
// stalls (exercised by the chosen campaigns).
TEST_F(ChaosTest, SameSeedIsBitIdenticalAcrossWorkerCounts) {
  const std::vector<Campaign> book = campaign_book(base_config(0));
  for (const std::size_t index : {std::size_t{0}, std::size_t{4},
                                  std::size_t{9}}) {
    const Campaign& campaign = book[index];
    SCOPED_TRACE(campaign.name);

    CampaignConfig one = campaign.config;
    one.server.pipeline_workers = 1;
    CampaignConfig three = campaign.config;
    three.server.pipeline_workers = 3;

    const CampaignReport a = CampaignRunner(one).run();
    const CampaignReport b = CampaignRunner(three).run();

    EXPECT_EQ(a.fleet_digest, b.fleet_digest);
    EXPECT_EQ(a.sessions_completed, b.sessions_completed);
    EXPECT_EQ(a.server.bytes_opened, b.server.bytes_opened);
    EXPECT_EQ(a.server.bytes_sealed, b.server.bytes_sealed);
    EXPECT_EQ(a.server.handshakes_completed, b.server.handshakes_completed);
    EXPECT_EQ(a.server.refused_connections, b.server.refused_connections);
    EXPECT_EQ(a.sim_duration_s, b.sim_duration_s);
    EXPECT_TRUE(a.invariants_ok()) << a.invariant_failures;
    EXPECT_TRUE(b.invariants_ok()) << b.invariant_failures;
  }
}

// Repeating the identical config must also be bit-identical (no hidden
// global state leaks between runs — dispatch forcing is restored).
TEST_F(ChaosTest, RepeatedRunsAreReproducible) {
  const std::vector<Campaign> book = campaign_book(base_config(0));
  const Campaign& campaign = book[9];  // kitchen sink touches everything
  const CampaignReport a = CampaignRunner(campaign.config).run();
  const CampaignReport b = CampaignRunner(campaign.config).run();
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.attack_bytes, b.attack_bytes);
  EXPECT_EQ(a.sim_duration_s, b.sim_duration_s);
}

// The flood story end to end: honest clients keep completing byte-exact
// sessions while a handshake flood is shed; the shedding shows up in the
// refusal/degraded counters and the attack's server-side energy bill is
// bounded by admission control.
TEST_F(ChaosTest, HonestClientsCompleteByteExactDuringFlood) {
  CampaignConfig cfg = base_config(0xF10D);
  cfg.honest_clients = 8;
  cfg.client.sessions = 2;
  cfg.server.max_handshake_queue = 6;
  cfg.server.degraded_high_watermark = 4;
  cfg.server.degraded_low_watermark = 2;
  cfg.faults = {HandshakeFlood{.at_us = 15'000,
                               .attackers = 6,
                               .connections_each = 8,
                               .interarrival_us = 3'000,
                               .reach_key_exchange = true}};

  const CampaignReport report = CampaignRunner(cfg).run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  EXPECT_EQ(report.echo_mismatches, 0u);
  EXPECT_EQ(report.sessions_completed, 16u)
      << "honest sessions must ride out the flood";
  EXPECT_EQ(report.attack_connections, 48u);
  // The defenses actually engaged.
  EXPECT_GT(report.server.refused_connections +
                report.server.degraded_refusals,
            0u);
  // Admission control bounds the RSA work the flood can buy: far fewer
  // private ops than attack connections.
  EXPECT_LT(report.server.handshake_rsa_private_ops,
            report.attack_connections + 2 * 16);
  EXPECT_GT(report.handshake_energy_mj, 0.0);
  EXPECT_GT(report.mj_per_attack_byte, 0.0);
}

// Ticket sealing-key rotations forced mid-flood (the panic key roll):
// honest ticket-holding clients either keep resuming (rotation within the
// decrypt window) or fall back to a full handshake and get a fresh
// ticket — ZERO honest failures either way, with the server holding no
// per-client resumption state at all (cache capacity 0).
TEST_F(ChaosTest, TicketKeyRotationMidFloodStrandsNoHonestClient) {
  CampaignConfig cfg = base_config(0x71C8);
  cfg.honest_clients = 10;
  cfg.client.sessions = 3;
  cfg.client.use_session_tickets = true;
  cfg.server.ticket.enabled = true;
  cfg.server.ticket.decrypt_window = 2;
  cfg.cache.capacity = 0;  // stateless: tickets are the only resumption
  cfg.faults = {HandshakeFlood{.at_us = 15'000,
                               .attackers = 3,
                               .connections_each = 5,
                               .interarrival_us = 8'000,
                               .reach_key_exchange = true},
                TicketKeyRotation{.at_us = 40'000,
                                  .rotations = 5,
                                  .period_us = 60'000}};

  const CampaignReport report = CampaignRunner(cfg).run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  EXPECT_EQ(report.echo_mismatches, 0u);
  EXPECT_EQ(report.sessions_completed, 30u)
      << "a key roll must never strand an honest ticket holder";
  EXPECT_EQ(report.sessions_failed, 0u);
  EXPECT_EQ(report.server.ticket_key_rotations, 5u);
  EXPECT_GT(report.server.ticket_resumptions, 0u);
  EXPECT_GT(report.server.tickets_issued, 0u);

  // The whole scenario — rotations included — replays bit-identically.
  const CampaignReport replay = CampaignRunner(cfg).run();
  EXPECT_EQ(report.fleet_digest, replay.fleet_digest);
  EXPECT_EQ(report.server.ticket_resumptions,
            replay.server.ticket_resumptions);
}

// RNG exhaustion must poison only the connections that drew from the dry
// pool — never the event loop — and service must recover after refill.
TEST_F(ChaosTest, RngExhaustionIsContainedAndRecovers)
{
  CampaignConfig cfg = base_config(0xD8);
  cfg.honest_clients = 10;
  cfg.faults = {RngExhaustion{.at_us = 8'000, .duration_us = 120'000},
                BurstLoss{.at_us = 0, .duration_us = 0, .loss_bad = 0.5}};

  const CampaignReport report = CampaignRunner(cfg).run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  // Some handshakes hit the dry pool and were contained...
  EXPECT_GT(report.server.poisoned_connections, 0u);
  // ...and every session still finished once the pool refilled.
  EXPECT_EQ(report.sessions_completed, 10u);
}

// An offload-worker stall mid-run must degrade gracefully: the steal
// path recomputes stalled jobs inline (bit-identically), so every honest
// session still completes byte-exactly with the same simulated timing as
// the unstalled run, the invariants hold, and the stall shows up in the
// stolen counter — never as a deadlock.
TEST_F(ChaosTest, OffloadWorkerStallIsStolenNotDeadlocked) {
  CampaignConfig cfg = base_config(0x0FF5);
  cfg.server.offload_workers = 2;
  cfg.server.offload_steal_timeout_ms = 20;

  CampaignConfig stalled = cfg;
  stalled.faults.push_back(OffloadStall{.at_us = 0,
                                        .duration_us = 0,
                                        .worker = 0,
                                        .all_workers = true,
                                        .stall_ns = 300'000'000});

  // The unstalled reference must not steal however loaded the host is:
  // only its steal timeout sits far above any scheduling stall.
  CampaignConfig unstalled = cfg;
  unstalled.server.offload_steal_timeout_ms = 60'000;

  const CampaignReport clean = CampaignRunner(unstalled).run();
  const CampaignReport report = CampaignRunner(stalled).run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  EXPECT_EQ(report.sessions_completed, report.sessions_attempted);
  EXPECT_EQ(report.fleet_digest, clean.fleet_digest);
  EXPECT_EQ(report.sim_duration_s, clean.sim_duration_s);
  EXPECT_GT(report.server.offload_stolen, 0u);
  EXPECT_EQ(report.server.offload_completed,
            report.server.offload_submitted);
  EXPECT_EQ(clean.server.offload_stolen, 0u);
}

// Offload determinism inside the chaos harness: same seed, inline vs 1
// vs 4 offload workers — identical fleet digest and serving outcome.
TEST_F(ChaosTest, SameSeedIsBitIdenticalAcrossOffloadWorkerCounts) {
  const CampaignConfig inline_cfg = base_config(0x0FF6);
  CampaignConfig one = inline_cfg;
  one.server.offload_workers = 1;
  CampaignConfig four = inline_cfg;
  four.server.offload_workers = 4;

  const CampaignReport a = CampaignRunner(inline_cfg).run();
  const CampaignReport b = CampaignRunner(one).run();
  const CampaignReport c = CampaignRunner(four).run();

  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(b.fleet_digest, c.fleet_digest);
  EXPECT_EQ(b.sessions_completed, c.sessions_completed);
  EXPECT_EQ(b.server.handshakes_completed, c.server.handshakes_completed);
  // Simulated timing legitimately differs (one lane queues, four do
  // not); the contract fixes the bytes, not the schedule.
  EXPECT_TRUE(b.invariants_ok()) << b.invariant_failures;
  EXPECT_TRUE(c.invariants_ok()) << c.invariant_failures;
}

// Batched lanes inside the chaos harness: same seed across batch widths
// {1,2,4,8} on a single queueing lane — identical fleet digest, identical
// serving outcome. Tight arrivals against the 4 ms lane service time
// guarantee windows actually fill at widths >= 2.
TEST_F(ChaosTest, SameSeedIsBitIdenticalAcrossOffloadBatchWidths) {
  CampaignReport baseline;
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    CampaignConfig cfg = base_config(0x0FF7);
    cfg.mean_interarrival_us = 1'000;
    cfg.server.offload_workers = 1;
    cfg.server.offload_batch_width = width;
    const CampaignReport r = CampaignRunner(cfg).run();
    EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
    if (width == 1) {
      EXPECT_EQ(r.server.offload_batched_jobs, 0u);
      baseline = r;
    } else {
      EXPECT_GT(r.server.offload_batched_jobs, 0u) << "width " << width;
      EXPECT_EQ(r.fleet_digest, baseline.fleet_digest) << "width " << width;
      EXPECT_EQ(r.sessions_completed, baseline.sessions_completed);
      EXPECT_EQ(r.server.bytes_opened, baseline.server.bytes_opened);
      EXPECT_EQ(r.server.bytes_sealed, baseline.server.bytes_sealed);
    }
  }
}

// An OffloadStall landing on multi-job windows exercises the whole-window
// steal: the event loop recomputes every job of the stalled window inline
// through the same batched path, so the digest matches the unstalled
// batched run AND the width-1 run — bit-identical twice over.
TEST_F(ChaosTest, OffloadStallMidBatchIsStolenWholeWindow) {
  CampaignConfig cfg = base_config(0x0FF8);
  cfg.mean_interarrival_us = 1'000;
  cfg.server.offload_workers = 1;
  cfg.server.offload_batch_width = 4;
  cfg.server.offload_steal_timeout_ms = 20;

  CampaignConfig stalled = cfg;
  stalled.faults.push_back(OffloadStall{.at_us = 0,
                                        .duration_us = 0,
                                        .worker = 0,
                                        .all_workers = true,
                                        .stall_ns = 300'000'000});
  CampaignConfig unbatched = cfg;
  unbatched.server.offload_batch_width = 1;

  // The unstalled reference must not steal however loaded the host is:
  // only its steal timeout sits far above any scheduling stall.
  CampaignConfig unstalled = cfg;
  unstalled.server.offload_steal_timeout_ms = 60'000;

  const CampaignReport clean = CampaignRunner(unstalled).run();
  const CampaignReport report = CampaignRunner(stalled).run();
  const CampaignReport width1 = CampaignRunner(unbatched).run();

  EXPECT_TRUE(report.invariants_ok()) << report.invariant_failures;
  EXPECT_EQ(report.sessions_completed, report.sessions_attempted);
  EXPECT_EQ(report.fleet_digest, clean.fleet_digest);
  EXPECT_EQ(report.fleet_digest, width1.fleet_digest);
  EXPECT_EQ(report.sim_duration_s, clean.sim_duration_s);
  EXPECT_GT(report.server.offload_stolen, 0u);
  EXPECT_GT(report.server.offload_batched_jobs, 0u);
  EXPECT_EQ(report.server.offload_completed, report.server.offload_submitted);
  EXPECT_EQ(clean.server.offload_stolen, 0u);
}

}  // namespace
}  // namespace mapsec::chaos
