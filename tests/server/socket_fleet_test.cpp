// Socket-bearer fleet tests: the same seeded client fleet is driven once
// through the sim LoadGenerator (loss-free channels) and once over real
// loopback TCP, and every session outcome — handshake mix, completion
// counts, echoes, fleet transcript digest — must be identical. Plus the
// chaos hooks (hard resets, paused accepts) against live shards, and the
// bounded-state check: server memory follows the open connections, not
// the sessions served.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/socket_fleet.hpp"

namespace mapsec::server {
namespace {

using crypto::Bytes;
using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// The sanitizer runtimes replace malloc; glibc's arenas sit idle there.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
std::size_t heap_in_use() { return __sanitizer_get_current_allocated_bytes(); }
#else
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;  // small chunks in use + mmapped blocks
}
#endif

#define REQUIRE_SOCKETS()                                          \
  do {                                                             \
    if (!net::sockets_available())                                 \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox";  \
  } while (0)

class SocketFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("SocketRoot", *ca_key_, 0,
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

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* SocketFleetTest::ca_key_ = nullptr;
crypto::RsaKeyPair* SocketFleetTest::server_key_ = nullptr;
protocol::CertificateAuthority* SocketFleetTest::ca_ = nullptr;
protocol::Certificate* SocketFleetTest::server_cert_ = nullptr;

// The exit gate of the bearer backend: for the same seed, a socket-fleet
// run and a sim run must land on identical session outcomes — the bearer
// swap changes transport timing, never protocol behaviour.
TEST_F(SocketFleetTest, SocketOutcomesMatchSimRunForSameSeed) {
  REQUIRE_SOCKETS();
  constexpr std::size_t kClients = 24;
  constexpr std::uint64_t kSeed = 0x50CCE7;

  ClientConfig client = client_config();
  client.sessions = 2;  // second session resumes through the cache

  BoundedSessionCache::Config cache;
  cache.capacity = 64;  // no evictions: resumption mix stays loss-free
  cache.ttl_us = 0;

  // Reference run: sim bearer, loss-free channels, one event queue.
  LoadConfig sim_load;
  sim_load.num_clients = kClients;
  sim_load.seed = kSeed;
  sim_load.appliance = platform::Processor::strongarm_sa1100();
  LoadGenerator gen(sim_load, server_config(), client, cache);
  const LoadReport sim = gen.run();
  ASSERT_EQ(sim.sessions_completed, kClients * 2);

  // Wall-clock runs: one to three shard threads over loopback TCP,
  // clients routed by shard_for(gid) so resumption lands on the shard
  // that cached it. The huge clock origin runs the whole fleet at the far
  // end of the monotonic timeline, proving the timeout arithmetic can't
  // wrap.
  for (std::size_t shards : {1u, 2u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    SocketFleetConfig fleet_cfg;
    fleet_cfg.shards = shards;
    fleet_cfg.reserve_slabs_per_shard = 128;
    fleet_cfg.clock_origin_us = net::SimTime{1} << 60;
    SocketServerFleet fleet(fleet_cfg, server_config(), cache);
    ASSERT_TRUE(fleet.ok());
    fleet.start();

    SocketLoadConfig socket_load;
    socket_load.num_clients = kClients;
    socket_load.seed = kSeed;
    socket_load.reserve_slabs = 128;
    socket_load.clock_origin_us = net::SimTime{1} << 60;
    SocketClientFleet clients(socket_load, client, server_config(),
                              fleet.ports());
    const SocketClientReport socket = clients.run();
    const SocketServerFleet::Report servers = fleet.stop();

    ASSERT_TRUE(socket.all_finished) << "fleet blew the wall budget";

    // ---- outcome equality ----------------------------------------------
    EXPECT_EQ(socket.sessions_attempted, sim.sessions_attempted);
    EXPECT_EQ(socket.sessions_completed, sim.sessions_completed);
    EXPECT_EQ(socket.sessions_failed, sim.sessions_failed);
    EXPECT_EQ(socket.echo_mismatches, 0u);
    EXPECT_EQ(socket.connection_attempts, sim.connection_attempts);
    EXPECT_EQ(socket.fleet_digest, sim.fleet_digest)
        << "transcripts diverged between bearers";

    EXPECT_EQ(servers.server.handshakes_completed,
              sim.server.handshakes_completed);
    EXPECT_EQ(servers.server.full_handshakes, sim.server.full_handshakes);
    EXPECT_EQ(servers.server.resumed_handshakes,
              sim.server.resumed_handshakes);
    EXPECT_EQ(servers.server.bytes_opened, sim.server.bytes_opened);
    EXPECT_EQ(servers.server.bytes_sealed, sim.server.bytes_sealed);

    // ---- bearer-side books ---------------------------------------------
    EXPECT_TRUE(servers.conserved);
    EXPECT_EQ(servers.accepted, socket.connection_attempts);
    EXPECT_TRUE(servers.zero_steady_state_alloc)
        << "server record path allocated past its pre-reserve";
    EXPECT_EQ(socket.arena.allocations, socket.arena.reserved)
        << "client record path allocated past its pre-reserve";
    EXPECT_EQ(socket.bearer_errors, 0u);
    EXPECT_GT(socket.sockets.frames_sent, 0u);
    // Both halves of the conversation agree on the wire volume.
    EXPECT_EQ(socket.sockets.bytes_sent, servers.sockets.bytes_received);
    EXPECT_EQ(socket.sockets.bytes_received, servers.sockets.bytes_sent);
  }
}

// Hard-RST chaos: every live connection on the shard dies, the server
// books the failures, and the conservation identity still holds.
TEST_F(SocketFleetTest, InjectedResetsAreContainedAndConserved) {
  REQUIRE_SOCKETS();
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 1;
  SocketServerFleet fleet(fleet_cfg, server_config(), {});
  ASSERT_TRUE(fleet.ok());
  fleet.start();

  // Park three raw connections on the shard (no handshake traffic —
  // they are mid-"handshake" victims from the server's point of view).
  net::MonotonicClock clock;
  net::Reactor reactor(clock);
  net::BufferArena arena;
  net::SocketConfig socket_cfg;
  std::vector<std::unique_ptr<net::SocketEndpoint>> conns;
  std::size_t dead = 0;
  for (int i = 0; i < 3; ++i) {
    auto ep = net::connect_endpoint(reactor, arena, socket_cfg,
                                    fleet.ports()[0]);
    ep->rx().set_receiver([](crypto::ConstBytes) {});
    ep->set_on_error([&dead](const std::string&) { ++dead; });
    conns.push_back(std::move(ep));
  }
  ASSERT_TRUE(reactor.run_until(
      [&fleet] { return fleet.accepted_on(0) == 3; }, 5'000'000));

  EXPECT_EQ(fleet.reset_open_sockets(0), 3u);
  ASSERT_TRUE(
      reactor.run_until([&dead] { return dead == 3; }, 5'000'000));
  for (const auto& ep : conns) EXPECT_FALSE(ep->open());

  const SocketServerFleet::Report report = fleet.stop();
  EXPECT_EQ(report.server.connections_accepted, 3u);
  EXPECT_TRUE(report.conserved)
      << "reset storm broke the conservation books";
}

// Accept-queue overflow chaos: while accepts are paused the application
// layer admits nobody; resuming drains the kernel backlog.
TEST_F(SocketFleetTest, PausedAcceptsHoldTheDoorThenDrain) {
  REQUIRE_SOCKETS();
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 1;
  SocketServerFleet fleet(fleet_cfg, server_config(), {});
  ASSERT_TRUE(fleet.ok());
  fleet.start();
  fleet.pause_accepts(0, true);

  net::MonotonicClock clock;
  net::Reactor reactor(clock);
  net::BufferArena arena;
  net::SocketConfig socket_cfg;
  auto a = net::connect_endpoint(reactor, arena, socket_cfg,
                                 fleet.ports()[0]);
  auto b = net::connect_endpoint(reactor, arena, socket_cfg,
                                 fleet.ports()[0]);
  reactor.run_until([] { return false; }, 200'000);  // give it real time
  EXPECT_EQ(fleet.accepted_on(0), 0u);

  fleet.pause_accepts(0, false);
  ASSERT_TRUE(reactor.run_until(
      [&fleet] { return fleet.accepted_on(0) == 2; }, 5'000'000));
  fleet.stop();
}

// Bounded server state on real sockets: serve 2k and then 20k
// ticket-resumption sessions (the loopbench resume_ticket shape: a few
// handsets, one connection per session, one 256 B echo each). While the
// clients run, every sample of each shard must find its live table no
// larger than the sockets it still holds and its pipeline SAs no more than
// its open connections. Once the fleets are quiet, the heap in use —
// less the handshake-latency record, which still grows per handshake —
// must be the same within 5% after 20k sessions as after 2k.
TEST_F(SocketFleetTest, ServerStateBoundedByOpenConnections) {
  REQUIRE_SOCKETS();
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kShards = 2;

  ServerConfig server = server_config();
  server.ticket.enabled = true;
  BoundedSessionCache::Config cache;
  cache.capacity = 0;  // resumption through tickets alone

  struct Run {
    std::size_t heap = 0;
    std::size_t peak_live = 0;
    std::size_t samples = 0;
  };
  const auto serve = [&](std::size_t sessions) {
    SCOPED_TRACE(std::to_string(sessions) + " sessions");
    ClientConfig client = client_config();
    client.sessions = static_cast<int>(sessions / kClients);
    client.use_session_tickets = true;
    client.payloads_per_session = 1;
    client.payload_bytes = 256;
    client.think_time_us = 0;

    SocketFleetConfig fleet_cfg;
    fleet_cfg.shards = kShards;
    SocketServerFleet fleet(fleet_cfg, server, cache);
    EXPECT_TRUE(fleet.ok());
    fleet.start();

    SocketLoadConfig load;
    load.num_clients = kClients;
    load.wall_budget_us = 600'000'000;
    std::size_t completed = 0;
    std::size_t echo_mismatches = 0;
    std::atomic<bool> done{false};
    std::thread load_thread([&] {
      SocketClientFleet clients(load, client, server, fleet.ports());
      const SocketClientReport r = clients.run();
      completed = r.sessions_completed;
      echo_mismatches = r.echo_mismatches;
      done.store(true, std::memory_order_release);
    });

    Run run;
    std::size_t violations = 0;
    std::string first_violation;
    const auto sample = [&] {
      for (std::size_t s = 0; s < kShards; ++s) {
        const SocketServerFleet::ShardState st = fleet.state_of(s);
        ++run.samples;
        run.peak_live = std::max(run.peak_live, st.live_connections);
        if (st.live_connections <= st.held_sockets &&
            st.pipeline_sas <= st.open_connections)
          continue;
        if (violations++ == 0)
          first_violation = "shard " + std::to_string(s) + ": live " +
                            std::to_string(st.live_connections) + ", sockets " +
                            std::to_string(st.held_sockets) + ", SAs " +
                            std::to_string(st.pipeline_sas) + ", open " +
                            std::to_string(st.open_connections);
      }
    };
    while (!done.load(std::memory_order_acquire)) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    load_thread.join();
    EXPECT_EQ(completed, sessions);
    EXPECT_EQ(echo_mismatches, 0u);

    // Quiet: the clients closed every socket; wait until the shards have
    // swept them and dropped every connection.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto quiet = [&] {
      for (std::size_t s = 0; s < kShards; ++s) {
        const SocketServerFleet::ShardState st = fleet.state_of(s);
        if (st.held_sockets != 0 || st.live_connections != 0) return false;
      }
      return true;
    };
    while (!quiet() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sample();
    EXPECT_EQ(violations, 0u) << "first: " << first_violation;
    EXPECT_TRUE(quiet()) << "connections left after every client closed";

    std::size_t latency_bytes = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const SocketServerFleet::ShardState st = fleet.state_of(s);
      EXPECT_EQ(st.pipeline_sas, 0u);
      latency_bytes += st.latency_record_bytes;
    }
    run.heap = heap_in_use() - latency_bytes;

    const SocketServerFleet::Report report = fleet.stop();
    EXPECT_TRUE(report.conserved);
    EXPECT_EQ(report.server.handshakes_completed, sessions);
    EXPECT_EQ(report.server.full_handshakes, kClients);  // one per handset
    return run;
  };

  const Run small = serve(2'000);
  const Run large = serve(20'000);
  EXPECT_GT(small.samples, 0u);
  EXPECT_GT(large.samples, 0u);
  const std::size_t diff = small.heap > large.heap ? small.heap - large.heap
                                                   : large.heap - small.heap;
  EXPECT_LE(diff, small.heap / 20)
      << "heap after 2k sessions " << small.heap << " B, after 20k "
      << large.heap << " B";
  std::printf("heap in use less latency record: %zu B after 2k sessions, "
              "%zu B after 20k; peak live connections per shard %zu / %zu\n",
              small.heap, large.heap, small.peak_live, large.peak_live);
}

}  // namespace
}  // namespace mapsec::server
