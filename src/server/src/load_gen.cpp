#include "mapsec/server/load_gen.hpp"

#include <cmath>
#include <utility>

#include "mapsec/analysis/stats.hpp"
#include "mapsec/crypto/sha256.hpp"
#include "mapsec/net/sim_clock.hpp"

namespace mapsec::server {

net::SimTime load_exponential_us(crypto::Rng& rng, double mean_us) {
  const double u =
      (static_cast<double>(rng.next_u32()) + 1.0) / 4294967297.0;
  return static_cast<net::SimTime>(-mean_us * std::log(u));
}

std::uint64_t load_sub_seed(std::uint64_t seed, std::uint64_t n) {
  return seed ^ (n * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
}

crypto::Bytes fold_fleet_digest(
    const std::vector<crypto::ConstBytes>& lanes) {
  // Hash every lane, then fold the concatenated lane digests.
  crypto::Bytes digest_stream(lanes.size() * crypto::Sha256::kDigestSize);
  for (std::size_t i = 0; i < lanes.size(); ++i)
    crypto::Sha256::hash_into(
        lanes[i], digest_stream.data() + i * crypto::Sha256::kDigestSize);
  return crypto::Sha256::hash(digest_stream);
}

LoadReport LoadGenerator::run() {
  // Declaration order doubles as lifetime order: channels must outlive
  // the server and the clients (their links detach from channels on
  // destruction), and everything outlives the queue's drained events.
  net::EventQueue queue;
  BoundedSessionCache cache(queue, cache_);
  std::vector<std::unique_ptr<net::DuplexChannel>> channels;

  // Each run() seeds its own server rng so repeated runs (and runs that
  // differ only in worker count) are bit-identical.
  crypto::HmacDrbg server_rng(fleet_server_seed(load_.seed));
  ServerConfig server_config = server_;
  server_config.handshake.rng = &server_rng;
  SecureSessionServer server(queue, server_config, &cache);

  // Client-side engine for opening the server's CCM bulk records.
  crypto::HmacDrbg client_engine_rng(fleet_engine_seed(load_.seed));
  engine::ProtocolEngine client_engine(server_.engine_profile,
                                       &client_engine_rng);
  client_engine.load_program("ccmp-in", engine::ccmp_inbound_program());

  std::vector<std::unique_ptr<SessionClient>> clients;
  clients.reserve(load_.num_clients);
  std::uint64_t connect_counter = 0;

  crypto::HmacDrbg arrival_rng(fleet_arrival_seed(load_.seed));
  net::SimTime arrival = 0;
  for (std::size_t i = 0; i < load_.num_clients; ++i) {
    auto client = std::make_unique<SessionClient>(
        queue, client_, static_cast<std::uint32_t>(i), client_engine,
        fleet_client_seed(load_.seed, i));
    client->set_connect([this, &queue, &channels, &server,
                         &connect_counter](SessionClient&) {
      // Fresh channel per attempt: stale frames of an abandoned attempt
      // can never reach the new connection's link.
      auto channel = std::make_unique<net::DuplexChannel>(
          queue, load_.channel, load_.channel,
          fleet_channel_seed(load_.seed, connect_counter));
      ++connect_counter;
      // Client is the "a" side.
      server.accept(channel->b_to_a(), channel->a_to_b());
      auto link = std::make_unique<net::ReliableLink>(
          queue, channel->a_to_b(), channel->b_to_a(), client_.link);
      channels.push_back(std::move(channel));
      return link;
    });
    queue.schedule_at(arrival,
                      [c = client.get()] { c->start(); });
    arrival += load_.poisson_arrivals
                   ? load_exponential_us(
                         arrival_rng,
                         static_cast<double>(load_.mean_interarrival_us))
                   : load_.mean_interarrival_us;
    clients.push_back(std::move(client));
  }

  queue.run_all(load_.max_events);

  // ---- aggregate -----------------------------------------------------
  LoadReport report;
  report.server = server.stats();
  report.cache = cache.stats();
  report.cache_hit_rate = cache.hit_rate();
  report.cache_state_bytes = cache.resumption_state_bytes();
  report.ticket_state_bytes = server.ticket_state_bytes();

  // Fleet digest: fold every client's chained transcript digest in
  // client order. The digest is a pure function of the transcripts —
  // independent of backend, worker count, offload batch width, and
  // bearer (sim or socket).
  std::vector<crypto::ConstBytes> lanes;
  lanes.reserve(clients.size());
  for (const auto& client : clients) {
    for (const SessionRecord& record : client->sessions()) {
      ++report.sessions_attempted;
      report.connection_attempts += static_cast<std::size_t>(record.attempts);
      if (record.completed) ++report.sessions_completed;
      if (record.failed) ++report.sessions_failed;
      if (!record.echo_ok) ++report.echo_mismatches;
    }
    lanes.push_back(client->transcript_digest());
  }
  report.fleet_digest = fold_fleet_digest(lanes);

  report.sim_duration_s = static_cast<double>(queue.now()) / 1e6;
  const double dur = report.sim_duration_s > 0 ? report.sim_duration_s : 1;
  report.full_handshakes_per_s =
      static_cast<double>(report.server.full_handshakes) / dur;
  report.resumed_handshakes_per_s =
      static_cast<double>(report.server.resumed_handshakes) / dur;
  report.sessions_per_s =
      static_cast<double>(report.sessions_completed) / dur;
  const double protected_bytes =
      static_cast<double>(report.server.bytes_opened +
                          report.server.bytes_sealed);
  report.record_mbps = protected_bytes * 8 / 1e6 / dur;
  report.handshake_p50_ms =
      analysis::percentile(report.server.handshake_latencies_us, 0.50) /
      1e3;
  report.handshake_p99_ms =
      analysis::percentile(report.server.handshake_latencies_us, 0.99) /
      1e3;
  report.full_handshake_p50_ms =
      analysis::percentile(report.server.full_handshake_latencies_us, 0.50) /
      1e3;
  report.full_handshake_p99_ms =
      analysis::percentile(report.server.full_handshake_latencies_us, 0.99) /
      1e3;
  report.resumed_handshake_p50_ms =
      analysis::percentile(report.server.resumed_handshake_latencies_us,
                           0.50) /
      1e3;
  report.resumed_handshake_p99_ms =
      analysis::percentile(report.server.resumed_handshake_latencies_us,
                           0.99) /
      1e3;
  report.crypto_backend = engine::PacketPipeline::crypto_backend();

  platform::ServedLoad served;
  served.full_handshakes_per_s = report.full_handshakes_per_s;
  served.resumed_handshakes_per_s = report.resumed_handshakes_per_s;
  served.bulk_mbps = report.record_mbps;
  served.sessions_per_s = report.sessions_per_s;
  served.avg_session_kb =
      report.sessions_completed > 0
          ? protected_bytes / 1024.0 /
                static_cast<double>(report.sessions_completed)
          : 0;
  report.gap =
      platform::serving_gap(platform::WorkloadModel::paper_calibrated(),
                            load_.appliance, served, load_.battery_kj,
                            load_.pk_primitive);
  report.ticket_gap = platform::serving_gap_ticket(
      platform::WorkloadModel::paper_calibrated(), load_.appliance, served,
      static_cast<double>(report.ticket_state_bytes),
      static_cast<double>(report.cache_state_bytes),
      /*ticket_wire_bytes=*/96.0, load_.battery_kj, load_.pk_primitive);
  return report;
}

}  // namespace mapsec::server
