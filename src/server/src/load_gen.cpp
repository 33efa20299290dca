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

void SessionTally::add(const SessionClient& client) {
  for (const SessionRecord& record : client.sessions()) {
    ++sessions_attempted;
    connection_attempts += static_cast<std::size_t>(record.attempts);
    if (record.completed) ++sessions_completed;
    if (record.failed) ++sessions_failed;
    if (!record.echo_ok) ++echo_mismatches;
  }
}

platform::ServedLoad served_load(const ServerStats& stats,
                                 std::size_t sessions_completed,
                                 double sim_duration_s) {
  const double dur = sim_duration_s > 0 ? sim_duration_s : 1;
  const double protected_bytes =
      static_cast<double>(stats.bytes_opened + stats.bytes_sealed);
  platform::ServedLoad served;
  served.full_handshakes_per_s =
      static_cast<double>(stats.full_handshakes) / dur;
  served.resumed_handshakes_per_s =
      static_cast<double>(stats.resumed_handshakes) / dur;
  served.sessions_per_s = static_cast<double>(sessions_completed) / dur;
  served.bulk_mbps = protected_bytes * 8 / 1e6 / dur;
  served.avg_session_kb =
      sessions_completed > 0 ? protected_bytes / 1024.0 /
                                   static_cast<double>(sessions_completed)
                             : 0;
  return served;
}

LoadReport LoadGenerator::run() {
  const std::uint64_t seed = load_.seed;

  // Declaration order doubles as lifetime order: channels must outlive
  // the servers and the clients (their links detach from channels on
  // destruction), and everything outlives the queues' drained events.
  // Per-shard state is only ever touched by that shard's thread during a
  // slice.
  ShardedServerConfig scfg;
  scfg.shards = load_.shards == 0 ? 1 : load_.shards;
  scfg.slice_us = load_.slice_us;
  scfg.server = server_;
  scfg.cache = cache_;
  std::vector<std::vector<std::unique_ptr<net::DuplexChannel>>> channels(
      scfg.shards);
  ShardedServer tier(scfg);

  // Client-side engines for opening the servers' CCM bulk records, one
  // per shard (shared read-only by that shard's clients).
  std::vector<std::unique_ptr<crypto::HmacDrbg>> engine_rngs;
  std::vector<std::unique_ptr<engine::ProtocolEngine>> engines;
  for (std::size_t s = 0; s < tier.shards(); ++s) {
    engine_rngs.push_back(
        std::make_unique<crypto::HmacDrbg>(fleet_engine_seed(seed, s)));
    engines.push_back(std::make_unique<engine::ProtocolEngine>(
        server_.engine_profile, engine_rngs.back().get()));
    engines.back()->load_program("ccmp-in", engine::ccmp_inbound_program());
  }

  // Clients: seed and arrival time are functions of the client index
  // alone — identical for any shard count. Only the queue the client's
  // world lives on follows the shard hash.
  std::vector<std::unique_ptr<SessionClient>> clients;
  std::vector<std::uint32_t> attempts(load_.num_clients, 0);
  clients.reserve(load_.num_clients);
  crypto::HmacDrbg arrival_rng(fleet_arrival_seed(seed));
  net::SimTime arrival = 0;
  for (std::size_t i = 0; i < load_.num_clients; ++i) {
    const auto key = static_cast<std::uint32_t>(i);
    const std::size_t s = tier.shard_of(key);
    net::EventQueue& queue = tier.queue(s);
    auto client = std::make_unique<SessionClient>(
        queue, client_, key, *engines[s], fleet_client_seed(seed, i));
    client->set_connect([this, &tier, &channels, &attempts, seed, s,
                         key](SessionClient&) {
      net::EventQueue& queue = tier.queue(s);
      // Fresh channel per attempt: stale frames of an abandoned attempt
      // can never reach the new connection's link. The global wire
      // identity (client, attempt) — never the shard-local connection id
      // — names the channel seed, the server-side DRBG and the on-the-wire
      // SPI, so every byte is shard-count-invariant. Client is the "a"
      // side.
      const std::uint32_t wire_id = make_wire_id(key, attempts[key]++);
      auto channel = std::make_unique<net::DuplexChannel>(
          queue, load_.channel, load_.channel,
          fleet_channel_seed(seed, wire_id));
      SecureSessionServer::AcceptOptions opts;
      opts.wire_id = wire_id;
      opts.rng_seed = load_sub_seed(fleet_server_seed(seed), wire_id);
      tier.accept(key, channel->b_to_a(), channel->a_to_b(), opts);
      auto link = std::make_unique<net::ReliableLink>(
          queue, channel->a_to_b(), channel->b_to_a(), client_.link);
      channels[s].push_back(std::move(channel));
      return link;
    });
    queue.schedule_at(arrival, [c = client.get()] { c->start(); });
    arrival += load_.poisson_arrivals
                   ? load_exponential_us(
                         arrival_rng,
                         static_cast<double>(load_.mean_interarrival_us))
                   : load_.mean_interarrival_us;
    clients.push_back(std::move(client));
  }

  const ShardedServer::RunStats rs = tier.run(load_.max_events);

  // ---- aggregate -----------------------------------------------------
  LoadReport report;
  report.epochs = rs.epochs;
  report.peak_open_connections = rs.peak_open_connections;
  report.shards = tier.breakdown();
  report.conserved = tier.conserved();
  report.server = tier.fleet_stats();
  for (const ShardBreakdown& b : report.shards) {
    report.cache += b.cache;
    report.cache_state_bytes += b.cache_state_bytes;
    report.ticket_state_bytes += b.ticket_state_bytes;
  }
  report.cache_hit_rate = report.cache.hit_rate();

  // Fleet digest: fold every client's chained transcript digest in
  // client order. The digest is a pure function of the transcripts —
  // independent of backend, worker count, shard count, offload batch
  // width, and bearer (sim or socket).
  std::vector<crypto::ConstBytes> lanes;
  lanes.reserve(clients.size());
  for (const auto& client : clients) {
    report.add(*client);
    lanes.push_back(client->transcript_digest());
  }
  report.fleet_digest = fold_fleet_digest(lanes);

  report.sim_duration_s = static_cast<double>(rs.last_event_us) / 1e6;
  report.served = served_load(report.server, report.sessions_completed,
                              report.sim_duration_s);
  const auto ms = [](const std::vector<double>& us, double p) {
    return analysis::percentile(us, p) / 1e3;
  };
  report.handshake_p50_ms = ms(report.server.handshake_latencies_us, 0.50);
  report.handshake_p99_ms = ms(report.server.handshake_latencies_us, 0.99);
  report.full_handshake_p50_ms =
      ms(report.server.full_handshake_latencies_us, 0.50);
  report.full_handshake_p99_ms =
      ms(report.server.full_handshake_latencies_us, 0.99);
  report.resumed_handshake_p50_ms =
      ms(report.server.resumed_handshake_latencies_us, 0.50);
  report.resumed_handshake_p99_ms =
      ms(report.server.resumed_handshake_latencies_us, 0.99);
  report.crypto_backend = engine::PacketPipeline::crypto_backend();

  // Fleet percentile off the merged per-shard histograms: the exact
  // aggregation the per-shard summaries cannot give (within a bucket
  // width of the sorted-sample percentile above).
  std::vector<analysis::LatencyHistogram> hists;
  hists.reserve(report.shards.size());
  for (const ShardBreakdown& b : report.shards)
    hists.push_back(b.handshake_histogram);
  report.handshake_hist_p99_ms =
      analysis::merged_percentile(hists, 0.99) / 1e3;

  // Priced at the tier this run used.
  platform::ServingTier priced_as;
  priced_as.shards = {tier.shards(), static_cast<double>(load_.slice_us)};
  if (server_.ticket.enabled)
    priced_as.ticket = {static_cast<double>(report.ticket_state_bytes),
                        static_cast<double>(report.cache_state_bytes)};
  report.gap =
      platform::serving_gap(platform::WorkloadModel::paper_calibrated(),
                            load_.appliance, report.served, priced_as);
  return report;
}

}  // namespace mapsec::server
