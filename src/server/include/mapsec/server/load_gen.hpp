// Load-generation harness: seeded client fleets against the sharded
// serving tier.
//
// Spawns N SessionClients with a configurable arrival process (Poisson
// or uniform) over per-connection lossy channels, serves them with a
// ShardedServer of `shards` shards (one by default: a single event loop
// on one shard thread), runs the world to quiescence and aggregates the
// result: serving rates (full/resumed handshakes per second, protected
// record throughput), latency percentiles, cache behaviour, clean-failure
// accounting, the per-shard breakdown, and a fleet-wide transcript digest
// that must be bit-identical for any PacketPipeline worker count and any
// shard count. The report is priced against a processor model via
// platform::serving_gap at the tier the run used (its shards and slice,
// plus the ticket layer when the server issues tickets), closing the loop
// to Figure 3: how much appliance-class silicon would this measured
// serving load need?
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapsec/net/channel.hpp"
#include "mapsec/platform/gap.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace mapsec::server {

/// Deterministic sub-seed derivation shared by the sim LoadGenerator, the
/// chaos campaigns and the socket fleets. Every bearer must draw identical
/// seed streams — server rng, client engine rng, arrival process,
/// per-client seeds, per-connection channel weather — for their session
/// outcomes to be comparable run-for-run.
std::uint64_t load_sub_seed(std::uint64_t seed, std::uint64_t n);
/// Server handshake randomness; a connection's own DRBG is
/// load_sub_seed(fleet_server_seed(seed), wire_id).
inline std::uint64_t fleet_server_seed(std::uint64_t seed) {
  return load_sub_seed(seed, 0x5E4);
}
/// Client-side record engine of shard `shard` (one per shard, so no
/// engine is shared across shard threads).
inline std::uint64_t fleet_engine_seed(std::uint64_t seed,
                                       std::size_t shard = 0) {
  return load_sub_seed(seed, 0xE17 + shard);
}
inline std::uint64_t fleet_arrival_seed(std::uint64_t seed) {
  return load_sub_seed(seed, 0xA881);
}
inline std::uint64_t fleet_client_seed(std::uint64_t seed, std::size_t i) {
  return load_sub_seed(seed, 0xC11E57 + i);
}
/// Channel weather of one connection attempt, named by its wire id
/// (make_wire_id: client and attempt), never by connect order, so the
/// draw is the same at any shard count.
inline std::uint64_t fleet_channel_seed(std::uint64_t seed,
                                        std::uint32_t wire_id) {
  return load_sub_seed(seed, 0xC4A17 + wire_id);
}

/// Exponential inter-arrival draw (Poisson process) from a uniform
/// 32-bit sample; +1 keeps ln() off zero.
net::SimTime load_exponential_us(crypto::Rng& rng, double mean_us);

/// SHA-256 over the concatenation of per-client transcript digests, in
/// client order — the determinism witness compared across worker counts
/// and, with the socket bearer, across transports.
crypto::Bytes fold_fleet_digest(const std::vector<crypto::ConstBytes>& lanes);

/// Session-record tally of a client fleet: the outcome counts every load
/// report carries (sim, socket and chaos runs alike).
struct SessionTally {
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::size_t sessions_failed = 0;  // gave up after the retry budget
  std::size_t echo_mismatches = 0;  // session records with a bad echo
  std::size_t connection_attempts = 0;

  /// Count every session record of `client`.
  void add(const SessionClient& client);
};

/// The Figure 3 axes of a finished run: handshake, session and protected
/// record rates over `sim_duration_s` (a zero duration prices as one
/// second), and the protected KB of an average completed session. The one
/// derivation every load report and campaign is priced from.
platform::ServedLoad served_load(const ServerStats& stats,
                                 std::size_t sessions_completed,
                                 double sim_duration_s);

struct LoadConfig {
  std::size_t num_clients = 100;
  /// Serving shards (one event loop and one modeled core each). Clients
  /// keep their seeds and arrival times at any count; only the queue
  /// their world lives on follows the shard hash.
  std::size_t shards = 1;
  /// Epoch-barrier granularity of the sharded tier.
  net::SimTime slice_us = 1'000;
  net::SimTime mean_interarrival_us = 1'000;
  bool poisson_arrivals = true;

  /// Channel impairments, applied to both directions of every
  /// connection.
  net::ChannelConfig channel;

  std::uint64_t seed = 0x10ADCAFE;
  std::size_t max_events = 100'000'000;  // runaway guard

  /// Appliance-class processor the served load is priced against.
  platform::Processor appliance;
};

struct LoadReport : SessionTally {
  ServerStats server;
  BoundedSessionCache::Stats cache;
  double cache_hit_rate = 0;

  /// Resumption-state footprint at end of run: what the cache pins
  /// (O(cached users)) vs what ticket mode pins (O(key-ring depth);
  /// 0 when ticket mode is off). The scaling argument in two numbers.
  std::size_t cache_state_bytes = 0;
  std::size_t ticket_state_bytes = 0;

  double sim_duration_s = 0;
  /// Serving rates over sim_duration_s; bulk_mbps is the protected
  /// application bits per sim second.
  platform::ServedLoad served;
  double handshake_p50_ms = 0;
  double handshake_p99_ms = 0;
  /// Full-vs-resumed latency split from THIS run. These are the
  /// apples-to-apples comparison: per-second rates depend on the
  /// scenario's offered load and duration, so comparing a full rate from
  /// one scenario against a resumed rate from another says nothing about
  /// handshake cost. Zero when the run had no handshakes of that kind.
  double full_handshake_p50_ms = 0;
  double full_handshake_p99_ms = 0;
  double resumed_handshake_p50_ms = 0;
  double resumed_handshake_p99_ms = 0;

  /// Active crypto backend summary (crypto::dispatch via the engine),
  /// recorded so serving rates carry their hardware context.
  std::string crypto_backend;

  /// SHA-256 over every client's transcript digest in client order —
  /// the determinism witness compared across worker counts.
  crypto::Bytes fleet_digest;

  /// Sharded-tier view: per-shard slices (the fleet totals above equal
  /// their sums), slice barriers crossed, the fleet's open-connection
  /// high-water at barriers, and the conservation verdict.
  std::vector<ShardBreakdown> shards;
  std::uint64_t epochs = 0;
  std::size_t peak_open_connections = 0;
  bool conserved = false;
  /// Fleet p99 handshake latency off the MERGED per-shard histograms
  /// (analysis::merge — exact aggregation, not a p99-of-p99s).
  double handshake_hist_p99_ms = 0;

  /// `served` priced on the tier the run used: its shard count and
  /// slice, plus the ticket layer (with the two state sizes above) when
  /// the server issued tickets.
  platform::ServingGapReport gap;
};

class LoadGenerator {
 public:
  LoadGenerator(LoadConfig load, ServerConfig server,
                ClientConfig client_template,
                BoundedSessionCache::Config cache)
      : load_(std::move(load)),
        server_(std::move(server)),
        client_(std::move(client_template)),
        cache_(cache) {}

  /// Build the sharded world, run it to quiescence, aggregate. Each call
  /// is an independent, fully-seeded run.
  LoadReport run();

 private:
  LoadConfig load_;
  ServerConfig server_;
  ClientConfig client_;
  BoundedSessionCache::Config cache_;
};

}  // namespace mapsec::server
