// Wall-clock serving fleets over the real-socket bearer.
//
// The sim LoadGenerator proves the protocol stack's behaviour; these
// fleets prove the same stack serves at wall-clock speed over real TCP.
// SocketServerFleet is a bearer host over a ShardedServer: the tier builds
// the serving worlds (cache partitions, server DRBGs, SecureSessionServers)
// exactly as it does for the sim, on the queues of this fleet's reactors,
// and owns the fleet fold and the conservation books. The fleet keeps only
// what is socket-specific: per shard a MonotonicClock-driven reactor,
// buffer arena, loopback listener, accepted endpoints and one thread that
// polls it. A client's shard is shard_for(id), the same FNV routing the
// sim tier uses, realised by port choice instead of a dispatcher.
// SocketClientFleet drives a fleet of SessionClients from one reactor
// thread, with seed derivation identical to the sim generator's — so a
// socket run's session outcomes (handshake mix, transcript digests, echo
// checks, conservation books) are directly comparable against the sim run
// for the same seed.
//
// Chaos hooks map the campaigns' bearer faults onto the real transport:
// reset_open_sockets() hard-RSTs every live connection on a shard,
// pause_accepts() lets the kernel accept queue overflow.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace mapsec::server {

/// Buffer-arena accounting of a socket fleet: `allocations == reserved`
/// is the zero-steady-state-allocation witness, the record path never
/// grew the pool beyond its pre-reserved working set.
struct ArenaUsage {
  std::uint64_t allocations = 0;
  std::uint64_t acquires = 0;
  std::uint64_t recycles = 0;
  std::size_t peak_in_use = 0;
  std::size_t reserved = 0;
};

struct SocketFleetConfig {
  std::size_t shards = 1;
  net::SocketConfig socket;
  /// Arena slabs pre-reserved per shard; the report's
  /// zero_steady_state_alloc gate asserts traffic never grew past it.
  std::size_t reserve_slabs_per_shard = 64;
  /// Unread: server DRBGs derive from the template's ticket.key_seed, as
  /// on the sim tier. Kept only while the benchmark harness still sets it.
  std::uint64_t seed = 0x10ADCAFE;
  /// Monotonic clock origin; large values exercise the saturating
  /// timeout arithmetic at the far end of the timeline.
  net::SimTime clock_origin_us = 0;
};

class SocketServerFleet {
 public:
  struct Report {
    ServerStats server;        // the tier's fleet totals
    net::SocketStats sockets;  // accumulated across shards
    ArenaUsage arena;          // accumulated across shards
    std::uint64_t accepted = 0;
    /// The tier's books: every shard conserves and the fleet totals equal
    /// the per-shard sums.
    bool conserved = true;
    /// True iff no shard's arena allocated past its pre-reserve.
    bool zero_steady_state_alloc = true;
  };

  /// Builds every shard's reactor, then the tier on their queues, and
  /// binds the listeners on the constructing thread; start() hands each
  /// shard to its own thread.
  SocketServerFleet(const SocketFleetConfig& config,
                    const ServerConfig& server_template,
                    const BoundedSessionCache::Config& cache_config);
  ~SocketServerFleet();

  SocketServerFleet(const SocketServerFleet&) = delete;
  SocketServerFleet& operator=(const SocketServerFleet&) = delete;

  /// All listeners bound successfully.
  bool ok() const;
  std::vector<std::uint16_t> ports() const;

  void start();
  /// Stop every shard thread, join, aggregate. Idempotent.
  Report stop();

  // ---- chaos hooks (thread-safe; block until the shard applied them) --
  void pause_accepts(std::size_t shard, bool paused);
  /// Hard-RST every live accepted connection on `shard`; returns how
  /// many were reset.
  std::size_t reset_open_sockets(std::size_t shard);
  std::uint64_t accepted_on(std::size_t shard);

  /// One shard's connection state, read on its thread.
  struct ShardState {
    std::size_t live_connections = 0;  // server's live table
    std::size_t open_connections = 0;  // handshaking + established
    std::size_t pipeline_sas = 0;
    std::size_t held_sockets = 0;  // accepted endpoints not yet swept
    /// Heap held by the server's three handshake-latency vectors, the
    /// one record that still grows with every handshake served.
    std::size_t latency_record_bytes = 0;
  };
  ShardState state_of(std::size_t shard);

 private:
  struct Shard;

  void run_shard(Shard& shard);
  /// Run `fn` on the shard's thread (inline when no thread runs) and
  /// return its result.
  template <typename Fn>
  auto on_shard(Shard& shard, Fn fn) -> decltype(fn());

  SocketFleetConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Declared after shards_: the servers die before the endpoints whose
  /// channel halves their links hold, and before the reactor queues.
  std::unique_ptr<ShardedServer> tier_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  Report final_;
};

struct SocketLoadConfig {
  std::size_t num_clients = 50;
  net::SimTime mean_interarrival_us = 1'000;
  bool poisson_arrivals = true;
  std::uint64_t seed = 0x10ADCAFE;
  net::SocketConfig socket;
  std::size_t reserve_slabs = 64;
  /// Wall-clock cap on the whole run; finishing under it is the normal
  /// case, hitting it leaves all_finished false in the report.
  net::SimTime wall_budget_us = 60'000'000;
  net::SimTime clock_origin_us = 0;
};

struct SocketClientReport : SessionTally {
  std::uint64_t bearer_errors = 0;
  /// fold_fleet_digest over the fleet's clients, in client order.
  crypto::Bytes fleet_digest;
  ArenaUsage arena;
  net::SocketStats sockets;
  bool all_finished = false;
  double wall_s = 0;
};

class SocketClientFleet {
 public:
  /// `server_template` supplies the engine profile the client-side
  /// record engine mirrors (as in the sim generator). `ports` are the
  /// server fleet's listeners; client `i` connects to
  /// ports[shard_for(i, ports.size())].
  SocketClientFleet(const SocketLoadConfig& load,
                    const ClientConfig& client_template,
                    const ServerConfig& server_template,
                    std::vector<std::uint16_t> ports);

  /// Drive the whole fleet to completion on the calling thread.
  SocketClientReport run();

 private:
  SocketLoadConfig load_;
  ClientConfig client_;
  ServerConfig server_;
  std::vector<std::uint16_t> ports_;
};

}  // namespace mapsec::server
