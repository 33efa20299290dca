#include "mapsec/server/socket_fleet.hpp"

#include <chrono>
#include <future>
#include <utility>

#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace mapsec::server {

namespace {

void accumulate_arena(ArenaUsage& total, const ArenaUsage& part) {
  total.allocations += part.allocations;
  total.acquires += part.acquires;
  total.recycles += part.recycles;
  total.peak_in_use += part.peak_in_use;
  total.reserved += part.reserved;
}

ArenaUsage arena_usage(const net::BufferArena& arena, std::size_t reserved) {
  ArenaUsage usage;
  usage.allocations = arena.stats().allocations;
  usage.acquires = arena.stats().acquires;
  usage.recycles = arena.stats().recycles;
  usage.peak_in_use = arena.stats().peak_in_use;
  usage.reserved = reserved;
  return usage;
}

}  // namespace

// ---- SocketServerFleet ----------------------------------------------------

struct SocketServerFleet::Shard {
  // Declaration order is teardown order in reverse: the endpoints die
  // before the arena and reactor they borrow from. The serving world on
  // this shard's queue lives in the fleet's tier, which dies first.
  net::MonotonicClock clock;
  net::Reactor reactor;
  net::BufferArena arena;
  std::unique_ptr<net::SocketListener> listener;
  std::vector<std::unique_ptr<net::SocketEndpoint>> endpoints;
  net::SocketStats closed_stats;  // accumulated from swept endpoints
  std::thread thread;

  explicit Shard(net::SimTime origin_us)
      : clock(origin_us), reactor(clock) {}

  void sweep() {
    // A closed endpoint's link has already failed or detached (bearer
    // errors reach the link before the endpoint reports closed), and the
    // server's same-instant drop of that connection ran in the poll turn
    // that saw it close, so the endpoint can be reclaimed without
    // dangling anything.
    for (auto it = endpoints.begin(); it != endpoints.end();) {
      if (!(*it)->open()) {
        closed_stats += (*it)->stats();
        it = endpoints.erase(it);
      } else {
        ++it;
      }
    }
  }
};

SocketServerFleet::SocketServerFleet(
    const SocketFleetConfig& config, const ServerConfig& server_template,
    const BoundedSessionCache::Config& cache_config)
    : config_(config) {
  if (config_.shards == 0) config_.shards = 1;

  std::vector<net::EventQueue*> queues;
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.clock_origin_us));
    shards_.back()->arena.reserve(config_.reserve_slabs_per_shard);
    queues.push_back(&shards_.back()->reactor.queue());
  }
  ShardedServerConfig tier;
  tier.shards = config_.shards;
  tier.server = server_template;
  tier.cache = cache_config;
  tier_ = std::make_unique<ShardedServer>(std::move(tier), std::move(queues));

  for (std::size_t s = 0; s < config_.shards; ++s) {
    Shard& sh = *shards_[s];
    sh.listener = std::make_unique<net::SocketListener>(
        sh.reactor, sh.arena, config_.socket, /*port=*/0);
    sh.listener->set_on_accept(
        [this, &sh, s](std::unique_ptr<net::SocketEndpoint> ep) {
          tier_->server(s).accept(ep->tx(), ep->rx());
          sh.endpoints.push_back(std::move(ep));
        });
  }
}

SocketServerFleet::~SocketServerFleet() { stop(); }

bool SocketServerFleet::ok() const {
  for (const auto& shard : shards_)
    if (!shard->listener->ok()) return false;
  return true;
}

std::vector<std::uint16_t> SocketServerFleet::ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->listener->port());
  return out;
}

void SocketServerFleet::start() {
  if (started_) return;
  started_ = true;
  // The worlds were fully built on this thread before the launches, so
  // the thread start is the happens-before edge handing each world over.
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->thread = std::thread([this, sh] { run_shard(*sh); });
  }
}

void SocketServerFleet::run_shard(Shard& shard) {
  while (!stop_.load(std::memory_order_acquire)) {
    shard.reactor.poll(5'000);
    shard.sweep();
  }
  // Drain grace: a client that already finished (and closed its socket)
  // may still have final frames — link-layer acks the server never
  // needed — sitting in this side's kernel receive buffer. Keep polling
  // until every accepted connection resolves to EOF/close or the grace
  // expires, so the cross-side conservation books (client bytes_sent ==
  // server bytes_received) account for the whole stream instead of
  // racing the last readv. Connections a peer holds open just run out
  // the bounded grace.
  const auto grace_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!shard.endpoints.empty() &&
         std::chrono::steady_clock::now() < grace_end) {
    shard.reactor.poll(5'000);
    shard.sweep();
  }
}

SocketServerFleet::Report SocketServerFleet::stop() {
  if (stopped_) return final_;
  stopped_ = true;
  if (started_) {
    stop_.store(true, std::memory_order_release);
    for (auto& shard : shards_) shard->reactor.post([] {});
    for (auto& shard : shards_)
      if (shard->thread.joinable()) shard->thread.join();
  }

  Report report;
  report.server = tier_->fleet_stats();
  report.conserved = tier_->conserved();
  for (auto& shard : shards_) {
    const ArenaUsage arena =
        arena_usage(shard->arena, config_.reserve_slabs_per_shard);
    report.sockets += shard->closed_stats;
    for (const auto& ep : shard->endpoints) report.sockets += ep->stats();
    accumulate_arena(report.arena, arena);
    report.accepted += shard->listener->accepted();
    report.zero_steady_state_alloc =
        report.zero_steady_state_alloc && arena.allocations == arena.reserved;
  }
  final_ = report;
  return final_;
}

void SocketServerFleet::pause_accepts(std::size_t shard, bool paused) {
  Shard& sh = *shards_[shard];
  if (!started_ || stopped_) {
    sh.listener->set_paused(paused);
    return;
  }
  std::promise<void> done;
  sh.reactor.post([&sh, paused, &done] {
    sh.listener->set_paused(paused);
    done.set_value();
  });
  done.get_future().wait();
}

template <typename Fn>
auto SocketServerFleet::on_shard(Shard& shard, Fn fn) -> decltype(fn()) {
  if (!started_ || stopped_) return fn();
  std::promise<decltype(fn())> result;
  shard.reactor.post([&result, &fn] { result.set_value(fn()); });
  return result.get_future().get();
}

std::size_t SocketServerFleet::reset_open_sockets(std::size_t shard) {
  Shard& sh = *shards_[shard];
  return on_shard(sh, [&sh] {
    std::size_t n = 0;
    for (auto& ep : sh.endpoints) {
      if (ep->open()) {
        ep->reset();
        ++n;
      }
    }
    return n;
  });
}

std::uint64_t SocketServerFleet::accepted_on(std::size_t shard) {
  Shard& sh = *shards_[shard];
  return on_shard(sh, [&sh] { return sh.listener->accepted(); });
}

SocketServerFleet::ShardState SocketServerFleet::state_of(std::size_t shard) {
  Shard& sh = *shards_[shard];
  return on_shard(sh, [this, &sh, shard] {
    const SecureSessionServer& server = tier_->server(shard);
    const ServerStats& st = server.stats();
    ShardState state;
    state.live_connections = server.live_connections();
    state.open_connections = server.open_connections();
    state.pipeline_sas = server.pipeline().sa_count();
    state.held_sockets = sh.endpoints.size();
    state.latency_record_bytes =
        (st.handshake_latencies_us.capacity() +
         st.full_handshake_latencies_us.capacity() +
         st.resumed_handshake_latencies_us.capacity()) *
        sizeof(double);
    return state;
  });
}

// ---- SocketClientFleet ----------------------------------------------------

SocketClientFleet::SocketClientFleet(const SocketLoadConfig& load,
                                     const ClientConfig& client_template,
                                     const ServerConfig& server_template,
                                     std::vector<std::uint16_t> ports)
    : load_(load),
      client_(client_template),
      server_(server_template),
      ports_(std::move(ports)) {}

SocketClientReport SocketClientFleet::run() {
  // Declaration order = reverse teardown order: clients (whose links
  // reference endpoint halves) must unwind before the endpoints, the
  // endpoints before the arena and reactor.
  net::MonotonicClock clock(load_.clock_origin_us);
  net::Reactor reactor(clock);
  net::BufferArena arena;
  arena.reserve(load_.reserve_slabs);

  crypto::HmacDrbg engine_rng(fleet_engine_seed(load_.seed));
  engine::ProtocolEngine engine(server_.engine_profile, &engine_rng);
  engine.load_program("ccmp-in", engine::ccmp_inbound_program());

  const std::size_t n = load_.num_clients;
  std::vector<std::unique_ptr<net::SocketEndpoint>> slots(n);
  // Replaced endpoints park here until the clients (and their possibly
  // still-attached old links) are gone.
  std::vector<std::unique_ptr<net::SocketEndpoint>> graveyard;
  std::vector<std::unique_ptr<SessionClient>> clients;
  clients.reserve(n);

  SocketClientReport report;

  // Arrival schedule: the same inter-arrival stream the sim generator
  // draws, one delta per client in id order.
  crypto::HmacDrbg arrival_rng(fleet_arrival_seed(load_.seed));
  net::SimTime arrival = 0;

  std::size_t finished = 0;
  const net::SimTime start_us = reactor.queue().now();
  for (std::size_t i = 0; i < n; ++i) {
    auto client = std::make_unique<SessionClient>(
        reactor.queue(), client_, static_cast<std::uint32_t>(i), engine,
        fleet_client_seed(load_.seed, i));
    client->set_on_finished([&finished](SessionClient&) { ++finished; });
    client->set_connect([this, &reactor, &arena, &slots, &graveyard, &report,
                         i](SessionClient&) {
      if (slots[i]) {
        slots[i]->close_quiet();
        graveyard.push_back(std::move(slots[i]));
      }
      const std::size_t shard =
          shard_for(static_cast<std::uint32_t>(i), ports_.size());
      auto ep = net::connect_endpoint(reactor, arena, load_.socket,
                                      ports_[shard]);
      ep->set_on_error(
          [&report](const std::string&) { ++report.bearer_errors; });
      auto link = std::make_unique<net::ReliableLink>(
          reactor.queue(), ep->tx(), ep->rx(), client_.link);
      slots[i] = std::move(ep);
      return link;
    });
    reactor.queue().schedule_at(net::sat_add_time(start_us, arrival),
                                [c = client.get()] { c->start(); });
    arrival += load_.poisson_arrivals
                   ? load_exponential_us(
                         arrival_rng,
                         static_cast<double>(load_.mean_interarrival_us))
                   : load_.mean_interarrival_us;
    clients.push_back(std::move(client));
  }

  report.all_finished = reactor.run_until(
      [&finished, n] { return finished == n; }, load_.wall_budget_us);
  report.wall_s =
      static_cast<double>(reactor.queue().now() - start_us) / 1e6;

  // Snapshot while everything is still alive.
  std::vector<crypto::ConstBytes> lanes;
  lanes.reserve(clients.size());
  for (const auto& client : clients) {
    report.add(*client);
    lanes.push_back(client->transcript_digest());
  }
  report.fleet_digest = fold_fleet_digest(lanes);
  for (const auto& ep : graveyard) report.sockets += ep->stats();
  for (const auto& ep : slots)
    if (ep) report.sockets += ep->stats();
  report.arena = arena_usage(arena, load_.reserve_slabs);
  return report;
}

}  // namespace mapsec::server
