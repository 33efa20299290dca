#include "mapsec/chaos/campaign.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mapsec/chaos/adversary.hpp"
#include "mapsec/chaos/exhaustible_rng.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/crypto/sha256.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/supervisor.hpp"

namespace mapsec::chaos {

namespace {

using server::load_exponential_us;
using server::load_sub_seed;

/// Faults flip process-global dispatch state; restore it however the
/// run ends.
struct DispatchGuard {
  bool prev = crypto::dispatch::scalar_forced();
  ~DispatchGuard() { crypto::dispatch::force_scalar(prev); }
};

/// The bearer's current fault state, composed over the base config.
/// Blackouts nest (depth counter) so overlapping plans recover exactly
/// when the last outage lifts.
struct Weather {
  int blackout_depth = 0;
  bool collapsed = false;
  double collapse_bytes_per_sec = 0;
  bool burst = false;
  double ge_p_good_to_bad = 0.05;
  double ge_p_bad_to_good = 0.30;
  double ge_loss_bad = 0.9;
};

/// Memory peaks may legitimately overshoot their configured cap by the
/// final message/batch that tripped the limit; anything past this slop
/// is an unbounded-growth bug.
constexpr std::uint64_t kMemorySlop = 32 * 1024;

}  // namespace

CampaignReport CampaignRunner::run() {
  if (config_.shards == 0)
    throw std::invalid_argument("chaos: CampaignConfig::shards must be >= 1");
  const std::size_t num_shards = config_.shards;
  const std::uint64_t seed = config_.seed;

  // Validate the plan BEFORE building any world. With one shard nothing
  // runs concurrently: the bare-index stalls become shard 0's stalls, and
  // RngExhaustion lands on shard 0's queue at its exact instant. With
  // several shards those three cannot be delivered deterministically and
  // are rejected; stalls have shard-scoped replacements, RngExhaustion
  // has none. DispatchFailure rides the barrier control queue at any
  // shard count.
  FaultPlan plan = config_.faults;
  for (Fault& fault : plan) {
    if (num_shards > 1) {
      if (std::get_if<RngExhaustion>(&fault) != nullptr)
        throw std::invalid_argument(
            "chaos: DispatchFailure/RngExhaustion flip process-global state "
            "(crypto dispatch, the one exhaustible rng) and cannot be "
            "delivered at a deterministic simulated instant across "
            "concurrently-running shards");
      if (std::get_if<WorkerStall>(&fault) != nullptr ||
          std::get_if<OffloadStall>(&fault) != nullptr)
        throw std::invalid_argument(
            "chaos: WorkerStall/OffloadStall address a worker index with no "
            "owning shard; use ShardWorkerStall/ShardOffloadStall, which "
            "ride one shard's own queue");
    }
    if (const auto* f = std::get_if<WorkerStall>(&fault)) {
      fault = ShardWorkerStall{.at_us = f->at_us,
                               .duration_us = f->duration_us,
                               .shard = 0,
                               .worker = f->worker,
                               .stall_ns = f->stall_ns};
    } else if (const auto* f = std::get_if<OffloadStall>(&fault)) {
      fault = ShardOffloadStall{.at_us = f->at_us,
                                .duration_us = f->duration_us,
                                .shard = 0,
                                .worker = f->worker,
                                .all_workers = f->all_workers,
                                .stall_ns = f->stall_ns};
    } else if (const auto* f = std::get_if<ShardCrash>(&fault)) {
      if (f->shard >= num_shards)
        throw std::invalid_argument("chaos: ShardCrash.shard out of range");
    } else if (const auto* f = std::get_if<ShardHang>(&fault)) {
      if (f->shard >= num_shards)
        throw std::invalid_argument("chaos: ShardHang.shard out of range");
    } else if (const auto* f = std::get_if<ShardWorkerStall>(&fault)) {
      if (f->shard >= num_shards)
        throw std::invalid_argument(
            "chaos: ShardWorkerStall.shard out of range");
    } else if (const auto* f = std::get_if<ShardOffloadStall>(&fault)) {
      if (f->shard >= num_shards)
        throw std::invalid_argument(
            "chaos: ShardOffloadStall.shard out of range");
    }
  }

  DispatchGuard dispatch_guard;

  // The server's entropy source is exhaustible — RngExhaustion drains it
  // live; until then it behaves exactly like a seeded DRBG. With one
  // shard every connection draws from it, as a lone server's would. With
  // several, one DRBG cannot be shared across shard threads, so each
  // connection gets its own stream named by its wire id.
  ExhaustibleRng server_rng(server::fleet_server_seed(seed));

  // Per-shard worlds, declared before the tier (lifetime order: channels
  // outlive servers). Each shard's thread only ever touches index s of
  // these — the same disjoint-world contract ShardExecutor enforces for
  // the queues. Honest attempt ordinals live in a per-key vector (each
  // element touched only by the thread currently running that client's
  // world) so a failover migration continues the count instead of
  // restarting it; attack keys never migrate, so per-shard maps suffice.
  std::vector<std::vector<std::unique_ptr<net::DuplexChannel>>> channels(
      num_shards);
  std::vector<Weather> weather(num_shards);
  std::vector<std::vector<net::LossyChannel*>> live_channels(num_shards);
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> attempts(
      num_shards);
  std::vector<std::uint32_t> honest_attempts(config_.honest_clients, 0);

  server::ShardedServerConfig scfg;
  scfg.shards = num_shards;
  scfg.slice_us = config_.slice_us;
  scfg.server = config_.server;
  scfg.server.handshake.rng = &server_rng;  // honoured at one shard only
  scfg.cache = config_.cache;
  server::ShardSupervisor tier(scfg);
  tier.set_watchdog_wall_ms(config_.watchdog_wall_ms);

  std::vector<std::unique_ptr<crypto::HmacDrbg>> engine_rngs;
  std::vector<std::unique_ptr<engine::ProtocolEngine>> engines;
  for (std::size_t s = 0; s < num_shards; ++s) {
    engine_rngs.push_back(std::make_unique<crypto::HmacDrbg>(
        server::fleet_engine_seed(seed, s)));
    engines.push_back(std::make_unique<engine::ProtocolEngine>(
        config_.server.engine_profile, engine_rngs.back().get()));
    engines.back()->load_program("ccmp-in", engine::ccmp_inbound_program());
  }

  auto apply_weather = [this](const Weather& w, net::LossyChannel& ch) {
    net::ChannelConfig& cfg = ch.mutable_config();
    const net::ChannelConfig& base = config_.channel;
    cfg.loss_rate = w.blackout_depth > 0 ? 1.0 : base.loss_rate;
    cfg.bytes_per_sec =
        w.collapsed ? w.collapse_bytes_per_sec : base.bytes_per_sec;
    cfg.ge_enabled = base.ge_enabled || w.burst;
    if (w.burst) {
      cfg.ge_p_good_to_bad = w.ge_p_good_to_bad;
      cfg.ge_p_bad_to_good = w.ge_p_bad_to_good;
      cfg.ge_loss_bad = w.ge_loss_bad;
    } else {
      cfg.ge_p_good_to_bad = base.ge_p_good_to_bad;
      cfg.ge_p_bad_to_good = base.ge_p_bad_to_good;
      cfg.ge_loss_bad = base.ge_loss_bad;
    }
  };
  auto reapply_shard = [&](std::size_t s) {
    for (net::LossyChannel* ch : live_channels[s])
      apply_weather(weather[s], *ch);
  };

  // Shared connect path, parameterised by connection key: the channel,
  // link, accept and bookkeeping all live on the key's shard. The wire
  // identity is (key, per-key attempt ordinal) — independent of shard
  // count AND of placement, so every on-the-wire byte is too (which is
  // why a failed-over client's transcript matches an undisturbed run's).
  // A dead shard simply never answers: the dial still burns the attempt
  // (bound clients are always routed to a live shard, so only attack
  // keys whose stable home is down ever hit this).
  auto make_link = [&](std::uint32_t conn_key,
                       const net::LinkConfig& link_cfg) {
    const std::size_t s = tier.shard_of(conn_key);
    net::EventQueue& queue = tier.queue(s);
    const std::uint32_t attempt =
        conn_key < honest_attempts.size() ? honest_attempts[conn_key]++
                                          : attempts[s][conn_key]++;
    const std::uint32_t wire_id = server::make_wire_id(conn_key, attempt);
    auto channel = std::make_unique<net::DuplexChannel>(
        queue, config_.channel, config_.channel,
        server::fleet_channel_seed(seed, wire_id));
    apply_weather(weather[s], channel->a_to_b());
    apply_weather(weather[s], channel->b_to_a());
    if (tier.shard_alive(s)) {
      server::SecureSessionServer::AcceptOptions opts;
      opts.wire_id = wire_id;
      if (num_shards > 1)
        opts.rng_seed = load_sub_seed(server::fleet_server_seed(seed), wire_id);
      tier.accept(conn_key, channel->b_to_a(), channel->a_to_b(), opts);
    }
    auto link = std::make_unique<net::ReliableLink>(
        queue, channel->a_to_b(), channel->b_to_a(), link_cfg);
    live_channels[s].push_back(&channel->a_to_b());
    live_channels[s].push_back(&channel->b_to_a());
    channels[s].push_back(std::move(channel));
    return link;
  };

  // ---- honest fleet ---------------------------------------------------
  // Honest clients BIND: the supervisor routes them by rendezvous over
  // the live shards and migrates them (with their queue rebinding and
  // ticket-first reconnect) when their shard dies. Client seeds and
  // arrival times are placement-independent, so the fleet digest is too.
  std::vector<std::unique_ptr<server::SessionClient>> clients;
  clients.reserve(config_.honest_clients);
  crypto::HmacDrbg arrival_rng(server::fleet_arrival_seed(seed));
  net::SimTime arrival = 0;
  for (std::size_t i = 0; i < config_.honest_clients; ++i) {
    const auto key = static_cast<std::uint32_t>(i);
    const std::size_t s =
        server::shard_for_live(key, num_shards, tier.routable());
    auto client = std::make_unique<server::SessionClient>(
        tier.queue(s), config_.client, key, *engines[s],
        server::fleet_client_seed(seed, i));
    client->set_connect(
        [&make_link, key, link_cfg = config_.client.link](
            server::SessionClient&) { return make_link(key, link_cfg); });
    tier.bind_client(key, client.get());
    client->schedule_start(arrival);
    arrival +=
        config_.poisson_arrivals
            ? load_exponential_us(
                  arrival_rng,
                  static_cast<double>(config_.mean_interarrival_us))
            : config_.mean_interarrival_us;
    clients.push_back(std::move(client));
  }

  // ---- fault plan -----------------------------------------------------
  // Bearer weather is shard-local state flipped by identical events
  // scheduled on EVERY shard's queue at the same simulated times, so each
  // shard's bearer degrades and recovers in lockstep without any
  // cross-thread traffic. The flips are kept as a PLAN (not just queue
  // events): a hard-killed shard loses its scheduled flips with the rest
  // of its world, so the rejoin hook below replays the past ones into a
  // fresh Weather and re-schedules the future ones.
  std::vector<std::unique_ptr<FloodClient>> floods;
  std::vector<std::unique_ptr<MalformedClient>> vandals;
  std::uint64_t fault_index = 0;
  std::uint64_t planned_crashes = 0;
  std::uint64_t planned_drains = 0;
  std::uint64_t planned_hangs = 0;
  std::uint64_t planned_rejoins = 0;

  struct WeatherFlip {
    net::SimTime at = 0;
    std::function<void(Weather&)> fn;
  };
  std::vector<WeatherFlip> weather_plan;
  auto weather_event = [&](net::SimTime at, std::function<void(Weather&)> fn) {
    weather_plan.push_back({at, std::move(fn)});
  };

  for (const Fault& fault : plan) {
    const std::uint64_t fseed = load_sub_seed(seed, 0xFA017 + fault_index);
    ++fault_index;

    if (const auto* f = std::get_if<Blackout>(&fault)) {
      weather_event(f->at_us, [](Weather& w) { ++w.blackout_depth; });
      weather_event(f->at_us + f->duration_us,
                    [](Weather& w) { --w.blackout_depth; });
    } else if (const auto* f = std::get_if<BearerFlap>(&fault)) {
      for (int i = 0; i < f->flaps; ++i) {
        const net::SimTime start =
            f->at_us + static_cast<net::SimTime>(i) * f->period_us;
        weather_event(start, [](Weather& w) { ++w.blackout_depth; });
        weather_event(start + f->outage_us,
                      [](Weather& w) { --w.blackout_depth; });
      }
    } else if (const auto* f = std::get_if<BurstLoss>(&fault)) {
      weather_event(f->at_us, [p = *f](Weather& w) {
        w.burst = true;
        w.ge_p_good_to_bad = p.p_good_to_bad;
        w.ge_p_bad_to_good = p.p_bad_to_good;
        w.ge_loss_bad = p.loss_bad;
      });
      if (f->duration_us != 0)
        weather_event(f->at_us + f->duration_us,
                      [](Weather& w) { w.burst = false; });
    } else if (const auto* f = std::get_if<BandwidthCollapse>(&fault)) {
      weather_event(f->at_us, [bps = f->bytes_per_sec](Weather& w) {
        w.collapsed = true;
        w.collapse_bytes_per_sec = bps;
      });
      if (f->duration_us != 0)
        weather_event(f->at_us + f->duration_us,
                      [](Weather& w) { w.collapsed = false; });
    } else if (const auto* f = std::get_if<ShardCrash>(&fault)) {
      const net::SimTime repair =
          f->repair_us == 0 ? server::ShardSupervisor::kNoRepair
                            : f->repair_us;
      if (f->graceful) {
        ++planned_drains;
        tier.schedule_drain(f->at_us, f->shard, f->drain_deadline_us, repair);
      } else {
        ++planned_crashes;
        tier.schedule_crash(f->at_us, f->shard, repair);
      }
      if (f->repair_us != 0) ++planned_rejoins;
    } else if (const auto* f = std::get_if<ShardHang>(&fault)) {
      const net::SimTime repair =
          f->repair_us == 0 ? server::ShardSupervisor::kNoRepair
                            : f->repair_us;
      ++planned_hangs;
      tier.schedule_hang(f->at_us, f->shard, repair);
      if (f->repair_us != 0) ++planned_rejoins;
    } else if (const auto* f = std::get_if<DispatchFailure>(&fault)) {
      // Flipped at a barrier, with every shard quiescent. The crypto bytes
      // are the same on every backend, so the flip moves no outcome.
      tier.schedule_control(f->at_us, [](server::SecureSessionServer&,
                                         std::size_t) {
        crypto::dispatch::force_scalar(true);
      });
      if (f->duration_us != 0)
        tier.schedule_control(
            f->at_us + f->duration_us,
            [prev = dispatch_guard.prev](server::SecureSessionServer&,
                                         std::size_t) {
              crypto::dispatch::force_scalar(prev);
            });
    } else if (const auto* f = std::get_if<RngExhaustion>(&fault)) {
      tier.queue(0).schedule_at(f->at_us, [&] { server_rng.exhaust(); });
      tier.queue(0).schedule_at(f->at_us + f->duration_us,
                                [&] { server_rng.refill(); });
    } else if (const auto* f = std::get_if<ShardWorkerStall>(&fault)) {
      // Rides the target shard's own queue: lands at a deterministic
      // simulated instant and is executed by the one thread that owns
      // that pipeline. Dies with the shard if it crashes first; a
      // rejoined shard's fresh pipeline starts unstalled.
      tier.queue(f->shard).schedule_at(f->at_us, [&tier, w = *f] {
        tier.server(w.shard).pipeline_for_chaos().inject_worker_stall(
            w.worker, w.stall_ns);
      });
      if (f->duration_us != 0)
        tier.queue(f->shard).schedule_at(
            f->at_us + f->duration_us, [&tier, w = *f] {
              tier.server(w.shard).pipeline_for_chaos().inject_worker_stall(
                  w.worker, 0);
            });
    } else if (const auto* f = std::get_if<ShardOffloadStall>(&fault)) {
      const auto stall_set = [&tier](const ShardOffloadStall& w,
                                     std::uint64_t ns) {
        engine::OffloadEngine* off = tier.server(w.shard).offload_for_chaos();
        if (off == nullptr) return;  // inline pk mode: nothing to stall
        if (w.all_workers) {
          for (std::size_t i = 0; i < off->num_workers(); ++i)
            off->inject_worker_stall(i, ns);
        } else {
          off->inject_worker_stall(w.worker, ns);
        }
      };
      tier.queue(f->shard).schedule_at(
          f->at_us, [stall_set, w = *f] { stall_set(w, w.stall_ns); });
      if (f->duration_us != 0)
        tier.queue(f->shard).schedule_at(
            f->at_us + f->duration_us,
            [stall_set, w = *f] { stall_set(w, 0); });
    } else if (const auto* f = std::get_if<HandshakeFlood>(&fault)) {
      for (int a = 0; a < f->attackers; ++a) {
        FloodConfig fc;
        fc.handshake = config_.client.handshake;
        fc.link = config_.client.link;
        fc.connections = f->connections_each;
        fc.interarrival_us = f->interarrival_us;
        fc.reach_key_exchange = f->reach_key_exchange;
        const auto key = static_cast<std::uint32_t>(0xF000 + floods.size());
        auto attacker = std::make_unique<FloodClient>(
            tier.queue(tier.shard_of(key)), std::move(fc), key,
            load_sub_seed(fseed, 0xDD05 + a));
        attacker->set_connect(
            [&make_link, key, link_cfg = config_.client.link](FloodClient&) {
              return make_link(key, link_cfg);
            });
        tier.queue(tier.shard_of(key))
            .schedule_at(f->at_us, [p = attacker.get()] { p->start(); });
        floods.push_back(std::move(attacker));
      }
    } else if (const auto* f = std::get_if<MalformedTraffic>(&fault)) {
      for (int c = 0; c < f->clients; ++c) {
        MalformedConfig mc;
        mc.link = config_.client.link;
        mc.connections = f->connections_each;
        mc.messages_per_connection = f->messages_per_connection;
        mc.interarrival_us = f->interarrival_us;
        mc.message_gap_us = f->message_gap_us;
        const auto key = static_cast<std::uint32_t>(0xBAD0 + vandals.size());
        auto vandal = std::make_unique<MalformedClient>(
            tier.queue(tier.shard_of(key)), std::move(mc), key,
            make_seeded_mutator(load_sub_seed(fseed, 0x3AD + c),
                                config_.client.handshake));
        vandal->set_connect(
            [&make_link, key,
             link_cfg = config_.client.link](MalformedClient&) {
              return make_link(key, link_cfg);
            });
        tier.queue(tier.shard_of(key))
            .schedule_at(f->at_us, [p = vandal.get()] { p->start(); });
        vandals.push_back(std::move(vandal));
      }
    } else if (const auto* f = std::get_if<TicketKeyRotation>(&fault)) {
      // Through the epoch-barrier control channel: every shard rotates at
      // the same barrier, in deterministic order against other control
      // messages, so ticket epochs stay in lockstep fleet-wide. A shard
      // that was dead for a rotation replays it from the recorded control
      // history at rejoin, keeping every ring in epoch lockstep.
      for (int r = 0; r < f->rotations; ++r)
        tier.rotate_ticket_keys(f->at_us +
                                static_cast<net::SimTime>(r) * f->period_us);
    }
  }

  // Schedule the weather plan in time order on every shard (stable, so
  // same-instant flips keep plan order), and arm the rejoin hook that
  // rebuilds a returning shard's weather world: past flips replayed into
  // a fresh Weather, future flips re-scheduled on the (cleared) queue.
  std::stable_sort(
      weather_plan.begin(), weather_plan.end(),
      [](const WeatherFlip& a, const WeatherFlip& b) { return a.at < b.at; });
  for (std::size_t s = 0; s < num_shards; ++s)
    for (const WeatherFlip& flip : weather_plan)
      tier.queue(s).schedule_at(flip.at, [&, s, fn = flip.fn] {
        fn(weather[s]);
        reapply_shard(s);
      });
  tier.set_on_rejoin([&](std::size_t s) {
    const net::SimTime now = tier.queue(s).now();
    weather[s] = Weather{};
    for (const WeatherFlip& flip : weather_plan) {
      if (flip.at <= now) {
        flip.fn(weather[s]);
      } else {
        tier.queue(s).schedule_at(flip.at, [&, s, fn = flip.fn] {
          fn(weather[s]);
          reapply_shard(s);
        });
      }
    }
    reapply_shard(s);
  });

  // ---- run ------------------------------------------------------------
  const server::ShardedServer::RunStats rs = tier.run(config_.max_events);

  // ---- judge ----------------------------------------------------------
  CampaignReport report;
  report.server = tier.fleet_stats();
  report.drained = rs.drained;
  report.open_at_end = tier.open_connections();
  report.conserved = tier.conserved();
  report.degraded_time_us = rs.degraded_time_us;
  report.degraded_transitions = rs.degraded_transitions;
  report.sim_duration_s = static_cast<double>(rs.last_event_us) / 1e6;

  crypto::Bytes digest_stream;
  std::vector<net::SimTime> blackouts;
  for (const auto& client : clients) {
    report.add(*client);
    for (const server::SessionRecord& record : client->sessions())
      report.honest_refused_attempts +=
          static_cast<std::size_t>(record.refused_attempts);
    report.client_reconnects += static_cast<std::size_t>(client->reconnects());
    report.failover_resumes +=
        static_cast<std::size_t>(client->failover_resumes());
    blackouts.insert(blackouts.end(), client->failover_blackouts_us().begin(),
                     client->failover_blackouts_us().end());
    digest_stream.insert(digest_stream.end(),
                         client->transcript_digest().begin(),
                         client->transcript_digest().end());
  }
  report.fleet_digest = crypto::Sha256::hash(digest_stream);

  const server::ShardSupervisor::FailoverStats& fs = tier.failover_stats();
  report.shard_crashes = fs.crashes;
  report.shard_hangs_detected = fs.hangs_detected;
  report.shard_drains = fs.drains;
  report.shard_rejoins = fs.rejoins;
  report.clients_migrated = fs.clients_migrated;
  report.connections_killed = fs.connections_killed;
  report.missed_heartbeats = fs.missed_heartbeats;
  if (!blackouts.empty()) {
    std::sort(blackouts.begin(), blackouts.end());
    const auto pct = [&](double p) {
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(blackouts.size() - 1) + 0.5);
      return static_cast<double>(blackouts[idx]) / 1000.0;
    };
    report.blackout_p50_ms = pct(0.50);
    report.blackout_p99_ms = pct(0.99);
  }

  for (const auto& flood : floods) {
    report.attack_connections += flood->stats().connections_opened;
    report.attack_refused += flood->stats().refused;
    report.attack_bytes += flood->stats().bytes_sent;
  }
  for (const auto& vandal : vandals) {
    report.attack_connections += vandal->stats().connections_opened;
    report.malformed_messages += vandal->stats().messages_sent;
    report.attack_bytes += vandal->stats().bytes_sent;
  }

  report.handshake_energy_mj =
      static_cast<double>(report.server.handshake_bytes_rx) / 1024.0 *
          config_.energy.rx_mj_per_kb +
      static_cast<double>(report.server.handshake_bytes_tx) / 1024.0 *
          config_.energy.tx_mj_per_kb +
      static_cast<double>(report.server.handshake_rsa_private_ops) *
          config_.rsa_mj_per_op;
  if (report.attack_bytes > 0)
    report.mj_per_attack_byte =
        report.handshake_energy_mj /
        static_cast<double>(report.attack_bytes);

  auto flag = [&](const char* what) {
    if (!report.invariant_failures.empty())
      report.invariant_failures += "; ";
    report.invariant_failures += what;
  };
  if (!report.drained) flag("event budget exhausted (possible livelock)");
  if (report.open_at_end != 0) flag("connections left open after drain");
  if (!report.conserved) flag("connection accounting not conserved");
  if (report.echo_mismatches != 0) flag("surviving session echo mismatch");
  if (config_.server.max_pending_echo_bytes != 0 &&
      report.server.peak_pending_echo_bytes >
          config_.server.max_pending_echo_bytes + kMemorySlop)
    flag("pending-echo memory exceeded its bound");
  if (config_.server.max_deferred_appdata_bytes != 0 &&
      report.server.peak_deferred_bytes >
          config_.server.max_deferred_appdata_bytes + kMemorySlop)
    flag("deferred-appdata memory exceeded its bound");
  if (report.shard_hangs_detected < planned_hangs)
    flag("injected shard hang was not detected");
  if (report.shard_crashes < planned_crashes)
    flag("scheduled shard crash did not execute");
  if (report.shard_drains < planned_drains)
    flag("scheduled shard drain did not execute");
  if (report.shard_rejoins < planned_rejoins)
    flag("killed shard failed to rejoin");
  if (report.missed_heartbeats != 0)
    flag("live shard missed a barrier heartbeat");

  return report;
}

}  // namespace mapsec::chaos
