// The closed-loop load generator: kConnections SessionClients on one
// reactor thread, each running its sessions back to back over real
// loopback TCP, one connect_endpoint + ReliableLink per connection
// attempt. A client parks at its first session boundary after the
// window's time or session cap: its next connection attempt gets a link
// to nowhere instead of a socket, so every session the server saw ran to
// its graceful close.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "loopbench.hpp"
#include "mapsec/crypto/bytes.hpp"
#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/net/frame_codec.hpp"
#include "mapsec/net/reactor.hpp"
#include "mapsec/server/wire.hpp"

namespace loopbench {

namespace {

/// Client arena slabs; the arena gate asserts traffic never grew past it.
constexpr std::size_t kClientReserveSlabs = 256;
/// How long after the window a client may take to reach a session
/// boundary before its session counts as stuck.
constexpr double kParkGraceS = 20;
/// Nominal slice length; the window is cut into whole slices.
constexpr double kSliceS = 0.5;
/// Fewest sessions a slice may hold; shorter neighbours are merged, so a
/// workload of long sessions gets fewer, longer slices.
constexpr std::size_t kMinSliceSessions = 20;

/// Where a parked client's final connection attempt goes: nowhere.
class SinkChannel final : public net::Channel {
 public:
  void set_receiver(std::function<void(crypto::ConstBytes)>) override {}
  void send(crypto::ConstBytes) override {}
};

/// Pass-through channel that records a span per frame. Receive spans
/// cover the client's processing of the frame; send spans nest in them.
class TracedChannel final : public net::Channel {
 public:
  TracedChannel(net::Channel& inner, SpanRecorder& spans, const char* name,
                int& current, std::int64_t session)
      : inner_(inner), spans_(spans), name_(name), current_(current),
        session_(session) {}

  void set_receiver(std::function<void(crypto::ConstBytes)> fn) override {
    if (!fn) return inner_.set_receiver(nullptr);  // a detaching link
    inner_.set_receiver([this, fn = std::move(fn)](crypto::ConstBytes f) {
      // The link may detach (replacing this lambda) inside fn: call
      // through locals.
      TracedChannel* self = this;
      const auto deliver = fn;
      const int outer = self->current_;
      const int id = self->spans_.open(self->name_, outer, self->session_);
      self->current_ = id;
      deliver(f);
      self->spans_.close(id);
      self->current_ = outer;
    });
  }
  void send(crypto::ConstBytes frame) override {
    const int id = spans_.open(name_, current_, session_);
    inner_.send(frame);
    spans_.close(id);
  }
  void set_on_channel_error(
      std::function<void(const std::string&)> fn) override {
    inner_.set_on_channel_error(std::move(fn));
  }

 private:
  net::Channel& inner_;
  SpanRecorder& spans_;
  const char* name_;
  int& current_;
  std::int64_t session_;
};

/// Receive-side channel that flips one ciphertext byte of the first
/// server echo (MsgKind::kBulk) it sees. It shadows the link's in-order
/// segment stream (DATA = 0x01 | seq(4) | payload) and cuts messages with
/// FrameCodec, so the flipped byte lies past the echo's spi|seq header.
class BadEchoChannel final : public net::Channel {
 public:
  BadEchoChannel(net::Channel& inner, bool& armed)
      : inner_(inner), armed_(armed) {}

  void set_receiver(std::function<void(crypto::ConstBytes)> fn) override {
    if (!fn) return inner_.set_receiver(nullptr);  // a detaching link
    inner_.set_receiver([this, fn = std::move(fn)](crypto::ConstBytes f) {
      const auto deliver = fn;  // the link may detach inside the call
      if (!armed_ || f.size() <= 5 || f[0] != 0x01) return deliver(f);
      if (crypto::load_be32(f.data() + 1) != next_seq_) return deliver(f);
      ++next_seq_;
      const std::size_t seg_start = stream_.size() + consumed_;
      stream_.insert(stream_.end(), f.begin() + 5, f.end());
      crypto::Bytes copy(f.begin(), f.end());
      corrupt(copy, seg_start);
      deliver(copy);
    });
  }
  void send(crypto::ConstBytes frame) override { inner_.send(frame); }
  void set_on_channel_error(
      std::function<void(const std::string&)> fn) override {
    inner_.set_on_channel_error(std::move(fn));
  }

 private:
  void corrupt(crypto::Bytes& frame, std::size_t seg_start) {
    const std::size_t seg_end = seg_start + frame.size() - 5;
    while (true) {
      const net::FrameCodec::Head head =
          net::FrameCodec::inspect(stream_.data(), stream_.size(), 0);
      if (head.payload_len == 0 && head.status != net::FrameCodec::Status::kFrame)
        return;  // header incomplete
      const std::size_t msg_start = consumed_;
      const std::size_t body = msg_start + net::FrameCodec::kHeaderBytes;
      const std::size_t msg_end = body + head.payload_len;
      if (stream_.size() > net::FrameCodec::kHeaderBytes &&
          stream_[net::FrameCodec::kHeaderBytes] ==
              static_cast<std::uint8_t>(server::MsgKind::kBulk)) {
        const std::size_t lo = std::max(body + 1 + 8, seg_start);
        if (lo < std::min(msg_end, seg_end)) {
          frame[5 + (lo - seg_start)] ^= 0x01;
          armed_ = false;
          return;
        }
      }
      if (head.status != net::FrameCodec::Status::kFrame) return;
      stream_.erase(stream_.begin(),
                    stream_.begin() + static_cast<std::ptrdiff_t>(
                                          msg_end - msg_start));
      consumed_ = msg_end;
    }
  }

  net::Channel& inner_;
  bool& armed_;
  std::uint32_t next_seq_ = 0;
  crypto::Bytes stream_;      // unparsed tail of the segment stream
  std::size_t consumed_ = 0;  // stream offset of stream_[0]
};

/// One socket connection and the channel wrappers its link runs over,
/// innermost first: endpoint -> injector -> tracer -> link.
struct Connection {
  std::unique_ptr<net::SocketEndpoint> endpoint;
  std::unique_ptr<net::Channel> inject_rx;
  std::unique_ptr<net::Channel> traced_rx;
  std::unique_ptr<net::Channel> traced_tx;
};

struct Handset {
  Connection live;
  Connection retired;  // previous connection; its link is already gone
  net::ReliableLink* link = nullptr;  // latest real link (client-owned)
  SinkChannel sink;
  bool parked = false;
  bool finished = false;
  crypto::Bytes prefix_digest;
  int session_span = -1;
  int current_span = -1;
  // Last member: the client's link references the channels above.
  std::unique_ptr<server::SessionClient> client;
};

/// A session that completed, seen at the next session's connect.
struct Completion {
  double wall;
  double handshake_us;
  bool echo_ok;
};

/// Clocks at one slice boundary.
struct Sample {
  double wall;
  CpuTicks ticks;
};

void absorb(Slice& into, const Slice& from) {
  const double wall = into.wall_s + from.wall_s;
  if (wall > 0)
    into.steal_share = (into.steal_share * into.wall_s +
                        from.steal_share * from.wall_s) / wall;
  into.wall_s = wall;
  into.sessions += from.sessions;
  into.bytes_echoed += from.bytes_echoed;
  into.latencies_us.insert(into.latencies_us.end(), from.latencies_us.begin(),
                           from.latencies_us.end());
}

void add_link_stats(net::LinkStats& total, const net::LinkStats& s) {
  total.messages_sent += s.messages_sent;
  total.messages_delivered += s.messages_delivered;
  total.segments_sent += s.segments_sent;
  total.retransmits += s.retransmits;
  total.duplicate_segments += s.duplicate_segments;
  total.acks_sent += s.acks_sent;
}

}  // namespace

PhaseResult run_phase(const Workload& w, std::uint64_t seed,
                      const protocol::Certificate& root,
                      const PhaseOptions& opt) {
  // Declaration order is reverse teardown order: clients (whose links
  // reference endpoint halves) go before the endpoints, the endpoints
  // before the arena and reactor.
  net::MonotonicClock clock;
  net::Reactor reactor(clock);
  net::BufferArena arena;
  arena.reserve(kClientReserveSlabs);
  crypto::HmacDrbg engine_rng(server::fleet_engine_seed(seed));
  engine::ProtocolEngine engine(engine::EngineProfile{}, &engine_rng);
  engine.load_program("ccmp-in", engine::ccmp_inbound_program());

  const server::ClientConfig ccfg = client_config(w, root);
  const net::SocketConfig socket_cfg;
  PhaseResult result;
  bool inject_armed = opt.inject_bad_echo;
  std::vector<Handset> hs(kConnections);

  std::vector<Completion> completions;
  std::vector<Sample> samples;
  const auto sample = [&samples] {
    samples.push_back(Sample{wall_s(), cpu_ticks()});
  };
  const double client_cpu0 = process_cpu_s();
  const double server_cpu0 = process_cpu_s(opt.server_pid);
  sample();
  const double t0 = samples.front().wall;
  const double deadline = t0 + opt.seconds;
  const int n_slices = std::max(1, static_cast<int>(opt.seconds / kSliceS));
  const auto slice_us = static_cast<net::SimTime>(opt.seconds / n_slices * 1e6);
  for (int k = 1; k <= n_slices; ++k)
    reactor.queue().schedule_in(slice_us * k, sample);

  auto retire = [&result](Connection& c) {
    if (!c.endpoint) return;
    result.sockets += c.endpoint->stats();
    c = Connection{};
  };

  for (std::size_t i = 0; i < kConnections; ++i) {
    Handset& h = hs[i];
    h.client = std::make_unique<server::SessionClient>(
        reactor.queue(), ccfg, static_cast<std::uint32_t>(i), engine,
        client_seed(seed, i));
    h.client->set_on_finished(
        [&h](server::SessionClient&) { h.finished = true; });
    h.client->set_connect([&, i](server::SessionClient& c)
                              -> std::unique_ptr<net::ReliableLink> {
      Handset& me = hs[i];
      // The previous link is still alive (the client replaces it when
      // this returns): harvest its counters now.
      if (me.link) add_link_stats(result.links, me.link->stats());
      me.link = nullptr;
      retire(me.retired);
      if (me.live.endpoint) me.live.endpoint->close_quiet();
      me.retired = std::move(me.live);

      const std::size_t done = c.sessions().size() - 1;
      const bool fresh = c.sessions().back().attempts == 1;
      const double now = wall_s();
      if (fresh && done > 0 && c.sessions()[done - 1].completed) {
        const server::SessionRecord& r = c.sessions()[done - 1];
        completions.push_back(Completion{
            now, static_cast<double>(r.handshake_latency_us), r.echo_ok});
      }
      if (fresh && done == static_cast<std::size_t>(w.digest_sessions))
        me.prefix_digest = c.transcript_digest();
      const std::int64_t session_id =
          static_cast<std::int64_t>(i) * 1'000'000 +
          static_cast<std::int64_t>(done);
      if (opt.tracer && me.session_span >= 0 && fresh) {
        opt.tracer->close(me.session_span);
        me.session_span = -1;
      }

      if (now >= deadline || (opt.max_sessions > 0 &&
                              completions.size() >= opt.max_sessions)) {
        me.parked = true;
        return std::make_unique<net::ReliableLink>(reactor.queue(), me.sink,
                                                   me.sink, ccfg.link);
      }
      me.live.endpoint = net::connect_endpoint(
          reactor, arena, socket_cfg, opt.ports[i % opt.ports.size()]);
      net::Channel* tx = &me.live.endpoint->tx();
      net::Channel* rx = &me.live.endpoint->rx();
      if (inject_armed) {
        me.live.inject_rx =
            std::make_unique<BadEchoChannel>(*rx, inject_armed);
        rx = me.live.inject_rx.get();
      }
      if (opt.tracer) {
        if (me.session_span < 0)
          me.session_span =
              opt.tracer->open("client.session", -1, session_id);
        me.current_span = me.session_span;
        me.live.traced_tx = std::make_unique<TracedChannel>(
            *tx, *opt.tracer, "client.tx_frame", me.current_span, session_id);
        me.live.traced_rx = std::make_unique<TracedChannel>(
            *rx, *opt.tracer, "client.rx_frame", me.current_span, session_id);
        tx = me.live.traced_tx.get();
        rx = me.live.traced_rx.get();
      }
      auto link = std::make_unique<net::ReliableLink>(reactor.queue(), *tx,
                                                      *rx, ccfg.link);
      me.link = link.get();
      return link;
    });
  }

  for (Handset& h : hs) h.client->start();
  const auto all_stopped = [&hs] {
    return std::all_of(hs.begin(), hs.end(), [](const Handset& h) {
      return h.parked || h.finished;
    });
  };
  const auto budget_us = static_cast<net::SimTime>(
      (opt.seconds + kParkGraceS) * 1e6);
  reactor.run_until(all_stopped, budget_us);
  result.wall_s = wall_s() - t0;
  result.cpu_s = process_cpu_s() - client_cpu0;
  result.server_cpu_s = process_cpu_s(opt.server_pid) - server_cpu0;

  // Cut the window into slices at the sampled boundaries; a slice that
  // started but was not sampled to its end (stuck run) is dropped.
  for (std::size_t k = 1; k < samples.size(); ++k) {
    Slice slice;
    slice.wall_s = samples[k].wall - samples[k - 1].wall;
    const double ticks = samples[k].ticks.total - samples[k - 1].ticks.total;
    slice.steal_share =
        ticks > 0 ? (samples[k].ticks.steal - samples[k - 1].ticks.steal) /
                        ticks
                  : 0;
    for (const Completion& c : completions) {
      if (c.wall < samples[k - 1].wall || c.wall >= samples[k].wall) continue;
      ++slice.sessions;
      if (c.echo_ok)
        slice.bytes_echoed += static_cast<std::uint64_t>(w.payload_bytes) *
                              static_cast<std::uint64_t>(w.payloads_per_session);
      slice.latencies_us.push_back(c.handshake_us);
    }
    result.slices.push_back(std::move(slice));
  }
  std::vector<Slice> merged;
  for (Slice& slice : result.slices) {
    if (merged.empty() || merged.back().sessions >= kMinSliceSessions)
      merged.push_back(std::move(slice));
    else
      absorb(merged.back(), slice);
  }
  // A short tail joins the slice before it.
  if (merged.size() > 1 && merged.back().sessions < kMinSliceSessions) {
    absorb(merged[merged.size() - 2], merged.back());
    merged.pop_back();
  }
  result.slices = std::move(merged);

  std::vector<crypto::ConstBytes> digests;
  for (Handset& h : hs) {
    if (h.link) add_link_stats(result.links, h.link->stats());
    if (opt.tracer && h.session_span >= 0) opt.tracer->close(h.session_span);

    const auto& records = h.client->sessions();
    std::size_t full = 0;
    for (std::size_t k = 0; k < records.size(); ++k) {
      const server::SessionRecord& r = records[k];
      // A parked client's last record never reached the wire.
      if (h.parked && k + 1 == records.size() && r.attempts == 1) continue;
      ++result.sessions_attempted;
      if (!r.echo_ok) ++result.echo_mismatches;
      if (r.failed || !r.echo_ok || r.refused_attempts > 0 || !r.completed)
        ++result.sessions_failed;
      if (!r.completed) continue;
      ++result.sessions_completed;
      result.handshake_latencies_us.push_back(
          static_cast<double>(r.handshake_latency_us));
      r.resumed ? ++result.resumed_sessions : ++full;
    }
    result.full_per_client.push_back(full);
    if (!h.prefix_digest.empty()) digests.push_back(h.prefix_digest);
  }
  if (digests.size() == hs.size())
    result.prefix_digest = server::fold_fleet_digest(digests);
  for (Handset& h : hs) {
    h.client.reset();
    retire(h.retired);
    retire(h.live);
  }
  result.arena.allocations = arena.stats().allocations;
  result.arena.reserved = kClientReserveSlabs;
  return result;
}

}  // namespace loopbench
