// In-process lockstep replay of a workload's sessions, timed layer by
// layer. The client is a TlsClient, the server a TlsServer in async_pk
// mode, so the private-key operation is a call of its own (run_pk_job)
// between step_handshake and resume_pk. Flights and records cross a
// FrameCodec framing step; the server's echo is sealed by the
// PacketPipeline's ccmp-out program and opened by the client's
// ProtocolEngine ccmp-in program, as on the socket path.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "loopbench.hpp"
#include "mapsec/analysis/stats.hpp"
#include "mapsec/engine/packet_pipeline.hpp"
#include "mapsec/net/frame_codec.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/server/wire.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace loopbench {

namespace {

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto timed(SpanRecorder& spans, const char* name, int parent,
           std::int64_t session, Fn&& fn) {
  const int id = spans.open(name, parent, session);
  auto out = fn();
  spans.close(id);
  return out;
}

/// Frame a flight or record and cut it out of the byte stream again, as
/// the two ends of a socket connection do.
crypto::Bytes frame_roundtrip(SpanRecorder& spans, int parent,
                              std::int64_t session, crypto::ConstBytes msg) {
  return timed(spans, "net.frame", parent, session, [&] {
    crypto::Bytes stream;
    net::FrameCodec::append_frame(stream, msg);
    const net::FrameCodec::Head head =
        net::FrameCodec::inspect(stream.data(), stream.size(), 0);
    if (head.status != net::FrameCodec::Status::kFrame) return crypto::Bytes{};
    return crypto::Bytes(stream.begin() + net::FrameCodec::kHeaderBytes,
                         stream.end());
  });
}

struct ResumeState {
  crypto::Bytes session_id;
  crypto::Bytes master_secret;
  protocol::CipherSuite suite = protocol::CipherSuite::kRsa3DesEdeCbcSha;
  crypto::Bytes ticket;
};

class Replayer {
 public:
  Replayer(const Workload& w, std::uint64_t seed, const Pki& pki,
           SpanRecorder& spans)
      : w_(w),
        spans_(spans),
        server_cfg_(server_config(w, pki, seed)),
        client_cfg_(client_config(w, pki.root)),
        server_rng_(server::fleet_server_seed(seed)),
        engine_rng_(server::fleet_engine_seed(seed)),
        payload_rng_(server::load_sub_seed(seed, 0x9A7)),
        pipeline_(server_cfg_.engine_profile, 1, server_cfg_.pipeline_seed),
        engine_(server_cfg_.engine_profile, &engine_rng_) {
    pipeline_.load_program("ccmp-out", engine::ccmp_outbound_program());
    engine_.load_program("ccmp-in", engine::ccmp_inbound_program());
    if (w.tickets) {
      ring_.emplace(server_cfg_.ticket.key_seed,
                    ticket::TicketKeyRing::Config{
                        server_cfg_.ticket.decrypt_window, 0},
                    0);
      codec_.emplace(*ring_);
    }
    for (std::size_t i = 0; i < kConnections; ++i) {
      client_rngs_.push_back(
          std::make_unique<crypto::HmacDrbg>(client_seed(seed, i)));
    }
    resume_.resize(kConnections);
  }

  /// One session of handset `i`; returns false on an echo mismatch.
  bool session(std::size_t i, std::int64_t sid) {
    const int root = spans_.open("replay.session", -1, sid);
    protocol::HandshakeConfig ccfg = client_cfg_.handshake;
    ccfg.rng = client_rngs_[i].get();
    ccfg.request_session_ticket = w_.tickets;
    protocol::TlsClient client(ccfg);
    if (const auto& r = resume_[i]) {
      if (w_.tickets && !r->ticket.empty())
        client.set_resume_ticket(r->ticket, r->master_secret, r->suite);
      else
        client.set_resume_session(r->session_id, r->master_secret, r->suite);
    }
    protocol::HandshakeConfig scfg = server_cfg_.handshake;
    scfg.rng = &server_rng_;
    scfg.async_pk = true;
    if (codec_) scfg.ticket_codec = &*codec_;
    protocol::TlsServer server(scfg, nullptr);

    const int hs = spans_.open("replay.handshake", root, sid);
    crypto::Bytes to_server = timed(spans_, "client.step_handshake", hs, sid, [&] {
      return protocol::step_handshake(client, {}).output;
    });
    for (int rounds = 0;
         !(client.established() && server.established()) && rounds < 8;
         ++rounds) {
      const crypto::Bytes in = frame_roundtrip(spans_, hs, sid, to_server);
      crypto::Bytes reply = timed(spans_, "server.step_handshake", hs, sid, [&] {
        return protocol::step_handshake(server, in).output;
      });
      while (server.pk_pending()) {
        const protocol::PkResult result =
            timed(spans_, "crypto.run_pk_job", hs, sid, [&] {
              return protocol::run_pk_job(server.pending_pk_job());
            });
        const crypto::Bytes more =
            timed(spans_, "server.resume_pk", hs, sid,
                  [&] { return server.resume_pk(result); });
        reply.insert(reply.end(), more.begin(), more.end());
      }
      if (reply.empty()) break;
      const crypto::Bytes back = frame_roundtrip(spans_, hs, sid, reply);
      to_server = timed(spans_, "client.step_handshake", hs, sid, [&] {
        return protocol::step_handshake(client, back).output;
      });
    }
    spans_.close(hs);
    bool ok = client.established() && server.established();
    if (ok) {
      resumed_[sid] = server.summary().resumed;
      resume_[i] = ResumeState{client.summary().session_id,
                               client.master_secret(), client.summary().suite,
                               client.session_ticket()};
      ok = echo(client, server, sid, root);
    }
    spans_.close(root);
    return ok;
  }

  const std::map<std::int64_t, bool>& resumed() const { return resumed_; }

 private:
  bool echo(protocol::TlsClient& client, protocol::TlsServer& server,
            std::int64_t sid, int root) {
    const auto wire_id = static_cast<std::uint32_t>(++sessions_);
    pipeline_.add_sa(wire_id, server::make_bulk_sa(
                                  wire_id, server::derive_bulk_keys(
                                               server.master_secret(),
                                               server.summary().session_id)));
    std::vector<crypto::Bytes> sent;
    std::vector<engine::PipelineJob> jobs;
    for (int k = 0; k < w_.payloads_per_session; ++k) {
      sent.push_back(payload_rng_.bytes(w_.payload_bytes));
      const crypto::Bytes record = timed(spans_, "protocol.record_seal", root,
                                         sid, [&] {
                                           return client.send_data(sent.back());
                                         });
      const crypto::Bytes in = frame_roundtrip(spans_, root, sid, record);
      const std::vector<crypto::Bytes> opened =
          timed(spans_, "protocol.record_open", root, sid,
                [&] { return server.recv_data(in); });
      for (const crypto::Bytes& p : opened) {
        engine::PipelineJob job;
        job.sa_id = wire_id;
        job.program = "ccmp-out";
        job.packet = server::bulk_header(wire_id, static_cast<std::uint32_t>(
                                                      jobs.size() + 1));
        job.packet.insert(job.packet.end(), p.begin(), p.end());
        jobs.push_back(std::move(job));
      }
    }
    const std::vector<engine::PipelineResult> sealed =
        timed(spans_, "engine.ccm_seal", root, sid,
              [&] { return pipeline_.run_batch(jobs); });
    if (sealed.size() != sent.size()) return false;
    const server::BulkKeys keys = server::derive_bulk_keys(
        client.master_secret(), client.summary().session_id);
    engine::EngineSa sa = server::make_bulk_sa(wire_id, keys);
    bool ok = true;
    for (std::size_t k = 0; k < sealed.size(); ++k) {
      crypto::Bytes body = sealed[k].header;
      body.insert(body.end(), sealed[k].payload.begin(),
                  sealed[k].payload.end());
      const crypto::Bytes in = frame_roundtrip(spans_, root, sid, body);
      const engine::ProtocolEngine::Result r =
          timed(spans_, "engine.ccm_open", root, sid, [&] {
            return engine_.run("ccmp-in", sa, in, engine_rng_);
          });
      ok = ok && sealed[k].accepted && r.accepted && r.payload == sent[k];
    }
    return ok;
  }

  const Workload& w_;
  SpanRecorder& spans_;
  server::ServerConfig server_cfg_;
  server::ClientConfig client_cfg_;
  crypto::HmacDrbg server_rng_;
  crypto::HmacDrbg engine_rng_;
  crypto::HmacDrbg payload_rng_;
  engine::PacketPipeline pipeline_;
  engine::ProtocolEngine engine_;
  std::optional<ticket::TicketKeyRing> ring_;
  std::optional<ticket::TicketCodec> codec_;
  std::vector<std::unique_ptr<crypto::HmacDrbg>> client_rngs_;
  std::vector<std::optional<ResumeState>> resume_;
  std::map<std::int64_t, bool> resumed_;  // by session id
  std::uint32_t sessions_ = 0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

ReplayResult run_replay(const Workload& w, std::uint64_t seed,
                        const Pki& pki, double seconds, SpanRecorder& spans) {
  const std::size_t first_span = spans.spans().size();
  Replayer replayer(w, seed, pki, spans);
  ReplayResult out;
  // Whole rounds over the handsets until the budget is spent; ticket
  // workloads need a second round to see a resumption.
  const double deadline = wall_s() + seconds;
  const int min_rounds = w.tickets ? 2 : 1;
  std::int64_t round = 0;
  for (; round < min_rounds || wall_s() < deadline; ++round) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      const std::int64_t sid =
          static_cast<std::int64_t>(i) * 1'000'000 + round;
      out.echo_ok = replayer.session(i, sid);
      if (!out.echo_ok) return out;
    }
  }

  // Fold the spans per session and per layer.
  struct PerSession {
    double server_hs_ns = 0;
    double client_hs_ns = 0;
  };
  std::map<std::int64_t, PerSession> per_session;
  std::vector<double> pk_ns;
  std::vector<double> seal_ns;
  std::vector<double> open_ns;
  double ccm_seal_ns = 0;
  double ccm_open_ns = 0;
  const auto& all = spans.spans();
  for (std::size_t k = first_span; k < all.size(); ++k) {
    const Span& s = all[k];
    const auto ns = static_cast<double>(s.end_ns - s.start_ns);
    const std::string name = s.name;
    if (name == "server.step_handshake" || name == "server.resume_pk")
      per_session[s.session].server_hs_ns += ns;
    else if (name == "client.step_handshake")
      per_session[s.session].client_hs_ns += ns;
    else if (name == "crypto.run_pk_job")
      pk_ns.push_back(ns);
    else if (name == "protocol.record_seal")
      seal_ns.push_back(ns);
    else if (name == "protocol.record_open")
      open_ns.push_back(ns);
    else if (name == "engine.ccm_seal")
      ccm_seal_ns += ns;
    else if (name == "engine.ccm_open")
      ccm_open_ns += ns;
  }
  std::vector<double> server_full, server_resumed, client_full,
      client_resumed;
  for (const auto& [sid, resumed] : replayer.resumed()) {
    const PerSession& ps = per_session[sid];
    (resumed ? server_resumed : server_full).push_back(ps.server_hs_ns / 1e3);
    (resumed ? client_resumed : client_full).push_back(ps.client_hs_ns / 1e3);
  }
  out.pk_op_us = analysis::percentile(pk_ns, 0.5) / 1e3;
  out.server_full_handshake_us = mean(server_full);
  out.server_resumed_handshake_us = mean(server_resumed);
  out.client_full_handshake_us = mean(client_full);
  out.client_resumed_handshake_us = mean(client_resumed);
  out.record_seal_us = mean(seal_ns) / 1e3;
  out.record_open_us = mean(open_ns) / 1e3;
  const double bytes = static_cast<double>(open_ns.size()) *
                       static_cast<double>(w.payload_bytes);
  if (bytes > 0) {
    double open_total = 0;
    for (double x : open_ns) open_total += x;
    out.record_open_ns_per_byte = open_total / bytes;
    out.ccm_seal_ns_per_byte = ccm_seal_ns / bytes;
    out.ccm_open_ns_per_byte = ccm_open_ns / bytes;
  }
  return out;
}

}  // namespace loopbench
