#include "workload.hpp"

#include <climits>
#include <utility>

#include "mapsec/server/load_gen.hpp"

namespace loopbench {

namespace {

constexpr std::uint64_t kPkiStream = 0x9F1;
constexpr std::uint64_t kTicketStream = 0x71C;

}  // namespace

std::optional<Workload> find_workload(const std::string& name) {
  // Payload shapes are fixed by the workload definitions in README.md.
  if (name == "full_handshake") return Workload{name, false, 256, 1, 8, 3000};
  if (name == "resume_ticket") return Workload{name, true, 256, 1, 8, 6000};
  if (name == "bulk_echo") return Workload{name, false, 4096, 64, 1, 20};
  return std::nullopt;
}

Pki make_pki(std::uint64_t seed, std::uint64_t variant) {
  const std::uint64_t pki_seed = server::load_sub_seed(seed, kPkiStream);
  crypto::HmacDrbg rng(variant == 0
                           ? pki_seed
                           : server::load_sub_seed(pki_seed, variant));
  protocol::CertificateAuthority ca("LoopbenchRoot",
                                    crypto::rsa_generate(rng, 1024), 0,
                                    kPkiNow * 2);
  crypto::RsaKeyPair server_key = crypto::rsa_generate(rng, 1024);
  protocol::Certificate cert =
      ca.issue("server.loopbench", server_key.pub, 0, kPkiNow * 2);
  return Pki{std::move(server_key), ca.root(), std::move(cert)};
}

server::ServerConfig server_config(const Workload& w, const Pki& pki,
                                   std::uint64_t seed) {
  server::ServerConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.cert_chain = {pki.server_cert};
  cfg.handshake.private_key = &pki.server_key.priv;
  cfg.handshake.offered_suites = {protocol::CipherSuite::kRsa3DesEdeCbcSha};
  cfg.ticket.enabled = w.tickets;
  cfg.ticket.key_seed = server::load_sub_seed(seed, kTicketStream);
  return cfg;
}

server::BoundedSessionCache::Config cache_config() {
  // Capacity 0: no session-id resumption. resume_ticket resumes through
  // tickets alone; the other workloads run every handshake in full.
  server::BoundedSessionCache::Config cfg;
  cfg.capacity = 0;
  return cfg;
}

server::SocketFleetConfig fleet_config(std::uint64_t seed) {
  server::SocketFleetConfig cfg;
  cfg.shards = kShards;
  cfg.reserve_slabs_per_shard = 256;
  cfg.seed = seed;
  return cfg;
}

server::ClientConfig client_config(const Workload& w,
                                   const protocol::Certificate& root) {
  server::ClientConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.trusted_roots = {root};
  cfg.handshake.offered_suites = {protocol::CipherSuite::kRsa3DesEdeCbcSha};
  cfg.payload_bytes = w.payload_bytes;
  cfg.payloads_per_session = w.payloads_per_session;
  cfg.think_time_us = 0;
  // Sessions run back to back until the load generator parks the client
  // at its first session boundary after the measuring window.
  cfg.sessions = INT_MAX;
  cfg.use_session_tickets = w.tickets;
  return cfg;
}

std::uint64_t client_seed(std::uint64_t seed, std::size_t i) {
  return server::fleet_client_seed(seed, i);
}

}  // namespace loopbench
