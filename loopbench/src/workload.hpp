// Workload definitions shared by the server child, the load generator and
// the in-process replay: the three traffic mixes, the seed-derived PKI and
// the server/client configurations built from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "mapsec/crypto/rsa.hpp"
#include "mapsec/protocol/cert.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"
#include "mapsec/server/socket_fleet.hpp"

namespace loopbench {

using namespace mapsec;

constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 4;  // closed-loop handsets
constexpr std::uint64_t kPkiNow = 1'050'000'000;  // certificate clock, ~2003

struct Workload {
  std::string name;
  bool tickets = false;          // stateless resumption on
  std::size_t payload_bytes = 0;
  int payloads_per_session = 0;
  /// Sessions per connection folded into the timing-independent digest:
  /// the per-client transcript digest is snapshotted after this many.
  int digest_sessions = 0;
  /// Sessions per measuring window: the server keeps every connection it
  /// served, so a fixed count keeps its memory and per-session cost the
  /// same whatever the rate.
  std::size_t window_sessions = 0;
};

/// nullopt for an unknown name.
std::optional<Workload> find_workload(const std::string& name);

/// Seed-derived identities: an RSA-1024 CA and an RSA-1024 server key.
struct Pki {
  crypto::RsaKeyPair server_key;
  protocol::Certificate root;
  protocol::Certificate server_cert;
};
/// Variant 0 is the identity the fleet serves with. The others exist to
/// time set-up over several prime searches, whose length depends on the
/// seed.
Pki make_pki(std::uint64_t seed, std::uint64_t variant = 0);

server::ServerConfig server_config(const Workload& w, const Pki& pki,
                                   std::uint64_t seed);
server::BoundedSessionCache::Config cache_config();
server::SocketFleetConfig fleet_config(std::uint64_t seed);
server::ClientConfig client_config(const Workload& w,
                                   const protocol::Certificate& root);

/// Seed of handset `i` (same derivation as the repo's load generators).
std::uint64_t client_seed(std::uint64_t seed, std::size_t i);

}  // namespace loopbench
