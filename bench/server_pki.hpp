// Shared bench PKI: one deterministic RSA-512 certificate world used by
// bench_server_load (the in-process scenarios, E26's socket fleets
// included), bench_socket_load_gen and `session_server --listen`. The
// load generator and the listening server never exchange key material —
// both derive the identical CA / server identity from the same seeded
// rng, so the generator's trusted root verifies the server's certificate
// chain by construction.
#pragma once

#include <utility>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"

namespace mapsec::bench {

constexpr std::uint64_t kPkiNow = 1'050'000'000;  // ~2003

struct Pki {
  crypto::RsaKeyPair ca_key;
  crypto::RsaKeyPair server_key;
  protocol::CertificateAuthority ca;
  protocol::Certificate server_cert;

  // RSA-512 identities: the relative full-vs-resumed shape is what the
  // serving benches are after, and short keys keep the harness
  // re-runnable in seconds.
  static Pki make() {
    crypto::HmacDrbg rng(0xE18);
    crypto::RsaKeyPair ca_key = crypto::rsa_generate(rng, 512);
    crypto::RsaKeyPair server_key = crypto::rsa_generate(rng, 512);
    protocol::CertificateAuthority ca("BenchRoot", ca_key, 0, kPkiNow * 2);
    protocol::Certificate cert =
        ca.issue("server.bench", server_key.pub, 0, kPkiNow * 2);
    return Pki{std::move(ca_key), std::move(server_key), std::move(ca),
               std::move(cert)};
  }
};

inline server::ServerConfig pki_server_config(const Pki& pki) {
  server::ServerConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.cert_chain = {pki.server_cert};
  cfg.handshake.private_key = &pki.server_key.priv;
  return cfg;
}

inline server::ClientConfig pki_client_config(const Pki& pki) {
  server::ClientConfig cfg;
  cfg.handshake.now = kPkiNow;
  cfg.handshake.trusted_roots = {pki.ca.root()};
  cfg.handshake.offered_suites = {protocol::CipherSuite::kRsaAes128CbcSha};
  return cfg;
}

}  // namespace mapsec::bench
