// Bounded session-resumption cache: LRU capacity + TTL expiry.
//
// Resumption is the paper's own remedy for the handshake half of the
// Figure 3 gap — an abbreviated handshake skips the RSA operation a
// MIPS-starved appliance cannot afford per connection. But a server
// "serving heavy traffic from millions of users" cannot keep every
// session forever: the cache must bound memory (LRU eviction) and bound
// the lifetime of resumable master secrets (TTL — a stolen device, the
// paper's Section 2 threat, should not be able to resume a week-old
// session). This cache plugs into TlsServer through the virtual
// protocol::SessionCache interface.
//
// Index structure: session ids are uniformly random 16-byte strings, so
// an ordered tree buys nothing and costs O(log n) full byte-compares per
// probe. The index is a hashed table instead (FNV-1a over the id,
// std::unordered_map), giving O(1) expected probes at the 10k-entry
// scale a busy server holds — bench/server_load.cpp measures the win.
// LRU/TTL semantics and Stats are unchanged from the tree version.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "mapsec/crypto/bytes.hpp"  // crypto::BytesHash
#include "mapsec/net/sim_clock.hpp"
#include "mapsec/protocol/handshake.hpp"

namespace mapsec::server {

class BoundedSessionCache final : public protocol::SessionCache {
 public:
  struct Config {
    std::size_t capacity = 1024;  // max live entries; 0 disables storage
    net::SimTime ttl_us = 0;      // entry lifetime; 0 = no expiry
  };

  struct Stats {
    std::uint64_t insertions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lru_evictions = 0;
    std::uint64_t ttl_evictions = 0;
    /// Misses whose id WAS cached once but had been evicted (LRU or
    /// TTL): the thrash signal — each one is a client that pays a full
    /// RSA handshake because the cache threw its entry away, the
    /// scaling wall stateless tickets remove.
    std::uint64_t hit_after_evict_misses = 0;

    /// Member-wise sum, for aggregating per-shard cache partitions into
    /// one fleet view.
    Stats& operator+=(const Stats& o) {
      insertions += o.insertions;
      hits += o.hits;
      misses += o.misses;
      lru_evictions += o.lru_evictions;
      ttl_evictions += o.ttl_evictions;
      hit_after_evict_misses += o.hit_after_evict_misses;
      return *this;
    }

    double hit_rate() const {
      const auto total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `clock` provides the TTL time base (not owned, must outlive the
  /// cache).
  BoundedSessionCache(const net::EventQueue& clock, Config config)
      : clock_(clock), config_(config) {}

  void store(const crypto::Bytes& session_id, Entry entry) override;

  /// TTL-expired entries are evicted on the read path; a hit refreshes
  /// recency but not the TTL deadline (absolute lifetime, so a secret
  /// cannot be kept resumable indefinitely by steady traffic).
  const Entry* lookup(const crypto::Bytes& session_id) override;

  std::size_t size() const override { return entries_.size(); }
  void clear() override;

  const Stats& stats() const { return stats_; }

  /// Bytes of resumption state the live entries pin (ids, master secret,
  /// node + LRU + index bookkeeping per entry, evicted-id hashes):
  /// O(cached users) — the quantity the ticket key ring's O(depth)
  /// state_bytes() is compared against. Strictly per-entry, never
  /// per-instance, so the sum over N shard partitions equals the single
  /// global cache they replace and empty partitions report 0.
  std::size_t resumption_state_bytes() const;

 private:
  struct Node {
    Entry entry;
    net::SimTime stored_at = 0;
    std::list<crypto::Bytes>::iterator lru_pos;  // into lru_, MRU at front
  };

  bool expired(const Node& node) const;
  void evict_lru();

  const net::EventQueue& clock_;
  Config config_;
  std::unordered_map<crypto::Bytes, Node, crypto::BytesHash> entries_;
  std::list<crypto::Bytes> lru_;  // most recently used first
  /// Hashes of evicted ids, kept to classify later misses as
  /// hit-after-evict. Hashes, not ids: 8 bytes per evicted session
  /// instead of a second copy of the id (a false positive needs an
  /// FNV-1a collision against a random 16-byte id — noise, not signal).
  std::unordered_set<std::uint64_t> evicted_ids_;
  Stats stats_;
};

}  // namespace mapsec::server
