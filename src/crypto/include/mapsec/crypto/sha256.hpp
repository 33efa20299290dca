// SHA-256 (FIPS 180-2). Not one of the paper's 2003-era workload hashes,
// but required by the secure-platform layer (boot-image digests, HMAC-DRBG,
// key-store sealing) where a modern collision-resistant hash is the right
// engineering choice.
#pragma once

#include <array>
#include <cstdint>

#include "mapsec/crypto/bytes.hpp"

namespace mapsec::crypto {

/// Incremental SHA-256 with the same streaming interface as Sha1.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() { reset(); }

  void reset();
  void update(ConstBytes data);
  Bytes finish();

  /// Allocation-free finalisation: writes kDigestSize bytes to `out`.
  void finish_into(std::uint8_t* out);

  /// One-shot digest of `data`.
  static Bytes hash(ConstBytes data);

  /// Allocation-free one-shot digest: writes kDigestSize bytes to `out`.
  static void hash_into(ConstBytes data, std::uint8_t* out);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> h_{};
  std::array<std::uint8_t, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace mapsec::crypto
