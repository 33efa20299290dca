// AES-128/192/256 (FIPS 197). The paper's Figure 2 highlights the June 2002
// TLS revision that added AES as the DES replacement; Section 4.1 lists AES
// among the algorithms a mobile crypto foundation must accelerate.
//
// The implementation is the classic 32-bit T-table formulation: SubBytes,
// ShiftRows and MixColumns fused into four 1 KiB lookup tables, one table
// read and one XOR per state byte per round. Key schedules (encryption and
// the InvMixColumns-transformed decryption schedule) are expanded once at
// construction into fixed arrays, so bulk encryption performs no heap
// traffic at all.
//
// `aes_detail` exposes the S-box so the DPA attack module can build
// hypothesis tables against the real implementation.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "mapsec/crypto/bytes.hpp"

namespace mapsec::crypto {

namespace aes_detail {

/// Forward S-box lookup (SubBytes).
std::uint8_t sbox(std::uint8_t x);

/// Inverse S-box lookup.
std::uint8_t inv_sbox(std::uint8_t x);

/// GF(2^8) multiply by x (the `xtime` primitive).
std::uint8_t xtime(std::uint8_t x);

/// General GF(2^8) multiplication (AES polynomial x^8+x^4+x^3+x+1).
std::uint8_t gmul(std::uint8_t a, std::uint8_t b);

}  // namespace aes_detail

/// AES block cipher over 16-byte blocks; key may be 16, 24 or 32 bytes.
/// encrypt_block/decrypt_block accept in == out (in-place operation).
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  explicit Aes(ConstBytes key);

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// CBC-decrypt `nblocks` whole blocks of `data` in place, chaining from
  /// the 16-byte `iv` (no padding handling). Runs the dispatch layer's
  /// multi-block kernel when the backend has one, else decrypt_block.
  void cbc_decrypt(const std::uint8_t* iv, std::uint8_t* data,
                   std::size_t nblocks) const;

  /// Number of rounds (10/12/14 for 128/192/256-bit keys).
  int rounds() const { return rounds_; }

  /// Encryption round keys as 4-byte words (4*(rounds+1) words).
  std::span<const std::uint32_t> round_keys() const {
    return {rk_.data(), 4 * (static_cast<std::size_t>(rounds_) + 1)};
  }

  /// Decryption round keys (equivalent inverse cipher layout: reversed
  /// round order, inner keys InvMixColumns-transformed).
  std::span<const std::uint32_t> dec_round_keys() const {
    return {rkd_.data(), 4 * (static_cast<std::size_t>(rounds_) + 1)};
  }

  /// The same schedules serialized big-endian, 16 bytes per round key —
  /// the layout hardware AES round instructions load directly. Used by
  /// the crypto::dispatch kernels.
  const std::uint8_t* round_key_bytes() const { return rkb_.data(); }
  const std::uint8_t* dec_round_key_bytes() const { return rkdb_.data(); }

 private:
  static constexpr std::size_t kMaxRkWords = 60;  // 4 * (14 + 1)

  int rounds_;
  std::array<std::uint32_t, kMaxRkWords> rk_{};   // encryption schedule
  std::array<std::uint32_t, kMaxRkWords> rkd_{};  // decryption schedule
  std::array<std::uint8_t, 4 * kMaxRkWords> rkb_{};   // rk_ serialized
  std::array<std::uint8_t, 4 * kMaxRkWords> rkdb_{};  // rkd_ serialized
};

}  // namespace mapsec::crypto
