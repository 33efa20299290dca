// DES and Triple-DES (FIPS 46-3). The paper's Section 3.2 workload model is
// built around "3DES for encryption/decryption and SHA for message
// authentication"; DES/3DES are also the bit-permutation-heavy ciphers that
// motivate the ISA-extension discussion in Section 4.2.1.
//
// Two implementations of the same round live here:
//
//   * `Des` / `Des3` run a word-oriented round (des.cpp): swap-move IP/FP,
//     E as shift-and-mask extractions against round keys stored pre-split
//     into 6-bit chunks, and S-then-P as two lookups per S-box into rows of
//     one 64-byte cache line each (DesSboxRow, DesSpreadRow). `Des3` runs
//     EDE as one IP, 48 rounds and one FP. Its CBC decryption runs that
//     round over several independent blocks in lock-step (a multi-lane
//     round): CBC decryption has no dependency from one block to the
//     next, so the lanes' table loads overlap instead of each round
//     waiting on its own. The lanes use the same rows and the same round
//     keys, so every lookup still stays inside one cache line.
//   * The `des_detail` namespace is the bit-serial reference: it
//     deliberately exposes the round structure (key schedule, expansion,
//     S-boxes, permutations) one FIPS table at a time. The attack::dpa
//     module targets the round-1 S-box outputs of this exact structure,
//     which is how differential power analysis is mounted against a real
//     device, and the tests use it as the oracle the fast core must match
//     bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "mapsec/crypto/bytes.hpp"

namespace mapsec::crypto {

namespace des_detail {

/// 16 round subkeys, each 48 bits (in the low bits of the uint64_t).
using KeySchedule = std::array<std::uint64_t, 16>;

/// Derive the 16 round subkeys from an 8-byte key (parity bits ignored).
KeySchedule key_schedule(ConstBytes key8);

/// Reversed schedule, for decryption.
KeySchedule reverse(const KeySchedule& ks);

/// Initial permutation IP applied to a 64-bit block.
std::uint64_t initial_permutation(std::uint64_t block);

/// Final permutation IP^-1.
std::uint64_t final_permutation(std::uint64_t block);

/// Expansion E: 32-bit half-block -> 48 bits.
std::uint64_t expand(std::uint32_t r);

/// The eight 4-bit S-box outputs for a 48-bit value (already XORed with the
/// round subkey). out[0] is S1 (most significant 6 input bits).
std::array<std::uint8_t, 8> sbox_outputs(std::uint64_t x48);

/// Permutation P applied to the concatenated S-box outputs.
std::uint32_t permute_p(std::uint32_t x);

/// Full Feistel function f(R, K) = P(S(E(R) xor K)).
std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey48);

/// Raw S-box lookup: sbox in [0,8), x6 is the 6-bit input. Used by the DPA
/// attack's hypothesis engine.
std::uint8_t sbox(int sbox_index, std::uint8_t x6);

/// The 48-bit round-1 subkey split into eight 6-bit chunks (S1 chunk
/// first). Exposed so tests/attacks can compare recovered key material.
std::array<std::uint8_t, 8> subkey_chunks(std::uint64_t subkey48);

/// Reconstruct a 64-bit DES key (with valid odd parity) from the 56-bit
/// key value laid out in PC-1 order `cd` (C in bits 55..28, D in 27..0).
Bytes key_from_cd(std::uint64_t cd);

/// Inverse of key_schedule round 1: given the 48-bit round-1 subkey and an
/// 8-bit guess for the PC-2-dropped key bits, rebuild the full 64-bit key.
Bytes key_from_round1_subkey(std::uint64_t subkey48, std::uint8_t missing8);

}  // namespace des_detail

/// A lookup row of the word-oriented round: one S-box indexed by its raw
/// 6-bit input. Indices are key- and data-dependent, so a row is exactly
/// one cache line and a lookup touches no line that depends on the index.
struct alignas(64) DesSboxRow {
  std::uint8_t out[64];
};

/// A lookup row of the word-oriented round: permutation P applied to each
/// 4-bit output of one S-box, placed in that S-box's nibble. One cache line.
struct alignas(64) DesSpreadRow {
  std::uint32_t word[16];
};

/// Single DES over 8-byte blocks. Kept available (despite its 56-bit key)
/// because SSL 3.0 export suites and the paper's cipher inventory include
/// it; prefer Des3 in new designs.
class Des {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;

  explicit Des(ConstBytes key8);

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// The encryption subkeys in des_detail::key_schedule form.
  des_detail::KeySchedule schedule() const;

 private:
  friend class Des3;

  /// One round subkey split into its eight 6-bit chunks, one per byte, in
  /// the bit positions where the round's E extraction leaves them: S1, S3,
  /// S5, S7 from the top byte down in `s1357`, S2, S4, S6, S8 in `s2468`.
  struct RoundKey {
    std::uint32_t s1357;
    std::uint32_t s2468;
  };

  /// The 16 rounds on IP'd halves (L0, R0), ending with the half swap, so
  /// (l, r) leave as the FP input -- or as the next DES's IP output. Runs
  /// `N` independent blocks (lanes) in lock-step, round by round.
  template <bool Decrypt, std::size_t N>
  void rounds(std::uint32_t (&l)[N], std::uint32_t (&r)[N]) const;

  std::array<RoundKey, 16> rk_;
};

/// Triple-DES EDE. Accepts a 24-byte key (3-key) or a 16-byte key
/// (2-key, K3 = K1).
class Des3 {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 24;

  explicit Des3(ConstBytes key16or24);

  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// CBC-decrypt `nblocks` whole blocks of `data` in place, chaining from
  /// the 8-byte `iv` (no padding handling). Output equals decrypt_block
  /// per block XOR the previous ciphertext; full groups of kCbcLanes
  /// blocks run the multi-lane round, the remainder runs decrypt_block.
  void cbc_decrypt(const std::uint8_t* iv, std::uint8_t* data,
                   std::size_t nblocks) const;

  /// Blocks decrypted in lock-step by cbc_decrypt. Fixed: picked from a
  /// lane sweep (EXPERIMENTS.md E27), not a tuning knob.
  static constexpr std::size_t kCbcLanes = 4;

 private:
  Des k1_, k2_, k3_;
};

}  // namespace mapsec::crypto
