#include "mapsec/crypto/des.hpp"

#include <stdexcept>
#include <utility>

namespace mapsec::crypto {

namespace des_detail {

namespace {

// All tables use the FIPS 46-3 convention: bit 1 is the most significant
// bit of the value.

constexpr int kIP[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFP[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26,
                        5,  18, 31, 10, 2,  8,  24, 14, 32, 27, 3,  9,
                        19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPC1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34,
                          26, 18, 10, 2,  59, 51, 43, 35, 27, 19, 11, 3,
                          60, 52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7,
                          62, 54, 46, 38, 30, 22, 14, 6,  61, 53, 45, 37,
                          29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPC2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Generic bit permutation: `table[i]` selects the table[i]-th bit
// (1 = MSB of an `in_bits`-wide value) for output bit i (MSB first).
template <int OutBits>
constexpr std::uint64_t permute(std::uint64_t in, const int* table,
                                int in_bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < OutBits; ++i) {
    const int src = table[i];
    const std::uint64_t bit = (in >> (in_bits - src)) & 1u;
    out = (out << 1) | bit;
  }
  return out;
}

std::uint32_t rot28(std::uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0FFFFFFFu;
}

}  // namespace

KeySchedule key_schedule(ConstBytes key8) {
  if (key8.size() != 8) throw std::invalid_argument("DES key must be 8 bytes");
  const std::uint64_t key = load_be64(key8.data());
  const std::uint64_t cd0 = permute<56>(key, kPC1, 64);
  std::uint32_t c = static_cast<std::uint32_t>(cd0 >> 28);
  std::uint32_t d = static_cast<std::uint32_t>(cd0 & 0x0FFFFFFFu);
  KeySchedule ks{};
  for (int round = 0; round < 16; ++round) {
    c = rot28(c, kShifts[round]);
    d = rot28(d, kShifts[round]);
    const std::uint64_t cd = (std::uint64_t{c} << 28) | d;
    ks[round] = permute<48>(cd, kPC2, 56);
  }
  return ks;
}

KeySchedule reverse(const KeySchedule& ks) {
  KeySchedule r{};
  for (int i = 0; i < 16; ++i) r[i] = ks[15 - i];
  return r;
}

std::uint64_t initial_permutation(std::uint64_t block) {
  return permute<64>(block, kIP, 64);
}

std::uint64_t final_permutation(std::uint64_t block) {
  return permute<64>(block, kFP, 64);
}

std::uint64_t expand(std::uint32_t r) { return permute<48>(r, kE, 32); }

std::uint8_t sbox(int sbox_index, std::uint8_t x6) {
  // Row = outer two bits, column = inner four; flatten to the 64-entry
  // layout above: index = row*16 + col.
  const int row = ((x6 >> 4) & 0x2) | (x6 & 0x1);
  const int col = (x6 >> 1) & 0xF;
  return kSbox[sbox_index][row * 16 + col];
}

std::array<std::uint8_t, 8> sbox_outputs(std::uint64_t x48) {
  std::array<std::uint8_t, 8> out{};
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t chunk =
        static_cast<std::uint8_t>((x48 >> (42 - 6 * i)) & 0x3F);
    out[i] = sbox(i, chunk);
  }
  return out;
}

std::uint32_t permute_p(std::uint32_t x) {
  return static_cast<std::uint32_t>(permute<32>(x, kP, 32));
}

std::uint32_t feistel(std::uint32_t r, std::uint64_t subkey48) {
  const std::uint64_t x = expand(r) ^ subkey48;
  const auto s = sbox_outputs(x);
  std::uint32_t combined = 0;
  for (int i = 0; i < 8; ++i) combined = (combined << 4) | s[i];
  return permute_p(combined);
}

std::array<std::uint8_t, 8> subkey_chunks(std::uint64_t subkey48) {
  std::array<std::uint8_t, 8> out{};
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>((subkey48 >> (42 - 6 * i)) & 0x3F);
  return out;
}

Bytes key_from_cd(std::uint64_t cd) {
  // Invert PC-1: place the 56 key bits back at their original positions,
  // then set odd parity on every byte.
  std::uint64_t key = 0;
  for (int i = 0; i < 56; ++i) {
    const std::uint64_t bit = (cd >> (55 - i)) & 1u;
    key |= bit << (64 - kPC1[i]);
  }
  Bytes out(8);
  store_be64(out.data(), key);
  for (auto& b : out) {
    std::uint8_t v = b & 0xFE;
    int ones = 0;
    for (int k = 1; k < 8; ++k) ones += (v >> k) & 1;
    b = static_cast<std::uint8_t>(v | ((ones % 2 == 0) ? 1 : 0));
  }
  return out;
}

Bytes key_from_round1_subkey(std::uint64_t subkey48, std::uint8_t missing8) {
  // Round 1 rotates C and D left by one before PC-2, so the subkey bits
  // live in rot1(CD). PC-2 drops 8 of the 56 positions; `missing8`
  // enumerates them (bit 0 of missing8 -> first dropped position).
  static constexpr int kDropped[8] = {9, 18, 22, 25, 35, 38, 43, 54};
  std::uint64_t cd_rot = 0;
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t bit = (subkey48 >> (47 - i)) & 1u;
    cd_rot |= bit << (56 - kPC2[i]);
  }
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t bit = (missing8 >> i) & 1u;
    cd_rot |= bit << (56 - kDropped[i]);
  }
  // Undo the round-1 single left rotation of each 28-bit half.
  std::uint32_t c = static_cast<std::uint32_t>(cd_rot >> 28);
  std::uint32_t d = static_cast<std::uint32_t>(cd_rot & 0x0FFFFFFFu);
  c = ((c >> 1) | (c << 27)) & 0x0FFFFFFFu;
  d = ((d >> 1) | (d << 27)) & 0x0FFFFFFFu;
  return key_from_cd((std::uint64_t{c} << 28) | d);
}

}  // namespace des_detail

namespace {

// ---- Word-oriented core ----------------------------------------------------
//
// The cipher proper computes exactly what des_detail's bit-serial functions
// compute (the tests sweep it against them), a word at a time:
//
//   * IP and FP are five swap-moves each (no tables).
//   * E is eight shift-and-mask extractions. E's chunk for S-box i is the
//     six bits of R at positions 4i..4i+5 (FIPS numbering, wrapping 33 to
//     1), so R rotated right by 3 holds the S1/S3/S5/S7 chunks in bits
//     29..24, 21..16, 13..8 and 5..0, and R rotated left by 1 holds the
//     S2/S4/S6/S8 chunks there. Each round key is stored pre-split in the
//     same layout (Des::RoundKey), so one XOR per word adds it.
//   * S then P is two lookups per S-box: the S-box row indexed by the raw
//     6-bit input, then a 16-word row holding P of that 4-bit output in
//     the S-box's nibble. f is the OR of the eight words.
//
// Both kinds of row are built at compile time from kSbox and kP, and each
// is one 64-byte cache line (DesSboxRow, DesSpreadRow). Every key- or
// data-dependent index therefore stays inside one line, as it does in the
// reference kSbox rows; merged 256-byte S-and-P rows would be faster but
// would spread each secret index over four lines.
//
// A round is two dependent loads deep per S-box and each round needs the
// previous one, so one block at a time is bound by load latency, not by
// throughput. Des::rounds therefore takes N blocks (lanes) and runs them
// in lock-step: each round computes the same feistel() for every lane
// before moving on, so the lanes' loads are in flight together. Only the
// schedule of the work changes: every lane indexes the same
// one-line rows with the same kind of 6-bit or 4-bit index, so the
// one-line-per-row property holds for each lookup exactly as in the
// single-block round. Des3::cbc_decrypt is the one multi-lane caller,
// since CBC decryption (unlike CBC encryption) has independent blocks.

static_assert(sizeof(DesSboxRow) == 64 && alignof(DesSboxRow) == 64);
static_assert(sizeof(DesSpreadRow) == 64 && alignof(DesSpreadRow) == 64);

constexpr std::array<DesSboxRow, 8> make_sbox_rows() {
  std::array<DesSboxRow, 8> rows{};
  for (int i = 0; i < 8; ++i) {
    for (int x = 0; x < 64; ++x) {
      const int row = ((x >> 4) & 0x2) | (x & 0x1);
      const int col = (x >> 1) & 0xF;
      rows[i].out[x] = des_detail::kSbox[i][row * 16 + col];
    }
  }
  return rows;
}

constexpr std::array<DesSpreadRow, 8> make_spread_rows() {
  std::array<DesSpreadRow, 8> rows{};
  for (int i = 0; i < 8; ++i) {
    for (std::uint32_t s = 0; s < 16; ++s) {
      rows[i].word[s] = static_cast<std::uint32_t>(des_detail::permute<32>(
          s << (28 - 4 * i), des_detail::kP, 32));
    }
  }
  return rows;
}

constexpr std::array<DesSboxRow, 8> kSboxRows = make_sbox_rows();
constexpr std::array<DesSpreadRow, 8> kSpreadRows = make_spread_rows();

// S-box i then P, for the 6-bit chunk in the low byte of `x` (the byte's
// top two bits are clear, so the index stays below 64).
inline std::uint32_t sp(int i, std::uint32_t x) {
  return kSpreadRows[i].word[kSboxRows[i].out[x & 0xFF]];
}

// f(R, K) for a round key pre-split as in Des::RoundKey.
inline std::uint32_t feistel(std::uint32_t r, std::uint32_t k1357,
                             std::uint32_t k2468) {
  // Masking the two words once leaves every chunk alone in its byte.
  const std::uint32_t x1357 = (rotr32(r, 3) & 0x3F3F3F3Fu) ^ k1357;
  const std::uint32_t x2468 = (rotl32(r, 1) & 0x3F3F3F3Fu) ^ k2468;
  // A balanced OR tree: the eight lookups do not wait on one another.
  return ((sp(0, x1357 >> 24) | sp(1, x2468 >> 24)) |
          (sp(2, x1357 >> 16) | sp(3, x2468 >> 16))) |
         ((sp(4, x1357 >> 8) | sp(5, x2468 >> 8)) |
          (sp(6, x1357) | sp(7, x2468)));
}

// One swap-move: exchange the bits of `a` selected by `mask << n` with the
// bits of `b` selected by `mask`.
inline void swap_move(std::uint32_t& a, std::uint32_t& b, int n,
                      std::uint32_t mask) {
  const std::uint32_t t = ((a >> n) ^ b) & mask;
  b ^= t;
  a ^= t << n;
}

// IP, leaving L0 in `l` and R0 in `r`.
inline void swap_move_ip(std::uint64_t block, std::uint32_t& l,
                         std::uint32_t& r) {
  l = static_cast<std::uint32_t>(block >> 32);
  r = static_cast<std::uint32_t>(block);
  swap_move(l, r, 4, 0x0F0F0F0Fu);
  swap_move(l, r, 16, 0x0000FFFFu);
  swap_move(r, l, 2, 0x33333333u);
  swap_move(r, l, 8, 0x00FF00FFu);
  swap_move(l, r, 1, 0x55555555u);
}

// FP = IP^-1: the same swap-moves in reverse order, on the block (l, r).
inline std::uint64_t swap_move_fp(std::uint32_t l, std::uint32_t r) {
  swap_move(l, r, 1, 0x55555555u);
  swap_move(r, l, 8, 0x00FF00FFu);
  swap_move(r, l, 2, 0x33333333u);
  swap_move(l, r, 16, 0x0000FFFFu);
  swap_move(l, r, 4, 0x0F0F0F0Fu);
  return (std::uint64_t{l} << 32) | r;
}

}  // namespace

Des::Des(ConstBytes key8) {
  const des_detail::KeySchedule ks = des_detail::key_schedule(key8);
  for (int round = 0; round < 16; ++round) {
    const auto c = des_detail::subkey_chunks(ks[round]);
    rk_[round] = {
        (std::uint32_t{c[0]} << 24) | (std::uint32_t{c[2]} << 16) |
            (std::uint32_t{c[4]} << 8) | c[6],
        (std::uint32_t{c[1]} << 24) | (std::uint32_t{c[3]} << 16) |
            (std::uint32_t{c[5]} << 8) | c[7]};
  }
}

des_detail::KeySchedule Des::schedule() const {
  des_detail::KeySchedule ks{};
  for (int round = 0; round < 16; ++round) {
    std::uint64_t k = 0;
    for (int shift = 24; shift >= 0; shift -= 8) {
      k = (k << 6) | ((rk_[round].s1357 >> shift) & 0x3F);
      k = (k << 6) | ((rk_[round].s2468 >> shift) & 0x3F);
    }
    ks[round] = k;
  }
  return ks;
}

template <bool Decrypt, std::size_t N>
void Des::rounds(std::uint32_t (&l)[N], std::uint32_t (&r)[N]) const {
  for (int i = 0; i < 16; i += 2) {
    const RoundKey& k1 = rk_[Decrypt ? 15 - i : i];
    const RoundKey& k2 = rk_[Decrypt ? 14 - i : i + 1];
    for (std::size_t j = 0; j < N; ++j)
      l[j] ^= feistel(r[j], k1.s1357, k1.s2468);
    for (std::size_t j = 0; j < N; ++j)
      r[j] ^= feistel(l[j], k2.s1357, k2.s2468);
  }
  for (std::size_t j = 0; j < N; ++j) std::swap(l[j], r[j]);
}

void Des::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  std::uint32_t l[1], r[1];
  swap_move_ip(load_be64(in), l[0], r[0]);
  rounds<false>(l, r);
  store_be64(out, swap_move_fp(l[0], r[0]));
}

void Des::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  std::uint32_t l[1], r[1];
  swap_move_ip(load_be64(in), l[0], r[0]);
  rounds<true>(l, r);
  store_be64(out, swap_move_fp(l[0], r[0]));
}

namespace {
ConstBytes check_3des_key(ConstBytes key) {
  if (key.size() != 16 && key.size() != 24)
    throw std::invalid_argument("3DES key must be 16 or 24 bytes");
  return key;
}
}  // namespace

Des3::Des3(ConstBytes key)
    : k1_(check_3des_key(key).subspan(0, 8)),
      k2_(key.subspan(8, 8)),
      k3_(key.size() == 24 ? key.subspan(16, 8) : key.subspan(0, 8)) {}

// EDE as one IP, 48 rounds and one FP: the FP ending each inner DES and
// the IP starting the next cancel, leaving only the half swap that
// rounds() already performs.
void Des3::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  std::uint32_t l[1], r[1];
  swap_move_ip(load_be64(in), l[0], r[0]);
  k1_.rounds<false>(l, r);
  k2_.rounds<true>(l, r);
  k3_.rounds<false>(l, r);
  store_be64(out, swap_move_fp(l[0], r[0]));
}

void Des3::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  std::uint32_t l[1], r[1];
  swap_move_ip(load_be64(in), l[0], r[0]);
  k3_.rounds<true>(l, r);
  k2_.rounds<false>(l, r);
  k1_.rounds<true>(l, r);
  store_be64(out, swap_move_fp(l[0], r[0]));
}

void Des3::cbc_decrypt(const std::uint8_t* iv, std::uint8_t* data,
                       std::size_t nblocks) const {
  constexpr std::size_t N = kCbcLanes;
  std::uint64_t chain = load_be64(iv);
  std::size_t b = 0;
  for (; b + N <= nblocks; b += N) {
    std::uint8_t* p = data + b * kBlockSize;
    std::uint64_t c[N];
    std::uint32_t l[N], r[N];
    for (std::size_t j = 0; j < N; ++j) {
      c[j] = load_be64(p + j * kBlockSize);
      swap_move_ip(c[j], l[j], r[j]);
    }
    k3_.rounds<true>(l, r);
    k2_.rounds<false>(l, r);
    k1_.rounds<true>(l, r);
    for (std::size_t j = 0; j < N; ++j) {
      store_be64(p + j * kBlockSize, swap_move_fp(l[j], r[j]) ^ chain);
      chain = c[j];
    }
  }
  for (; b < nblocks; ++b) {
    std::uint8_t* p = data + b * kBlockSize;
    const std::uint64_t c = load_be64(p);
    decrypt_block(p, p);
    store_be64(p, load_be64(p) ^ chain);
    chain = c;
  }
}

}  // namespace mapsec::crypto
