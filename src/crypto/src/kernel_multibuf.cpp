// Multi-buffer AES kernels: independent streams interleaved so each
// stream's serial dependency chain overlaps the others'. Four CBC-MAC
// chains (inherently serial per lane) or four CTR keystreams advance in
// lockstep rounds; aesenc has multi-cycle latency but single-cycle
// throughput, so independent lanes in flight are nearly free. Each lane
// keeps its own key schedule — records from different connections batch
// together.
//
// Compiled with -maes -mssse3 -msse4.1 on x86; elsewhere the table reports
// kHaveAesMbNi = false and is never selected.
#include "kernels.hpp"

#if defined(__AES__) && defined(__SSSE3__) && defined(__SSE4_1__)

#include <immintrin.h>

#include <cstring>

namespace mapsec::crypto::dispatch {

namespace {

inline __m128i rk_mb(const AesSchedule& s, int round) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(s.bytes + 16 * round));
}

inline __m128i encrypt_one_mb(const AesSchedule& s, __m128i b) {
  b = _mm_xor_si128(b, rk_mb(s, 0));
  for (int r = 1; r < s.rounds; ++r) b = _mm_aesenc_si128(b, rk_mb(s, r));
  return _mm_aesenclast_si128(b, rk_mb(s, s.rounds));
}

inline void ctr_increment_mb(std::uint8_t counter[16]) {
  for (int i = 16; i-- > 0;) {
    if (++counter[i] != 0) break;
  }
}

/// Four CBC-MAC chains in lockstep rounds. All four schedules must share
/// one round count (callers batch AES-128 records, rounds == 10).
void cbc_mac_x4(const AesSchedule* s, std::uint8_t* const* states,
                const std::uint8_t* const* data, std::size_t nblocks) {
  __m128i st0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[1]));
  __m128i st2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[2]));
  __m128i st3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(states[3]));
  const int rounds = s[0].rounds;
  for (std::size_t i = 0; i < nblocks; ++i) {
    st0 = _mm_xor_si128(st0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 data[0] + 16 * i)));
    st1 = _mm_xor_si128(st1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 data[1] + 16 * i)));
    st2 = _mm_xor_si128(st2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 data[2] + 16 * i)));
    st3 = _mm_xor_si128(st3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 data[3] + 16 * i)));
    st0 = _mm_xor_si128(st0, rk_mb(s[0], 0));
    st1 = _mm_xor_si128(st1, rk_mb(s[1], 0));
    st2 = _mm_xor_si128(st2, rk_mb(s[2], 0));
    st3 = _mm_xor_si128(st3, rk_mb(s[3], 0));
    for (int r = 1; r < rounds; ++r) {
      st0 = _mm_aesenc_si128(st0, rk_mb(s[0], r));
      st1 = _mm_aesenc_si128(st1, rk_mb(s[1], r));
      st2 = _mm_aesenc_si128(st2, rk_mb(s[2], r));
      st3 = _mm_aesenc_si128(st3, rk_mb(s[3], r));
    }
    st0 = _mm_aesenclast_si128(st0, rk_mb(s[0], rounds));
    st1 = _mm_aesenclast_si128(st1, rk_mb(s[1], rounds));
    st2 = _mm_aesenclast_si128(st2, rk_mb(s[2], rounds));
    st3 = _mm_aesenclast_si128(st3, rk_mb(s[3], rounds));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(states[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(states[1]), st1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(states[2]), st2);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(states[3]), st3);
}

void cbc_mac_one(const AesSchedule& s, std::uint8_t* state,
                 const std::uint8_t* data, std::size_t nblocks) {
  __m128i st = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  for (std::size_t i = 0; i < nblocks; ++i) {
    st = _mm_xor_si128(
        st, _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)));
    st = encrypt_one_mb(s, st);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), st);
}

void aes_cbc_mac_mb(const AesSchedule* scheds, std::uint8_t* const* states,
                    const std::uint8_t* const* data, std::size_t nlanes,
                    std::size_t nblocks) {
  std::size_t l = 0;
  for (; nlanes - l >= 4; l += 4) {
    if (scheds[l].rounds == scheds[l + 1].rounds &&
        scheds[l].rounds == scheds[l + 2].rounds &&
        scheds[l].rounds == scheds[l + 3].rounds) {
      cbc_mac_x4(scheds + l, states + l, data + l, nblocks);
    } else {
      for (int k = 0; k < 4; ++k)
        cbc_mac_one(scheds[l + k], states[l + k], data[l + k], nblocks);
    }
  }
  for (; l < nlanes; ++l) cbc_mac_one(scheds[l], states[l], data[l], nblocks);
}

void ctr_xor_one(const AesSchedule& s, std::uint8_t counter[16],
                 std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (len - off >= 16) {
    const __m128i ks = encrypt_one_mb(
        s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter)));
    ctr_increment_mb(counter);
    __m128i* d = reinterpret_cast<__m128i*>(data + off);
    _mm_storeu_si128(d, _mm_xor_si128(_mm_loadu_si128(d), ks));
    off += 16;
  }
  if (off < len) {
    std::uint8_t ks[16];
    const __m128i k = encrypt_one_mb(
        s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(counter)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ks), k);
    ctr_increment_mb(counter);
    for (std::size_t i = 0; off + i < len; ++i) data[off + i] ^= ks[i];
  }
}

void aes_ctr_xor_mb(const AesSchedule* scheds, std::uint8_t* const* counters,
                    std::uint8_t* const* data, const std::size_t* lens,
                    std::size_t nlanes) {
  std::size_t l = 0;
  for (; nlanes - l >= 4; l += 4) {
    const bool same_rounds = scheds[l].rounds == scheds[l + 1].rounds &&
                             scheds[l].rounds == scheds[l + 2].rounds &&
                             scheds[l].rounds == scheds[l + 3].rounds;
    // Lockstep over the whole blocks every lane in the group shares, then
    // finish each lane's remainder (and partial tail) single-stream.
    std::size_t common = lens[l] / 16;
    for (int k = 1; k < 4; ++k)
      common = common < lens[l + k] / 16 ? common : lens[l + k] / 16;
    if (!same_rounds) common = 0;
    const int rounds = scheds[l].rounds;
    for (std::size_t b = 0; b < common; ++b) {
      __m128i k0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(counters[l]));
      __m128i k1 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(counters[l + 1]));
      __m128i k2 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(counters[l + 2]));
      __m128i k3 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(counters[l + 3]));
      ctr_increment_mb(counters[l]);
      ctr_increment_mb(counters[l + 1]);
      ctr_increment_mb(counters[l + 2]);
      ctr_increment_mb(counters[l + 3]);
      k0 = _mm_xor_si128(k0, rk_mb(scheds[l], 0));
      k1 = _mm_xor_si128(k1, rk_mb(scheds[l + 1], 0));
      k2 = _mm_xor_si128(k2, rk_mb(scheds[l + 2], 0));
      k3 = _mm_xor_si128(k3, rk_mb(scheds[l + 3], 0));
      for (int r = 1; r < rounds; ++r) {
        k0 = _mm_aesenc_si128(k0, rk_mb(scheds[l], r));
        k1 = _mm_aesenc_si128(k1, rk_mb(scheds[l + 1], r));
        k2 = _mm_aesenc_si128(k2, rk_mb(scheds[l + 2], r));
        k3 = _mm_aesenc_si128(k3, rk_mb(scheds[l + 3], r));
      }
      k0 = _mm_aesenclast_si128(k0, rk_mb(scheds[l], rounds));
      k1 = _mm_aesenclast_si128(k1, rk_mb(scheds[l + 1], rounds));
      k2 = _mm_aesenclast_si128(k2, rk_mb(scheds[l + 2], rounds));
      k3 = _mm_aesenclast_si128(k3, rk_mb(scheds[l + 3], rounds));
      __m128i* d0 = reinterpret_cast<__m128i*>(data[l] + 16 * b);
      __m128i* d1 = reinterpret_cast<__m128i*>(data[l + 1] + 16 * b);
      __m128i* d2 = reinterpret_cast<__m128i*>(data[l + 2] + 16 * b);
      __m128i* d3 = reinterpret_cast<__m128i*>(data[l + 3] + 16 * b);
      _mm_storeu_si128(d0, _mm_xor_si128(_mm_loadu_si128(d0), k0));
      _mm_storeu_si128(d1, _mm_xor_si128(_mm_loadu_si128(d1), k1));
      _mm_storeu_si128(d2, _mm_xor_si128(_mm_loadu_si128(d2), k2));
      _mm_storeu_si128(d3, _mm_xor_si128(_mm_loadu_si128(d3), k3));
    }
    for (int k = 0; k < 4; ++k)
      ctr_xor_one(scheds[l + k], counters[l + k], data[l + k] + common * 16,
                  lens[l + k] - common * 16);
  }
  for (; l < nlanes; ++l)
    ctr_xor_one(scheds[l], counters[l], data[l], lens[l]);
}

}  // namespace

const AesMbKernels kAesMbNi = {"aesni-mb", aes_cbc_mac_mb, aes_ctr_xor_mb};
const bool kHaveAesMbNi = true;

}  // namespace mapsec::crypto::dispatch

#else  // ISA unavailable at compile time: stub table, never selected.

namespace mapsec::crypto::dispatch {
const AesMbKernels kAesMbNi = {"aesni-mb-unavailable", nullptr, nullptr};
const bool kHaveAesMbNi = false;
}  // namespace mapsec::crypto::dispatch

#endif
