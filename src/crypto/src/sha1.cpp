#include "mapsec/crypto/sha1.hpp"

#include <cstring>

#include "kernels.hpp"

namespace mapsec::crypto {

namespace dispatch {

// The pre-dispatch compression loop, now the scalar kernel.
void sha1_compress_scalar(std::uint32_t state[5], const std::uint8_t* blocks,
                          std::size_t nblocks) {
  while (nblocks--) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 80; ++i)
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    blocks += 64;
  }
}

}  // namespace dispatch

void Sha1::reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  dispatch::sha1_compress()(h_.data(), block, 1);
}

void Sha1::update(ConstBytes data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    // An empty span may carry a null pointer, which memcpy must not see.
    if (take > 0) std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  // All whole blocks in one dispatched call: the active backend keeps the
  // chaining state in registers across the entire span.
  const std::size_t nblocks = (data.size() - off) / kBlockSize;
  if (nblocks > 0) {
    dispatch::sha1_compress()(h_.data(), data.data() + off, nblocks);
    off += nblocks * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Sha1::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad directly in the block buffer: 0x80, zeros to byte 56, be64 length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_be64(buf_.data() + 56, bit_len);
  process_block(buf_.data());
  buf_len_ = 0;

  for (int i = 0; i < 5; ++i) store_be32(out + 4 * i, h_[i]);
}

Bytes Sha1::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes Sha1::hash(ConstBytes data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

void Sha1::hash_into(ConstBytes data, std::uint8_t* out) {
  Sha1 h;
  h.update(data);
  h.finish_into(out);
}

}  // namespace mapsec::crypto
