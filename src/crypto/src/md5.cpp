#include "mapsec/crypto/md5.hpp"

#include <cstring>

namespace mapsec::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr unsigned kS[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                             7, 12, 17, 22, 5, 9,  14, 20, 5, 9,  14, 20,
                             5, 9,  14, 20, 5, 9,  14, 20, 4, 11, 16, 23,
                             4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                             6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
                             6, 10, 15, 21};

}  // namespace

void Md5::reset() {
  h_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  buf_len_ = 0;
  total_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f = f + a + kK[i] + m[g];
    a = d;
    d = c;
    c = b;
    b = b + rotl32(f, kS[i]);
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
}

void Md5::update(ConstBytes data) {
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
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Md5::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_le64(buf_.data() + 56, bit_len);
  process_block(buf_.data());
  buf_len_ = 0;

  for (int i = 0; i < 4; ++i) store_le32(out + 4 * i, h_[i]);
}

Bytes Md5::finish() {
  Bytes digest(kDigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes Md5::hash(ConstBytes data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

void Md5::hash_into(ConstBytes data, std::uint8_t* out) {
  Md5 h;
  h.update(data);
  h.finish_into(out);
}

}  // namespace mapsec::crypto
