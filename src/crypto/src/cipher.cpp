#include "mapsec/crypto/cipher.hpp"

#include <cstring>
#include <stdexcept>

namespace mapsec::crypto {

namespace {

// Large enough for every cipher in the library (DES/RC2: 8, AES: 16).
constexpr std::size_t kMaxBlockSize = 32;

}  // namespace

void BlockCipher::cbc_decrypt_blocks(const std::uint8_t* iv,
                                     std::uint8_t* data,
                                     std::size_t nblocks) const {
  const std::size_t bs = block_size();
  if (bs > kMaxBlockSize)
    throw std::invalid_argument("cbc_decrypt: block size too large");
  std::uint8_t chain[kMaxBlockSize];
  std::uint8_t saved[kMaxBlockSize];
  std::memcpy(chain, iv, bs);
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::uint8_t* blk = data + b * bs;
    std::memcpy(saved, blk, bs);  // ciphertext block, needed as next chain
    decrypt_block(blk, blk);
    for (std::size_t i = 0; i < bs; ++i) blk[i] ^= chain[i];
    std::memcpy(chain, saved, bs);
  }
}

std::size_t cbc_encrypt_into(const BlockCipher& cipher, ConstBytes iv,
                             ConstBytes plaintext,
                             std::span<std::uint8_t> out) {
  const std::size_t bs = cipher.block_size();
  if (iv.size() != bs) throw std::invalid_argument("cbc_encrypt: bad IV size");
  if (bs > kMaxBlockSize)
    throw std::invalid_argument("cbc_encrypt: block size too large");
  const std::size_t total = cbc_padded_len(plaintext.size(), bs);
  if (out.size() < total)
    throw std::invalid_argument("cbc_encrypt_into: output buffer too small");
  const std::uint8_t pad =
      static_cast<std::uint8_t>(total - plaintext.size());

  const std::uint8_t* chain = iv.data();
  for (std::size_t off = 0; off < total; off += bs) {
    // Assemble the padded plaintext block xor chain directly in `out`,
    // then encrypt it in place (every cipher here reads its input into
    // locals before writing, so in == out is safe).
    std::uint8_t* blk = out.data() + off;
    for (std::size_t i = 0; i < bs; ++i) {
      const std::size_t pos = off + i;
      const std::uint8_t p =
          pos < plaintext.size() ? plaintext[pos] : pad;
      blk[i] = static_cast<std::uint8_t>(p ^ chain[i]);
    }
    cipher.encrypt_block(blk, blk);
    chain = blk;
  }
  return total;
}

Bytes cbc_encrypt(const BlockCipher& cipher, ConstBytes iv,
                  ConstBytes plaintext) {
  Bytes out(cbc_padded_len(plaintext.size(), cipher.block_size()));
  cbc_encrypt_into(cipher, iv, plaintext, out);
  return out;
}

std::size_t cbc_decrypt_in_place(const BlockCipher& cipher, ConstBytes iv,
                                 std::span<std::uint8_t> data) {
  const std::size_t bs = cipher.block_size();
  if (iv.size() != bs) throw std::invalid_argument("cbc_decrypt: bad IV size");
  if (bs > kMaxBlockSize)
    throw std::invalid_argument("cbc_decrypt: block size too large");
  if (data.empty() || data.size() % bs != 0)
    throw std::runtime_error("cbc_decrypt: ciphertext not a block multiple");

  cipher.cbc_decrypt_blocks(iv.data(), data.data(), data.size() / bs);

  const std::uint8_t pad = data.back();
  if (pad == 0 || pad > bs) throw std::runtime_error("cbc_decrypt: bad padding");
  for (std::size_t i = data.size() - pad; i < data.size(); ++i)
    if (data[i] != pad) throw std::runtime_error("cbc_decrypt: bad padding");
  return data.size() - pad;
}

Bytes cbc_decrypt(const BlockCipher& cipher, ConstBytes iv,
                  ConstBytes ciphertext) {
  Bytes out(ciphertext.begin(), ciphertext.end());
  const std::size_t len = cbc_decrypt_in_place(cipher, iv, out);
  out.resize(len);
  return out;
}

Bytes ecb_encrypt(const BlockCipher& cipher, ConstBytes plaintext) {
  const std::size_t bs = cipher.block_size();
  if (plaintext.size() % bs != 0)
    throw std::invalid_argument("ecb_encrypt: not a block multiple");
  Bytes out(plaintext.size());
  for (std::size_t off = 0; off < plaintext.size(); off += bs)
    cipher.encrypt_block(plaintext.data() + off, out.data() + off);
  return out;
}

Bytes ecb_decrypt(const BlockCipher& cipher, ConstBytes ciphertext) {
  const std::size_t bs = cipher.block_size();
  if (ciphertext.size() % bs != 0)
    throw std::invalid_argument("ecb_decrypt: not a block multiple");
  Bytes out(ciphertext.size());
  for (std::size_t off = 0; off < ciphertext.size(); off += bs)
    cipher.decrypt_block(ciphertext.data() + off, out.data() + off);
  return out;
}

}  // namespace mapsec::crypto
