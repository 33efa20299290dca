// Type-erased block-cipher interface plus CBC mode with PKCS#7 padding.
//
// The protocol layer negotiates its bulk cipher at run time (Section 3.1's
// flexibility requirement: an SSL peer must be ready to run 3DES, RC4, RC2,
// DES or AES depending on the agreed suite), so it works against this
// interface rather than the concrete cipher classes.
#pragma once

#include <memory>
#include <span>
#include <type_traits>

#include "mapsec/crypto/aes.hpp"
#include "mapsec/crypto/bytes.hpp"
#include "mapsec/crypto/des.hpp"
#include "mapsec/crypto/rc2.hpp"

namespace mapsec::crypto {

/// Abstract block cipher over fixed-size blocks.
class BlockCipher {
 public:
  virtual ~BlockCipher() = default;
  virtual std::size_t block_size() const = 0;
  virtual void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const = 0;
  virtual void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const = 0;

  /// CBC-decrypt `nblocks` whole blocks of `data` in place, chaining from
  /// `iv` (block_size() bytes; no padding handling). The default is the
  /// serial decrypt_block loop; ciphers with a span-level CBC decryption
  /// (Des3's multi-lane round, AES's dispatch kernel) override it.
  virtual void cbc_decrypt_blocks(const std::uint8_t* iv, std::uint8_t* data,
                                  std::size_t nblocks) const;

  /// Downcast hook for the dispatch layer: when the wrapped cipher is AES
  /// the span-based modes (CTR, CBC-MAC) can hand the whole buffer to a
  /// hardware kernel instead of calling the virtual per-block interface.
  /// Non-AES ciphers return nullptr and take the generic path.
  virtual const Aes* as_aes() const { return nullptr; }
};

/// Wrap any concrete cipher (Des, Des3, Aes, Rc2) in the interface.
template <typename C>
class BlockCipherAdapter final : public BlockCipher {
 public:
  explicit BlockCipherAdapter(C cipher) : cipher_(std::move(cipher)) {}

  std::size_t block_size() const override { return C::kBlockSize; }
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const override {
    cipher_.encrypt_block(in, out);
  }
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const override {
    cipher_.decrypt_block(in, out);
  }
  void cbc_decrypt_blocks(const std::uint8_t* iv, std::uint8_t* data,
                          std::size_t nblocks) const override {
    if constexpr (requires { cipher_.cbc_decrypt(iv, data, nblocks); })
      cipher_.cbc_decrypt(iv, data, nblocks);
    else
      BlockCipher::cbc_decrypt_blocks(iv, data, nblocks);
  }
  const Aes* as_aes() const override {
    if constexpr (std::is_same_v<C, Aes>) return &cipher_;
    return nullptr;
  }

 private:
  C cipher_;
};

/// Convenience factory: wrap a concrete cipher into a unique_ptr interface.
template <typename C>
std::unique_ptr<BlockCipher> make_block_cipher(C cipher) {
  return std::make_unique<BlockCipherAdapter<C>>(std::move(cipher));
}

/// Padded CBC output length for an `n`-byte plaintext (PKCS#7 always adds
/// at least one byte).
constexpr std::size_t cbc_padded_len(std::size_t n, std::size_t block_size) {
  return n + block_size - n % block_size;
}

/// CBC-encrypt `plaintext` with PKCS#7 padding. `iv` must equal the block
/// size. Output length is a whole number of blocks (always >= one block).
Bytes cbc_encrypt(const BlockCipher& cipher, ConstBytes iv, ConstBytes plaintext);

/// Zero-allocation CBC encryption: writes the padded ciphertext into
/// `out` (which must hold >= cbc_padded_len(plaintext.size(), bs) bytes)
/// and returns the number of bytes written. `out` may alias `plaintext`
/// exactly (same data pointer) for in-place operation.
std::size_t cbc_encrypt_into(const BlockCipher& cipher, ConstBytes iv,
                             ConstBytes plaintext, std::span<std::uint8_t> out);

/// CBC-decrypt and strip PKCS#7 padding. Throws std::runtime_error on a
/// malformed length or bad padding.
Bytes cbc_decrypt(const BlockCipher& cipher, ConstBytes iv, ConstBytes ciphertext);

/// Zero-allocation in-place CBC decryption over `data` (whole blocks).
/// Returns the plaintext length after stripping PKCS#7 padding; throws
/// std::runtime_error on a malformed length or bad padding (in which case
/// `data` contents are unspecified).
std::size_t cbc_decrypt_in_place(const BlockCipher& cipher, ConstBytes iv,
                                 std::span<std::uint8_t> data);

/// Raw ECB helpers (whole blocks only); used by tests and key wrapping.
Bytes ecb_encrypt(const BlockCipher& cipher, ConstBytes plaintext);
Bytes ecb_decrypt(const BlockCipher& cipher, ConstBytes ciphertext);

}  // namespace mapsec::crypto
