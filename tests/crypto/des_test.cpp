// The word-oriented DES/3DES core against the bit-serial des_detail
// reference: a differential sweep, CBC round trips, a pinned encrypt chain
// and the cache-line shape of the secret-indexed tables.
#include <gtest/gtest.h>

#include <random>

#include "mapsec/crypto/cipher.hpp"
#include "mapsec/crypto/des.hpp"
#include "mapsec/crypto/sha256.hpp"

namespace mapsec::crypto {
namespace {

// Every key- or data-indexed row is one aligned cache line.
static_assert(alignof(DesSboxRow) == 64 && sizeof(DesSboxRow) <= 64);
static_assert(alignof(DesSpreadRow) == 64 && sizeof(DesSpreadRow) <= 64);

// ---- Bit-serial reference, from des_detail ---------------------------------

std::uint64_t ref_des(std::uint64_t block, const des_detail::KeySchedule& ks) {
  block = des_detail::initial_permutation(block);
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  for (int round = 0; round < 16; ++round) {
    const std::uint32_t next_r = l ^ des_detail::feistel(r, ks[round]);
    l = r;
    r = next_r;
  }
  return des_detail::final_permutation((std::uint64_t{r} << 32) | l);
}

struct RefDes3 {
  des_detail::KeySchedule k1, k2, k3;

  explicit RefDes3(const Bytes& key)
      : k1(des_detail::key_schedule({key.data(), 8})),
        k2(des_detail::key_schedule({key.data() + 8, 8})),
        k3(key.size() == 24 ? des_detail::key_schedule({key.data() + 16, 8})
                            : k1) {}

  std::uint64_t encrypt(std::uint64_t x) const {
    return ref_des(ref_des(ref_des(x, k1), des_detail::reverse(k2)), k3);
  }
  std::uint64_t decrypt(std::uint64_t x) const {
    return ref_des(ref_des(ref_des(x, des_detail::reverse(k3)), k2),
                   des_detail::reverse(k1));
  }
};

template <typename C>
std::uint64_t encrypt(const C& cipher, std::uint64_t x) {
  std::uint8_t b[8];
  store_be64(b, x);
  cipher.encrypt_block(b, b);
  return load_be64(b);
}

template <typename C>
std::uint64_t decrypt(const C& cipher, std::uint64_t x) {
  std::uint8_t b[8];
  store_be64(b, x);
  cipher.decrypt_block(b, b);
  return load_be64(b);
}

Bytes random_bytes(std::mt19937_64& gen, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; i += 8) store_be64(out.data() + i, gen());
  return out;
}

// Three sweeps of 34,000 random key/block pairs: 102,000 in all.
constexpr int kPairsPerVariant = 34000;

TEST(DesDifferentialTest, SingleKeyMatchesReference) {
  std::mt19937_64 gen(0xDE5);
  for (int i = 0; i < kPairsPerVariant; ++i) {
    const Bytes key = random_bytes(gen, 8);
    const std::uint64_t block = gen();
    const Des des(key);
    const des_detail::KeySchedule ks = des_detail::key_schedule(key);
    ASSERT_EQ(encrypt(des, block), ref_des(block, ks)) << "pair " << i;
    ASSERT_EQ(decrypt(des, block), ref_des(block, des_detail::reverse(ks)))
        << "pair " << i;
    ASSERT_EQ(des.schedule(), ks) << "pair " << i;
  }
}

void sweep_des3(std::size_t key_len, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  for (int i = 0; i < kPairsPerVariant; ++i) {
    const Bytes key = random_bytes(gen, key_len);
    const std::uint64_t block = gen();
    const Des3 des3(key);
    const RefDes3 ref(key);
    ASSERT_EQ(encrypt(des3, block), ref.encrypt(block)) << "pair " << i;
    ASSERT_EQ(decrypt(des3, block), ref.decrypt(block)) << "pair " << i;
  }
}

TEST(DesDifferentialTest, TwoKeyDes3MatchesReference) { sweep_des3(16, 0x2DE5); }

TEST(DesDifferentialTest, ThreeKeyDes3MatchesReference) {
  sweep_des3(24, 0x3DE5);
}

TEST(DesCbcTest, RoundTripsEveryLengthUpTo4100) {
  std::mt19937_64 gen(0xCBC);
  const auto cipher = make_block_cipher(Des3(random_bytes(gen, 24)));
  const Bytes iv = random_bytes(gen, 8);
  const Bytes msg = random_bytes(gen, 4104);
  for (std::size_t n = 0; n <= 4100; ++n) {
    const ConstBytes pt{msg.data(), n};
    const Bytes ct = cbc_encrypt(*cipher, iv, pt);
    ASSERT_EQ(ct.size(), cbc_padded_len(n, 8)) << "length " << n;
    ASSERT_EQ(cbc_decrypt(*cipher, iv, ct), Bytes(pt.begin(), pt.end()))
        << "length " << n;
  }
}

// x_{i+1} = E(x_i) for 10^4 steps, SHA-256 over every x_i. The digests
// were recorded from the bit-serial core this one replaced.
template <typename C>
std::string chain_digest(const C& cipher) {
  Bytes block = from_hex("0123456789abcdef");
  Sha256 h;
  for (int step = 0; step < 10000; ++step) {
    cipher.encrypt_block(block.data(), block.data());
    h.update(block);
  }
  return to_hex(h.finish());
}

TEST(DesChainTest, TenThousandStepChainsMatchPinnedDigests) {
  EXPECT_EQ(chain_digest(Des(from_hex("133457799bbcdff1"))),
            "4216df8e50586ff9bd75e82e99d4a0bb9a9d5ab977fed96e6b48ccb1a1f98514");
  EXPECT_EQ(chain_digest(Des3(from_hex("0123456789abcdef23456789abcdef01"))),
            "1fd6b0268c3a12f63380d2b9d62f6314e42ab38c758623066a556714a58e33a8");
  EXPECT_EQ(chain_digest(Des3(from_hex(
                "0123456789abcdef23456789abcdef01456789abcdef0123"))),
            "d34e11cc8e84e72ab21b6a43ecc05705814305a1f35ded10c3122b2fcb8a0efa");
}

}  // namespace
}  // namespace mapsec::crypto
