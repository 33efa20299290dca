#include "mapsec/platform/workload.hpp"

#include <stdexcept>

namespace mapsec::platform {

std::string primitive_name(Primitive p) {
  switch (p) {
    case Primitive::kDes: return "DES";
    case Primitive::kDes3: return "3DES";
    case Primitive::kAes128: return "AES-128";
    case Primitive::kRc4: return "RC4";
    case Primitive::kRc2: return "RC2";
    case Primitive::kSha1: return "SHA-1";
    case Primitive::kMd5: return "MD5";
    case Primitive::kSha256: return "SHA-256";
    case Primitive::kRsa512Private: return "RSA-512-priv";
    case Primitive::kRsa1024Private: return "RSA-1024-priv";
    case Primitive::kRsa2048Private: return "RSA-2048-priv";
    case Primitive::kRsa1024Public: return "RSA-1024-pub";
    case Primitive::kDh1024: return "DH-1024";
  }
  return "?";
}

bool is_bulk_primitive(Primitive p) {
  switch (p) {
    case Primitive::kDes:
    case Primitive::kDes3:
    case Primitive::kAes128:
    case Primitive::kRc4:
    case Primitive::kRc2:
    case Primitive::kSha1:
    case Primitive::kMd5:
    case Primitive::kSha256:
      return true;
    default:
      return false;
  }
}

WorkloadModel WorkloadModel::paper_calibrated() {
  WorkloadModel m;
  // Bulk costs in instructions/byte on a 32-bit embedded core.
  // Anchor: 3DES (437.04) + SHA-1 (84.0) = 521.04 instr/byte
  //   -> at 10 Mbps (1.25e6 B/s): 651.3 MIPS, the paper's Section 3.2
  //      figure. DES is one third of 3DES by construction.
  m.per_byte_[Primitive::kDes] = 145.68;
  m.per_byte_[Primitive::kDes3] = 437.04;
  m.per_byte_[Primitive::kSha1] = 84.0;
  // Relative costs of the remaining bulk primitives follow their measured
  // cycles/byte ratios on word-oriented cores (AES and RC4 dramatically
  // cheaper than 3DES — part of why TLS moved to AES, Figure 2).
  m.per_byte_[Primitive::kAes128] = 30.0;
  m.per_byte_[Primitive::kRc4] = 10.0;
  m.per_byte_[Primitive::kRc2] = 120.0;
  m.per_byte_[Primitive::kMd5] = 45.0;
  m.per_byte_[Primitive::kSha256] = 120.0;

  // Handshake costs in instructions/operation.
  // Anchor: an RSA-1024 connection set-up of 56e6 instructions is feasible
  // on the 235-MIPS SA-1100 at 0.5 s (112 MIPS) and 1 s (56 MIPS) target
  // latency, but not at 0.1 s (560 MIPS) — the Section 3.2 claim.
  m.per_op_[Primitive::kRsa1024Private] = 56e6;
  // Cubic scaling in the modulus size for private ops (CRT on both sides).
  m.per_op_[Primitive::kRsa512Private] = 7e6;
  m.per_op_[Primitive::kRsa2048Private] = 448e6;
  // e = 65537: ~17 multiplies versus ~1530 for the private exponent.
  m.per_op_[Primitive::kRsa1024Public] = 1.5e6;
  // Full-width exponent, no CRT.
  m.per_op_[Primitive::kDh1024] = 200e6;
  return m;
}

double WorkloadModel::instr_per_byte(Primitive p) const {
  const auto it = per_byte_.find(p);
  if (it == per_byte_.end())
    throw std::invalid_argument("WorkloadModel: no per-byte cost for " +
                                primitive_name(p));
  return it->second;
}

double WorkloadModel::instr_per_op(Primitive p) const {
  const auto it = per_op_.find(p);
  if (it == per_op_.end())
    throw std::invalid_argument("WorkloadModel: no per-op cost for " +
                                primitive_name(p));
  return it->second;
}

double WorkloadModel::bulk_mips(Primitive cipher, Primitive mac,
                                double mbps) const {
  const double bytes_per_s = mbps * 1e6 / 8.0;
  const double instr_per_b = instr_per_byte(cipher) + instr_per_byte(mac) +
                             protocol_instr_per_byte_;
  return bytes_per_s * instr_per_b / 1e6;
}

double WorkloadModel::handshake_mips(Primitive pk_op, double latency_s) const {
  if (latency_s <= 0)
    throw std::invalid_argument("handshake_mips: latency must be > 0");
  return instr_per_op(pk_op) / latency_s / 1e6;
}

double WorkloadModel::required_mips(double latency_s, double mbps) const {
  return handshake_mips(kReferencePk, latency_s) +
         bulk_mips(kReferenceCipher, kReferenceMac, mbps);
}

}  // namespace mapsec::platform
