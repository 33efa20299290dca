// Security-processing workload model.
//
// This reproduces the cost model behind Figure 3 and the in-text claims of
// Section 3.2. The paper's reference protocol is "RSA based connection
// set-up, 3DES-based data encryption and SHA-based integrity"; its anchor
// data point is that 3DES + SHA bulk processing at 10 Mbps costs 651.3
// MIPS. We express every primitive as instructions/byte (bulk) or
// instructions/operation (handshake) and derive required MIPS for any
// (data rate, connection latency) operating point.
//
// The per-primitive constants are calibrated so that the paper's published
// anchors are met exactly:
//   * 3DES + SHA-1 at 10 Mbps  -> 651.3 MIPS   (Section 3.2)
//   * RSA-1024 handshake on 235 MIPS: feasible at 0.5 s and 1 s latency,
//     infeasible at 0.1 s                      (Section 3.2)
#pragma once

#include <map>
#include <string>

namespace mapsec::platform {

/// Crypto primitives the workload model can price.
enum class Primitive {
  kDes,
  kDes3,
  kAes128,
  kRc4,
  kRc2,
  kSha1,
  kMd5,
  kSha256,
  kRsa512Private,
  kRsa1024Private,
  kRsa2048Private,
  kRsa1024Public,
  kDh1024,
};

/// The paper's reference protocol (Section 3.2): "RSA based connection
/// set-up, 3DES-based data encryption and SHA-based integrity". The
/// Figure 3 surface and every serving-gap figure are priced on it.
inline constexpr Primitive kReferencePk = Primitive::kRsa1024Private;
inline constexpr Primitive kReferenceCipher = Primitive::kDes3;
inline constexpr Primitive kReferenceMac = Primitive::kSha1;

/// Human-readable primitive name.
std::string primitive_name(Primitive p);

/// True for bulk (per-byte) primitives, false for per-operation ones.
bool is_bulk_primitive(Primitive p);

/// Cost table mapping primitives to instruction counts.
class WorkloadModel {
 public:
  /// The calibrated default (see file comment).
  static WorkloadModel paper_calibrated();

  /// Instructions per byte for a bulk primitive.
  double instr_per_byte(Primitive p) const;

  /// Instructions per operation for a public-key primitive.
  double instr_per_op(Primitive p) const;

  /// Override a cost (e.g. from host-measured calibration).
  void set_instr_per_byte(Primitive p, double v) { per_byte_[p] = v; }
  void set_instr_per_op(Primitive p, double v) { per_op_[p] = v; }

  // ---- derived quantities (the Figure 3 axes) ----

  /// MIPS required to run `cipher`+`mac` bulk protection at `mbps`.
  /// Includes the per-packet protocol-processing overhead.
  double bulk_mips(Primitive cipher, Primitive mac, double mbps) const;

  /// MIPS required to complete one handshake (dominated by `pk_op`)
  /// within `latency_s` seconds.
  double handshake_mips(Primitive pk_op, double latency_s) const;

  /// Total security-processing requirement for the paper's reference
  /// protocol at an operating point: handshake within `latency_s`, then
  /// bulk at `mbps`. This is the Figure 3 surface.
  double required_mips(double latency_s, double mbps) const;

  /// Per-byte protocol processing (header parsing, SA lookup, padding —
  /// the component Section 4.2.3's protocol engines offload).
  double protocol_instr_per_byte() const { return protocol_instr_per_byte_; }
  void set_protocol_instr_per_byte(double v) { protocol_instr_per_byte_ = v; }

 private:
  std::map<Primitive, double> per_byte_;
  std::map<Primitive, double> per_op_;
  double protocol_instr_per_byte_ = 0;
};

}  // namespace mapsec::platform
