#include "mapsec/platform/gap.hpp"

#include <algorithm>
#include <cmath>

namespace mapsec::platform {

GapAnalysis::GapAnalysis(WorkloadModel model) : model_(std::move(model)) {}

std::vector<GapPoint> GapAnalysis::surface(
    const std::vector<double>& latencies_s,
    const std::vector<double>& rates_mbps) const {
  std::vector<GapPoint> out;
  out.reserve(latencies_s.size() * rates_mbps.size());
  for (const double latency : latencies_s) {
    for (const double rate : rates_mbps) {
      GapPoint p;
      p.latency_s = latency;
      p.mbps = rate;
      p.handshake_mips =
          model_.handshake_mips(kReferencePk, latency);
      p.bulk_mips = model_.bulk_mips(kReferenceCipher, kReferenceMac, rate);
      p.required_mips = p.handshake_mips + p.bulk_mips;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<double> GapAnalysis::default_latencies() {
  return {0.1, 0.5, 1.0};
}

std::vector<double> GapAnalysis::default_rates() {
  return {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0};
}

PlaneSummary GapAnalysis::summarise(
    const Processor& proc, const std::vector<GapPoint>& points) const {
  PlaneSummary s;
  s.processor = proc;
  s.total_points = points.size();
  for (const auto& p : points)
    if (feasible(proc, p)) ++s.feasible_points;
  s.max_mbps_at_1s = max_rate_mbps(proc, 1.0);
  return s;
}

std::vector<GapTrendPoint> project_gap_trend(
    const GapAnalysis& gap, const Processor& base_processor,
    double base_mbps, int base_year, int years,
    const GapTrendAssumptions& assumptions) {
  std::vector<GapTrendPoint> out;
  out.reserve(static_cast<std::size_t>(years) + 1);
  double mips = base_processor.mips;
  double mbps = base_mbps;
  double strength = 1.0;
  for (int y = 0; y <= years; ++y) {
    GapTrendPoint p;
    p.year = base_year + y;
    p.available_mips = mips;
    // Stronger crypto multiplies the whole per-byte and per-op cost.
    p.required_mips = gap.model().required_mips(1.0, mbps) * strength;
    p.gap_ratio = p.required_mips / p.available_mips;
    out.push_back(p);
    mips *= assumptions.processor_growth;
    mbps *= assumptions.data_rate_growth;
    strength *= assumptions.crypto_strength_growth;
  }
  return out;
}

ServingGapReport serving_gap(const WorkloadModel& model,
                             const Processor& proc, const ServedLoad& load,
                             const ServingTier& tier) {
  ServingGapReport r;
  const auto of_core = [&](double mips) {
    return proc.mips > 0 ? mips / proc.mips : 0.0;
  };
  const auto per_session = [&](double rate) {
    return load.sessions_per_s > 0 ? rate / load.sessions_per_s : 1.0;
  };

  // Host plane. Accel prices MIPS on the accelerated cost table; offload
  // takes the full-handshake pk ops off the host entirely. Resumed
  // handshakes skip the pk op (their symmetric cost is folded into the
  // bulk term, which measures all protected bytes).
  const WorkloadModel priced =
      tier.accel ? accelerated_model(model, *tier.accel) : model;
  const double host_full_per_s =
      tier.offload ? 0.0 : load.full_handshakes_per_s;
  r.handshake_mips =
      host_full_per_s * priced.instr_per_op(kReferencePk) / 1e6;
  r.bulk_mips = load.bulk_mbps > 0
                    ? priced.bulk_mips(kReferenceCipher, kReferenceMac,
                                       load.bulk_mbps)
                    : 0.0;
  r.required_mips = r.handshake_mips + r.bulk_mips;
  r.available_mips = proc.mips;

  // Battery tie-in (Figure 4's arithmetic over the same load): the host
  // instructions of one average session, priced through the processor's
  // energy-per-instruction rating. An accel tier's energy_efficiency is
  // defined against the UNaccelerated workload, so the bill comes from
  // the base cost table and is divided once by that efficiency.
  const double bulk_instr_per_kb =
      model.instr_per_byte(kReferenceCipher) * 1024.0 +
      model.instr_per_byte(kReferenceMac) * 1024.0;
  // The offload layer bills the whole pk op itself, so the host's share
  // is zero there, not per_session(0)'s no-sessions fallback of one op.
  const double host_pk_share =
      tier.offload ? 0.0 : per_session(load.full_handshakes_per_s);
  const double session_instr =
      host_pk_share * model.instr_per_op(kReferencePk) +
      load.avg_session_kb * bulk_instr_per_kb;
  const double accel_efficiency =
      tier.accel && tier.accel->energy_efficiency > 0
          ? tier.accel->energy_efficiency
          : 1.0;
  r.session_mj = proc.millijoules_for(session_instr) / accel_efficiency;

  if (tier.offload) {
    // The lanes as fixed-rate servers. A full window of W jobs occupies
    // a lane for lane_op_s * (1 + (W - 1) * m) seconds — W ops for
    // barely more than one op's slot when m is small.
    const ServingTier::Offload& o = *tier.offload;
    r.pk_ops_per_s = load.full_handshakes_per_s;
    r.lane_op_s = o.lane_op_s;
    r.lanes = static_cast<double>(o.lanes);
    r.batch_width = static_cast<double>(o.batch_width == 0 ? 1 : o.batch_width);
    r.batch_marginal = o.batch_marginal;
    r.effective_op_s =
        o.lane_op_s * (1.0 + (r.batch_width - 1.0) * o.batch_marginal) /
        r.batch_width;
    const double demand_lane_s = load.full_handshakes_per_s * r.effective_op_s;
    r.lane_utilisation = o.lanes > 0 ? demand_lane_s / r.lanes : 0.0;
    r.throughput_gain =
        r.effective_op_s > 0 ? o.lane_op_s / r.effective_op_s : 1.0;
    r.min_lanes = std::ceil(demand_lane_s);
    // The offloaded pk op still costs energy, at the accelerator's
    // efficiency (the paper's order-of-magnitude claim).
    r.session_mj += per_session(load.full_handshakes_per_s) *
                    proc.millijoules_for(model.instr_per_op(kReferencePk)) /
                    AccelProfile::crypto_accelerator().energy_efficiency;
  }
  r.sessions_per_charge =
      r.session_mj > 0 ? kBatteryKj * 1e6 / r.session_mj : 0.0;

  if (tier.ticket) {
    // CCM over the blob is two AES passes (CBC-MAC, then CTR); an open
    // and a seal cost the same. Each full handshake seals a fresh ticket;
    // each resumed one opens the offered ticket and re-seals it.
    const double ccm_instr =
        2.0 * priced.instr_per_byte(Primitive::kAes128) * kTicketWireBytes;
    r.ticket_open_mips =
        load.resumed_handshakes_per_s * 2.0 * ccm_instr / 1e6;
    r.ticket_seal_mips = load.full_handshakes_per_s * ccm_instr / 1e6;
    r.required_mips += r.ticket_open_mips + r.ticket_seal_mips;
    r.server_state_bytes = tier.ticket->ring_state_bytes;
    r.cache_state_bytes = tier.ticket->cache_state_bytes;
    r.state_ratio = r.server_state_bytes > 0
                        ? r.cache_state_bytes / r.server_state_bytes
                        : 0.0;
  }
  r.gap_ratio = of_core(r.required_mips);

  if (tier.shards) {
    // Barrier tax: every core re-freezes the fleet snapshot once per
    // slice regardless of how many shards share the tier.
    const ServingTier::Shards& sh = *tier.shards;
    r.shards = static_cast<double>(sh.count == 0 ? 1 : sh.count);
    const double slices_per_s = sh.slice_us > 0 ? 1e6 / sh.slice_us : 0.0;
    r.merge_overhead_mips = slices_per_s * kMergeInstrPerSlice / 1e6;
    r.per_shard_required_mips =
        r.required_mips / r.shards + r.merge_overhead_mips;
    r.shard_utilisation = of_core(r.per_shard_required_mips);
    const double headroom = proc.mips - r.merge_overhead_mips;
    r.min_shards = headroom > 0
                       ? std::max(1.0, std::ceil(r.required_mips / headroom))
                       : 0.0;
  }

  if (tier.failover) {
    const ServingTier::Failover& f = *tier.failover;
    r.surviving_shards = r.shards > 1 ? r.shards - 1.0 : 1.0;
    r.blackout_s = f.blackout_s;
    r.reconnect_sessions = f.reconnect_sessions;
    // The whole resumption burst, as sustained MIPS over the blackout
    // window it lands in.
    const double burst_instr = f.reconnect_sessions * kTicketOpenInstr;
    r.burst_mips = f.blackout_s > 0 ? burst_instr / f.blackout_s / 1e6 : 0.0;
    r.degraded_required_mips = r.required_mips / r.surviving_shards +
                               r.merge_overhead_mips +
                               r.burst_mips / r.surviving_shards;
    r.degraded_utilisation = of_core(r.degraded_required_mips);
    // Every victim session re-establishes once. Tickets make that
    // symmetric-only; the counterfactual (no resumption state survives
    // the crash) pays the full private-key op per session — the paper's
    // 42 mJ/KB worst case, at fleet scale.
    r.crash_energy_mj = proc.millijoules_for(burst_instr);
    r.crash_energy_full_mj = proc.millijoules_for(
        f.reconnect_sessions * model.instr_per_op(kReferencePk));
    r.ticket_saving_ratio = r.crash_energy_mj > 0
                                ? r.crash_energy_full_mj / r.crash_energy_mj
                                : 0.0;
  }
  return r;
}

double GapAnalysis::max_rate_mbps(const Processor& proc,
                                  double latency_s) const {
  const double handshake =
      model_.handshake_mips(kReferencePk, latency_s);
  const double headroom_mips = proc.mips - handshake;
  if (headroom_mips <= 0) return 0;
  // Invert bulk_mips: rate such that bulk requirement == headroom.
  const double per_mbps =
      model_.bulk_mips(kReferenceCipher, kReferenceMac, 1.0);
  return headroom_mips / per_mbps;
}

}  // namespace mapsec::platform
