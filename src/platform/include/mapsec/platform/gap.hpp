// The wireless security processing gap (Figure 3).
//
// Figure 3 plots required MIPS as a surface over (connection latency, data
// rate) for the reference protocol (RSA-1024 set-up + 3DES/SHA bulk), with
// a processor's capability drawn as a horizontal plane. Operating points
// whose requirement rises above the plane are infeasible — that region is
// the gap. GapAnalysis produces the surface and per-processor feasibility
// classifications.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mapsec/platform/accelerator.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/platform/workload.hpp"

namespace mapsec::platform {

/// One point of the Figure 3 surface.
struct GapPoint {
  double latency_s = 0;
  double mbps = 0;
  double required_mips = 0;
  double handshake_mips = 0;
  double bulk_mips = 0;
};

/// Feasibility summary of one processor plane against a surface.
struct PlaneSummary {
  Processor processor;
  std::size_t feasible_points = 0;
  std::size_t total_points = 0;
  /// Max secure data rate (Mbps) at 1 s connection latency.
  double max_mbps_at_1s = 0;
};

class GapAnalysis {
 public:
  explicit GapAnalysis(WorkloadModel model);

  /// Evaluate the surface over a grid.
  std::vector<GapPoint> surface(const std::vector<double>& latencies_s,
                                const std::vector<double>& rates_mbps) const;

  /// The default Figure 3 grid: latency {0.1, 0.5, 1.0} s x rate
  /// {0.01 .. 60} Mbps (the paper quotes WLAN rates "2-60 Mbps").
  static std::vector<double> default_latencies();
  static std::vector<double> default_rates();

  /// Whether `proc` can sustain the operating point.
  bool feasible(const Processor& proc, const GapPoint& point) const {
    return point.required_mips <= proc.mips;
  }

  /// Classify a whole surface against one processor.
  PlaneSummary summarise(const Processor& proc,
                         const std::vector<GapPoint>& points) const;

  /// Largest bulk data rate (Mbps) `proc` sustains with connection latency
  /// `latency_s`, or 0 when even the handshake alone does not fit.
  double max_rate_mbps(const Processor& proc, double latency_s) const;

  const WorkloadModel& model() const { return model_; }

 private:
  WorkloadModel model_;
};

// ---- served-load accounting ----------------------------------------------

/// Observed serving rates from a session-server run (mapsec::server's
/// LoadGenerator) — the measured counterpart of the Figure 3 axes:
/// handshakes per second instead of connection latency, protected
/// megabits per second instead of a nominal data rate.
struct ServedLoad {
  double full_handshakes_per_s = 0;
  double resumed_handshakes_per_s = 0;
  double bulk_mbps = 0;           // protected record-layer throughput
  double avg_session_kb = 0;      // protected KB per served session
  double sessions_per_s = 0;
};

/// The paper's Figure 4 battery: sessions_per_charge divides this charge.
inline constexpr double kBatteryKj = 26.0;
/// Instructions each core spends per epoch-barrier merge of the sharded
/// tier (one snapshot exchange per slice).
inline constexpr double kMergeInstrPerSlice = 2000.0;
/// Size of a sealed session ticket, the blob each CCM open/seal covers.
inline constexpr double kTicketWireBytes = 96.0;
/// Symmetric cost of one stateless ticket resumption during failover: two
/// AES passes over the ticket blob plus the abbreviated flight.
inline constexpr double kTicketOpenInstr = 6'000.0;

/// The Section 4.2 remedies a served load can be priced through, as
/// layers over one processor plane. Every layer defaults to off; a set
/// layer adds or removes its own term, applied in a fixed order:
/// accel -> offload -> ticket -> shards -> failover.
struct ServingTier {
  /// Same-host acceleration (e.g. AccelProfile::isa_dispatch(),
  /// calibrated from crypto::dispatch's measured kernels): MIPS demand
  /// comes from the accelerated cost table, session energy is the
  /// unaccelerated bill divided by the tier's energy efficiency.
  std::optional<AccelProfile> accel = std::nullopt;

  /// Public-key offload: full-handshake pk ops leave the host for
  /// `lanes` accelerator lanes (engine::OffloadEngine), each a fixed-rate
  /// server spending `lane_op_s` seconds per op. Lanes drain windows of
  /// up to `batch_width` jobs; a full window costs
  /// lane_op_s * (1 + (batch_width - 1) * batch_marginal) seconds
  /// (engine::OffloadCosts). Offloaded pk energy is billed at the
  /// crypto accelerator's efficiency.
  struct Offload {
    std::size_t lanes = 1;
    double lane_op_s = 0;
    std::size_t batch_width = 1;
    double batch_marginal = 1.0;  // 1: a window costs its ops in full
  };
  std::optional<Offload> offload = std::nullopt;

  /// Stateless tickets: each resumed handshake opens (and re-seals) a
  /// ticket, each full handshake seals one — AES-CCM over the blob. The
  /// state sizes come from the run (TicketKeyRing::state_bytes(),
  /// BoundedSessionCache::resumption_state_bytes() or its projection).
  struct Ticket {
    double ring_state_bytes = 0;
    double cache_state_bytes = 0;
  };
  std::optional<Ticket> ticket = std::nullopt;

  /// Sharded tier: `count` cores behind a uniform connection hash with an
  /// epoch-barrier merge every `slice_us` simulated microseconds.
  struct Shards {
    std::size_t count = 1;
    double slice_us = 0;
  };
  std::optional<Shards> shards = std::nullopt;

  /// One shard's death: `reconnect_sessions` victim sessions resume on
  /// the survivors within `blackout_s` (CampaignReport::client_reconnects
  /// and the blackout percentiles). Priced over the shard layer.
  struct Failover {
    double reconnect_sessions = 0;
    double blackout_s = 0;
  };
  std::optional<Failover> failover = std::nullopt;
};

/// How a processor's MIPS and energy budget fare against a served load.
/// The first block prices the host plane; each later block is filled only
/// when its ServingTier layer is set, and reads 0 otherwise.
struct ServingGapReport {
  double handshake_mips = 0;  // RSA set-up cost left on the host
  double bulk_mips = 0;       // bulk protection cost of the data rate
  double required_mips = 0;   // handshake + bulk (+ ticket CCM work)
  double available_mips = 0;
  double gap_ratio = 0;  // required / available; > 1 means infeasible
  double session_mj = 0;  // processing energy per average session
  double sessions_per_charge = 0;

  // Offload: feasibility moves to lane occupancy. lane_utilisation > 1
  // means the offered full-handshake rate outruns the lanes and the
  // backlog grows without bound (OffloadEngine's queue_wait_us is the
  // measured witness of the same quantity).
  double pk_ops_per_s = 0;      // offered full-handshake rate
  double lane_op_s = 0;         // modeled seconds per pk op on one lane
  double lanes = 0;
  double batch_width = 0;
  double batch_marginal = 0;
  double effective_op_s = 0;    // per-op lane seconds at full windows
  double lane_utilisation = 0;  // pk_ops_per_s * effective_op_s / lanes
  double throughput_gain = 0;   // lane_op_s / effective_op_s (>= 1)
  double min_lanes = 0;         // smallest lane count with utilisation <= 1

  // Ticket: the memory half of the serving story. A cache pins
  // O(cached users), a ticket server only its key ring, O(ring depth).
  double ticket_open_mips = 0;    // CCM opens + re-seals, resumed rate
  double ticket_seal_mips = 0;    // NewSessionTicket seals, full rate
  double server_state_bytes = 0;  // key ring: O(depth)
  double cache_state_bytes = 0;   // cache equivalent: O(cached users)
  double state_ratio = 0;         // cache / ticket state

  // Shards: the fleet demand above split over `shards` cores, each also
  // paying the per-slice merge tax. min_shards is the smallest count
  // whose per-core demand fits one core; 0 when the merge tax alone
  // exceeds the core (the provisioning number E24 validates).
  double shards = 0;
  double merge_overhead_mips = 0;      // per-core barrier cost
  double per_shard_required_mips = 0;  // required / shards + merge tax
  double shard_utilisation = 0;        // per-shard demand / core MIPS
  double min_shards = 0;

  // Failover: during the repair window the victim's share of the fleet
  // demand and its resumption burst land on the survivors. The crash
  // energy is priced as ticket resumptions and, counterfactually, as
  // full RSA handshakes — the battery argument for ticket failover.
  double surviving_shards = 0;
  double degraded_required_mips = 0;  // per survivor during the outage
  double degraded_utilisation = 0;    // vs one core's MIPS
  double blackout_s = 0;              // client-observed re-establish window
  double reconnect_sessions = 0;      // victim sessions that must move
  double burst_mips = 0;              // whole resumption burst over blackout
  double crash_energy_mj = 0;         // burst as ticket resumptions
  double crash_energy_full_mj = 0;    // counterfactual: full RSA handshakes
  double ticket_saving_ratio = 0;     // full / ticket energy (>= 1)
};

/// Price a served load against `proc` on the paper's reference suite,
/// tying the measured serving rates back to the Figure 3 gap (MIPS) and
/// the Figure 4 battery argument (sessions per kBatteryKj charge).
/// Resumed handshakes are priced at zero public-key cost — that saving is
/// exactly why resumption matters on an appliance budget. `tier` adds the
/// Section 4.2 remedies as layers; the default prices plain software.
ServingGapReport serving_gap(const WorkloadModel& model,
                             const Processor& proc, const ServedLoad& load,
                             const ServingTier& tier = {});

/// Projection of the gap over time — Section 3.2's closing argument:
/// "the increase in data rates ... and the use of stronger cryptographic
/// algorithms ... threaten to further widen the wireless security
/// processing gap" even as processors improve.
struct GapTrendAssumptions {
  double processor_growth = 1.35;   // embedded MIPS per year (Moore-ish)
  double data_rate_growth = 1.60;   // WLAN generation cadence
  double crypto_strength_growth = 1.10;  // instr/byte creep (longer keys,
                                         // stronger ciphers)
};

struct GapTrendPoint {
  int year = 0;
  double available_mips = 0;
  double required_mips = 0;
  /// required / available: > 1 means the gap is open.
  double gap_ratio = 0;
};

/// Project `years` years forward from a base processor and operating
/// point (1 s connection latency assumed).
std::vector<GapTrendPoint> project_gap_trend(
    const GapAnalysis& gap, const Processor& base_processor,
    double base_mbps, int base_year, int years,
    const GapTrendAssumptions& assumptions = {});

}  // namespace mapsec::platform
