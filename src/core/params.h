// Tunable parameters of the SCDA control plane (paper Table I and text).
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace scda::core {

/// Ethernet MTU as a typed byte count: the unit behind the allocator's
/// min-rate floor (one MTU per second) and the per-packet payload ceiling
/// (net::kDefaultMtuBytes carries the same value on the packet path).
inline constexpr sim::ByteCount kMtu{1500};

/// Approximate wire size of one control RPC (request id + addresses +
/// rate); control-plane overhead is counted in these units.
inline constexpr std::uint64_t kCtrlMsgBytes = 64;

/// Which rate metric the RM/RA computes each control interval.
enum class RateMetricKind : std::uint8_t {
  kExact,       ///< eqs. 2-4: needs per-flow rate sums S(t)
  kSimplified,  ///< eq. 5: only needs the switch byte counter L(t)
};

struct ScdaParams {
  /// Stability parameters of eq. 2 (same role as in RCP/XCP).
  double alpha = 0.95;
  double beta = 0.5;

  /// Control interval tau in seconds. The paper suggests the average or
  /// maximum RTT of the flows; 50 ms sits between the intra-DC (~80 ms) and
  /// WAN-client (~200 ms) RTTs of the figure-6 topology.
  double tau = 0.05;

  RateMetricKind metric = RateMetricKind::kExact;

  /// Scale-down threshold rate R_scale for passive-content replication
  /// (section VII-C). Servers with uplink allocation above this are
  /// considered dormant-eligible. 0 disables the dormant-server policy.
  sim::BitRate rscale{};

  /// Headroom multiplier applied to the receive-window advertisement so the
  /// sender-side cwnd (not rcvw) is normally the binding constraint.
  double rcvw_headroom = 1.2;

  /// One-way latency of a control-plane RPC hop inside the datacenter
  /// (UCL->FES->NNS->RA->BS message exchanges, Figs. 3-5). The paper
  /// consolidates RM/RA "in a few powerful servers close to each other".
  double ctrl_dc_latency_s = 0.5e-3;
  /// One-way latency of a client-to-cloud control hop (WAN).
  double ctrl_wan_latency_s = 50e-3;

  /// Lower clamp on any per-flow link rate to keep flows alive while the
  /// allocator converges: one MTU per second (12 kbit/s — the same value
  /// the former magic constant 8.0 * 1500 encoded, now derived from the
  /// named MTU).
  sim::BitRate min_rate = sim::per_second(kMtu.bits());

  /// Enable power-aware selection: rank servers by rate/power instead of
  /// raw rate (section VII-D).
  bool power_aware = false;

  /// Number of name node servers behind the FES.
  std::int32_t n_name_nodes = 4;

  /// NNS metadata-request service time (seconds per request); models the
  /// single-NNS bottleneck of GFS/HDFS when n_name_nodes == 1.
  double nns_service_time_s = 20e-6;

  /// Replication factor for stored content (initial copy + replicas - 1).
  std::int32_t replicas = 2;

  /// Priority weight of background re-replication (repair) flows relative
  /// to foreground traffic (weight 1.0). Repair competes through the same
  /// RateAllocator weights as everything else (docs/scenarios.md).
  double repair_priority = 0.2;
  /// At most this many repair flows in flight at once (repair-storm
  /// control, as in HDFS's replication work limits).
  std::int32_t max_concurrent_repairs = 4;

  /// Cold-content migration (section VII-C): every this many seconds the
  /// cloud scans for content whose *learned* access class is passive and
  /// moves it from active servers to dormant-eligible ones. 0 disables.
  double migration_interval_s = 0.0;

  // --- metadata-plane fault tolerance (docs/scenarios.md) --------------------
  /// Client-side deadline for a metadata request (FES hop + NNS queueing +
  /// service). On expiry the client re-dispatches; only active when NNS
  /// churn is configured, so churn-free runs keep the historical paths.
  double metadata_timeout_s = 0.25;
  /// Total attempts (first try + retries) before the request is dropped
  /// and surfaced as a failed read/write.
  std::int32_t metadata_max_attempts = 5;
  /// Modelled wire size of one metadata record, used to size the
  /// standby-resync background flow (entries * bytes).
  sim::ByteCount nns_meta_entry{256};

  // --- proactive rebalancing (docs/scenarios.md) -----------------------------
  /// Every this many seconds, scan per-server load/capacity skew from the
  /// NNS access stats and move hot/overfull objects to cooler servers as
  /// background flows. 0 disables.
  double rebalance_interval_s = 0.0;
  /// Priority weight of rebalance flows in the RateAllocator's weighted
  /// max-min (foreground traffic is 1.0).
  double rebalance_priority = 0.3;
};

}  // namespace scda::core
