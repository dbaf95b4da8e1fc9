// RunResult: everything one simulation run produces that the figures,
// sweep aggregation and CLI tools consume. Lives in stats (not bench/) so
// the sweep runner and the aggregation layer can pass runs around without
// depending on the benchmark harness.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "stats/collector.h"
#include "stats/throughput.h"

namespace scda::stats {

struct RunResult {
  Summary summary;
  std::vector<ThroughputSample> throughput;
  std::vector<CdfPoint> fct_cdf;
  std::vector<AfctBin> afct;
  double mean_throughput_kbs = 0;
  std::uint64_t sla_violations = 0;
  std::uint64_t failed_reads = 0;
  double energy_j = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t events = 0;
  /// Full-stack metric snapshot (docs/observability.md).
  obs::MetricsSnapshot metrics;
  /// The flight-recorder trace the run's ObsConfig asked for was written.
  bool trace_written = false;
};

}  // namespace scda::stats
