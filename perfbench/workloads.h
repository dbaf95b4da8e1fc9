// The benchmark's workloads: a Cloud configuration plus the request mix the
// client side issues against it (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "core/cloud.h"
#include "workload/generators.h"

namespace perfbench {

struct Workload {
  scda::core::CloudConfig cloud;
  /// Poisson arrivals with Pareto content sizes (paper section X-B law).
  scda::workload::ParetoPoissonConfig arrivals;
  /// Fraction of arrivals that read already-stored content.
  double read_fraction = 0.3;
  /// Fraction of writes that open an interactive session: the writer then
  /// alternates six appends and reads of that content, session_gap_s apart.
  double interactive_fraction = 0.0;
  double session_gap_s = 2.0;
  /// Requests are issued over [0, issue_s); the run then drains for
  /// drain_s simulated seconds with no new requests.
  double issue_s = 10.0;
  double drain_s = 5.0;
};

/// Build a named workload. `rate_mult` scales the offered request rate
/// (load ladder); `tiny` shrinks it to a 2x2x2 tree and one simulated
/// second of requests (the benchmark's own tests). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, double rate_mult,
                                     bool tiny);

}  // namespace perfbench
