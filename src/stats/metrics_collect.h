// Pull-based metric collection: walk the stack's existing cheap counters
// (EventQueueStats, LinkStats, SenderStats, RateAllocator::ControlStats,
// the Cloud and MetadataPlane accessors) at end of run and fold them into
// a MetricsRegistry. No component pays anything on its hot path for these
// — the counters already exist for the perf/figure machinery; this just
// gives them stable ids.
//
// The full metric catalog is documented in docs/observability.md. Every
// run reports all of it, so any two runs compare id by id: a feature that
// is off (fluid mode, churn, NNS failover, rebalancing) reports zeros.
// Every value is a pure function of the simulation state, so snapshots
// taken from identical-seed runs are identical — the determinism anchor
// the observability tests lock down.
#pragma once

#include "obs/metrics.h"

namespace scda::sim {
class Simulator;
}
namespace scda::core {
class Cloud;
}

namespace scda::stats {

/// Fold the whole stack's counters into `reg` under the catalog ids.
/// Walks sim + the cloud's network/transport/control/SLA state; uses
/// sim.now() (not wall clock) for rate-style metrics so the snapshot is
/// deterministic.
void collect_run_metrics(obs::MetricsRegistry& reg, const sim::Simulator& sim,
                         core::Cloud& cloud);

/// Emit a snapshot as a `# metrics: {...}` comment line (greppable from
/// bench logs, parseable after the prefix).
void emit_metrics(std::FILE* out, const obs::MetricsSnapshot& snap);

}  // namespace scda::stats
