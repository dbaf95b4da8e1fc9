// Observability: the per-run bundle of the metrics registry and the
// optional trace flight recorder, plus the configuration knob that travels
// with ExperimentConfig.
//
// A Simulator carries at most one `Observability*` (nullptr by default —
// see sim/simulator.h). Components reach their instruments through the
// simulator they already hold, so the disabled path costs a single pointer
// load on the cold paths that check it and nothing at all on the hot ones.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace scda::obs {

/// Per-run tracing switches. Every run also collects a MetricsRegistry
/// snapshot into its RunResult when it ends; that is pull-based, so nothing
/// is sampled while the simulation executes.
struct ObsConfig {
  /// When non-empty, record a flight-recorder trace and write it to this
  /// path as Chrome trace-event JSON when the run ends.
  std::string trace_path;
  /// Ring capacity of the flight recorder (events kept).
  std::size_t trace_capacity = TraceRecorder::kDefaultCapacity;
};

class Observability {
 public:
  Observability() = default;

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// nullptr until enable_trace() is called.
  [[nodiscard]] TraceRecorder* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const TraceRecorder* tracer() const noexcept {
    return tracer_.get();
  }

  TraceRecorder& enable_trace(
      std::size_t capacity = TraceRecorder::kDefaultCapacity) {
    if (!tracer_) tracer_ = std::make_unique<TraceRecorder>(capacity);
    return *tracer_;
  }

 private:
  MetricsRegistry metrics_;
  std::unique_ptr<TraceRecorder> tracer_;
};

/// The simulator's trace recorder, or nullptr when tracing is off — the
/// one-line guard every instrumentation site uses.
[[nodiscard]] inline TraceRecorder* tracer_of(sim::Simulator& sim) noexcept {
  Observability* o = sim.observability();
  return o != nullptr ? o->tracer() : nullptr;
}

}  // namespace scda::obs
