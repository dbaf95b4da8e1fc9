// FlowStatsCollector: per-flow completion records and the derived series
// the paper's figures plot — FCT CDFs (figs. 8/11/14/16/18), AFCT binned by
// file size (figs. 9/12/13/15) and summary statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "transport/flow.h"

namespace scda::stats {

struct CompletionRecord {
  std::int64_t size_bytes = 0;
  double fct_s = 0;
  double start_time = 0;
  double finish_time = 0;
  core::CloudOp::Kind kind = core::CloudOp::Kind::kWrite;
  transport::ContentClass content_class =
      transport::ContentClass::kSemiInteractive;
  bool control = false;  ///< small control exchange (video workload)
};

struct CdfPoint {
  double x = 0;  ///< FCT in seconds
  double p = 0;  ///< cumulative fraction
};

struct AfctBin {
  double size_mid = 0;   ///< bin midpoint (bytes)
  double afct_s = 0;     ///< mean FCT of flows in the bin
  std::uint64_t count = 0;
};

struct Summary {
  std::uint64_t flows = 0;
  double mean_fct_s = 0;
  double median_fct_s = 0;
  double p95_fct_s = 0;
  double mean_size_bytes = 0;
  double goodput_bps = 0;  ///< total bytes / (last finish - first start)
};

class FlowStatsCollector {
 public:
  /// Subscribes to the cloud's completion stream. `include_replication`
  /// controls whether internal replication flows enter the figures (the
  /// paper plots client-visible transfers, so the default is off).
  explicit FlowStatsCollector(core::Cloud& cloud,
                              bool include_replication = false);

  /// Record a completion directly (for tests or custom pipelines).
  void record(const transport::FlowRecord& rec, const core::CloudOp& op);

  [[nodiscard]] const std::vector<CompletionRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return records_.size(); }

  /// Empirical FCT CDF over all recorded flows (sorted x, p ascending).
  [[nodiscard]] std::vector<CdfPoint> fct_cdf() const;

  /// AFCT vs size with fixed-width bins of `bin_bytes` (paper figs. 9/13).
  [[nodiscard]] std::vector<AfctBin> afct_by_size(double bin_bytes,
                                                  double max_bytes) const;

  [[nodiscard]] Summary summary() const;

  /// Summary over the subset matching a predicate (per-kind / per-class /
  /// control-vs-content breakdowns).
  [[nodiscard]] Summary summary_where(
      const std::function<bool(const CompletionRecord&)>& keep) const;
  [[nodiscard]] Summary summary_for(core::CloudOp::Kind kind) const {
    return summary_where(
        [kind](const CompletionRecord& r) { return r.kind == kind; });
  }
  [[nodiscard]] Summary summary_for(transport::ContentClass c) const {
    return summary_where(
        [c](const CompletionRecord& r) { return r.content_class == c; });
  }

 private:
  std::vector<CompletionRecord> records_;
  bool include_replication_;
};

}  // namespace scda::stats
