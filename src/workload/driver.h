// WorkloadDriver: turns a Generator's request stream into cloud traffic.
//
// Each arrival is issued by a uniformly chosen client; a configurable
// fraction of non-control arrivals are reads of content whose write already
// completed (so reads exercise replica selection), the rest are writes of
// new content. Arrivals stop at `end_time`, after which in-flight transfers
// drain.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/cloud.h"
#include "workload/generators.h"

namespace scda::workload {

struct DriverConfig {
  double end_time_s = 100.0;  ///< stop issuing new arrivals after this
  double read_fraction = 0.3; ///< fraction of content ops that are reads
  double priority = 1.0;      ///< priority weight for issued flows

  // Interactive sessions (HWHR content, paper section II-B): a fraction of
  // writes become interactive content whose owner then alternates appends
  // and reads at sub-interactivity-interval gaps.
  double interactive_fraction = 0.0;
  std::int32_t session_ops = 6;     ///< follow-up ops per session
  double session_gap_s = 2.0;       ///< gap between session ops (< 5 s)
};

class WorkloadDriver {
 public:
  /// Throws std::invalid_argument, naming the field, for a fraction outside
  /// [0, 1] or a priority that is not above 0.
  WorkloadDriver(core::Cloud& cloud, std::unique_ptr<Generator> gen,
                 DriverConfig cfg);

  /// Schedule the first arrival; subsequent arrivals self-schedule.
  void start();

  [[nodiscard]] std::uint64_t issued_writes() const noexcept {
    return issued_writes_;
  }
  [[nodiscard]] std::uint64_t issued_reads() const noexcept {
    return issued_reads_;
  }
  [[nodiscard]] std::uint64_t issued_control() const noexcept {
    return issued_control_;
  }
  [[nodiscard]] std::uint64_t sessions_started() const noexcept {
    return sessions_started_;
  }
  [[nodiscard]] std::uint64_t session_ops_issued() const noexcept {
    return session_ops_issued_;
  }

 private:
  void schedule_next();
  void issue(const FlowRequest& req);
  void run_session(core::ContentId id, std::size_t client,
                   std::int64_t delta_bytes, std::int32_t ops_left);

  core::Cloud& cloud_;
  std::unique_ptr<Generator> gen_;
  DriverConfig cfg_;
  core::ContentId next_content_ = 1;
  /// Content whose initial write completed (eligible for reads).
  std::vector<core::ContentId> readable_;
  std::uint64_t issued_writes_ = 0;
  std::uint64_t issued_reads_ = 0;
  std::uint64_t issued_control_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t session_ops_issued_ = 0;
  /// Interactive writes awaiting completion, keyed by content id; value is
  /// the owning client.
  std::unordered_map<core::ContentId, std::size_t> pending_sessions_;
};

}  // namespace scda::workload
