// The benchmark's client side: an open-loop request source that drives a
// core::Cloud through its public API only, plus the optional stepped run
// loop that attributes host time to the layer each step visibly touched.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "core/cloud.h"
#include "sim/rng.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

/// Host-time attribution of a traced run. Each stepped timestamp goes to
/// the first class whose rule matches (README.md, "Traced run").
struct StepProfile {
  enum Class : std::uint8_t { kChurn, kControl, kAdmission, kCompletion,
                              kDispatch, kClasses };
  double class_s[kClasses] = {};
  std::uint64_t class_steps[kClasses] = {};
  /// Flows in flight before each admission step, summed over those steps:
  /// the N of the O(active flows) admission path.
  std::uint64_t flows_in_flight_at_admission = 0;
  /// Host time inside the client's own calls, excluded from the steps.
  double request_s = 0;  ///< Cloud::write / read / append
  double next_s = 0;     ///< request generation (Generator::next + draws)
  double collect_s = 0;  ///< completion bookkeeping + end-of-run collection
};

/// Client-operation outcome counts. Every issued operation ends in exactly
/// one bucket; check_accounting() verifies that against the Cloud.
struct Accounting {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;     ///< the API call returned false
  std::uint64_t failed = 0;      ///< reported failed by the Cloud
  std::uint64_t unfinished = 0;  ///< data flow still in flight at the horizon
};

class Client {
 public:
  /// `profile` selects the stepped (traced) run loop; null runs untraced.
  Client(scda::core::Cloud& cloud, const Workload& w, std::uint64_t seed,
         StepProfile* profile);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Issue requests over [0, issue_s), then drain to issue_s + drain_s.
  void run();

  /// Outcome counts; valid after run().
  [[nodiscard]] Accounting accounting() const;
  /// Operations the accounting cannot place: completions that match no
  /// issued operation, plus the imbalance of issued against completed +
  /// refused + failed + unfinished. Zero when the Cloud's reports agree.
  [[nodiscard]] std::uint64_t lost() const;
  /// Empty when lost() is zero and the Cloud's counters are consistent;
  /// otherwise a description of the mismatch.
  [[nodiscard]] std::string check_accounting() const;

  /// Simulated latency (ns) of each completed operation, from the API call
  /// to its data flow's completion, in completion order.
  [[nodiscard]] const std::vector<std::int64_t>& latencies_ns() const {
    return latencies_ns_;
  }
  /// Sum of the completed operations' data-flow completion times.
  [[nodiscard]] double fct_sum_s() const noexcept { return fct_sum_s_; }
  /// Fold of every completion (kind, content, client, finish ns) and the
  /// failed and unfinished counts.
  [[nodiscard]] std::uint64_t checksum() const;

 private:
  enum class Op : std::uint8_t { kWrite, kRead, kAppend };
  struct Pending {
    scda::sim::Time due{};
    std::uint64_t seq = 0;
    Op op = Op::kWrite;
    std::size_t client = 0;
    scda::core::ContentId content = scda::core::kInvalidContent;
    std::int64_t bytes = 0;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return std::tie(a.due, a.seq) > std::tie(b.due, b.seq);
    }
  };
  using Key = std::tuple<Op, std::int64_t, scda::core::ContentId>;

  void plan_arrival();
  void issue(const Pending& p);
  void on_complete(const scda::transport::FlowRecord& rec,
                   const scda::core::CloudOp& op);
  void complete(const scda::transport::FlowRecord& rec,
                const scda::core::CloudOp& op);
  /// Run the simulation to `t`, stepping one timestamp at a time when
  /// traced.
  void advance_to(scda::sim::Time t);
  void step(scda::sim::Time t);
  [[nodiscard]] std::uint64_t churn_transitions() const;
  [[nodiscard]] std::uint64_t failed_in_cloud() const;
  [[nodiscard]] std::uint64_t client_flows_in_flight() const;

  scda::core::Cloud& cloud_;
  scda::sim::Simulator& sim_;
  const Workload& w_;
  StepProfile* prof_;
  scda::sim::Rng rng_;
  scda::workload::ParetoPoissonWorkload gen_;
  std::uint64_t next_seq_ = 0;
  scda::core::ContentId next_content_ = 1;

  scda::sim::Time issue_end_{};
  scda::sim::Time horizon_{};
  Pending arrival_;  ///< next Poisson arrival (its op is drawn at issue)
  std::priority_queue<Pending, std::vector<Pending>, Later> sessions_;

  /// Issue times of operations awaiting completion, per (op, client,
  /// content). A completion takes the most recent entry: the Cloud never
  /// says which operation failed, so a failed one stays behind here
  /// instead of being charged to a later identical operation.
  std::map<Key, std::vector<scda::sim::Time>> pending_;
  std::vector<scda::core::ContentId> readable_;
  /// Interactive writes in flight: content -> owning client.
  std::map<scda::core::ContentId, std::size_t> session_owner_;

  Accounting acct_;
  std::uint64_t failed_base_ = 0;  ///< Cloud failure counters at start
  std::uint64_t phantom_completions_ = 0;
  std::uint64_t callbacks_ = 0;
  double step_collect_s_ = 0;  ///< collect time inside the current step
  std::vector<std::int64_t> latencies_ns_;
  double fct_sum_s_ = 0;
  std::uint64_t hash_ = 0;
};

}  // namespace perfbench
