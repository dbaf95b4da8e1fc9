// Cloud: the top-level SCDA system façade and public API.
//
// Owns the three-tier datacenter (figure 6), the transports, the RM/RA
// allocation hierarchy, the metadata plane (FES + name nodes), the block
// servers with their power/resource models, and the SLA manager. Client
// write/read requests follow the message sequences of paper figures 3-5,
// with control-plane hops modelled as latency-delayed RPCs.
//
// The same class also runs the RandTCP baseline (random placement + TCP),
// selected through CloudConfig, so SCDA-vs-RandTCP comparisons share every
// other piece of the stack.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/block_server.h"
#include "core/classifier.h"
#include "core/hierarchy.h"
#include "core/metadata_plane.h"
#include "core/params.h"
#include "core/rate_allocator.h"
#include "core/selection.h"
#include "core/sla.h"
#include "core/target_rate.h"
#include "net/topology.h"
#include "sim/failure_schedule.h"
#include "sim/simulator.h"
#include "transport/transport_manager.h"

namespace scda::core {

class ChurnInjector;

struct CloudConfig {
  net::TopologyConfig topology;
  ScdaParams params;
  PlacementPolicy placement = PlacementPolicy::kScda;
  transport::TransportKind transport = transport::TransportKind::kScda;
  /// Replicate each written content once after the initial write
  /// (section VIII-B); both policies replicate so comparisons are fair.
  bool enable_replication = true;
  /// Power-model heterogeneity: per-server inefficiency factor drawn
  /// uniformly from [1, 1 + power_heterogeneity] (section VII-D).
  double power_heterogeneity = 0.4;
  /// Hybrid fluid/packet mode for SCDA data flows (docs/fluid_engine.md):
  /// elephants advance analytically between RA epochs, mice stay packets.
  transport::FluidConfig fluid;
  /// Failure injection: seed-derived server/link churn plus scripted
  /// outages, driven by a ChurnInjector the Cloud owns (docs/scenarios.md).
  sim::ChurnConfig churn;
};

/// What a completed flow was doing, reported alongside the flow record.
struct CloudOp {
  ContentId content = kInvalidContent;
  transport::ContentClass content_class =
      transport::ContentClass::kSemiInteractive;
  enum class Kind : std::uint8_t {
    kWrite,
    kRead,
    kReplication,
    kMigration,  ///< cold-content move to a dormant-eligible server (VII-C)
    kAppend,     ///< in-place update of existing content (HWHR traffic)
    kRebalance,  ///< proactive hot/overfull move (docs/scenarios.md)
    kNnsSync,    ///< recovering name node re-syncing from its peer
  } kind = Kind::kWrite;
  std::int32_t server = -1;   ///< block server index serving the op
  std::int64_t client = -1;   ///< client index (-1 for internal ops)
  std::int32_t source_server = -1;  ///< replication/migration: copy source
  /// Background re-replication flow (docs/scenarios.md): runs at
  /// ScdaParams::repair_priority and feeds the repair accounting.
  bool repair = false;
};

/// Failure/replication scenario counters (docs/scenarios.md), reported
/// as `churn.*` metric ids by every run (zeros without churn).
struct ChurnStats {
  std::uint64_t failovers = 0;       ///< reads re-driven to another replica
  std::uint64_t aborted_flows = 0;   ///< in-flight flows cut by a failure
  std::uint64_t repair_flows_started = 0;
  std::uint64_t repair_flows_completed = 0;
  std::uint64_t repair_bytes = 0;    ///< payload re-protected by repair
  std::uint64_t repair_retries = 0;  ///< repair flows aborted or re-queued
  std::uint64_t sla_violations_during_repair = 0;
  std::uint64_t objects_lost = 0;    ///< every replica gone (unreadable)
};

/// Proactive-rebalancing counters (docs/scenarios.md), reported as
/// `rebalance.*` metric ids by every run (zeros without rebalancing).
struct RebalanceStats {
  std::uint64_t scans = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t skipped = 0;  ///< overloaded server with no viable move
};

using CloudCompletionFn =
    std::function<void(const transport::FlowRecord&, const CloudOp&)>;

class Cloud {
 public:
  Cloud(sim::Simulator& sim, CloudConfig cfg);
  ~Cloud();

  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  // --- public request API (what a UCL sees) ----------------------------------
  /// Store `bytes` of content under `id`; follows Fig. 3 then replicates
  /// per Fig. 4. Returns false if the content id is already stored.
  bool write(std::size_t client_idx, ContentId id, std::int64_t bytes,
             transport::ContentClass content_class =
                 transport::ContentClass::kSemiInteractive,
             double priority = 1.0, sim::BitRate reserved = {});

  /// Retrieve previously stored content (Fig. 5). Unknown content ids are
  /// counted in failed_reads(). Returns false when rejected immediately.
  bool read(std::size_t client_idx, ContentId id, double priority = 1.0);

  /// Update existing content in place: write `bytes` more to its primary
  /// replica (the high-write path of active HWHR/HWLR content, section
  /// II-B — chat logs, collaborative documents, database tables). Fails
  /// for unknown content.
  bool append(std::size_t client_idx, ContentId id, std::int64_t bytes,
              double priority = 1.0);

  /// Subscribe to completions of every data flow (writes, reads,
  /// replications). Multiple subscribers are invoked in add order.
  void add_completion_callback(CloudCompletionFn fn) {
    on_complete_.push_back(std::move(fn));
  }

  // --- component access ------------------------------------------------------
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] net::ThreeTierTree& topology() noexcept { return topo_; }
  [[nodiscard]] transport::TransportManager& transports() noexcept {
    return transports_;
  }
  [[nodiscard]] RateAllocator& allocator() noexcept { return allocator_; }
  [[nodiscard]] Hierarchy& hierarchy() noexcept { return hierarchy_; }
  [[nodiscard]] SlaManager& sla() noexcept { return sla_; }
  [[nodiscard]] ServerSelector& selector() noexcept { return *selector_; }
  [[nodiscard]] MetadataPlane& metadata() noexcept { return metadata_; }
  [[nodiscard]] FrontEnd& fes() noexcept { return metadata_.fes(); }
  [[nodiscard]] std::vector<BlockServer>& servers() noexcept {
    return servers_;
  }
  [[nodiscard]] const CloudConfig& config() const noexcept { return cfg_; }

  // --- aggregate statistics --------------------------------------------------
  [[nodiscard]] std::uint64_t failed_reads() const noexcept {
    return failed_reads_;
  }
  [[nodiscard]] std::uint64_t failed_writes() const noexcept {
    return failed_writes_;
  }
  /// Total energy consumed by all block servers so far (joules).
  [[nodiscard]] double total_energy_j() const;
  /// Count of servers currently dormant.
  [[nodiscard]] std::size_t dormant_servers() const;
  /// Count of servers currently failed.
  [[nodiscard]] std::size_t failed_servers() const;
  /// Data flows started and not yet completed or aborted.
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return ops_.size();
  }
  /// Control-plane overhead accounting (messages modelled as RPCs),
  /// including the metadata plane's own retries, mirrors and sync setup.
  [[nodiscard]] std::uint64_t control_messages() const noexcept {
    return ctrl_messages_ + metadata_.control_messages();
  }
  [[nodiscard]] std::uint64_t control_bytes() const noexcept {
    return ctrl_bytes_ + metadata_.control_bytes();
  }

  /// Adjust a flow's priority weight; takes effect next control interval
  /// (adaptive QoS, section IV-A). No-op for TCP flows.
  void set_flow_priority(net::FlowId id, double priority);

  /// Like write(), but the resulting upload flow is driven to finish by
  /// `deadline_s` (absolute simulation time) via adaptive priorities.
  bool write_with_deadline(std::size_t client_idx, ContentId id,
                           std::int64_t bytes, double deadline_s,
                           transport::ContentClass content_class =
                               transport::ContentClass::kSemiInteractive);

  // --- failure injection -----------------------------------------------------
  /// Take a block server down. In-flight flows touching it are aborted
  /// (reads fail over, writes are failed back to the client), its blocks
  /// become unavailable, selection skips it, and (by default) every content
  /// it held is queued for background re-replication from a surviving copy
  /// so the replication factor recovers.
  void fail_server(std::size_t server_idx, bool re_replicate = true);
  /// Bring a failed server back. Its disk is scrubbed (stale blocks were
  /// dropped from metadata at failure time); it fills up again through
  /// normal placement.
  void recover_server(std::size_t server_idx);

  /// Cut or restore a link (failure injection, docs/scenarios.md). The
  /// link refuses packets and the allocator pins every flow crossing it to
  /// zero. `propagate` pushes the new rates to senders and the fluid
  /// engine immediately; batch callers toggle several links with
  /// propagate=false and finish with one propagating call.
  void set_link_up(net::LinkId l, bool up, bool propagate = true);

  /// Abort one in-flight flow (replica failure): unregisters it, rolls
  /// back partial placement state and triggers the per-kind retry policy
  /// (read failover, write failure, repair re-queue). Returns false for
  /// unknown/finished flows.
  bool abort_flow(net::FlowId id);

  // --- metadata-plane fault tolerance (docs/scenarios.md) --------------------
  // Forwards to metadata(); see MetadataPlane for the instance numbering.
  [[nodiscard]] bool nns_failover_enabled() const noexcept {
    return metadata_.failover_enabled();
  }
  [[nodiscard]] std::size_t nns_instance_count() const noexcept {
    return metadata_.instance_count();
  }
  [[nodiscard]] NameNode& nns_instance(std::size_t instance) {
    return metadata_.instance(instance);
  }
  /// Take an NNS instance down (MetadataPlane::fail) and abort the sync
  /// flow it was part of.
  void fail_nns(std::size_t instance);
  void recover_nns(std::size_t instance) { metadata_.recover(instance); }
  [[nodiscard]] const MetadataStats& meta_stats() const noexcept {
    return metadata_.stats();
  }

  // --- proactive rebalancing -------------------------------------------------
  [[nodiscard]] bool rebalance_enabled() const noexcept {
    return cfg_.params.rebalance_interval_s > 0;
  }
  [[nodiscard]] const RebalanceStats& rebalance_stats() const noexcept {
    return rebalance_stats_;
  }

  // --- churn / repair accounting ---------------------------------------------
  [[nodiscard]] const ChurnStats& churn_stats() const noexcept {
    return churn_;
  }
  /// Object-seconds spent under-replicated (only objects that reached the
  /// target replica count once; integrated exactly on transitions).
  [[nodiscard]] double under_replicated_seconds() const;
  /// Objects currently below their target replica count.
  [[nodiscard]] std::int64_t under_replicated_objects() const noexcept {
    return under_replicated_count_;
  }
  [[nodiscard]] std::int32_t repairs_in_flight() const noexcept {
    return repairs_in_flight_;
  }
  [[nodiscard]] std::size_t repair_queue_depth() const noexcept {
    return repair_queue_.size();
  }
  /// The failure injector driving scheduled churn, or nullptr when churn
  /// is disabled.
  [[nodiscard]] const ChurnInjector* churn() const noexcept {
    return churn_injector_.get();
  }

  /// Learned access classes (section VII-C); fed by completed operations.
  [[nodiscard]] ContentClassifier& classifier() noexcept {
    return classifier_;
  }
  [[nodiscard]] std::uint64_t migrations_completed() const noexcept {
    return migrations_completed_;
  }

 private:
  void control_tick();
  void update_ongoing_flows();
  void integrate_power();
  void dormancy_housekeeping();
  void migration_scan();
  void rebalance_scan();
  void count_ctrl(std::uint64_t messages, std::uint64_t bytes) {
    ctrl_messages_ += messages;
    ctrl_bytes_ += bytes;
  }

  /// Start the data flow of `op`, between the endpoints its kind names: a
  /// read from op.server to op.client, a write or an append from op.client
  /// to op.server, and every copy from op.source_server to op.server.
  net::FlowId start_data_flow(const CloudOp& op, std::int64_t bytes,
                              double priority, sim::BitRate reserved);
  /// start_data_flow once `delay_s` of control-plane setup has passed.
  void start_after(double delay_s, const CloudOp& op, std::int64_t bytes,
                   double priority, sim::BitRate reserved = {});
  /// Place a move's (migration's or rebalance's) target copy and start its
  /// flow; false when the target's disk is full.
  bool start_move(const CloudOp& op, std::int64_t bytes, double priority);
  /// Re-rate the fluid flows from the allocator's current rates: at the RA
  /// epoch after each tick, or at once after an admission or failure.
  void rerate_fluid(bool epoch);
  void on_flow_complete(const transport::FlowRecord& rec);
  /// Start one replication hop from op.server; `repair` flows run at
  /// params.repair_priority and feed the repair accounting.
  void begin_replication(const CloudOp& op, std::int64_t bytes,
                         double priority = 1.0, bool repair = false);

  // --- churn / repair machinery (docs/scenarios.md) --------------------------
  /// Queue `id` for background re-replication (deduplicated).
  void enqueue_repair(ContentId id);
  /// Start queued repairs up to params.max_concurrent_repairs (control tick).
  void drain_repair_queue();
  /// Re-check an object's replica count against the target and move the
  /// under-replicated clock (exact event-time integration).
  void note_replicas_changed(const ContentMeta& meta);
  void update_under_replicated_clock();
  /// Abort every in-flight flow whose op touches the failed server.
  void abort_flows_touching_server(std::int32_t idx);
  /// Undo the eager BlockServer::store of a flow that never completed.
  void rollback_partial_store(const CloudOp& op);
  /// Push refreshed allocations to senders and the fluid engine.
  void propagate_rate_changes();

  sim::Simulator& sim_;
  CloudConfig cfg_;
  net::ThreeTierTree topo_;
  transport::TransportManager transports_;
  RateAllocator allocator_;
  Hierarchy hierarchy_;
  SlaManager sla_;
  RebalanceStats rebalance_stats_;
  std::unique_ptr<ServerSelector> selector_;
  std::vector<BlockServer> servers_;
  MetadataPlane metadata_;
  std::unique_ptr<sim::PeriodicProcess> control_loop_;
  std::unique_ptr<sim::PeriodicProcess> migration_loop_;
  std::unique_ptr<sim::PeriodicProcess> rebalance_loop_;
  ContentClassifier classifier_;
  TargetRateController target_ctrl_{allocator_};
  /// Deadlines requested before the upload flow exists, keyed by content.
  std::unordered_map<ContentId, double> pending_deadline_;
  std::uint64_t migrations_completed_ = 0;
  /// Content with a move already in flight (avoid duplicate migrations).
  std::unordered_set<ContentId> migrating_;

  std::vector<CloudCompletionFn> on_complete_;
  std::unordered_map<net::FlowId, CloudOp> ops_;
  std::unordered_map<net::FlowId, transport::ScdaFlowHandles> active_scda_;
  /// Server index of each node id; servers_.size() for any other node.
  std::vector<std::size_t> server_index_by_node_;
  /// Previous access-link tx bytes per server (power utilization estimate).
  std::vector<std::uint64_t> prev_tx_bytes_;

  /// Content ids accepted for writing (pending or stored); duplicate write
  /// requests are rejected synchronously.
  std::unordered_set<ContentId> known_content_;
  std::uint64_t failed_reads_ = 0;
  std::uint64_t failed_writes_ = 0;
  std::uint64_t ctrl_messages_ = 0;
  std::uint64_t ctrl_bytes_ = 0;

  // --- churn / repair state (docs/scenarios.md) ------------------------------
  ChurnStats churn_;
  std::unique_ptr<ChurnInjector> churn_injector_;
  std::deque<ContentId> repair_queue_;
  /// Content queued or repairing (deduplicates repair requests).
  std::unordered_set<ContentId> repair_pending_;
  std::int32_t repairs_in_flight_ = 0;
  /// Durability state, one entry per object that has reached its target
  /// replica count: true while it is below that target. It lives here, not
  /// in ContentMeta, because a name-node failover switches which copy of
  /// the metadata the repair path updates.
  std::unordered_map<ContentId, bool> below_target_;
  /// Exact integration of object-seconds under-replicated.
  std::int64_t under_replicated_count_ = 0;
  double under_replicated_seconds_ = 0.0;
  sim::Time under_last_update_{};
};

}  // namespace scda::core
