#include "core/cloud.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/churn.h"
#include "obs/observability.h"
#include "util/log.h"

namespace scda::core {

using transport::ContentClass;
using transport::TransportKind;

namespace {

/// `cfg` once every control-plane parameter is known to be usable, before
/// any component is built from it. Throws std::invalid_argument naming the
/// field.
CloudConfig checked(CloudConfig cfg) {
  const ScdaParams& p = cfg.params;
  constexpr double kAny = -std::numeric_limits<double>::infinity();
  // Each value must be finite and at least `low`, or above it if `strict`.
  // A scan interval of 0 turns its scan off.
  const struct {
    const char* field;
    double value, low;
    bool strict;
  } rules[] = {
      {"alpha", p.alpha, kAny, false},
      {"beta", p.beta, kAny, false},
      {"tau", p.tau, 0, true},
      {"rscale", p.rscale.bps(), kAny, false},
      {"rcvw_headroom", p.rcvw_headroom, kAny, false},
      {"ctrl_dc_latency_s", p.ctrl_dc_latency_s, 0, false},
      {"ctrl_wan_latency_s", p.ctrl_wan_latency_s, 0, false},
      {"min_rate", p.min_rate.bps(), kAny, false},
      {"n_name_nodes", static_cast<double>(p.n_name_nodes), 1, false},
      {"nns_service_time_s", p.nns_service_time_s, 0, false},
      {"replicas", static_cast<double>(p.replicas), 1, false},
      {"repair_priority", p.repair_priority, kAny, false},
      {"max_concurrent_repairs",
       static_cast<double>(p.max_concurrent_repairs), 0, false},
      {"migration_interval_s", p.migration_interval_s, 0, false},
      {"metadata_timeout_s", p.metadata_timeout_s, 0, true},
      {"metadata_max_attempts", static_cast<double>(p.metadata_max_attempts),
       1, false},
      {"rebalance_interval_s", p.rebalance_interval_s, 0, false},
      {"rebalance_priority", p.rebalance_priority, kAny, false},
      {"fluid threshold_bytes", static_cast<double>(cfg.fluid.threshold_bytes),
       0, false}};
  for (const auto& r : rules) {
    const bool finite = std::isfinite(r.value);
    if (finite && (r.strict ? r.value > r.low : r.value >= r.low)) continue;
    char msg[160];
    if (finite)
      std::snprintf(msg, sizeof msg, "Cloud: %s must be %s %g, got %g",
                    r.field, r.strict ? ">" : ">=", r.low, r.value);
    else
      std::snprintf(msg, sizeof msg, "Cloud: %s must be finite, got %g",
                    r.field, r.value);
    throw std::invalid_argument(msg);
  }
  return cfg;
}

}  // namespace

Cloud::Cloud(sim::Simulator& sim, CloudConfig cfg)
    : sim_(sim),
      cfg_(checked(std::move(cfg))),
      topo_(sim, cfg_.topology),
      transports_(topo_.net()),
      allocator_(topo_.net(), cfg_.params),
      hierarchy_(topo_, allocator_),
      sla_(topo_.net()),
      metadata_(sim_, cfg_.params, sim::nns_churn_configured(cfg_.churn),
                servers_) {
  const auto n_servers = static_cast<std::size_t>(cfg_.topology.n_servers());

  // Block servers with heterogeneous power profiles (section VII-D).
  servers_.reserve(n_servers);
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers_.emplace_back(s, topo_.servers()[s]);
    const double ineff =
        1.0 + sim_.rng().uniform() * cfg_.power_heterogeneity;
    servers_.back().power().set_inefficiency(ineff);
  }
  prev_tx_bytes_.assign(n_servers, 0);
  server_index_by_node_.assign(topo_.net().node_count(), n_servers);
  for (const BlockServer& bs : servers_)
    server_index_by_node_[bs.node().index()] = bs.index();

  // A recovering name node pulls its peer's map as a background flow
  // between the instances' host servers (docs/scenarios.md).
  metadata_.set_sync_flow_fn([this](std::size_t instance,
                                    std::size_t src_host,
                                    std::size_t dst_host,
                                    std::int64_t bytes) {
    return start_data_flow(
        CloudOp{.content_class = ContentClass::kPassive,
                .kind = CloudOp::Kind::kNnsSync,
                .server = static_cast<std::int32_t>(dst_host),
                .client = static_cast<std::int64_t>(instance),
                .source_server = static_cast<std::int32_t>(src_host)},
        bytes, cfg_.params.repair_priority, /*reserved=*/sim::BitRate{});
  });

  selector_ = std::make_unique<ServerSelector>(
      hierarchy_, servers_, cfg_.params, sim_.rng(), cfg_.placement);
  // Admission: the server needs disk space, and for SCDA placements the NNS
  // avoids servers behind links with recent SLA violations (section IV-A).
  selector_->set_admit_filter([this](std::size_t s) {
    if (servers_[s].failed()) return false;
    if (servers_[s].resources().free_bytes() <= 0) return false;
    if (cfg_.placement == PlacementPolicy::kScda) {
      const sim::Time now = sim_.now();
      if (sla_.recently_violated(topo_.server_uplink(s), now) ||
          sla_.recently_violated(topo_.server_downlink(s), now))
        return false;
    }
    return true;
  });

  hierarchy_.set_r_other_provider([this](std::size_t s) {
    // A failed server offers no service rate at all (RM health signal).
    return servers_[s].failed() ? sim::BitRate{}
                                : servers_[s].resources().r_other();
  });
  // A flow is capped at its server endpoints' R_other whether or not the
  // server has failed since: only selection reads a failed server as 0.
  allocator_.set_r_other_hook(
      [](const void* ctx, net::NodeId node) {
        const Cloud& c = *static_cast<const Cloud*>(ctx);
        const std::size_t s = c.server_index_by_node_[node.index()];
        return s < c.servers_.size()
                   ? c.servers_[s].resources().r_other()
                   : sim::BitRate{std::numeric_limits<double>::infinity()};
      },
      this);

  allocator_.set_sla_callback(
      [this](net::LinkId l, sim::BitRate demand, sim::BitRate gamma,
             sim::Time t) {
        // SLA pressure attributable to repair traffic (docs/scenarios.md):
        // violations while background re-replication is in flight.
        if (repairs_in_flight_ > 0) ++churn_.sla_violations_during_repair;
        sla_.on_violation(l, demand, gamma, t);
      });

  transports_.set_completion_callback(
      [this](const transport::FlowRecord& rec) { on_flow_complete(rec); });

  transports_.set_fluid_config(cfg_.fluid);

  // Control loop: RM/RA computation every tau (sections IV and VI).
  control_loop_ = std::make_unique<sim::PeriodicProcess>(
      sim_, sim::secs(cfg_.params.tau), [this] { control_tick(); });
  control_loop_->start(sim::secs(cfg_.params.tau));

  if (cfg_.params.migration_interval_s > 0) {
    migration_loop_ = std::make_unique<sim::PeriodicProcess>(
        sim_, sim::secs(cfg_.params.migration_interval_s),
        [this] { migration_scan(); });
    migration_loop_->start(sim::secs(cfg_.params.migration_interval_s));
  }

  if (cfg_.params.rebalance_interval_s > 0) {
    rebalance_loop_ = std::make_unique<sim::PeriodicProcess>(
        sim_, sim::secs(cfg_.params.rebalance_interval_s),
        [this] { rebalance_scan(); });
    rebalance_loop_->start(sim::secs(cfg_.params.rebalance_interval_s));
  }

  hierarchy_.update();

  // Failure injection last: the schedule is a pure function of (config,
  // topology shape, sim seed), posted up-front through the simulator.
  if (cfg_.churn.enabled)
    churn_injector_ = std::make_unique<ChurnInjector>(*this, cfg_.churn);
}

Cloud::~Cloud() = default;

// --------------------------------------------------------------------------
// control loop
// --------------------------------------------------------------------------

void Cloud::control_tick() {
  allocator_.tick();
  // The fluid epoch: once the round's allocations settle, fluid flows
  // integrate their old rate up to now and continue at the fresh r_j, before
  // the controller below reads their delivered bytes.
  rerate_fluid(/*epoch=*/true);
  // Adaptive priority control (section IV-A): retune weights of flows with
  // rate targets or deadlines before windows are refreshed below.
  target_ctrl_.update(sim_.now(), [this](net::FlowId id) {
    const transport::FlowRecord& rec = transports_.record(id);
    if (rec.fluid && transports_.fluid().has_flow(id))
      return rec.size_bytes - transports_.fluid().delivered_bytes(id);
    const transport::WindowSender* s = transports_.sender(id);
    return s ? rec.size_bytes - s->acked_bytes() : std::int64_t{0};
  });
  hierarchy_.update();
  update_ongoing_flows();
  drain_repair_queue();
  metadata_.drain_resync_queue();
  integrate_power();
  dormancy_housekeeping();
  // Overhead: each RM and RA reports (or forwards) its rate sums once per
  // interval (the Delta-encoding of section IV would shrink this further).
  const std::uint64_t reporters =
      servers_.size() + topo_.tors().size() + topo_.aggs().size() + 1;
  count_ctrl(reporters, reporters * kCtrlMsgBytes);

  if (obs::TraceRecorder* tr = obs::tracer_of(sim_)) {
    const sim::Time now = sim_.now();
    tr->counter(now, "active_flows", static_cast<double>(active_flows()));
    tr->counter(now, "eventq_pending",
                static_cast<double>(sim_.queue().scheduled()));
    tr->counter(now, "dormant_servers",
                static_cast<double>(dormant_servers()));
  }
}

void Cloud::update_ongoing_flows() {
  // Paper section VIII-D: every control interval, each RM re-derives the
  // windows of its ongoing flows from the current allocation.
  for (auto& [id, handles] : active_scda_) {
    const sim::BitRate r = allocator_.flow_rate(id);
    handles.sender->set_rate(r);
    const double rtt =
        handles.sender->srtt() > 0
            ? handles.sender->srtt()
            : transports_.base_rtt(handles.sender->record().src,
                                   handles.sender->record().dst);
    // Window-sizing boundary: rate*rtt/8*headroom, unwrapped once.
    handles.receiver->set_rcvw_bytes(static_cast<std::int64_t>(
        r.bps() * rtt / 8.0 * cfg_.params.rcvw_headroom));
  }
}

void Cloud::integrate_power() {
  const double tau = cfg_.params.tau;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const net::Link& up = topo_.net().link(topo_.server_uplink(s));
    const net::Link& down = topo_.net().link(topo_.server_downlink(s));
    const std::uint64_t tx = up.stats().tx_bytes + down.stats().tx_bytes;
    const double bits = static_cast<double>(tx - prev_tx_bytes_[s]) * 8.0;
    prev_tx_bytes_[s] = tx;
    const sim::BitRate cap = up.capacity() + down.capacity();
    // Utilization is dimensionless: bits / (rate * tau) unwraps once.
    const double util =
        cap > sim::BitRate{} ? std::min(1.0, bits / (cap.bps() * tau)) : 0.0;
    const double p = servers_[s].power().power_w(util);
    servers_[s].power().record_sample(p);
    servers_[s].power().integrate_energy(p, tau);
  }
}

void Cloud::dormancy_housekeeping() {
  if (cfg_.params.rscale <= sim::BitRate{}) return;
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    BlockServer& bs = servers_[s];
    if (!bs.dormant() && bs.active_flows() == 0 && bs.active_copies() == 0) {
      // Idle server holding no active content (only passive blocks, or
      // nothing at all): scale it down. It is woken when active content is
      // placed on it or a read hits one of its passive blocks.
      bs.set_dormant(true);
    }
  }
}

void Cloud::migration_scan() {
  // Section VII-C: content whose learned access pattern is passive is
  // moved off active servers onto dormant-eligible ones, so those active
  // servers' load shrinks and the dormant pool grows.
  if (cfg_.params.rscale <= sim::BitRate{}) return;
  constexpr std::int32_t kMaxMigrationsPerScan = 2;  // storm control
  std::int32_t started = 0;
  const sim::Time now = sim_.now();
  for (std::size_t shard = 0; shard < metadata_.shard_count(); ++shard) {
    if (started >= kMaxMigrationsPerScan) break;
    NameNode& nns = metadata_.authority(shard);
    for (const ContentId id : nns.content_ids()) {
      if (started >= kMaxMigrationsPerScan) break;
      ContentMeta* meta = nns.find(id);
      if (meta == nullptr || meta->replicas.empty()) continue;
      if (meta->content_class == ContentClass::kPassive) continue;
      if (migrating_.count(id)) continue;
      // Only migrate content the classifier has actually cooled down on:
      // it must have been accessed at least once and be quiet since.
      if (classifier_.classify(id, now) != ContentClass::kPassive) continue;
      if (now - meta->last_access_time <
          sim::secs(classifier_.config().interactivity_interval_s))
        continue;

      const std::int32_t source = meta->replicas.front();
      const std::int32_t target =
          selector_->select_replica_target(ContentClass::kPassive, {source});
      if (target < 0 || target == source) continue;
      if (std::find(meta->replicas.begin(), meta->replicas.end(), target) !=
          meta->replicas.end())
        continue;  // already replicated there
      if (start_move(CloudOp{.content = id,
                             .content_class = ContentClass::kPassive,
                             .kind = CloudOp::Kind::kMigration,
                             .server = target,
                             .source_server = source},
                     meta->size_bytes, /*priority=*/1.0))
        ++started;
    }
  }
}

void Cloud::rebalance_scan() {
  // Proactive rebalancing (docs/scenarios.md): compute per-server load
  // (metadata access counts summed over replicas) and stored-byte skew,
  // then move the hottest object off each overloaded server to a cooler
  // one as a background flow. Everything iterates sorted ids / dense
  // vectors, so the scan is deterministic.
  ++rebalance_stats_.scans;
  const std::size_t n = servers_.size();
  std::vector<double> load(n, 0.0);
  std::vector<double> stored(n, 0.0);
  struct Candidate {
    double score = -1.0;
    ContentId id = kInvalidContent;
  };
  std::vector<Candidate> hottest(n);
  for (std::size_t shard = 0; shard < metadata_.shard_count(); ++shard) {
    NameNode& nns = metadata_.authority(shard);
    for (const ContentId id : nns.content_ids()) {
      const ContentMeta* meta = nns.find(id);
      if (meta == nullptr || meta->replicas.empty()) continue;
      const double score = static_cast<double>(meta->reads + meta->writes);
      for (const std::int32_t r : meta->replicas) {
        if (r < 0 || static_cast<std::size_t>(r) >= n) continue;
        const auto ri = static_cast<std::size_t>(r);
        load[ri] += score;
        stored[ri] += static_cast<double>(meta->size_bytes);
        if (migrating_.count(id)) continue;
        Candidate& c = hottest[ri];
        if (score > c.score ||
            (score == c.score && (c.id == kInvalidContent || id < c.id)))
          c = Candidate{score, id};
      }
    }
  }

  double sum_load = 0.0;
  double sum_stored = 0.0;
  std::size_t up = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (servers_[s].failed()) continue;
    sum_load += load[s];
    sum_stored += stored[s];
    ++up;
  }
  if (up == 0) return;
  const double mean_load = sum_load / static_cast<double>(up);
  const double mean_stored = sum_stored / static_cast<double>(up);
  // A server is a move source when its load or stored bytes exceed the
  // fleet mean by this fraction.
  constexpr double kRebalanceSkewThreshold = 0.5;
  const double thr = 1.0 + kRebalanceSkewThreshold;

  // Visit the most loaded servers first (deterministic tie-break on index).
  std::vector<std::size_t> order(n);
  for (std::size_t s = 0; s < n; ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (load[a] != load[b]) return load[a] > load[b];
    return a < b;
  });

  constexpr std::int32_t kMaxRebalancesPerScan = 2;  // storm control
  std::int32_t started = 0;
  for (const std::size_t s : order) {
    if (started >= kMaxRebalancesPerScan) break;
    if (servers_[s].failed()) continue;
    const bool hot = mean_load > 0 && load[s] > thr * mean_load;
    const bool full = mean_stored > 0 && stored[s] > thr * mean_stored;
    if (!hot && !full) continue;
    const Candidate& c = hottest[s];
    if (c.id == kInvalidContent) {
      ++rebalance_stats_.skipped;
      continue;
    }
    ContentMeta* meta = metadata_.owner(c.id).find(c.id);
    if (meta == nullptr ||
        std::find(meta->replicas.begin(), meta->replicas.end(),
                  static_cast<std::int32_t>(s)) == meta->replicas.end()) {
      ++rebalance_stats_.skipped;
      continue;
    }
    const std::int32_t target =
        selector_->select_replica_target(meta->content_class, meta->replicas);
    if (target < 0 ||
        load[static_cast<std::size_t>(target)] > mean_load) {
      ++rebalance_stats_.skipped;  // no strictly cooler home available
      continue;
    }
    if (!start_move(CloudOp{.content = c.id,
                            .content_class = meta->content_class,
                            .kind = CloudOp::Kind::kRebalance,
                            .server = target,
                            .source_server = static_cast<std::int32_t>(s)},
                    meta->size_bytes, cfg_.params.rebalance_priority)) {
      ++rebalance_stats_.skipped;
      continue;
    }
    ++started;
    ++rebalance_stats_.flows_started;
  }
}

bool Cloud::start_move(const CloudOp& op, std::int64_t bytes,
                       double priority) {
  // The target holds the copy from here on; the source keeps its own until
  // the move lands (on_flow_complete vacates it).
  if (!servers_[static_cast<std::size_t>(op.server)].place(op.content, bytes,
                                                           op.content_class))
    return false;
  migrating_.insert(op.content);
  count_ctrl(4, 4 * kCtrlMsgBytes);
  start_after(2 * cfg_.params.ctrl_dc_latency_s, op, bytes, priority);
  return true;
}

// --------------------------------------------------------------------------
// request protocols (Figs. 3-5)
// --------------------------------------------------------------------------

bool Cloud::write(std::size_t client_idx, ContentId id, std::int64_t bytes,
                  ContentClass content_class, double priority,
                  sim::BitRate reserved) {
  return submit_write(CloudOp{.content = id,
                              .content_class = content_class,
                              .client = static_cast<std::int64_t>(client_idx)},
                      bytes, priority, reserved);
}

bool Cloud::write_with_deadline(std::size_t client_idx, ContentId id,
                                std::int64_t bytes, double deadline_s,
                                ContentClass content_class) {
  return submit_write(CloudOp{.content = id,
                              .content_class = content_class,
                              .client = static_cast<std::int64_t>(client_idx),
                              .deadline_s = deadline_s},
                      bytes, /*priority=*/1.0, /*reserved=*/{});
}

bool Cloud::submit_write(CloudOp op, std::int64_t bytes, double priority,
                         sim::BitRate reserved) {
  if (static_cast<std::size_t>(op.client) >= topo_.clients().size() ||
      bytes <= 0)
    return false;
  if (!known_content_.insert(op.content).second) return false;  // duplicate

  // Steps 1-2 (Fig. 3): UCL -> FES (WAN) -> NNS (intra-DC), then the NNS
  // service queue. Steps 3-7 happen inside the NNS handler; the data
  // connection opens after the BS contacts the UCL (one more WAN hop).
  const double to_nns =
      cfg_.params.ctrl_wan_latency_s + cfg_.params.ctrl_dc_latency_s;
  count_ctrl(2, 2 * kCtrlMsgBytes);

  auto handler = [this, op, bytes, priority, reserved](NameNode& serving) {
    // Steps 3-4: NNS asks the RA for the best BS (here: level hmax).
    count_ctrl(2, 2 * kCtrlMsgBytes);
    CloudOp w = op;
    w.server = selector_->select_write_target(op.content_class);
    if (w.server < 0 || !servers_[static_cast<std::size_t>(w.server)].place(
                            op.content, bytes, op.content_class)) {
      fail_write(op.content);
      return;
    }

    ContentMeta& meta = serving.upsert(op.content);
    meta.size_bytes = bytes;
    meta.content_class = op.content_class;
    meta.last_access_time = sim_.now();
    metadata_.mirror(serving, op.content);

    // Steps 5-9: RA forwards the UCL id to the BS; BS derives rcvw from
    // its RM and greets the UCL (WAN hop); then the UCL starts writing.
    count_ctrl(4, 4 * kCtrlMsgBytes);
    start_after(
        2 * cfg_.params.ctrl_dc_latency_s + cfg_.params.ctrl_wan_latency_s, w,
        bytes, priority, reserved);
  };
  sim_.post_in(sim::secs(to_nns), [this, id = op.content,
                                   h = std::move(handler)] {
    metadata_.submit(static_cast<std::uint64_t>(id), h,
                     [this, id] { fail_write(id); });
  });
  return true;
}

bool Cloud::read(std::size_t client_idx, ContentId id, double priority) {
  if (client_idx >= topo_.clients().size()) return false;

  const double to_nns =
      cfg_.params.ctrl_wan_latency_s + cfg_.params.ctrl_dc_latency_s;
  count_ctrl(2, 2 * kCtrlMsgBytes);

  auto handler = [this, client_idx, id, priority](NameNode& serving) {
    ContentMeta* meta = serving.find(id);
    if (meta == nullptr || meta->replicas.empty()) {
      ++failed_reads_;
      return;
    }
    // Step 3 (Fig. 5): choose the replica with the best upload rate.
    count_ctrl(2, 2 * kCtrlMsgBytes);
    const std::int32_t source = selector_->select_read_replica(meta->replicas);
    if (source < 0) {
      ++failed_reads_;
      return;
    }
    BlockServer& bs = servers_[static_cast<std::size_t>(source)];
    double setup = cfg_.params.ctrl_dc_latency_s;
    if (bs.dormant()) {
      // Waking a dormant server costs a power-state transition (VII-C).
      constexpr double kDormantWakeLatencyS = 0.3;
      bs.set_dormant(false);
      setup += kDormantWakeLatencyS;
    }
    meta->last_access_time = sim_.now();
    metadata_.mirror(serving, id);
    start_after(setup,
                CloudOp{.content = id,
                        .content_class = meta->content_class,
                        .kind = CloudOp::Kind::kRead,
                        .server = source,
                        .client = static_cast<std::int64_t>(client_idx)},
                meta->size_bytes, priority);
  };
  sim_.post_in(sim::secs(to_nns), [this, id, h = std::move(handler)] {
    metadata_.submit(static_cast<std::uint64_t>(id), h,
                     [this] { ++failed_reads_; });
  });
  return true;
}

bool Cloud::append(std::size_t client_idx, ContentId id, std::int64_t bytes,
                   double priority) {
  if (client_idx >= topo_.clients().size() || bytes <= 0) return false;

  const double to_nns =
      cfg_.params.ctrl_wan_latency_s + cfg_.params.ctrl_dc_latency_s;
  count_ctrl(2, 2 * kCtrlMsgBytes);

  auto handler = [this, client_idx, id, bytes, priority](NameNode& serving) {
    ContentMeta* meta = serving.find(id);
    if (meta == nullptr || meta->replicas.empty()) {
      ++failed_writes_;
      return;
    }
    // Updates land on the primary replica (where the content lives).
    const std::int32_t target = meta->replicas.front();
    BlockServer& bs = servers_[static_cast<std::size_t>(target)];
    if (bs.failed() || !bs.store(id, bytes)) {
      ++failed_writes_;
      return;
    }
    meta->last_access_time = sim_.now();
    metadata_.mirror(serving, id);
    count_ctrl(4, 4 * kCtrlMsgBytes);
    start_after(
        2 * cfg_.params.ctrl_dc_latency_s + cfg_.params.ctrl_wan_latency_s,
        CloudOp{.content = id,
                .content_class = meta->content_class,
                .kind = CloudOp::Kind::kAppend,
                .server = target,
                .client = static_cast<std::int64_t>(client_idx)},
        bytes, priority);
  };
  sim_.post_in(sim::secs(to_nns), [this, id, h = std::move(handler)] {
    metadata_.submit(static_cast<std::uint64_t>(id), h,
                     [this] { ++failed_writes_; });
  });
  return true;
}

void Cloud::begin_replication(const CloudOp& write_op, std::int64_t bytes,
                              double priority, bool repair) {
  // Fig. 4: the BS holding the fresh copy asks the content's NNS for a
  // replication target offering the best upload rate for future reads.
  count_ctrl(2, 2 * kCtrlMsgBytes);
  auto handler = [this, write_op, bytes, priority, repair](NameNode& serving) {
    // k-way placement: exclude every server already holding a copy plus
    // the source, so chained replication never doubles up.
    std::vector<std::int32_t> exclude;
    if (const ContentMeta* meta = serving.find(write_op.content))
      exclude = meta->replicas;
    if (std::find(exclude.begin(), exclude.end(), write_op.server) ==
        exclude.end())
      exclude.push_back(write_op.server);

    const std::int32_t target =
        selector_->select_replica_target(write_op.content_class, exclude);
    if (target < 0 || target == write_op.server ||
        !servers_[static_cast<std::size_t>(target)].place(
            write_op.content, bytes, write_op.content_class)) {
      // A repair that cannot start (no admissible target, disk full) goes
      // back to the queue for a later control tick.
      if (repair) retry_repair(write_op.content);
      return;
    }
    if (repair) ++churn_.repair_flows_started;
    count_ctrl(4, 4 * kCtrlMsgBytes);
    start_after(3 * cfg_.params.ctrl_dc_latency_s,
                CloudOp{.content = write_op.content,
                        .content_class = write_op.content_class,
                        .kind = CloudOp::Kind::kReplication,
                        .server = target,
                        .source_server = write_op.server,
                        .repair = repair},
                bytes, priority);
  };
  metadata_.submit(
      static_cast<std::uint64_t>(write_op.content), std::move(handler),
      [this, content = write_op.content, repair] {
        // The metadata plane never answered: leave the object to the
        // background repair queue.
        if (repair)
          retry_repair(content);
        else
          enqueue_repair(content);
      });
}

// --------------------------------------------------------------------------
// data plane
// --------------------------------------------------------------------------

void Cloud::start_after(double delay_s, const CloudOp& op, std::int64_t bytes,
                        double priority, sim::BitRate reserved) {
  sim_.post_in(sim::secs(delay_s), [this, op, bytes, priority, reserved] {
    start_data_flow(op, bytes, priority, reserved);
  });
}

net::FlowId Cloud::start_data_flow(const CloudOp& op, std::int64_t bytes,
                                   double priority, sim::BitRate reserved) {
  BlockServer& server = servers_[static_cast<std::size_t>(op.server)];
  server.flow_started();
  net::NodeId src = server.node();
  net::NodeId dst = server.node();
  if (op.kind == CloudOp::Kind::kRead)
    dst = topo_.clients()[static_cast<std::size_t>(op.client)];
  else if (op.kind == CloudOp::Kind::kWrite ||
           op.kind == CloudOp::Kind::kAppend)
    src = topo_.clients()[static_cast<std::size_t>(op.client)];
  else
    src = servers_[static_cast<std::size_t>(op.source_server)].node();
  const ContentClass content = op.kind == CloudOp::Kind::kRead
                                   ? ContentClass::kSemiInteractive
                                   : op.content_class;

  if (cfg_.transport == TransportKind::kTcp) {
    const net::FlowId id = transports_.start_tcp_flow(src, dst, bytes, content);
    ops_.emplace(id, op);
    return id;
  }

  // SCDA: the initial rate is what the RM/RA hierarchy currently offers on
  // the path (Fig. 3 steps 6-12); the flow is registered with the
  // allocator so subsequent intervals account for it.
  const sim::BitRate init_rate =
      reserved + priority * allocator_.path_rate(src, dst);
  auto handles = transports_.start_scda_flow(src, dst, bytes, init_rate,
                                             init_rate, content, priority);
  allocator_.register_flow(handles.id, src, dst, priority, reserved);
  // Registration lowers the advertised link rates; refresh every active
  // flow's allocation and push the new windows immediately so the admitted
  // flow does not ride on top of stale (higher) sender rates until the
  // next control interval.
  allocator_.refresh_flow_rates();
  if (handles.sender != nullptr)
    handles.sender->set_rate(allocator_.flow_rate(handles.id));
  // Post-admission re-rate for fluid flows (covers the new flow too): the
  // non-epoch analogue of update_ongoing_flows() below.
  rerate_fluid(/*epoch=*/false);
  update_ongoing_flows();

  // A write's deadline arms the adaptive controller now that the upload
  // flow exists (section IV-A EDF emulation).
  if (op.deadline_s >= 0)
    target_ctrl_.set_deadline(handles.id, bytes, op.deadline_s);
  // Fluid flows have no sender/receiver to re-window each interval; the
  // fluid epoch after each tick drives their rates instead.
  if (!handles.fluid) active_scda_.emplace(handles.id, handles);
  ops_.emplace(handles.id, op);
  return handles.id;
}

CloudOp Cloud::end_op(net::FlowId id) {
  CloudOp op;
  if (const auto it = ops_.find(id); it != ops_.end()) {
    op = it->second;
    ops_.erase(it);
    servers_[static_cast<std::size_t>(op.server)].flow_finished();
  }
  active_scda_.erase(id);
  allocator_.unregister_flow(id);
  target_ctrl_.clear(id);
  if (op.kind == CloudOp::Kind::kMigration ||
      op.kind == CloudOp::Kind::kRebalance)
    migrating_.erase(op.content);
  if (op.repair) release_repair(op.content);
  return op;
}

void Cloud::on_flow_complete(const transport::FlowRecord& rec) {
  const CloudOp op = end_op(rec.id);
  NameNode& nns = metadata_.owner(op.content);
  ContentMeta* meta = nns.find(op.content);
  // A flow can land on a server that failed after the NNS picked it (the
  // selection-to-start control window, or a mid-transfer crash in packet
  // mode): the delivered bytes are gone with the machine, so nothing may
  // be registered against it.
  const bool target_alive =
      op.server >= 0 && !servers_[static_cast<std::size_t>(op.server)].failed();
  if (op.kind == CloudOp::Kind::kNnsSync) {
    // A recovering NNS instance finished pulling its peer's metadata map;
    // it adopts the map and rejoins (docs/scenarios.md).
    metadata_.resync_completed(static_cast<std::size_t>(op.client),
                               rec.size_bytes);
  } else if (meta != nullptr && target_alive) {
    switch (op.kind) {
      case CloudOp::Kind::kWrite:
        ++meta->writes;
        meta->replicas.push_back(op.server);
        note_replicas_changed(*meta);
        classifier_.record_write(op.content, sim_.now());
        if (cfg_.enable_replication && under_replicated(*meta))
          begin_replication(op, rec.size_bytes);
        break;
      case CloudOp::Kind::kReplication:
        meta->replicas.push_back(op.server);
        note_replicas_changed(*meta);
        if (op.repair) {
          ++churn_.repair_flows_completed;
          churn_.repair_bytes += static_cast<std::uint64_t>(rec.size_bytes);
          if (under_replicated(*meta)) enqueue_repair(op.content);
        } else if (cfg_.enable_replication && under_replicated(*meta)) {
          // Chain the next hop of k-way replication from the copy that just
          // landed (closest source to the new target's rate metric).
          CloudOp next = op;
          next.kind = CloudOp::Kind::kWrite;  // source role
          begin_replication(next, rec.size_bytes);
        }
        break;
      case CloudOp::Kind::kRead:
        ++meta->reads;
        classifier_.record_read(op.content, sim_.now());
        break;
      case CloudOp::Kind::kAppend:
        ++meta->writes;
        meta->size_bytes += rec.size_bytes;
        classifier_.record_write(op.content, sim_.now());
        break;
      case CloudOp::Kind::kMigration:
      case CloudOp::Kind::kRebalance:
        // The moved copy now lives on the target: a cold copy on a
        // dormant-eligible server (section VII-C) or a hot/overfull one on
        // a cooler server (docs/scenarios.md). Vacate the source.
        meta->replicas.push_back(op.server);
        if (op.source_server >= 0) {
          servers_[static_cast<std::size_t>(op.source_server)].remove(
              op.content);
          std::erase(meta->replicas, op.source_server);
        }
        if (op.kind == CloudOp::Kind::kMigration) {
          // Every copy is now one of passive content, the ones the move
          // did not touch included.
          meta->content_class = ContentClass::kPassive;
          for (BlockServer& bs : servers_) bs.mark_passive(op.content);
          ++migrations_completed_;
        } else {
          note_replicas_changed(*meta);
          ++rebalance_stats_.flows_completed;
          rebalance_stats_.bytes_moved +=
              static_cast<std::uint64_t>(rec.size_bytes);
        }
        break;
      case CloudOp::Kind::kNnsSync:
        break;  // handled above
    }
    metadata_.mirror(nns, op.content);
  } else if (op.repair) {
    // Metadata vanished (or the target failed) while the repair flow ran:
    // requeue if the object still exists under-replicated.
    if (meta != nullptr && !meta->replicas.empty() && under_replicated(*meta))
      enqueue_repair(op.content);
  } else if (op.kind == CloudOp::Kind::kWrite && meta != nullptr &&
             !target_alive) {
    // The write's bytes arrived at a machine that is now dead: the client
    // sees a failed write and may retry under the same content id.
    fail_write(op.content);
  }

  for (const auto& fn : on_complete_) fn(rec, op);
}

// --------------------------------------------------------------------------
// statistics
// --------------------------------------------------------------------------

double Cloud::total_energy_j() const {
  double e = 0;
  for (const auto& s : servers_) e += s.power().energy_j();
  return e;
}

std::size_t Cloud::dormant_servers() const {
  std::size_t n = 0;
  for (const auto& s : servers_)
    if (s.dormant()) ++n;
  return n;
}

std::size_t Cloud::failed_servers() const {
  std::size_t n = 0;
  for (const auto& s : servers_)
    if (s.failed()) ++n;
  return n;
}

void Cloud::fail_server(std::size_t server_idx, bool re_replicate) {
  BlockServer& bs = servers_.at(server_idx);
  if (bs.failed()) return;
  bs.set_failed(true);
  const auto idx = static_cast<std::int32_t>(server_idx);

  // Everything in flight that touches the dead machine is cut short; reads
  // fail over to a surviving replica inside abort_flow.
  abort_flows_touching_server(idx);

  // Scrub metadata: drop the failed replica everywhere and queue the
  // restoration of the replication factor from a surviving copy (what
  // HDFS/GFS do on datanode loss; the paper's RM health monitoring
  // provides the signal). Repairs go through the background queue so a
  // correlated failure cannot stampede the fabric. Durability accounting
  // runs on the authority map only; the standby mirror is scrubbed without
  // accounting so the clock is not double-counted.
  for (std::size_t shard = 0; shard < metadata_.shard_count(); ++shard) {
    NameNode& auth = metadata_.authority(shard);
    for (const ContentId id : auth.content_ids()) {
      ContentMeta* meta = auth.find(id);
      if (meta == nullptr) continue;
      const auto before = meta->replicas.size();
      std::erase(meta->replicas, idx);
      if (meta->replicas.size() == before) continue;
      note_replicas_changed(*meta);
      if (re_replicate && !meta->replicas.empty() && under_replicated(*meta))
        enqueue_repair(id);
    }
    NameNode* peer = metadata_.peer(auth);
    if (peer == nullptr) continue;
    for (const ContentId id : peer->content_ids()) {
      if (ContentMeta* meta = peer->find(id)) std::erase(meta->replicas, idx);
    }
  }
  propagate_rate_changes();
}

void Cloud::recover_server(std::size_t server_idx) {
  BlockServer& bs = servers_.at(server_idx);
  if (!bs.failed()) return;
  bs.set_failed(false);
  // A recovered machine comes back empty (disk replaced / re-imaged): its
  // metadata entries were scrubbed at failure time, so any blocks still on
  // disk are orphans.
  bs.scrub();
}

void Cloud::fail_nns(std::size_t instance) {
  const net::FlowId sync = metadata_.fail(instance);
  if (sync != net::kInvalidFlow) abort_flow(sync);
}

// --------------------------------------------------------------------------
// churn: flow aborts, failover, background repair
// --------------------------------------------------------------------------

bool Cloud::abort_flow(net::FlowId id) {
  if (!ops_.contains(id) || !transports_.abort_flow(id)) return false;
  ++churn_.aborted_flows;
  const CloudOp op = end_op(id);
  // A copy's target reserved disk when it was placed, and the bytes never
  // fully arrived. A failed target is scrubbed wholesale on recovery.
  BlockServer& target = servers_[static_cast<std::size_t>(op.server)];
  if (op.kind != CloudOp::Kind::kRead && op.kind != CloudOp::Kind::kAppend &&
      op.kind != CloudOp::Kind::kNnsSync && !target.failed())
    target.remove(op.content);

  switch (op.kind) {
    case CloudOp::Kind::kRead:
      // Failover: re-issue the read against the surviving replicas. The
      // NNS lookup inside read() picks the next-best source (Fig. 5).
      ++churn_.failovers;
      read(static_cast<std::size_t>(op.client), op.content,
           transports_.record(id).priority);
      break;
    case CloudOp::Kind::kWrite:
      fail_write(op.content);
      break;
    case CloudOp::Kind::kAppend:
      ++failed_writes_;
      break;
    case CloudOp::Kind::kReplication:
      if (op.repair) ++churn_.repair_retries;
      enqueue_repair(op.content);
      break;
    case CloudOp::Kind::kMigration:
    case CloudOp::Kind::kRebalance:
      break;  // the source copy is vacated only when the move lands
    case CloudOp::Kind::kNnsSync:
      // The sync source or a host died mid-transfer.
      metadata_.resync_aborted(static_cast<std::size_t>(op.client));
      break;
  }
  return true;
}

void Cloud::abort_flows_touching_server(std::int32_t server_idx) {
  // Collect first (abort_flow mutates ops_), then abort in flow-id order
  // for determinism. ops_ holds exactly the flows still running.
  std::vector<net::FlowId> victims;
  for (const auto& [id, op] : ops_)
    if (op.server == server_idx || op.source_server == server_idx)
      victims.push_back(id);
  std::sort(victims.begin(), victims.end());
  for (const net::FlowId id : victims) abort_flow(id);
}

void Cloud::set_link_up(net::LinkId l, bool up, bool propagate) {
  topo_.net().link(l).set_up(up);
  allocator_.set_link_up(l, up);
  if (propagate) propagate_rate_changes();
}

void Cloud::propagate_rate_changes() {
  // After a topology change (server/link down or up) every surviving flow
  // must re-rate immediately — fluid flows would otherwise integrate a
  // stale rate across a dead link until the next RA epoch.
  allocator_.refresh_flow_rates();
  rerate_fluid(/*epoch=*/false);
  update_ongoing_flows();
}

void Cloud::rerate_fluid(bool epoch) {
  if (!cfg_.fluid.enabled) return;
  transports_.fluid().rerate_all(
      [this](net::FlowId id) { return allocator_.flow_rate(id); }, epoch);
}

void Cloud::enqueue_repair(ContentId id) {
  if (!repair_pending_.insert(id).second) return;
  repair_queue_.push_back(id);
}

void Cloud::drain_repair_queue() {
  if (repair_queue_.empty()) return;
  std::deque<ContentId> retry;
  while (!repair_queue_.empty() &&
         repairs_in_flight_ < cfg_.params.max_concurrent_repairs) {
    const ContentId id = repair_queue_.front();
    repair_queue_.pop_front();
    ContentMeta* meta = metadata_.owner(id).find(id);
    if (meta == nullptr || meta->replicas.empty() ||
        !under_replicated(*meta)) {
      repair_pending_.erase(id);  // lost, deleted, or already healthy
      continue;
    }
    const std::int32_t source = selector_->select_read_replica(meta->replicas);
    if (source < 0) {
      retry.push_back(id);  // sources exist but are all down right now
      continue;
    }
    ++repairs_in_flight_;
    begin_replication(CloudOp{.content = id,
                              .content_class = meta->content_class,
                              .kind = CloudOp::Kind::kWrite,  // source role
                              .server = source},
                      meta->size_bytes, cfg_.params.repair_priority,
                      /*repair=*/true);
  }
  for (const ContentId id : retry) repair_queue_.push_back(id);
}

void Cloud::release_repair(ContentId id) {
  --repairs_in_flight_;
  repair_pending_.erase(id);
}

void Cloud::retry_repair(ContentId id) {
  release_repair(id);
  ++churn_.repair_retries;
  enqueue_repair(id);
}

void Cloud::note_replicas_changed(const ContentMeta& meta) {
  const bool under = under_replicated(meta);
  auto it = below_target_.find(meta.id);
  if (it == below_target_.end()) {
    // Durability accounting only starts once the object is fully
    // replicated; the initial fill is not an under-replication episode.
    if (under) return;
    it = below_target_.emplace(meta.id, false).first;
  }
  if (under != it->second) {
    update_under_replicated_clock();
    it->second = under;
    under_replicated_count_ += under ? 1 : -1;
  }
  // No copy left is absorbing (fail_server only scrubs replicas it
  // actually erased), so each object is counted lost at most once.
  if (meta.replicas.empty()) ++churn_.objects_lost;
}

void Cloud::update_under_replicated_clock() {
  const sim::Time now = sim_.now();
  if (under_replicated_count_ > 0)
    under_replicated_seconds_ += (now - under_last_update_).seconds() *
                                 static_cast<double>(under_replicated_count_);
  under_last_update_ = now;
}

double Cloud::under_replicated_seconds() const {
  double total = under_replicated_seconds_;
  if (under_replicated_count_ > 0)
    total += (sim_.now() - under_last_update_).seconds() *
             static_cast<double>(under_replicated_count_);
  return total;
}

void Cloud::set_flow_priority(net::FlowId id, double priority) {
  if (allocator_.has_flow(id)) allocator_.set_priority(id, priority);
}

void Cloud::fail_write(ContentId id) {
  ++failed_writes_;
  known_content_.erase(id);  // allow a retry
}

}  // namespace scda::core
