// MetadataPlane driven on its own, without a Cloud: the failover state
// machine (fail, recover, re-sync drain with its setup-RPC recheck, sync
// completion and abort) is checked step by step against a reference copy
// of the per-shard liveness booleans it replaced, and the no-failover path
// against the one-event-per-request contract the committed artifacts rely
// on.
#include "core/metadata_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "sim/rng.h"

namespace scda::core {
namespace {

using State = NameNode::State;

/// One sync flow the plane (or the reference) asked the data plane for.
struct SyncStart {
  std::size_t instance = 0;
  std::size_t src_host = 0;
  std::size_t dst_host = 0;
  std::int64_t bytes = 0;
  bool operator==(const SyncStart&) const = default;
};

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Reference: the per-shard state of the metadata plane before
/// NameNode::State existed — four role booleans per shard plus the sync
/// bookkeeping — with its transitions kept as they were. Instances
/// [0, n) are the primaries, [n, 2n) the standbys; instance i is hosted on
/// server i % servers.size().
class ShardBooleansOracle {
 public:
  ShardBooleansOracle(sim::Simulator& sim, const ScdaParams& params,
                      std::size_t n, const std::vector<BlockServer>& servers,
                      std::vector<std::size_t> content_counts)
      : sim_(sim),
        params_(params),
        n_(n),
        servers_(servers),
        shards_(n),
        counts_(std::move(content_counts)) {}

  [[nodiscard]] net::FlowId fail(std::size_t instance) {
    Shard& st = shards_[instance % n_];
    bool& alive = instance >= n_ ? st.standby_alive : st.primary_alive;
    bool& syncing = instance >= n_ ? st.standby_syncing : st.primary_syncing;
    if (!alive) return net::kInvalidFlow;
    alive = false;
    syncing = false;
    const net::FlowId f = st.sync_flow;
    st.sync_flow = net::kInvalidFlow;
    return f;
  }

  void recover(std::size_t instance) {
    Shard& st = shards_[instance % n_];
    const bool is_standby = instance >= n_;
    bool& alive = is_standby ? st.standby_alive : st.primary_alive;
    bool& syncing = is_standby ? st.standby_syncing : st.primary_syncing;
    if (alive) return;
    alive = true;
    const bool peer_serving = is_standby
                                  ? (st.primary_alive && !st.primary_syncing)
                                  : (st.standby_alive && !st.standby_syncing);
    if (!peer_serving) {
      syncing = false;
      return;
    }
    syncing = true;
    queue_.push_back(instance);
  }

  void drain() {
    std::deque<std::size_t> retry;
    while (!queue_.empty()) {
      const std::size_t instance = queue_.front();
      queue_.pop_front();
      const std::size_t shard = instance % n_;
      const bool is_standby = instance >= n_;
      Shard& st = shards_[shard];
      const bool alive = is_standby ? st.standby_alive : st.primary_alive;
      const bool syncing =
          is_standby ? st.standby_syncing : st.primary_syncing;
      if (!alive || !syncing) continue;
      if (st.sync_flow != net::kInvalidFlow || st.sync_pending) continue;
      const std::size_t peer = is_standby ? shard : shard + n_;
      const bool peer_serving =
          is_standby ? (st.primary_alive && !st.primary_syncing)
                     : (st.standby_alive && !st.standby_syncing);
      if (!peer_serving) {
        retry.push_back(instance);
        continue;
      }
      const std::size_t src_host = peer % servers_.size();
      const std::size_t dst_host = instance % servers_.size();
      if (servers_[src_host].failed() || servers_[dst_host].failed()) {
        retry.push_back(instance);
        continue;
      }
      const std::int64_t bytes = std::max<std::int64_t>(
          1500, static_cast<std::int64_t>(counts_[peer]) *
                    params_.nns_meta_entry.bytes());
      st.sync_pending = true;
      sim_.post_in(
          sim::secs(2 * params_.ctrl_dc_latency_s),
          [this, shard, instance, is_standby, src_host, dst_host, bytes] {
            Shard& st2 = shards_[shard];
            st2.sync_pending = false;
            const bool alive2 =
                is_standby ? st2.standby_alive : st2.primary_alive;
            const bool syncing2 =
                is_standby ? st2.standby_syncing : st2.primary_syncing;
            if (!alive2 || !syncing2) return;
            const bool peer_ok =
                is_standby ? (st2.primary_alive && !st2.primary_syncing)
                           : (st2.standby_alive && !st2.standby_syncing);
            if (!peer_ok || servers_[src_host].failed() ||
                servers_[dst_host].failed()) {
              queue_.push_back(instance);
              return;
            }
            started_.push_back({instance, src_host, dst_host, bytes});
            st2.sync_flow = net::FlowId{
                static_cast<std::int64_t>(started_.size())};
          });
    }
    for (const std::size_t i : retry) queue_.push_back(i);
  }

  void completed(std::size_t instance) {
    const std::size_t shard = instance % n_;
    const bool is_standby = instance >= n_;
    Shard& st = shards_[shard];
    st.sync_flow = net::kInvalidFlow;
    bool& alive = is_standby ? st.standby_alive : st.primary_alive;
    bool& syncing = is_standby ? st.standby_syncing : st.primary_syncing;
    if (!alive || !syncing) return;
    counts_[instance] = counts_[is_standby ? shard : shard + n_];
    syncing = false;
  }

  void aborted(std::size_t instance) {
    Shard& st = shards_[instance % n_];
    st.sync_flow = net::kInvalidFlow;
    const bool is_standby = instance >= n_;
    const bool alive = is_standby ? st.standby_alive : st.primary_alive;
    const bool syncing = is_standby ? st.standby_syncing : st.primary_syncing;
    if (alive && syncing) queue_.push_back(instance);
  }

  [[nodiscard]] State state(std::size_t instance) const {
    const Shard& st = shards_[instance % n_];
    const bool is_standby = instance >= n_;
    if (!(is_standby ? st.standby_alive : st.primary_alive))
      return State::kDown;
    return (is_standby ? st.standby_syncing : st.primary_syncing)
               ? State::kSyncing
               : State::kServing;
  }
  /// Serving instance of a shard, or kNone.
  [[nodiscard]] std::size_t serving(std::size_t shard) const {
    const Shard& st = shards_[shard];
    if (st.primary_alive && !st.primary_syncing) return shard;
    if (st.standby_alive && !st.standby_syncing) return shard + n_;
    return kNone;
  }
  [[nodiscard]] std::size_t authority(std::size_t shard) const {
    const std::size_t s = serving(shard);
    return s == kNone ? shard : s;
  }
  [[nodiscard]] std::size_t content_count(std::size_t instance) const {
    return counts_[instance];
  }
  [[nodiscard]] const std::vector<SyncStart>& started() const {
    return started_;
  }

 private:
  struct Shard {
    bool primary_alive = true;
    bool standby_alive = true;
    bool primary_syncing = false;
    bool standby_syncing = false;
    net::FlowId sync_flow = net::kInvalidFlow;
    bool sync_pending = false;
  };

  sim::Simulator& sim_;
  const ScdaParams& params_;
  std::size_t n_;
  const std::vector<BlockServer>& servers_;
  std::vector<Shard> shards_;
  std::deque<std::size_t> queue_;
  std::vector<std::size_t> counts_;
  std::vector<SyncStart> started_;
};

std::vector<BlockServer> make_servers(std::size_t n) {
  std::vector<BlockServer> servers;
  for (std::size_t s = 0; s < n; ++s)
    servers.emplace_back(s, net::NodeId{static_cast<std::int32_t>(s)});
  return servers;
}

/// One seeded run: the plane (fed by a fake sync hook) and the oracle take
/// the same random steps and must agree after every one.
class OracleRun {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr std::size_t kServers = 6;

  explicit OracleRun(std::uint64_t seed)
      : sim_(seed), servers_(make_servers(kServers)), rng_(seed) {
    params_.n_name_nodes = static_cast<std::int32_t>(kShards);
    plane_ = std::make_unique<MetadataPlane>(sim_, params_,
                                             /*failover=*/true, servers_);
    // Distinct map sizes per instance so sync sizes tell instances apart
    // (some below the 1500-byte floor, some above).
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < 2 * kShards; ++i) {
      const auto count = static_cast<std::size_t>(rng_.uniform_int(0, 12));
      for (std::size_t c = 0; c < count; ++c)
        (void)plane_->instance(i).upsert(static_cast<ContentId>(c));
      counts.push_back(count);
    }
    oracle_ = std::make_unique<ShardBooleansOracle>(
        sim_, params_, kShards, servers_, std::move(counts));
    plane_->set_sync_flow_fn([this](std::size_t instance,
                                    std::size_t src_host,
                                    std::size_t dst_host,
                                    std::int64_t bytes) {
      started_.push_back({instance, src_host, dst_host, bytes});
      const net::FlowId id{static_cast<std::int64_t>(started_.size())};
      in_flight_.push_back({id, started_.back()});
      return id;
    });
  }

  MetadataPlane& plane() { return *plane_; }

  void step() {
    const std::size_t instance = pick(2 * kShards);
    switch (rng_.uniform_int(0, 7)) {
      case 0: {
        // Cloud::fail_nns: the returned sync flow is aborted at once.
        const net::FlowId f = plane_->fail(instance);
        ASSERT_EQ(f, oracle_->fail(instance));
        if (f != net::kInvalidFlow) abort_flow(f);
        break;
      }
      case 1:
        plane_->recover(instance);
        oracle_->recover(instance);
        break;
      case 2: {
        // Cloud::fail_server aborts every flow touching the dead host, in
        // flow-id order.
        const std::size_t host = pick(kServers);
        servers_[host].set_failed(true);
        std::vector<net::FlowId> victims;
        for (const InFlight& f : in_flight_)
          if (f.sync.src_host == host || f.sync.dst_host == host)
            victims.push_back(f.id);
        std::sort(victims.begin(), victims.end());
        for (const net::FlowId id : victims) abort_flow(id);
        break;
      }
      case 3:
        servers_[pick(kServers)].set_failed(false);
        break;
      case 4:
        plane_->drain_resync_queue();
        oracle_->drain();
        break;
      case 5:
        // Past the setup RPC of every sync the drains have posted.
        sim_.run_until(sim_.now() +
                       sim::secs(2 * params_.ctrl_dc_latency_s));
        break;
      case 6:
      case 7: {
        if (in_flight_.empty()) break;
        const InFlight f = in_flight_[pick(in_flight_.size())];
        if (rng_.uniform() < 0.5) {
          std::erase_if(in_flight_,
                        [&](const InFlight& g) { return g.id == f.id; });
          plane_->resync_completed(f.sync.instance, f.sync.bytes);
          oracle_->completed(f.sync.instance);
        } else {
          abort_flow(f.id);
        }
        break;
      }
      default:
        break;
    }
  }

  /// Every instance's state and map size, every shard's serving and
  /// authority instance, and the sync flows started so far agree.
  void expect_agreement(std::uint64_t seed, int step) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    for (std::size_t i = 0; i < 2 * kShards; ++i) {
      ASSERT_EQ(plane_->instance(i).state(), oracle_->state(i))
          << "instance " << i;
      ASSERT_EQ(plane_->instance(i).content_count(),
                oracle_->content_count(i))
          << "instance " << i;
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const std::size_t s = oracle_->serving(shard);
      ASSERT_EQ(plane_->serving(shard),
                s == kNone ? nullptr : &plane_->instance(s))
          << "shard " << shard;
      ASSERT_EQ(&plane_->authority(shard),
                &plane_->instance(oracle_->authority(shard)))
          << "shard " << shard;
    }
    ASSERT_EQ(started_, oracle_->started());
  }

 private:
  struct InFlight {
    net::FlowId id;
    SyncStart sync;
  };

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Cloud::abort_flow on a sync flow: the record goes, then the plane
  /// hears about it.
  void abort_flow(net::FlowId id) {
    const auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                                 [&](const InFlight& f) { return f.id == id; });
    ASSERT_NE(it, in_flight_.end()) << "abort of a flow not in flight";
    const std::size_t instance = it->sync.instance;
    in_flight_.erase(it);
    plane_->resync_aborted(instance);
    oracle_->aborted(instance);
  }

  sim::Simulator sim_;
  ScdaParams params_;
  std::vector<BlockServer> servers_;
  sim::Rng rng_;
  std::unique_ptr<MetadataPlane> plane_;
  std::unique_ptr<ShardBooleansOracle> oracle_;
  std::vector<SyncStart> started_;
  std::vector<InFlight> in_flight_;
};

TEST(MetadataPlaneOracle, RandomChurnMatchesShardBooleans) {
  std::size_t syncs = 0;
  std::size_t completed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    OracleRun run(seed);
    for (int step = 0; step < 500; ++step) {
      run.step();
      ASSERT_FALSE(testing::Test::HasFatalFailure()) << "seed " << seed;
      run.expect_agreement(seed, step);
      ASSERT_FALSE(testing::Test::HasFatalFailure());
    }
    syncs += run.plane().stats().resyncs_started;
    completed += run.plane().stats().resyncs_completed;
  }
  // The sequences reach every branch worth checking: syncs start, and
  // some of them finish.
  EXPECT_GT(syncs, 1000u);
  EXPECT_GT(completed, 100u);
}

TEST(MetadataPlane, WithoutFailoverThereAreNoStandbysAndOneEventPerRequest) {
  sim::Simulator sim(1);
  ScdaParams params;
  const std::vector<BlockServer> servers = make_servers(4);
  MetadataPlane plane(sim, params, /*failover=*/false, servers);
  EXPECT_FALSE(plane.failover_enabled());
  EXPECT_EQ(plane.instance_count(), plane.shard_count());
  EXPECT_EQ(plane.peer(plane.instance(0)), nullptr);

  int served = 0;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::uint64_t before = sim.perf().scheduled;
    plane.submit(
        key, [&](NameNode&) { ++served; },
        [] { ADD_FAILURE() << "gave up without failover"; });
    EXPECT_EQ(sim.perf().scheduled, before + 1) << "key " << key;
  }
  sim.run();
  EXPECT_EQ(served, 64);
  EXPECT_EQ(plane.control_messages(), 0u);

  // Instance failure is a failover feature: without it nothing changes.
  EXPECT_EQ(plane.fail(0), net::kInvalidFlow);
  plane.recover(0);
  EXPECT_EQ(plane.instance(0).state(), State::kServing);
}

}  // namespace
}  // namespace scda::core
