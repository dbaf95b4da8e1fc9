// Example: realtime SLA monitoring and automatic mitigation.
//
// The cloud runs normally until an aggressive tenant reserves more
// bandwidth than one path can carry. The RM/RA hierarchy detects the
// violation within a control interval and the SLA manager switches
// reserve capacity into the congested link (section IV-A). The example
// prints the live event log and attributes each event to a tree level.
//
//   ./build/examples/sla_monitoring
#include <algorithm>
#include <cstdio>

#include "core/cloud.h"
#include "util/units.h"

namespace {

/// RM/RA tree level of a link: that of its lower end (block server 0, ToR
/// 1, aggregation switch 2, core 3); 4 for a client access link, which is
/// outside the tree.
int tree_level(const scda::net::Network& net, scda::net::LinkId l) {
  using scda::net::NodeRole;
  const auto level = [&net](scda::net::NodeId n) {
    switch (net.node(n).role()) {
      case NodeRole::kServer: return 0;
      case NodeRole::kTorSwitch: return 1;
      case NodeRole::kAggSwitch: return 2;
      case NodeRole::kCoreSwitch: return 3;
      default: return 4;
    }
  };
  return std::min(level(net.link(l).from()), level(net.link(l).to()));
}

}  // namespace

int main() {
  using namespace scda;

  sim::Simulator sim(99);

  core::CloudConfig cfg;
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 8;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;

  core::Cloud cloud(sim, cfg);
  // Mitigation: after 5 violations on a link, switch in backup capacity.
  cloud.sla().enable_capacity_boost(/*threshold=*/5, /*boost=*/2.0);

  // Normal load.
  cloud.write(1, 1, util::megabytes(10));
  cloud.write(2, 2, util::megabytes(10));

  // At t=5 an aggressive tenant reserves 2 x 150 Mbps through one client
  // uplink of 200 Mbps.
  sim.post_at(sim::secs(5.0), [&cloud] {
    cloud.write(0, 10, util::megabytes(40),
                transport::ContentClass::kSemiInteractive, 1.0,
                util::mbps(150));
    cloud.write(0, 11, util::megabytes(40),
                transport::ContentClass::kSemiInteractive, 1.0,
                util::mbps(150));
  });

  sim.run_until(sim::secs(60.0));

  std::printf("=== SLA monitoring ===\n");
  const auto& events = cloud.sla().events();
  std::printf("violations detected: %zu (capacity boosts applied: %llu)\n",
              events.size(),
              static_cast<unsigned long long>(cloud.sla().boosts_applied()));
  std::printf("first 5 events (time, link, demand vs effective capacity):\n");
  for (std::size_t i = 0; i < events.size() && i < 5; ++i) {
    const auto& e = events[i];
    std::printf("  t=%.3fs  link=%d  %.1f Mbps > %.1f Mbps\n",
                e.time.seconds(), e.link.value(), e.demand.bps() / 1e6,
                e.capacity.bps() / 1e6);
  }

  unsigned long long per_level[5] = {};
  for (const auto& e : events)
    ++per_level[tree_level(cloud.topology().net(), e.link)];
  std::printf("violations by RM/RA tree level: L0=%llu L1=%llu L2=%llu "
              "L3=%llu\n",
              per_level[0], per_level[1], per_level[2], per_level[3]);
  std::printf("note: client access links are outside the RM/RA tree; tree "
              "totals can be below the global count (%llu).\n",
              static_cast<unsigned long long>(
                  cloud.allocator().sla_violations()));
  return 0;
}
