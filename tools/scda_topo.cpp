// scda-topo — topology inspector.
//
// Builds one of the supported datacenter fabrics and prints its shape,
// per-tier capacities, representative path lengths and the equal-cost path
// diversity — handy when sizing an experiment before running scda-sim.
//
//   scda-topo --fabric tree --agg 4 --tors 5 --servers 8
//   scda-topo --fabric leafspine --spines 4 --leaves 8
//   scda-topo --fabric fattree --k 4
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/fat_tree.h"
#include "net/general_topology.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/units.h"

using namespace scda;

namespace {

void header(const char* name, const net::Network& net) {
  std::printf("fabric: %s\n", name);
  std::printf("nodes: %zu, unidirectional links: %zu\n", net.node_count(),
              net.link_count());
  std::puts("routes: from the fabric's shape, no route tables");
}

/// Node `i` of `group`; kInvalidNode when the group is smaller.
net::NodeId nth(const std::vector<net::NodeId>& group, std::size_t i) {
  return i < group.size() ? group[i] : net::kInvalidNode;
}

void paths_between(const net::Network& net, const char* what, net::NodeId a,
                   net::NodeId b) {
  if (!a.valid() || !b.valid() || a == b) {
    std::printf("%-28s %s\n", what,
                a.valid() && b.valid() ? "same node" : "no such node");
    return;
  }
  const auto paths = net::all_shortest_paths(net, a, b);
  if (paths.empty()) {
    std::printf("%-28s unreachable\n", what);
    return;
  }
  double min_cap = 1e18;
  double prop = 0;
  for (const auto l : paths.front()) {
    min_cap = std::min(min_cap, net.link(l).capacity_bps());
    prop += net.link(l).prop_delay_s();
  }
  std::printf("%-28s %zu hop(s), %zu equal-cost path(s), bottleneck "
              "%.0f Mbps, one-way prop %.1f ms\n",
              what, paths.front().size(), paths.size(), min_cap / 1e6,
              prop * 1e3);
}

int run_tree(const util::ArgParser& args) {
  sim::Simulator sim;
  net::TopologyConfig cfg;
  cfg.n_agg = args.get_int_as<std::int32_t>("agg", 4);
  cfg.tors_per_agg = args.get_int_as<std::int32_t>("tors", 5);
  cfg.servers_per_tor = args.get_int_as<std::int32_t>("servers", 8);
  cfg.n_clients = args.get_int_as<std::int32_t>("clients", 64);
  cfg.base_bps = util::mbps(args.get_double("base-mbps", 500));
  cfg.k_factor = args.get_double("k", 3.0);
  net::ThreeTierTree t(sim, cfg);

  header("three-tier tree (paper figure 6)", t.net());
  std::printf("servers: %d  tors: %d  aggs: %d  clients: %d\n",
              cfg.n_servers(), cfg.n_tors(), cfg.n_agg, cfg.n_clients);
  std::printf("capacities: server %.0fM | tor %.0fM | agg %.0fM (K=%.1f) | "
              "core-gw %.0fM\n",
              cfg.base_bps.bps() / 1e6, cfg.base_bps.bps() / 1e6,
              cfg.k_factor * cfg.base_bps.bps() / 1e6, cfg.k_factor,
              cfg.core_gw_mult * cfg.base_bps.bps() / 1e6);
  const auto& servers = t.servers();
  paths_between(t.net(), "client -> server:", nth(t.clients(), 0),
                nth(servers, 0));
  paths_between(t.net(), "server -> server (rack):", nth(servers, 0),
                nth(servers, 1));
  paths_between(t.net(), "server -> server (x-agg):", nth(servers, 0),
                nth(servers, servers.size() - 1));
  return 0;
}

int run_leafspine(const util::ArgParser& args) {
  sim::Simulator sim;
  net::LeafSpineConfig cfg;
  cfg.n_spines = args.get_int_as<std::int32_t>("spines", 4);
  cfg.n_leaves = args.get_int_as<std::int32_t>("leaves", 8);
  cfg.servers_per_leaf = args.get_int_as<std::int32_t>("servers", 8);
  cfg.n_clients = args.get_int_as<std::int32_t>("clients", 32);
  cfg.server_bps = util::mbps(args.get_double("base-mbps", 500));
  cfg.fabric_bps = cfg.server_bps;
  net::LeafSpine t(sim, cfg);

  header("leaf-spine (paper section IX)", t.net());
  std::printf("servers: %d  leaves: %d  spines: %d  clients: %d\n",
              cfg.n_servers(), cfg.n_leaves, cfg.n_spines, cfg.n_clients);
  const auto& servers = t.servers();
  paths_between(t.net(), "server -> server (leaf):", nth(servers, 0),
                nth(servers, 1));
  paths_between(t.net(), "server -> server (x-leaf):", nth(servers, 0),
                nth(servers, servers.size() - 1));
  paths_between(t.net(), "client -> server:", nth(t.clients(), 0),
                nth(servers, 0));
  return 0;
}

int run_fattree(const util::ArgParser& args) {
  sim::Simulator sim;
  net::FatTreeConfig cfg;
  cfg.k = args.get_int_as<std::int32_t>("k", 4);
  cfg.n_clients = args.get_int_as<std::int32_t>("clients", 8);
  cfg.link_bps = util::mbps(args.get_double("base-mbps", 500));
  net::FatTree t(sim, cfg);

  header("k-ary fat-tree (refs [1]/[24])", t.net());
  std::printf("k=%d: pods: %d  cores: %d  servers: %d  clients: %d\n",
              cfg.k, cfg.pods(), cfg.cores(), cfg.n_servers(),
              cfg.n_clients);
  const auto& servers = t.servers();
  paths_between(t.net(), "server -> server (edge):", nth(servers, 0),
                nth(servers, 1));
  // The first server of the pod's second edge switch.
  paths_between(t.net(), "server -> server (pod):", nth(servers, 0),
                nth(servers,
                    static_cast<std::size_t>(cfg.servers_per_edge())));
  paths_between(t.net(), "server -> server (x-pod):", nth(servers, 0),
                nth(servers, servers.size() - 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.has("help")) {
    std::puts("scda-topo --fabric tree|leafspine|fattree [shape flags]\n"
              "  tree:      --agg --tors --servers --clients --base-mbps --k\n"
              "  leafspine: --spines --leaves --servers --clients\n"
              "  fattree:   --k --clients");
    return 0;
  }
  try {
    args.refuse_unknown({"fabric", "agg", "tors", "servers", "clients",
                         "base-mbps", "k", "spines", "leaves"});
    const std::string fabric = args.get("fabric", "tree");
    if (fabric == "tree") return run_tree(args);
    if (fabric == "leafspine") return run_leafspine(args);
    if (fabric == "fattree") return run_fattree(args);
    throw std::invalid_argument("unknown fabric: " + fabric);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scda-topo: %s\n", e.what());
    return 1;
  }
}
