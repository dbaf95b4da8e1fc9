// Ablation: OpenFlow-switch SJF scheduling (paper section IV-B).
//
// RandTCP traffic through a congested access link, with FIFO vs SJF
// queueing in the switches. SJF serves packets of flows that have sent
// the least so far, emulating shortest-job-first: mice overtake elephants
// and their AFCT drops sharply while elephants finish almost unchanged.
#include <cstdio>
#include <vector>

#include "harness.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/transport_manager.h"
#include "util/units.h"

using namespace scda;

namespace {

struct SjfResult {
  double mice_afct = 0;
  double elephant_afct = 0;
  int mice = 0, elephants = 0;
};

SjfResult run(net::QueueDiscipline d) {
  sim::Simulator sim(17);
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  net.add_duplex(a, b, util::mbps(50), 0.005, 128 * 1500);
  net.build_routes();
  net.link(net.link_between(a, b)).set_discipline(d);
  net.link(net.link_between(b, a)).set_discipline(d);

  transport::TransportManager tm(net);
  SjfResult res;
  tm.set_completion_callback([&](const transport::FlowRecord& r) {
    if (r.size_bytes <= 200 * 1000) {
      res.mice_afct += r.fct();
      ++res.mice;
    } else {
      res.elephant_afct += r.fct();
      ++res.elephants;
    }
  });

  // 3 elephants start first, then mice arrive every 400 ms.
  for (int i = 0; i < 3; ++i) tm.start_tcp_flow(a, b, util::megabytes(25));
  sim::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    sim.post_at(scda::sim::secs(1.0 + i * 0.4), [&tm, &rng, a, b] {
      tm.start_tcp_flow(a, b, rng.uniform_int(20'000, 200'000));
    });
  }
  sim.run_until(scda::sim::secs(300.0));
  if (res.mice) res.mice_afct /= res.mice;
  if (res.elephants) res.elephant_afct /= res.elephants;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  scda::bench::init_cli(argc, argv);
  std::printf("==== ablation: OpenFlow SJF scheduling (sec IV-B) ====\n");
  const std::vector<net::QueueDiscipline> disciplines = {
      net::QueueDiscipline::kFifo, net::QueueDiscipline::kSjf};
  runner::WorkerPool pool(bench::bench_workers());
  const auto results = runner::parallel_map<SjfResult>(
      pool, disciplines,
      [](net::QueueDiscipline d, std::size_t) { return run(d); });
  const SjfResult& fifo = results[0];
  const SjfResult& sjf = results[1];
  std::printf("%-6s mice AFCT %.3fs (%d flows), elephant AFCT %.1fs (%d)\n",
              "FIFO", fifo.mice_afct, fifo.mice, fifo.elephant_afct,
              fifo.elephants);
  std::printf("%-6s mice AFCT %.3fs (%d flows), elephant AFCT %.1fs (%d)\n",
              "SJF", sjf.mice_afct, sjf.mice, sjf.elephant_afct,
              sjf.elephants);
  std::printf("# SJF cuts mice AFCT by %.1f%%; elephants pay %.1f%%\n",
              100.0 * (fifo.mice_afct - sjf.mice_afct) / fifo.mice_afct,
              100.0 * (sjf.elephant_afct - fifo.elephant_afct) /
                  (fifo.elephant_afct > 0 ? fifo.elephant_afct : 1));
  return 0;
}
