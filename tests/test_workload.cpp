#include "workload/generators.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.h"
#include "util/units.h"
#include "workload/driver.h"

namespace scda::workload {
namespace {

using transport::ContentClass;

TEST(VideoWorkload, SizesRespectPaperBounds) {
  sim::Rng rng(1);
  VideoWorkload gen;
  for (int i = 0; i < 5000; ++i) {
    const FlowRequest r = gen.next(rng);
    EXPECT_GT(r.inter_arrival_s, 0.0);
    if (r.is_control) {
      EXPECT_LT(r.size_bytes, 5 * 1000);  // control < 5 KB (paper X-A1)
    } else {
      EXPECT_GE(r.size_bytes, 5 * 1000);
      EXPECT_LE(r.size_bytes, 30 * 1000 * 1000);  // 30 MB cap (paper)
    }
  }
}

TEST(VideoWorkload, ControlFractionMatchesConfig) {
  sim::Rng rng(2);
  VideoWorkloadConfig cfg;
  cfg.control_flows_per_video = 3.0;  // 75% of flows are control
  VideoWorkload gen(cfg);
  int control = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (gen.next(rng).is_control) ++control;
  EXPECT_NEAR(static_cast<double>(control) / n, 0.75, 0.02);
}

TEST(VideoWorkload, WithoutControlFlowsAllVideo) {
  sim::Rng rng(3);
  VideoWorkloadConfig cfg;
  cfg.include_control_flows = false;
  VideoWorkload gen(cfg);
  for (int i = 0; i < 2000; ++i) EXPECT_FALSE(gen.next(rng).is_control);
}

TEST(VideoWorkload, ArrivalRateScalesWithControlFlows) {
  sim::Rng rng(4);
  VideoWorkloadConfig cfg;
  cfg.video_arrival_rate = 5.0;
  cfg.control_flows_per_video = 3.0;
  VideoWorkload gen(cfg);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += gen.next(rng).inter_arrival_s;
  // total arrival rate = 5 * (1+3) = 20 flows/s
  EXPECT_NEAR(total / n, 1.0 / 20.0, 0.002);
}

TEST(DatacenterWorkload, MiceFractionRespected) {
  sim::Rng rng(5);
  DatacenterWorkloadConfig cfg;
  cfg.mice_fraction = 0.8;
  DatacenterWorkload gen(cfg);
  int big = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (gen.next(rng).size_bytes >= cfg.elephant_min_bytes) ++big;
  // Elephants are >= 200 KB; a few mice may cross that line too.
  EXPECT_NEAR(static_cast<double>(big) / n, 0.2, 0.04);
}

TEST(DatacenterWorkload, ElephantSizesBounded) {
  sim::Rng rng(6);
  DatacenterWorkloadConfig cfg;
  DatacenterWorkload gen(cfg);
  for (int i = 0; i < 20000; ++i) {
    const auto s = gen.next(rng).size_bytes;
    EXPECT_GE(s, 500);
    EXPECT_LE(s, cfg.elephant_cap_bytes);
  }
}

TEST(DatacenterWorkload, ExponentialFallbackWhenCvZero) {
  sim::Rng rng(7);
  DatacenterWorkloadConfig cfg;
  cfg.arrival_cv = 0.0;
  cfg.arrival_rate = 100.0;
  DatacenterWorkload gen(cfg);
  double total = 0;
  for (int i = 0; i < 20000; ++i) total += gen.next(rng).inter_arrival_s;
  EXPECT_NEAR(total / 20000, 0.01, 0.001);
}

TEST(ParetoPoissonWorkload, MatchesPaperParameters) {
  sim::Rng rng(8);
  ParetoPoissonWorkload gen;  // defaults = paper section X-B
  double gap_sum = 0, size_sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const FlowRequest r = gen.next(rng);
    gap_sum += r.inter_arrival_s;
    size_sum += static_cast<double>(r.size_bytes);
  }
  EXPECT_NEAR(gap_sum / n, 1.0 / 200.0, 0.0005);       // 200 flows/s
  EXPECT_NEAR(size_sum / n / 500e3, 1.0, 0.25);        // mean 500 KB
}

TEST(WorkloadDriver, IssuesTrafficIntoCloud) {
  sim::Simulator sim(9);
  core::CloudConfig cc;
  cc.topology.n_agg = 2;
  cc.topology.tors_per_agg = 2;
  cc.topology.servers_per_tor = 2;
  cc.topology.n_clients = 4;
  core::Cloud cloud(sim, cc);

  DriverConfig dc;
  dc.end_time_s = 5.0;
  dc.read_fraction = 0.5;
  ParetoPoissonConfig pc;
  pc.arrival_rate = 10.0;
  pc.cap_bytes = 200 * 1000;
  WorkloadDriver driver(cloud,
                        std::make_unique<ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(20.0));
  EXPECT_GT(driver.issued_writes(), 10u);
  EXPECT_GT(driver.issued_reads(), 0u);
  EXPECT_EQ(cloud.failed_reads(), 0u);  // driver only reads stored content
}

TEST(WorkloadDriver, UnusableConfigRejectedNamingTheField) {
  sim::Simulator sim(9);
  core::CloudConfig cc;
  cc.topology.n_agg = 1;
  cc.topology.tors_per_agg = 1;
  cc.topology.servers_per_tor = 2;
  cc.topology.n_clients = 1;
  core::Cloud cloud(sim, cc);
  const std::vector<std::pair<std::function<void(DriverConfig&)>, std::string>>
      bad = {
          {[](DriverConfig& d) { d.read_fraction = -2; },
           "WorkloadDriver: read_fraction must be in [0, 1], got -2"},
          {[](DriverConfig& d) { d.read_fraction = 1.5; },
           "read_fraction must be in [0, 1], got 1.5"},
          {[](DriverConfig& d) { d.interactive_fraction = 2; },
           "interactive_fraction must be in [0, 1], got 2"},
          {[](DriverConfig& d) { d.priority = 0; },
           "WorkloadDriver: priority must be > 0, got 0"},
          {[](DriverConfig& d) { d.priority = -1; },
           "priority must be > 0, got -1"},
      };
  for (const auto& [set, message] : bad) {
    DriverConfig dc;
    set(dc);
    try {
      WorkloadDriver driver(cloud, std::make_unique<ParetoPoissonWorkload>(),
                            dc);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  // The edges are usable.
  DriverConfig dc;
  dc.read_fraction = 1;
  dc.interactive_fraction = 0;
  WorkloadDriver driver(cloud, std::make_unique<ParetoPoissonWorkload>(), dc);
}

TEST(WorkloadDriver, StopsIssuingAtEndTime) {
  sim::Simulator sim(10);
  core::CloudConfig cc;
  cc.topology.n_agg = 1;
  cc.topology.tors_per_agg = 2;
  cc.topology.servers_per_tor = 2;
  cc.topology.n_clients = 2;
  core::Cloud cloud(sim, cc);

  DriverConfig dc;
  dc.end_time_s = 2.0;
  ParetoPoissonConfig pc;
  pc.arrival_rate = 50.0;
  pc.cap_bytes = 100 * 1000;
  WorkloadDriver driver(cloud,
                        std::make_unique<ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(2.0));
  const auto at_end = driver.issued_writes() + driver.issued_reads();
  sim.run_until(scda::sim::secs(10.0));
  EXPECT_EQ(driver.issued_writes() + driver.issued_reads(), at_end);
  EXPECT_NEAR(static_cast<double>(at_end), 100.0, 40.0);  // ~50/s * 2 s
}

}  // namespace
}  // namespace scda::workload
