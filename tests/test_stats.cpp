#include "stats/collector.h"

#include <gtest/gtest.h>

#include "stats/emit.h"
#include "stats/throughput.h"
#include "util/units.h"

namespace scda::stats {
namespace {

using core::CloudOp;
using transport::FlowRecord;

FlowRecord flow(std::int64_t size, double start, double finish) {
  FlowRecord r;
  r.size_bytes = size;
  r.start_time = sim::secs(start);
  r.finish_time = sim::secs(finish);
  return r;
}

CloudOp op(CloudOp::Kind k) {
  CloudOp o;
  o.kind = k;
  return o;
}

/// Collector unit tests drive `record` directly (no cloud needed).
class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : sim_(1), cloud_cfg_(), cloud_(sim_, cloud_cfg_), col_(cloud_) {}

  sim::Simulator sim_;
  core::CloudConfig cloud_cfg_;
  core::Cloud cloud_;
  FlowStatsCollector col_;
};

TEST_F(CollectorTest, RecordsBasicFields) {
  col_.record(flow(1000, 1.0, 3.0), op(CloudOp::Kind::kWrite));
  ASSERT_EQ(col_.count(), 1u);
  EXPECT_EQ(col_.records()[0].size_bytes, 1000);
  EXPECT_DOUBLE_EQ(col_.records()[0].fct_s, 2.0);
  EXPECT_TRUE(col_.records()[0].control);  // < 5 KB
}

TEST_F(CollectorTest, ReplicationExcludedByDefault) {
  col_.record(flow(1000, 0, 1), op(CloudOp::Kind::kReplication));
  EXPECT_EQ(col_.count(), 0u);
  col_.record(flow(1000, 0, 1), op(CloudOp::Kind::kRead));
  EXPECT_EQ(col_.count(), 1u);
}

TEST_F(CollectorTest, CdfIsSortedAndReachesOne) {
  col_.record(flow(10000, 0, 3), op(CloudOp::Kind::kWrite));
  col_.record(flow(10000, 0, 1), op(CloudOp::Kind::kWrite));
  col_.record(flow(10000, 0, 2), op(CloudOp::Kind::kWrite));
  const auto cdf = col_.fct_cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
  EXPECT_NEAR(cdf[0].p, 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].p, 1.0);
}

TEST_F(CollectorTest, AfctBinsAverageWithinBin) {
  col_.record(flow(500'000, 0, 2), op(CloudOp::Kind::kWrite));
  col_.record(flow(600'000, 0, 4), op(CloudOp::Kind::kWrite));
  col_.record(flow(2'500'000, 0, 10), op(CloudOp::Kind::kWrite));
  const auto bins = col_.afct_by_size(1e6, 4e6);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].afct_s, 3.0);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_DOUBLE_EQ(bins[1].afct_s, 10.0);
  EXPECT_DOUBLE_EQ(bins[1].size_mid, 2.5e6);
}

TEST_F(CollectorTest, AfctOversizeClampedToLastBin) {
  col_.record(flow(99'000'000, 0, 5), op(CloudOp::Kind::kWrite));
  const auto bins = col_.afct_by_size(1e6, 4e6);
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0].size_mid, 3.5e6);
}

TEST_F(CollectorTest, SummaryStatistics) {
  col_.record(flow(1'000'000, 0, 1), op(CloudOp::Kind::kWrite));
  col_.record(flow(1'000'000, 1, 4), op(CloudOp::Kind::kWrite));
  col_.record(flow(2'000'000, 2, 12), op(CloudOp::Kind::kWrite));
  const Summary s = col_.summary();
  EXPECT_EQ(s.flows, 3u);
  EXPECT_NEAR(s.mean_fct_s, (1 + 3 + 10) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.median_fct_s, 3.0);
  EXPECT_NEAR(s.mean_size_bytes, 4e6 / 3, 1.0);
  // goodput: 4 MB over [0, 12] s
  EXPECT_NEAR(s.goodput_bps, 4e6 * 8 / 12.0, 1.0);
}

TEST_F(CollectorTest, PerKindSummaries) {
  col_.record(flow(1'000'000, 0, 1), op(CloudOp::Kind::kWrite));
  col_.record(flow(1'000'000, 0, 3), op(CloudOp::Kind::kWrite));
  col_.record(flow(2'000'000, 0, 2), op(CloudOp::Kind::kRead));
  const Summary w = col_.summary_for(CloudOp::Kind::kWrite);
  const Summary r = col_.summary_for(CloudOp::Kind::kRead);
  EXPECT_EQ(w.flows, 2u);
  EXPECT_DOUBLE_EQ(w.mean_fct_s, 2.0);
  EXPECT_EQ(r.flows, 1u);
  EXPECT_DOUBLE_EQ(r.mean_fct_s, 2.0);
  EXPECT_EQ(col_.summary_for(CloudOp::Kind::kMigration).flows, 0u);
}

TEST_F(CollectorTest, PerClassSummaries) {
  CloudOp o;
  o.kind = CloudOp::Kind::kWrite;
  o.content_class = transport::ContentClass::kPassive;
  col_.record(flow(1000, 0, 1), o);
  o.content_class = transport::ContentClass::kInteractive;
  col_.record(flow(1000, 0, 5), o);
  EXPECT_EQ(col_.summary_for(transport::ContentClass::kPassive).flows, 1u);
  EXPECT_DOUBLE_EQ(
      col_.summary_for(transport::ContentClass::kInteractive).mean_fct_s,
      5.0);
}

TEST_F(CollectorTest, SummaryWherePredicate) {
  col_.record(flow(1000, 0, 1), op(CloudOp::Kind::kWrite));     // control
  col_.record(flow(900'000, 0, 2), op(CloudOp::Kind::kWrite));  // content
  const Summary content = col_.summary_where(
      [](const CompletionRecord& r) { return !r.control; });
  EXPECT_EQ(content.flows, 1u);
  EXPECT_DOUBLE_EQ(content.mean_fct_s, 2.0);
}

TEST_F(CollectorTest, EmptySummaryIsZero) {
  const Summary s = col_.summary();
  EXPECT_EQ(s.flows, 0u);
  EXPECT_DOUBLE_EQ(s.mean_fct_s, 0.0);
}

TEST(ThroughputSampler, SamplesDeltas) {
  sim::Simulator sim(2);
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  net.add_duplex(a, b, sim::BitRate{100e6}, 0.001, 1 << 22);
  net.build_routes();
  transport::TransportManager tm(net);
  ThroughputSampler sampler(sim, tm, 0.5);
  tm.start_scda_flow(a, b, 1'000'000, sim::BitRate{50e6}, sim::BitRate{50e6});
  sim.run_until(scda::sim::secs(3.0));
  const auto& series = sampler.series();
  ASSERT_GE(series.size(), 5u);
  double total = 0;
  for (const auto& s : series) total += s.kbytes_per_s * 0.5;
  EXPECT_NEAR(total, 1000.0, 10.0);  // 1 MB delivered in KB
  EXPECT_GT(sampler.mean_kbytes_per_s(), 0.0);
}

TEST(Emit, ProducesParseableOutput) {
  char buf[4096];
  std::FILE* f = fmemopen(buf, sizeof buf, "w");
  ASSERT_NE(f, nullptr);
  emit_cdf(f, "test cdf", {{0.5, 0.25}, {1.0, 1.0}});
  emit_afct(f, "test afct", {{1e6, 2.5, 10}});
  emit_throughput(f, "test thpt", {{1.0, 123.4}});
  Summary s;
  s.flows = 2;
  s.mean_fct_s = 1.5;
  emit_summary(f, "sys", s);
  emit_comparison(f, s, s, 100.0, 50.0);
  std::fclose(f);
  const std::string out(buf);
  EXPECT_NE(out.find("# test cdf"), std::string::npos);
  EXPECT_NE(out.find("0.5000 0.2500"), std::string::npos);
  EXPECT_NE(out.find("1.00 2.5000 10"), std::string::npos);
  EXPECT_NE(out.find("1.0 123.4"), std::string::npos);
  EXPECT_NE(out.find("flows=2"), std::string::npos);
  EXPECT_NE(out.find("100.0% higher"), std::string::npos);
}

TEST(Emit, CdfDownsamplesLongSeries) {
  std::vector<CdfPoint> cdf;
  for (int i = 0; i < 1000; ++i)
    cdf.push_back({static_cast<double>(i), (i + 1) / 1000.0});
  char buf[1 << 16];
  std::FILE* f = fmemopen(buf, sizeof buf, "w");
  emit_cdf(f, "big", cdf, 60);
  std::fclose(f);
  const std::string out(buf);
  int lines = 0;
  for (const char c : out)
    if (c == '\n') ++lines;
  EXPECT_LE(lines, 70);
  // last point always present
  EXPECT_NE(out.find("999.0000 1.0000"), std::string::npos);
}

}  // namespace
}  // namespace scda::stats
