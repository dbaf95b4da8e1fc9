#include "workload/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace scda::workload {
namespace {

using transport::ContentClass;

class TraceTest : public ::testing::Test {
 protected:
  // ctest runs each case as its own process, concurrently under -j, so
  // every case and process writes a file of its own.
  TraceTest() {
    path_ = ::testing::TempDir() + "scda_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".csv";
  }
  ~TraceTest() override { std::remove(path_.c_str()); }

  void write_file(const std::string& body) {
    std::ofstream out(path_);
    out << body;
  }

  std::string path_;
};

TEST_F(TraceTest, RoundTripPreservesRecords) {
  std::vector<TraceRecord> recs{
      {0.5, 1000, ContentClass::kSemiInteractive, false},
      {1.25, 5'000'000, ContentClass::kInteractive, false},
      {2.0, 400, ContentClass::kPassive, true},
  };
  write_trace(path_, recs);
  const auto got = read_trace(path_);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(got[i].time_s, recs[i].time_s);
    EXPECT_EQ(got[i].size_bytes, recs[i].size_bytes);
    EXPECT_EQ(got[i].content_class, recs[i].content_class);
    EXPECT_EQ(got[i].is_control, recs[i].is_control);
  }
}

TEST_F(TraceTest, CommentsAndBlankLinesSkipped) {
  write_file("# header\n\n1.0,100,s,\n# mid comment\n2.0,200,p,c\n");
  const auto got = read_trace(path_);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[1].is_control);
}

TEST_F(TraceTest, MalformedLineThrows) {
  write_file("1.0,100\n");
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceTest, UnknownClassThrows) {
  write_file("1.0,100,x,\n");
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceTest, NonMonotoneTimestampsThrow) {
  write_file("2.0,100,s,\n1.0,100,s,\n");
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceTest, NonPositiveSizeThrows) {
  write_file("1.0,0,s,\n");
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceTest, MissingFileThrows) {
  EXPECT_THROW(read_trace("/nonexistent/path.csv"), std::runtime_error);
}

TEST_F(TraceTest, SampleGeneratorProducesMonotoneTimes) {
  sim::Rng rng(1);
  ParetoPoissonWorkload gen;
  const auto recs = sample_generator(gen, rng, 500);
  ASSERT_EQ(recs.size(), 500u);
  for (std::size_t i = 1; i < recs.size(); ++i)
    EXPECT_GE(recs[i].time_s, recs[i - 1].time_s);
}

TEST_F(TraceTest, TraceWorkloadReplaysGaps) {
  std::vector<TraceRecord> recs{
      {1.0, 100, ContentClass::kSemiInteractive, false},
      {1.5, 200, ContentClass::kPassive, false},
      {4.0, 300, ContentClass::kInteractive, false},
  };
  TraceWorkload wl(recs);
  sim::Rng rng(1);
  auto r1 = wl.next(rng);
  EXPECT_DOUBLE_EQ(r1.inter_arrival_s, 1.0);
  EXPECT_EQ(r1.size_bytes, 100);
  auto r2 = wl.next(rng);
  EXPECT_DOUBLE_EQ(r2.inter_arrival_s, 0.5);
  auto r3 = wl.next(rng);
  EXPECT_DOUBLE_EQ(r3.inter_arrival_s, 2.5);
  EXPECT_EQ(r3.content_class, ContentClass::kInteractive);
  EXPECT_EQ(wl.remaining(), 0u);
  // Exhausted: effectively-infinite gap.
  EXPECT_GT(wl.next(rng).inter_arrival_s, 1e100);
}

TEST_F(TraceTest, RecordedWorkloadReplaysIdentically) {
  sim::Rng rng(7);
  VideoWorkload gen;
  const auto recs = sample_generator(gen, rng, 200);
  write_trace(path_, recs);
  auto replay = TraceWorkload::from_file(path_);
  sim::Rng unused(1);
  double t = 0;
  for (const auto& expected : recs) {
    const FlowRequest got = replay->next(unused);
    t += got.inter_arrival_s;
    EXPECT_NEAR(t, expected.time_s, 1e-6);
    EXPECT_EQ(got.size_bytes, expected.size_bytes);
    EXPECT_EQ(got.is_control, expected.is_control);
  }
}

}  // namespace
}  // namespace scda::workload
