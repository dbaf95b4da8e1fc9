#include "core/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"

namespace scda::core {
namespace {

using transport::ContentClass;

TEST(Classifier, UnknownContentIsPassive) {
  ContentClassifier c;
  EXPECT_EQ(c.classify(1, scda::sim::secs(0.0)), ContentClass::kPassive);
}

TEST(Classifier, FewAccessesStayPassive) {
  ContentClassifier c;
  c.record_write(1, scda::sim::secs(0.0));
  c.record_read(1, scda::sim::secs(10.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(20.0)), ContentClass::kPassive);
}

TEST(Classifier, HighReadsOnlyIsSemiInteractive) {
  ContentClassifier c;
  for (int i = 0; i < 6; ++i) c.record_read(1, scda::sim::secs(i * 2.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(12.0)),
            ContentClass::kSemiInteractive);
}

TEST(Classifier, HighWritesOnlyIsSemiInteractive) {
  ContentClassifier c;
  for (int i = 0; i < 6; ++i) c.record_write(1, scda::sim::secs(i * 2.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(12.0)),
            ContentClass::kSemiInteractive);
}

TEST(Classifier, TightInterleavingIsInteractive) {
  ContentClassifier c;
  // writes and reads interleaved every second: HWHR with gaps << 5 s.
  for (int i = 0; i < 5; ++i) {
    c.record_write(1, scda::sim::secs(i * 2.0));
    c.record_read(1, scda::sim::secs(i * 2.0 + 1.0));
  }
  EXPECT_EQ(c.classify(1, scda::sim::secs(10.0)), ContentClass::kInteractive);
}

TEST(Classifier, LooseInterleavingIsNotInteractive) {
  ClassifierConfig cfg;
  cfg.window_s = 600.0;
  ContentClassifier c(cfg);
  // High write and read counts, but 30 s apart (> 5 s interactivity gap).
  for (int i = 0; i < 5; ++i) {
    c.record_write(1, scda::sim::secs(i * 60.0));
    c.record_read(1, scda::sim::secs(i * 60.0 + 30.0));
  }
  EXPECT_EQ(c.classify(1, scda::sim::secs(290.0)),
            ContentClass::kSemiInteractive);
}

TEST(Classifier, WindowForgetsOldAccesses) {
  ContentClassifier c;  // 60 s window
  for (int i = 0; i < 6; ++i) c.record_read(1, scda::sim::secs(i * 1.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(6.0)),
            ContentClass::kSemiInteractive);
  // Two minutes later the burst is outside the window.
  EXPECT_EQ(c.classify(1, scda::sim::secs(130.0)), ContentClass::kPassive);
}

TEST(Classifier, AccessCountRespectsWindow) {
  ContentClassifier c;
  c.record_write(1, scda::sim::secs(0.0));
  c.record_read(1, scda::sim::secs(30.0));
  EXPECT_EQ(c.accesses_in_window(1, scda::sim::secs(40.0)), 2u);
  EXPECT_EQ(c.accesses_in_window(1, scda::sim::secs(70.0)), 1u);  // w expired
  EXPECT_EQ(c.accesses_in_window(1, scda::sim::secs(100.0)), 0u);  // expired
}

TEST(Classifier, ContentsAreIndependent) {
  ContentClassifier c;
  for (int i = 0; i < 6; ++i) c.record_read(1, scda::sim::secs(i * 1.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(6.0)),
            ContentClass::kSemiInteractive);
  EXPECT_EQ(c.classify(2, scda::sim::secs(6.0)), ContentClass::kPassive);
}

TEST(Classifier, ThresholdConfigurable) {
  ClassifierConfig cfg;
  cfg.high_accesses_per_window = 2;
  ContentClassifier c(cfg);
  c.record_read(1, scda::sim::secs(0.0));
  c.record_read(1, scda::sim::secs(1.0));
  EXPECT_EQ(c.classify(1, scda::sim::secs(2.0)),
            ContentClass::kSemiInteractive);
}

TEST(Classifier, WindowAccessesCountOnlyTheWindow) {
  ContentClassifier c;  // 60 s window
  for (int i = 0; i < 100; ++i)
    c.record_write(i % 7, scda::sim::secs(i * 1.0));
  // At t = 99 s the window is [39 s, 99 s]: 61 accesses.
  EXPECT_EQ(c.window_accesses(), 61u);
  // At t = 159 s only the access at 99 s is left (the cutoff is inclusive).
  EXPECT_EQ(c.accesses_in_window(99 % 7, scda::sim::secs(159.0)), 1u);
  EXPECT_EQ(c.window_accesses(), 1u);
  // A query of any content past the window empties the log.
  EXPECT_EQ(c.classify(3, scda::sim::secs(159.5)), ContentClass::kPassive);
  EXPECT_EQ(c.window_accesses(), 0u);
}

// The two-deque classifier the access log replaced: every content keeps its
// own write and read timestamps and trims them lazily when it is touched.
// It is the reference the random sequences below are checked against.
class DequeClassifier {
 public:
  explicit DequeClassifier(ClassifierConfig cfg) : cfg_(cfg) {}

  void record_write(std::int64_t content, scda::sim::SimTime now) {
    auto& h = history_[content];
    trim(h, now);
    h.writes.push_back(now);
    update_interleave(h, now);
  }

  void record_read(std::int64_t content, scda::sim::SimTime now) {
    auto& h = history_[content];
    trim(h, now);
    h.reads.push_back(now);
    update_interleave(h, now);
  }

  ContentClass classify(std::int64_t content, scda::sim::SimTime now) {
    const auto it = history_.find(content);
    if (it == history_.end()) return ContentClass::kPassive;
    auto& h = it->second;
    trim(h, now);
    const bool hw = h.writes.size() >= cfg_.high_accesses_per_window;
    const bool hr = h.reads.size() >= cfg_.high_accesses_per_window;
    if (hw && hr && h.tight_interleaving) return ContentClass::kInteractive;
    if (hw || hr) return ContentClass::kSemiInteractive;
    return ContentClass::kPassive;
  }

  std::size_t accesses_in_window(std::int64_t content,
                                 scda::sim::SimTime now) {
    const auto it = history_.find(content);
    if (it == history_.end()) return 0;
    trim(it->second, now);
    return it->second.writes.size() + it->second.reads.size();
  }

 private:
  struct History {
    std::deque<scda::sim::SimTime> writes;
    std::deque<scda::sim::SimTime> reads;
    scda::sim::SimTime last_access = scda::sim::secs(-1.0);
    bool tight_interleaving = false;
  };

  void trim(History& h, scda::sim::SimTime now) const {
    const scda::sim::SimTime cutoff = now - scda::sim::secs(cfg_.window_s);
    while (!h.writes.empty() && h.writes.front() < cutoff)
      h.writes.pop_front();
    while (!h.reads.empty() && h.reads.front() < cutoff) h.reads.pop_front();
  }

  void update_interleave(History& h, scda::sim::SimTime now) {
    if (h.last_access >= scda::sim::SimTime{}) {
      h.tight_interleaving = now - h.last_access <=
                             scda::sim::secs(cfg_.interactivity_interval_s);
    }
    h.last_access = now;
  }

  ClassifierConfig cfg_;
  std::unordered_map<std::int64_t, History> history_;
};

/// Drives the classifier and the reference with one seeded sequence of
/// 2,000 calls over 1-64 contents at non-decreasing times, and checks every
/// query against the reference and the log length against the accesses of
/// the last window. Returns how often each class was answered.
std::array<int, 3> check_against_reference(const ClassifierConfig& cfg,
                                           std::uint64_t seed) {
  scda::sim::Rng rng(seed);
  ContentClassifier log(cfg);
  DequeClassifier ref(cfg);
  const std::int64_t contents = rng.uniform_int(1, 64);
  const scda::sim::SimTime window = scda::sim::secs(cfg.window_s);
  const scda::sim::SimTime interval =
      scda::sim::secs(cfg.interactivity_interval_s);
  std::vector<scda::sim::SimTime> recorded;  // every access, in time order
  std::array<int, 3> classes{};
  scda::sim::SimTime now{};
  for (int call = 0; call < 2000; ++call) {
    // Repeated timestamps and gaps of exactly the window or exactly the
    // interactivity interval put accesses on both boundaries.
    const std::int64_t step = rng.uniform_int(0, 31);
    if (step == 4) {
      now += window;
    } else if (step >= 5 && step <= 6) {
      now += interval;
    } else if (step >= 7) {
      now += scda::sim::secs(
          rng.exponential(cfg.interactivity_interval_s / 4.0));
    }  // else: the same timestamp again
    const std::int64_t content = rng.uniform_int(0, contents - 1);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        log.record_write(content, now);
        ref.record_write(content, now);
        recorded.push_back(now);
        break;
      case 1:
        log.record_read(content, now);
        ref.record_read(content, now);
        recorded.push_back(now);
        break;
      case 2: {
        const ContentClass got = log.classify(content, now);
        EXPECT_EQ(got, ref.classify(content, now))
            << "seed " << seed << " call " << call;
        ++classes[static_cast<std::size_t>(got)];
        break;
      }
      default:
        EXPECT_EQ(log.accesses_in_window(content, now),
                  ref.accesses_in_window(content, now))
            << "seed " << seed << " call " << call;
    }
    const auto in_window =
        recorded.end() -
        std::lower_bound(recorded.begin(), recorded.end(), now - window);
    EXPECT_EQ(log.window_accesses(), static_cast<std::size_t>(in_window))
        << "seed " << seed << " call " << call;
    if (::testing::Test::HasFailure()) break;
  }
  return classes;
}

void check_config_against_reference(const ClassifierConfig& cfg) {
  std::array<int, 3> classes{};
  for (std::uint64_t seed = 1; seed <= 200 && !::testing::Test::HasFailure();
       ++seed) {
    const std::array<int, 3> c = check_against_reference(cfg, seed);
    for (std::size_t i = 0; i < c.size(); ++i) classes[i] += c[i];
  }
  // Every class was answered, so the comparison covers each branch.
  for (const int n : classes) EXPECT_GT(n, 0);
}

TEST(ClassifierOracle, DefaultConfigMatchesReference) {
  check_config_against_reference(ClassifierConfig{});
}

TEST(ClassifierOracle, LongWindowLowThresholdMatchesReference) {
  ClassifierConfig cfg;
  cfg.window_s = 600.0;
  cfg.high_accesses_per_window = 2;
  check_config_against_reference(cfg);
}

TEST(ClassifierOracle, ZeroThresholdMatchesReference) {
  // Every known content is high, so a content whose accesses all left the
  // window is still classified by its last interleaving gap.
  ClassifierConfig cfg;
  cfg.high_accesses_per_window = 0;
  check_config_against_reference(cfg);
}

}  // namespace
}  // namespace scda::core
