// Content-class learning (paper sections II-B and VII).
//
// "The client applications can specify the type of content or the RMs of
//  the servers can learn the type of content from the server access
//  frequencies (of writes and reads) by the content."
//
// The classifier counts each content's writes and reads within a sliding
// window and maps observed frequencies onto the paper's taxonomy:
//
//   writes high  & reads high  -> interactive       (HWHR)
//   exactly one high           -> semi-interactive  (HWLR / LWHR)
//   both low                   -> passive           (LWLR)
//
// "High" means at least `high_accesses_per_window` accesses within the
// sliding window; interactive additionally requires the write/read
// interleaving gap to stay under the interactivity interval (5 s default).
//
// Layout: a FIFO log of the accesses inside the window, oldest first, and
// a hash map from content to its write and read counts over the window,
// its last access and its interleaving flag. Every call first pops the log
// entries older than `now - window_s` and decrements their counts. A
// content left with no access in the window is forgotten. That changes
// only the interleaving flag its next access sets, which cannot decide a
// class before a second access: one access is never both high writes and
// high reads. A zero threshold makes every known content high, so then
// the record is kept. Memory thus follows the window, not every content
// ever accessed.
//
// Precondition: `now` never decreases from one call to the next (callers
// pass the simulator's clock); debug builds assert it.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>

#include "sim/types.h"
#include "transport/flow.h"

namespace scda::core {

struct ClassifierConfig {
  double window_s = 60.0;             ///< sliding-window span
  std::uint32_t high_accesses_per_window = 4;
  double interactivity_interval_s = 5.0;  ///< paper section VII
};

class ContentClassifier {
 public:
  explicit ContentClassifier(ClassifierConfig cfg = {}) : cfg_(cfg) {}

  void record_write(std::int64_t content, sim::SimTime now) {
    record(content, now, /*write=*/true);
  }

  void record_read(std::int64_t content, sim::SimTime now) {
    record(content, now, /*write=*/false);
  }

  /// Learned class from the access pattern observed so far.
  [[nodiscard]] transport::ContentClass classify(std::int64_t content,
                                                 sim::SimTime now) {
    expire(now);
    const auto it = by_content_.find(content);
    if (it == by_content_.end()) return transport::ContentClass::kPassive;
    const Record& r = it->second;
    const bool hw = r.writes >= cfg_.high_accesses_per_window;
    const bool hr = r.reads >= cfg_.high_accesses_per_window;
    if (hw && hr && r.tight_interleaving)
      return transport::ContentClass::kInteractive;
    if (hw || hr) return transport::ContentClass::kSemiInteractive;
    return transport::ContentClass::kPassive;
  }

  /// Accesses of either kind within the window.
  [[nodiscard]] std::size_t accesses_in_window(std::int64_t content,
                                               sim::SimTime now) {
    expire(now);
    const auto it = by_content_.find(content);
    if (it == by_content_.end()) return 0;
    return std::size_t{it->second.writes} + it->second.reads;
  }

  /// Accesses of every content within the window as of the latest call:
  /// the length of the log, which bounds the classifier's memory.
  [[nodiscard]] std::size_t window_accesses() const noexcept {
    return log_.size();
  }

  [[nodiscard]] const ClassifierConfig& config() const noexcept {
    return cfg_;
  }

 private:
  struct Access {
    sim::SimTime at;
    std::int64_t content;
    bool write;
  };
  struct Record {
    std::uint32_t writes = 0;  ///< within the window
    std::uint32_t reads = 0;   ///< within the window
    sim::SimTime last_access = sim::secs(-1.0);
    /// True while consecutive accesses interleave within the
    /// interactivity interval.
    bool tight_interleaving = false;
  };

  void record(std::int64_t content, sim::SimTime now, bool write) {
    expire(now);
    log_.push_back({now, content, write});
    Record& r = by_content_[content];
    ++(write ? r.writes : r.reads);
    if (r.last_access >= sim::SimTime{}) {
      r.tight_interleaving =
          now - r.last_access <= sim::secs(cfg_.interactivity_interval_s);
    }
    r.last_access = now;
  }

  void expire(sim::SimTime now) {
    assert(now >= latest_ && "ContentClassifier: time went backwards");
    latest_ = now;
    const sim::SimTime cutoff = now - sim::secs(cfg_.window_s);
    while (!log_.empty() && log_.front().at < cutoff) {
      const Access& a = log_.front();
      const auto it = by_content_.find(a.content);
      Record& r = it->second;
      --(a.write ? r.writes : r.reads);
      if (r.writes + r.reads == 0 && cfg_.high_accesses_per_window > 0)
        by_content_.erase(it);
      log_.pop_front();
    }
  }

  ClassifierConfig cfg_;
  std::deque<Access> log_;
  std::unordered_map<std::int64_t, Record> by_content_;
  sim::SimTime latest_ =
      sim::nanos(std::numeric_limits<std::int64_t>::min());
};

}  // namespace scda::core
