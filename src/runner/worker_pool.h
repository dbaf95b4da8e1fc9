// Fixed-size worker pool for sharding independent simulation runs across
// cores.
//
// The pool owns n-1 background threads; the thread that calls run()
// participates as the n-th worker, so WorkerPool(1) degenerates to a plain
// inline loop with zero synchronization overhead. Jobs are claimed from an
// atomic counter, which keeps dispatch deterministic-friendly: the *set* of
// jobs executed is always exactly {0..n_jobs-1} each exactly once, and
// callers that write results into a pre-sized slot per job index get
// output independent of scheduling order.
//
// Exception policy: a throwing job never short-circuits the batch (other
// workers finish their claimed jobs), and the exception rethrown to the
// run() caller is the one from the *lowest job index* that threw — again a
// pure function of the job set, not of thread interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace scda::runner {

class WorkerPool {
 public:
  /// `workers` is the total parallelism (threads doing work), including the
  /// caller of run(); the pool spawns workers-1 background threads.
  /// 0 is clamped to 1.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Run job(i) for every i in [0, n_jobs), sharded across the workers.
  /// Blocks until all jobs completed. If any job threw, rethrows the
  /// exception of the lowest-index throwing job after the batch finishes.
  /// Not reentrant: one run() at a time per pool.
  void run(std::size_t n_jobs, const std::function<void(std::size_t)>& job);

 private:
  void worker_loop();
  void work_through();  ///< claim and execute jobs until the batch is empty

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;     ///< bumped per run(); wakes the workers
  std::size_t busy_ = 0;        ///< background workers inside work_through()
  bool stopping_ = false;

  // Per-batch state. Written by run() only while busy_ == 0 (no background
  // worker can be touching it), read by workers between wake and re-park.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t n_jobs_ = 0;
  std::atomic<std::size_t> next_{0};     ///< next unclaimed job index
  std::size_t done_ = 0;                 ///< finished jobs (under mu_)
  std::size_t first_error_index_ = 0;    ///< lowest job index that threw
  std::exception_ptr first_error_;       ///< its exception (under mu_)
};

/// Worker count from environment variable `var`: nullopt when unset, else
/// a whole number in [1, 4294967295], the rule of the --workers flags.
/// Throws std::invalid_argument naming `var` for any other value.
[[nodiscard]] std::optional<unsigned> env_workers(const char* var);

/// Worker count from the environment (`SCDA_WORKERS`), falling back to
/// std::thread::hardware_concurrency(), falling back to 1.
[[nodiscard]] unsigned default_workers();

/// Map `items` through `fn` on `pool`, preserving order: out[i] = fn(in[i]).
/// Out must be default-constructible and movable.
template <typename Out, typename In, typename Fn>
std::vector<Out> parallel_map(WorkerPool& pool, const std::vector<In>& items,
                              Fn&& fn) {
  std::vector<Out> out(items.size());
  pool.run(items.size(),
           [&](std::size_t i) { out[i] = fn(items[i], i); });
  return out;
}

}  // namespace scda::runner
