#include "runner/worker_pool.h"

#include <cstdlib>
#include <limits>

#include "util/args.h"

namespace scda::runner {

WorkerPool::WorkerPool(unsigned workers) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers - 1);
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(std::size_t n_jobs,
                     const std::function<void(std::size_t)>& job) {
  if (n_jobs == 0) return;
  if (threads_.empty()) {
    // Single-worker pool: plain inline loop, no synchronization.
    for (std::size_t i = 0; i < n_jobs; ++i) job(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    // A worker that woke late for the previous batch may still be inside
    // work_through() (it will claim an out-of-range index and park). Wait
    // for it before touching batch state.
    cv_done_.wait(lk, [&] { return busy_ == 0; });
    job_ = &job;
    n_jobs_ = n_jobs;
    next_.store(0, std::memory_order_relaxed);
    done_ = 0;
    first_error_ = nullptr;
    first_error_index_ = 0;
    ++epoch_;
  }
  cv_start_.notify_all();

  work_through();  // the calling thread is a worker too

  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == n_jobs_; });
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      ++busy_;
    }
    work_through();
    bool idle = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      idle = --busy_ == 0;
    }
    if (idle) cv_done_.notify_all();
  }
}

void WorkerPool::work_through() {
  std::size_t finished = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_jobs_) break;
    std::exception_ptr err;
    try {
      (*job_)(i);
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      std::lock_guard<std::mutex> lk(mu_);
      // Keep the exception from the lowest job index so the rethrown
      // error is deterministic regardless of thread interleaving.
      if (!first_error_ || i < first_error_index_) {
        first_error_ = err;
        first_error_index_ = i;
      }
    }
    ++finished;
  }
  if (finished > 0) {
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ += finished;
      all_done = done_ == n_jobs_;
    }
    if (all_done) cv_done_.notify_all();
  }
}

std::optional<unsigned> env_count(const char* var) {
  const char* env = std::getenv(var);
  if (env == nullptr) return std::nullopt;
  return static_cast<unsigned>(
      util::parse_int(var, env, 1, std::numeric_limits<unsigned>::max()));
}

unsigned default_workers() {
  if (const auto n = env_count("SCDA_WORKERS")) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace scda::runner
