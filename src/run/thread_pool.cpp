#include "run/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace repl {

namespace {

/// The host's hardware threads, read once per process: constructing a
/// pool costs no system call.
std::size_t hardware_threads() {
  static const std::size_t count =
      std::max(1u, std::thread::hardware_concurrency());
  return count;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads != 0 ? num_threads : hardware_threads()) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Failure::keep(std::size_t i, std::exception_ptr e) {
  if (error && index < i) return;
  index = i;
  error = std::move(e);
}

std::size_t ThreadPool::drain(std::size_t n, const Task& task,
                              Failure& failure) {
  for (std::size_t ran = 0;; ++ran) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return ran;
    try {
      task(i);
    } catch (...) {
      failure.keep(i, std::current_exception());
    }
  }
}

void ThreadPool::run(std::size_t n, const Task& task) {
  Failure failure;
  cursor_.store(0, std::memory_order_relaxed);
  if (threads_for(n) == 1) {
    drain(n, task, failure);
  } else {
    if (workers_.empty()) {
      workers_.reserve(num_threads_);
      for (std::size_t i = 0; i < num_threads_; ++i) {
        workers_.emplace_back([this, seen = round_] { worker_loop(seen); });
      }
    }
    // The caller only waits. Claiming tasks too made replay restores
    // slower on the perfbench replay-1m workload, perhaps because the
    // objects it built landed in the main malloc arena (ROADMAP,
    // direction 2).
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &task;
    count_ = n;
    even_share_ = (n + num_threads_ - 1) / num_threads_;
    finished_ = 0;
    failure_ = &failure;
    ++round_;
    wake_.notify_all();
    done_.wait(lock, [this] { return finished_ == count_ && inside_ == 0; });
    task_ = nullptr;
    failure_ = nullptr;
  }
  if (failure.error) std::rethrow_exception(failure.error);
}

void ThreadPool::worker_loop(std::uint64_t seen_round) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stopping_ || round_ != seen_round; });
    if (stopping_) return;
    seen_round = round_;
    if (finished_ == count_) continue;  // woke after the round ended
    ++inside_;
    const Task& task = *task_;
    const std::size_t n = count_;
    lock.unlock();
    Failure failure;
    const std::size_t ran = drain(n, task, failure);
    lock.lock();
    --inside_;
    finished_ += ran;
    if (failure.error) failure_->keep(failure.index, std::move(failure.error));
    if (ran > even_share_) steals_ += ran - even_share_;
    if (finished_ == count_ && inside_ == 0) done_.notify_one();
  }
}

}  // namespace repl
