// Fork-join thread pool for embarrassingly parallel work.
//
// Every caller knows its batch up front and waits for all of it, so the
// pool has one operation: run(n, task) starts a round in which the
// workers claim the indices 0..n-1 in order from one atomic cursor while
// the caller sleeps. Every task runs even when some throw; then the
// exception of the lowest failing index is rethrown, whatever the thread
// count. With one thread, or one task, run() executes the tasks inline
// on the caller under the same rule, so the serial reference path and
// the pooled path share it. The workers are spawned by the first pooled
// round, so an owner that never fans out never pays a thread spawn.
//
// The pool must never influence results: callers that need determinism
// (ParallelRunner, StreamingEngine) write each task's output to a slot
// of its own and reduce in index order afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace repl {

class ThreadPool {
 public:
  /// One round's body, called once with each index in [0, n).
  using Task = std::function<void(std::size_t)>;

  /// `num_threads` = 0 picks std::thread::hardware_concurrency() (at
  /// least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs task(0) … task(n − 1) and returns once every one has run. If
  /// any threw, the exception of the lowest failing index is rethrown
  /// after all of them ran. One round at a time: a task must not call
  /// run() on its own pool.
  void run(std::size_t n, const Task& task);

  std::size_t num_threads() const { return num_threads_; }

  /// Threads a round of `n` tasks runs on: 1 (inline, on the caller)
  /// when n ≤ 1 or the pool has one thread, else num_threads().
  std::size_t threads_for(std::size_t n) const {
    return n > 1 ? num_threads_ : 1;
  }

  /// Tasks run beyond an even share since construction: per round and
  /// worker, how many more than ⌈n / num_threads()⌉ tasks it ran — the
  /// work that moved off a loaded worker. Inline rounds add nothing.
  /// Read it from the thread that calls run().
  std::uint64_t steal_count() const { return steals_; }

 private:
  /// The lowest failing index of a round and its exception.
  struct Failure {
    std::size_t index = 0;
    std::exception_ptr error;
    void keep(std::size_t i, std::exception_ptr e);
  };

  /// Claims indices from the cursor until none below `n` is left and
  /// runs each, keeping the lowest failure; returns how many it ran.
  std::size_t drain(std::size_t n, const Task& task, Failure& failure);
  void worker_loop(std::uint64_t seen_round);

  std::size_t num_threads_;

  /// Next index to claim; reset by the caller before each round.
  std::atomic<std::size_t> cursor_{0};

  /// Guards the round fields below; wakes the workers and the caller.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t round_ = 0;
  const Task* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t even_share_ = 0;
  /// Tasks of the round that have run, and workers draining it. The
  /// round ends when every task ran and no worker is left inside it, so
  /// a worker that wakes after that skips the round instead of holding
  /// up the caller.
  std::size_t finished_ = 0;
  std::size_t inside_ = 0;
  /// The caller's failure record for the round.
  Failure* failure_ = nullptr;
  std::uint64_t steals_ = 0;
  bool stopping_ = false;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace repl
