// Parallel multi-object simulation engine.
//
// The paper studies one object and notes (footnote 1) that objects do not
// interact, so a multi-object workload is embarrassingly parallel: the
// runner fans the objects of a MultiObjectWorkload out as one round of a
// fork-join ThreadPool (one task per object, claimed in index order),
// runs each object's Simulator (and optionally the offline-optimum DP)
// independently, and reduces the per-object results into a
// MultiObjectResult.
//
// Determinism contract: the aggregate is *bit-identical* to the serial
// path regardless of thread count or scheduling. Three mechanisms ensure
// this:
//   * every task writes only to its own per-object result slots;
//   * the floating-point reduction runs on the calling thread in object
//     order after all tasks finish;
//   * randomized components (policies, predictors) draw from per-object
//     seeds that are a pure function of (base_seed, object index), never
//     from shared or thread-local streams.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/policy.hpp"
#include "core/simulator.hpp"
#include "extensions/multi_object.hpp"
#include "predictor/predictor.hpp"
#include "trace/trace.hpp"

namespace repl {

class ThreadPool;

/// Everything a factory needs to build per-object components: the object's
/// index and trace, plus a deterministic seed for randomized policies or
/// predictors (a pure function of RunnerOptions::base_seed and `index`).
struct ObjectContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  const Trace* trace = nullptr;
};

/// Factories are invoked concurrently from pool worker threads — they
/// must be thread-safe (stateless, or mutating only per-call state; draw
/// randomness from the context's seed, never from shared captures).
using ObjectPolicyFactory = std::function<PolicyPtr(const ObjectContext&)>;
using ObjectPredictorFactory =
    std::function<PredictorPtr(const ObjectContext&)>;

struct RunnerOptions {
  /// 0 => all hardware threads; 1 => run inline on the calling thread
  /// (the serial reference path — no worker thread is started).
  int num_threads = 0;
  /// Also solve the per-object offline optimum (the DP dominates runtime;
  /// disable for policy-only throughput runs, leaving opt_cost = 0).
  bool compute_opt = true;
  /// Passed through to each object's Simulator.
  SimulationOptions simulation;
  /// Root of the per-object seed streams.
  std::uint64_t base_seed = 0x5eed5eed5eed5eedULL;
};

/// Diagnostics from the last run() call.
struct RunnerStats {
  int threads_used = 0;
  std::size_t objects_simulated = 0;
  std::size_t requests_simulated = 0;
  /// Objects a worker simulated beyond an even share of the run
  /// (ThreadPool::steal_count): the work that moved off a loaded worker.
  std::uint64_t steals = 0;
  double wall_seconds = 0.0;
};

class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerOptions options = {});
  ~ParallelRunner();
  ParallelRunner(ParallelRunner&&) noexcept;
  ParallelRunner& operator=(ParallelRunner&&) noexcept;

  /// Simulates every object of `workload` under a fresh policy/predictor
  /// pair from the factories and returns the aggregate result. An
  /// exception thrown by per-object work is re-thrown on the calling
  /// thread once every object has run; when several objects fail, the
  /// lowest object index wins (ThreadPool::run's rule, deterministic).
  MultiObjectResult run(const MultiObjectWorkload& workload,
                        const SystemConfig& base_config,
                        const ObjectPolicyFactory& make_policy,
                        const ObjectPredictorFactory& make_predictor) const;

  const RunnerOptions& options() const { return options_; }

  /// Stats of the most recent run() that returned (overwritten by each
  /// such call). run() parallelizes internally but is not itself safe
  /// to call concurrently on one instance — the stats cache is
  /// unsynchronized; give each driving thread its own ParallelRunner
  /// (construction is trivial).
  const RunnerStats& last_stats() const { return stats_; }

  /// The per-object seed stream: a pure function of (base_seed, index),
  /// independent of thread count and execution order.
  static std::uint64_t object_seed(std::uint64_t base_seed,
                                   std::size_t index);

 private:
  RunnerOptions options_;
  mutable RunnerStats stats_;
  /// Created by the first run(), which also starts its workers if it
  /// fans out; reused after, so repeated runs do not pay thread
  /// spawn/join churn. Shares the single-driving-thread caveat
  /// documented on last_stats().
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Adapts the legacy trace-only factories of run_multi_object() to the
/// context-aware signatures (the context's seed and index are dropped).
ObjectPolicyFactory adapt_policy_factory(PolicyFactory factory);
ObjectPredictorFactory adapt_predictor_factory(PredictorFactory factory);

}  // namespace repl
