// ThreadPool and ParallelRunner unit tests: the fork-join round (every
// index once, the lowest failing index rethrown, steal counting), the
// per-object seed stream, stats, error propagation, and agreement with
// a hand-rolled serial loop.
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/drwp.hpp"
#include "core/simulator.hpp"
#include "extensions/multi_object.hpp"
#include "offline/opt_dp.hpp"
#include "predictor/oracle.hpp"
#include "run/parallel_runner.hpp"
#include "run/thread_pool.hpp"
#include "test_util.hpp"

namespace repl {
namespace {

using testing::make_config;

MultiObjectWorkload small_workload(int num_objects, std::uint64_t seed) {
  MultiObjectConfig config;
  config.num_objects = num_objects;
  config.num_servers = 4;
  config.horizon = 10000.0;
  config.request_rate = 0.05 * num_objects;
  return generate_multi_object_workload(config, seed);
}

ObjectPolicyFactory drwp_factory(double alpha) {
  return [alpha](const ObjectContext&) -> PolicyPtr {
    return std::make_unique<DrwpPolicy>(alpha);
  };
}

ObjectPredictorFactory oracle_factory() {
  return [](const ObjectContext& context) -> PredictorPtr {
    return std::make_unique<OraclePredictor>(*context.trace);
  };
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> runs(1000);
    pool.run(runs.size(), [&runs](std::size_t i) { runs[i].fetch_add(1); });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    }
    if (threads == 1) {
      EXPECT_EQ(pool.steal_count(), 0u);  // inline rounds steal nothing
    }
  }
}

TEST(ThreadPool, ZeroTasksReturnAtOnce) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run(0, [&ran](std::size_t) { ran = true; });  // must not hang
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(ThreadPool, RunsManyRoundsInSequence) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 7);
    const int before = counter.load();
    pool.run(n, [&counter](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), before + static_cast<int>(n));
  }
}

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, EveryTaskRunsAndTheLowestFailingIndexIsRethrown) {
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> runs(64);
    try {
      pool.run(runs.size(), [&runs](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 7 || i == 20 || i == 41) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "expected a task exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 7");
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    }
    // A failed round leaves the pool usable.
    std::atomic<int> after{0};
    pool.run(10, [&after](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);
  }
}

TEST(ThreadPool, SkewedRoundCountsSteals) {
  // Task 0 holds its worker until every other task has run, so the
  // other three workers run all of them: more than an even share
  // (⌈n / 4⌉) each on average, which steal_count() reports.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> others{0};
  pool.run(kTasks, [&others](std::size_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    while (others.load() < kTasks - 1) std::this_thread::yield();
  });
  EXPECT_EQ(others.load(), kTasks - 1);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(ParallelRunnerSeeds, PureFunctionOfBaseSeedAndIndex) {
  EXPECT_EQ(ParallelRunner::object_seed(1, 0),
            ParallelRunner::object_seed(1, 0));
  EXPECT_NE(ParallelRunner::object_seed(1, 0),
            ParallelRunner::object_seed(1, 1));
  EXPECT_NE(ParallelRunner::object_seed(1, 0),
            ParallelRunner::object_seed(2, 0));
  // Consecutive indices must not produce correlated low bits.
  const std::uint64_t a = ParallelRunner::object_seed(7, 100);
  const std::uint64_t b = ParallelRunner::object_seed(7, 101);
  EXPECT_NE(a & 0xffffULL, b & 0xffffULL);
}

TEST(ParallelRunner, EmptyWorkloadYieldsEmptyResult) {
  MultiObjectWorkload workload;
  workload.num_servers = 4;
  const ParallelRunner runner;
  const MultiObjectResult result = runner.run(
      workload, make_config(4, 10.0), drwp_factory(0.5), oracle_factory());
  EXPECT_EQ(result.online_cost, 0.0);
  EXPECT_EQ(result.opt_cost, 0.0);
  EXPECT_TRUE(result.per_object_online.empty());
  EXPECT_DOUBLE_EQ(result.ratio(), 1.0);
}

TEST(ParallelRunner, EmptyTracesContributeZeroCost) {
  MultiObjectWorkload workload;
  workload.num_servers = 2;
  workload.objects.push_back(Trace(2, {{1.0, 1}}));
  workload.objects.push_back(Trace(2, {}));
  workload.objects.push_back(Trace(2, {{5.0, 0}}));
  const ParallelRunner runner;
  const MultiObjectResult result = runner.run(
      workload, make_config(2, 10.0), drwp_factory(0.5), oracle_factory());
  ASSERT_EQ(result.per_object_online.size(), 3u);
  EXPECT_GT(result.per_object_online[0], 0.0);
  EXPECT_EQ(result.per_object_online[1], 0.0);
  EXPECT_GT(result.per_object_online[2], 0.0);
}

TEST(ParallelRunner, MatchesHandRolledSerialLoop) {
  const MultiObjectWorkload workload = small_workload(30, 11);
  const SystemConfig config = make_config(4, 50.0);

  RunnerOptions options;
  options.num_threads = 4;
  options.simulation.record_events = false;
  const ParallelRunner runner(options);
  const MultiObjectResult result =
      runner.run(workload, config, drwp_factory(0.3), oracle_factory());

  SimulationOptions lean;
  lean.record_events = false;
  const Simulator simulator(config, lean);
  const OptimalDpSolver solver(config);
  double online = 0.0, opt = 0.0;
  for (const Trace& trace : workload.objects) {
    if (trace.empty()) continue;
    DrwpPolicy policy(0.3);
    OraclePredictor predictor(trace);
    online += simulator.run(policy, trace, predictor).total_cost();
    opt += solver.solve(trace);
  }
  EXPECT_EQ(result.online_cost, online);
  EXPECT_EQ(result.opt_cost, opt);
}

TEST(ParallelRunner, StatsReflectTheRun) {
  const MultiObjectWorkload workload = small_workload(25, 3);
  std::size_t total_requests = 0;
  for (const Trace& trace : workload.objects) total_requests += trace.size();

  RunnerOptions options;
  options.num_threads = 2;
  options.compute_opt = false;
  const ParallelRunner runner(options);
  (void)runner.run(workload, make_config(4, 10.0), drwp_factory(0.5),
                   oracle_factory());
  const RunnerStats& stats = runner.last_stats();
  EXPECT_EQ(stats.threads_used, 2);
  EXPECT_EQ(stats.objects_simulated, 25u);
  EXPECT_EQ(stats.requests_simulated, total_requests);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(ParallelRunner, ComputeOptOffLeavesOptZero) {
  const MultiObjectWorkload workload = small_workload(10, 5);
  RunnerOptions options;
  options.compute_opt = false;
  const ParallelRunner runner(options);
  const MultiObjectResult result = runner.run(
      workload, make_config(4, 10.0), drwp_factory(0.5), oracle_factory());
  EXPECT_EQ(result.opt_cost, 0.0);
  EXPECT_GT(result.online_cost, 0.0);
}

TEST(ParallelRunner, PropagatesLowestIndexException) {
  const MultiObjectWorkload workload = small_workload(20, 7);
  RunnerOptions options;
  options.num_threads = 4;
  const ParallelRunner runner(options);
  const ObjectPolicyFactory throwing_factory =
      [](const ObjectContext& context) -> PolicyPtr {
    if (context.index >= 5) {
      throw std::runtime_error("object " + std::to_string(context.index));
    }
    return std::make_unique<DrwpPolicy>(0.5);
  };
  try {
    (void)runner.run(workload, make_config(4, 10.0), throwing_factory,
                     oracle_factory());
    FAIL() << "expected the factory exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "object 5");
  }
}

TEST(ParallelRunner, RejectsMismatchedServerCounts) {
  const MultiObjectWorkload workload = small_workload(3, 1);
  const ParallelRunner runner;
  EXPECT_THROW((void)runner.run(workload, make_config(8, 10.0),
                                drwp_factory(0.5), oracle_factory()),
               std::invalid_argument);
}

TEST(ParallelRunner, RejectsNullFactories) {
  const MultiObjectWorkload workload = small_workload(3, 1);
  const ParallelRunner runner;
  EXPECT_THROW((void)runner.run(workload, make_config(4, 10.0),
                                ObjectPolicyFactory{}, oracle_factory()),
               std::invalid_argument);
  EXPECT_THROW((void)runner.run(workload, make_config(4, 10.0),
                                drwp_factory(0.5), ObjectPredictorFactory{}),
               std::invalid_argument);
}

TEST(LegacyAdapters, ForwardToTheWrappedFactories) {
  const MultiObjectWorkload workload = small_workload(8, 9);
  const SystemConfig config = make_config(4, 25.0);
  const MultiObjectResult legacy = run_multi_object(
      workload, config, [] { return std::make_unique<DrwpPolicy>(0.4); },
      [](const Trace& trace) -> PredictorPtr {
        return std::make_unique<OraclePredictor>(trace);
      });
  const ParallelRunner runner;  // default: all threads
  const MultiObjectResult parallel = runner.run(
      workload, config,
      adapt_policy_factory([] { return std::make_unique<DrwpPolicy>(0.4); }),
      adapt_predictor_factory([](const Trace& trace) -> PredictorPtr {
        return std::make_unique<OraclePredictor>(trace);
      }));
  EXPECT_EQ(legacy.online_cost, parallel.online_cost);
  EXPECT_EQ(legacy.opt_cost, parallel.opt_cost);
  EXPECT_EQ(legacy.per_object_online, parallel.per_object_online);
  EXPECT_EQ(legacy.per_object_opt, parallel.per_object_opt);
}

}  // namespace
}  // namespace repl
