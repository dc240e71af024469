// Determinism tests: identical seeds must produce identical results
// across repeated runs, across thread counts, and between the serial
// reference path and the fork-join pool — the ParallelRunner's
// scheduling must never leak into SimulationResults or aggregates.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/drwp.hpp"
#include "core/simulator.hpp"
#include "extensions/multi_object.hpp"
#include "extensions/randomized_drwp.hpp"
#include "predictor/noisy.hpp"
#include "predictor/oracle.hpp"
#include "run/parallel_runner.hpp"
#include "test_util.hpp"

namespace repl {
namespace {

using testing::make_config;

MultiObjectWorkload workload_fixture(std::uint64_t seed) {
  MultiObjectConfig config;
  config.num_objects = 60;
  config.num_servers = 6;
  config.horizon = 40000.0;
  config.request_rate = 0.08;
  return generate_multi_object_workload(config, seed);
}

/// Randomized policy + noisy predictor, both drawing from the runner's
/// per-object seed stream — the hardest case for order-independence.
ObjectPolicyFactory randomized_factory(double alpha) {
  return [alpha](const ObjectContext& context) -> PolicyPtr {
    return std::make_unique<RandomizedDrwpPolicy>(alpha, context.seed);
  };
}

ObjectPredictorFactory noisy_factory(double accuracy) {
  return [accuracy](const ObjectContext& context) -> PredictorPtr {
    return std::make_unique<AccuracyPredictor>(*context.trace, accuracy,
                                               context.seed ^ 0xabcdULL);
  };
}

MultiObjectResult run_with(const MultiObjectWorkload& workload,
                           int num_threads, std::uint64_t base_seed) {
  RunnerOptions options;
  options.num_threads = num_threads;
  options.base_seed = base_seed;
  options.simulation.record_events = false;
  const ParallelRunner runner(options);
  return runner.run(workload, make_config(6, 80.0),
                    randomized_factory(0.3), noisy_factory(0.85));
}

void expect_identical(const MultiObjectResult& a, const MultiObjectResult& b) {
  EXPECT_EQ(a.online_cost, b.online_cost);
  EXPECT_EQ(a.opt_cost, b.opt_cost);
  EXPECT_EQ(a.per_object_online, b.per_object_online);
  EXPECT_EQ(a.per_object_opt, b.per_object_opt);
}

TEST(WorkloadDeterminism, SameSeedSameWorkload) {
  const MultiObjectWorkload a = workload_fixture(21);
  const MultiObjectWorkload b = workload_fixture(21);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].requests(), b.objects[i].requests());
  }
  const MultiObjectWorkload c = workload_fixture(22);
  std::size_t a_total = 0, c_total = 0;
  for (const Trace& t : a.objects) a_total += t.size();
  for (const Trace& t : c.objects) c_total += t.size();
  EXPECT_NE(a_total, c_total);  // different seed, different stream
}

TEST(Determinism, RepeatedSerialRunsAreIdentical) {
  const MultiObjectWorkload workload = workload_fixture(1);
  expect_identical(run_with(workload, 1, 99), run_with(workload, 1, 99));
}

TEST(Determinism, RepeatedParallelRunsAreIdentical) {
  const MultiObjectWorkload workload = workload_fixture(2);
  expect_identical(run_with(workload, 4, 99), run_with(workload, 4, 99));
}

TEST(Determinism, ParallelMatchesSerialAcrossThreadCounts) {
  const MultiObjectWorkload workload = workload_fixture(3);
  const MultiObjectResult serial = run_with(workload, 1, 7);
  for (int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE(threads);
    expect_identical(serial, run_with(workload, threads, 7));
  }
}

TEST(Determinism, BaseSeedChangesRandomizedResults) {
  const MultiObjectWorkload workload = workload_fixture(4);
  const MultiObjectResult a = run_with(workload, 2, 1);
  const MultiObjectResult b = run_with(workload, 2, 2);
  // The randomized policy consumes the per-object stream, so a different
  // base seed must change some per-object cost (opt is seed-free).
  EXPECT_NE(a.per_object_online, b.per_object_online);
  EXPECT_EQ(a.per_object_opt, b.per_object_opt);
}

TEST(Determinism, LegacyParallelWrapperMatchesSerialWrapper) {
  const MultiObjectWorkload workload = workload_fixture(5);
  const SystemConfig config = make_config(6, 40.0);
  const PolicyFactory policy = [] {
    return std::make_unique<DrwpPolicy>(0.5);
  };
  const PredictorFactory predictor = [](const Trace& trace) -> PredictorPtr {
    return std::make_unique<OraclePredictor>(trace);
  };
  const MultiObjectResult serial =
      run_multi_object(workload, config, policy, predictor);
  const MultiObjectResult parallel =
      run_multi_object_parallel(workload, config, policy, predictor, 4);
  expect_identical(serial, parallel);
}

TEST(Determinism, SingleObjectSimulationResultsAreReproducible) {
  // Full SimulationResult equality (costs, serves, segments, transfers)
  // for one object simulated twice with the same seed.
  const Trace trace = testing::random_trace(5, 0.05, 20000.0, 13);
  const SystemConfig config = make_config(5, 60.0);
  const auto run_once = [&](std::uint64_t seed) {
    RandomizedDrwpPolicy policy(0.4, seed);
    AccuracyPredictor predictor(trace, 0.8, seed);
    return Simulator(config).run(policy, trace, predictor);
  };
  const SimulationResult a = run_once(77);
  const SimulationResult b = run_once(77);
  EXPECT_EQ(a.storage_cost, b.storage_cost);
  EXPECT_EQ(a.transfer_cost, b.transfer_cost);
  EXPECT_EQ(a.num_local, b.num_local);
  EXPECT_EQ(a.num_transfers, b.num_transfers);
  ASSERT_EQ(a.serves.size(), b.serves.size());
  for (std::size_t i = 0; i < a.serves.size(); ++i) {
    EXPECT_EQ(a.serves[i].time, b.serves[i].time);
    EXPECT_EQ(a.serves[i].source, b.serves[i].source);
    EXPECT_EQ(a.serves[i].intended_duration, b.serves[i].intended_duration);
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].time, b.transfers[i].time);
    EXPECT_EQ(a.transfers[i].src, b.transfers[i].src);
    EXPECT_EQ(a.transfers[i].dst, b.transfers[i].dst);
  }
}

}  // namespace
}  // namespace repl
