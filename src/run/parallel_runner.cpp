#include "run/parallel_runner.hpp"

#include <chrono>
#include <utility>

#include "offline/opt_dp.hpp"
#include "run/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repl {

ParallelRunner::ParallelRunner(RunnerOptions options)
    : options_(std::move(options)) {
  REPL_REQUIRE(options_.num_threads >= 0);
}

ParallelRunner::~ParallelRunner() = default;
ParallelRunner::ParallelRunner(ParallelRunner&&) noexcept = default;
ParallelRunner& ParallelRunner::operator=(ParallelRunner&&) noexcept =
    default;

std::uint64_t ParallelRunner::object_seed(std::uint64_t base_seed,
                                          std::size_t index) {
  // One SplitMix64 step per object keyed by index: addressable in any
  // order (no sequential stream to advance) and well mixed even for
  // consecutive indices.
  SplitMix64 mixer(base_seed +
                   0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
  return mixer.next();
}

MultiObjectResult ParallelRunner::run(
    const MultiObjectWorkload& workload, const SystemConfig& base_config,
    const ObjectPolicyFactory& make_policy,
    const ObjectPredictorFactory& make_predictor) const {
  REPL_REQUIRE(base_config.num_servers == workload.num_servers);
  REPL_REQUIRE(make_policy != nullptr);
  REPL_REQUIRE(make_predictor != nullptr);

  const std::size_t num_objects = workload.objects.size();
  MultiObjectResult result;
  result.per_object_online.assign(num_objects, 0.0);
  result.per_object_opt.assign(num_objects, 0.0);

  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.num_threads));
  }
  const auto started = std::chrono::steady_clock::now();
  const std::uint64_t steals_before = pool_->steal_count();
  // The per-object job. Everything it reads is const-shared; everything
  // it writes is the object's own two result slots.
  pool_->run(num_objects, [&](std::size_t i) {
    const Trace& trace = workload.objects[i];
    if (trace.empty()) return;
    ObjectContext context;
    context.index = i;
    context.seed = object_seed(options_.base_seed, i);
    context.trace = &trace;
    PolicyPtr policy = make_policy(context);
    PredictorPtr predictor = make_predictor(context);
    const Simulator simulator(base_config, options_.simulation);
    result.per_object_online[i] =
        simulator.run(*policy, trace, *predictor).total_cost();
    if (options_.compute_opt) {
      result.per_object_opt[i] = OptimalDpSolver(base_config).solve(trace);
    }
  });
  const auto finished = std::chrono::steady_clock::now();

  stats_.threads_used = static_cast<int>(pool_->threads_for(num_objects));
  stats_.objects_simulated = num_objects;
  stats_.steals = pool_->steal_count() - steals_before;
  stats_.wall_seconds =
      std::chrono::duration<double>(finished - started).count();
  stats_.requests_simulated = 0;
  for (const Trace& trace : workload.objects) {
    stats_.requests_simulated += trace.size();
  }

  // Serial reduction in object order — this is what makes the aggregate
  // bit-identical across thread counts (FP addition is not associative).
  for (std::size_t i = 0; i < num_objects; ++i) {
    result.online_cost += result.per_object_online[i];
    result.opt_cost += result.per_object_opt[i];
  }
  return result;
}

ObjectPolicyFactory adapt_policy_factory(PolicyFactory factory) {
  REPL_REQUIRE(factory != nullptr);
  return [factory = std::move(factory)](const ObjectContext&) {
    return factory();
  };
}

ObjectPredictorFactory adapt_predictor_factory(PredictorFactory factory) {
  REPL_REQUIRE(factory != nullptr);
  return [factory = std::move(factory)](const ObjectContext& context) {
    return factory(*context.trace);
  };
}

}  // namespace repl
