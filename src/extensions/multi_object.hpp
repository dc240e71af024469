// Multi-object workloads.
//
// The paper manages a single data object and notes that "different
// objects can be handled separately" (its footnote 1). This module makes
// that concrete: a multi-object workload is a set of per-object traces; a
// policy factory supplies one independent policy instance per object; the
// aggregate online and optimal costs are sums over objects. Object
// popularity follows a Zipf law, the standard model for object storage.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "predictor/predictor.hpp"
#include "trace/trace.hpp"

namespace repl {

struct MultiObjectWorkload {
  /// Per-object request traces over a common server set.
  std::vector<Trace> objects;
  int num_servers = 0;
};

struct MultiObjectConfig {
  int num_objects = 20;
  double object_zipf_s = 1.0;  // popularity skew across objects
  int num_servers = 10;
  double request_rate = 0.02;  // aggregate, requests per time unit
  double horizon = 86400.0;
  double server_zipf_s = 1.0;
};

/// Draws one aggregate Poisson stream, assigns each request to an object
/// (Zipf) and a server (Zipf), and splits per object.
MultiObjectWorkload generate_multi_object_workload(
    const MultiObjectConfig& config, std::uint64_t seed);

using PolicyFactory = std::function<PolicyPtr()>;
using PredictorFactory =
    std::function<std::unique_ptr<Predictor>(const Trace&)>;

struct MultiObjectResult {
  double online_cost = 0.0;
  double opt_cost = 0.0;
  std::vector<double> per_object_online;
  std::vector<double> per_object_opt;
  double ratio() const {
    return opt_cost > 0.0 ? online_cost / opt_cost : 1.0;
  }
};

/// Runs one policy instance per object and aggregates costs; the offline
/// optimum decomposes per object since copies of different objects do not
/// interact. Serial reference path (ParallelRunner with one thread).
MultiObjectResult run_multi_object(const MultiObjectWorkload& workload,
                                   const SystemConfig& base_config,
                                   const PolicyFactory& make_policy,
                                   const PredictorFactory& make_predictor);

/// As run_multi_object(), but fanned out on a fork-join thread pool
/// (`num_threads` = 0 uses every hardware thread). The aggregate is
/// bit-identical to the serial path; see run/parallel_runner.hpp.
/// Unlike the serial contract, the factories are invoked concurrently
/// from worker threads and must be thread-safe (no mutation of shared
/// captured state).
MultiObjectResult run_multi_object_parallel(
    const MultiObjectWorkload& workload, const SystemConfig& base_config,
    const PolicyFactory& make_policy,
    const PredictorFactory& make_predictor, int num_threads = 0);

struct RunnerStats;

/// Spec-driven twin: each object's components are built by the
/// ComponentRegistry (api/registry.hpp) from the given spec strings,
/// seeded deterministically per object and supplied the object's trace
/// (so clairvoyant predictors like `oracle` or `noisy(accuracy=0.8)`
/// work here, unlike in the online engine). Throws SpecError on a bad
/// spec before any simulation starts. `base_seed` roots the per-object
/// seed streams of randomized components; `stats`, when non-null,
/// receives the runner's diagnostics (threads used, steals, wall time).
MultiObjectResult run_multi_object_spec(
    const MultiObjectWorkload& workload, const SystemConfig& base_config,
    const std::string& policy_spec, const std::string& predictor_spec,
    int num_threads = 0,
    std::uint64_t base_seed = 0x5eed5eed5eed5eedULL,
    RunnerStats* stats = nullptr);

}  // namespace repl
