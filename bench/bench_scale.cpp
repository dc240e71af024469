// Scaling benchmark for the parallel multi-object engine: sweeps the
// object count over 10^2..10^5 (geometric), runs each workload once on
// the serial reference path (1 thread) and once on the fork-join pool,
// verifies the aggregates are bit-identical, and reports the speedup.
//
//   ./build/bench/bench_scale [--threads=8] [--min-objects=100]
//       [--max-objects=100000] [--opt] [--requests-per-object=20]
#include <cstdlib>
#include <iostream>

#include "core/drwp.hpp"
#include "extensions/multi_object.hpp"
#include "predictor/noisy.hpp"
#include "run/parallel_runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace repl;

MultiObjectWorkload make_workload(int num_objects, double requests_per_object,
                                  std::uint64_t seed) {
  MultiObjectConfig config;
  config.num_objects = num_objects;
  config.num_servers = 10;
  config.horizon = 86400.0;
  config.request_rate =
      requests_per_object * static_cast<double>(num_objects) / config.horizon;
  return generate_multi_object_workload(config, seed);
}

MultiObjectResult run_once(const MultiObjectWorkload& workload,
                           const SystemConfig& system, int threads,
                           bool compute_opt, RunnerStats& stats_out) {
  RunnerOptions options;
  options.num_threads = threads;
  options.compute_opt = compute_opt;
  options.simulation.record_events = false;
  const ParallelRunner runner(options);
  const MultiObjectResult result = runner.run(
      workload, system,
      [](const ObjectContext&) -> PolicyPtr {
        return std::make_unique<DrwpPolicy>(0.3);
      },
      [](const ObjectContext& context) -> PredictorPtr {
        // Deterministic per-object prediction stream: exercises the
        // object_seed() contract under any task placement.
        return std::make_unique<AccuracyPredictor>(*context.trace, 0.9,
                                                   context.seed);
      });
  stats_out = runner.last_stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_scale",
                "serial vs. parallel multi-object simulation sweep");
  cli.add_flag("threads", "8", "worker threads for the parallel run");
  cli.add_flag("min-objects", "100", "smallest object count");
  cli.add_flag("max-objects", "100000", "largest object count");
  cli.add_flag("requests-per-object", "20", "mean requests per object");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_bool_flag("opt", "also solve the per-object offline optimum DP");
  if (!cli.parse(argc, argv)) return 0;

  const int threads = static_cast<int>(cli.get_int("threads"));
  const long long min_objects = cli.get_int("min-objects");
  const long long max_objects = cli.get_int("max-objects");
  if (min_objects < 1 || max_objects < min_objects ||
      max_objects > 100000000) {
    std::cerr << "error: need 1 <= --min-objects <= --max-objects <= 1e8\n";
    return EXIT_FAILURE;
  }
  const double requests_per_object =
      cli.get_double("requests-per-object");
  const bool compute_opt = cli.get_bool("opt");
  const auto seed = cli.get_uint64("seed");

  SystemConfig system;
  system.num_servers = 10;
  system.transfer_cost = 100.0;

  Table table({"objects", "requests", "serial_s", "parallel_s", "speedup",
               "steals", "cost", "identical"});
  bool all_identical = true;

  for (long long objects = min_objects; objects <= max_objects;
       objects *= 10) {
    const MultiObjectWorkload workload = make_workload(
        static_cast<int>(objects), requests_per_object, seed);

    RunnerStats serial_stats;
    const MultiObjectResult serial =
        run_once(workload, system, 1, compute_opt, serial_stats);
    RunnerStats parallel_stats;
    const MultiObjectResult parallel =
        run_once(workload, system, threads, compute_opt, parallel_stats);

    const bool identical =
        serial.online_cost == parallel.online_cost &&
        serial.opt_cost == parallel.opt_cost &&
        serial.per_object_online == parallel.per_object_online &&
        serial.per_object_opt == parallel.per_object_opt;
    all_identical = all_identical && identical;

    const double speedup =
        parallel_stats.wall_seconds > 0.0
            ? serial_stats.wall_seconds / parallel_stats.wall_seconds
            : 0.0;
    table.add_row({Table::cell(objects),
                   Table::cell(serial_stats.requests_simulated),
                   Table::cell(serial_stats.wall_seconds, 3),
                   Table::cell(parallel_stats.wall_seconds, 3),
                   Table::cell(speedup, 2),
                   Table::cell(parallel_stats.steals),
                   Table::cell(serial.online_cost, 1),
                   identical ? "yes" : "NO"});
  }

  std::cout << table.str() << "\n";
  if (!all_identical) {
    std::cerr << "FAIL: parallel aggregate diverged from the serial path\n";
    return EXIT_FAILURE;
  }
  std::cout << "parallel aggregates bit-identical to serial across the sweep\n";
  return EXIT_SUCCESS;
}
