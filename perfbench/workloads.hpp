// The benchmark's workloads. Each fills the run context with its metrics,
// operation counts and parity failures.
#pragma once

#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "common.hpp"

namespace perfbench {

/// File replay through StreamingEngine: "replay-1m" or "replay-hot".
void run_replay(RunContext& ctx);

/// "cluster-2p-kill": ClusterCoordinator over two worker processes with
/// one SIGKILL and respawn.
void run_cluster(RunContext& ctx);

/// Engines for in-process serves: 256 shards, `threads` threads
/// (0 = all hardware threads), DRWP(0.3) + last-gap.
repl::EngineBuilder make_builder(int threads);

/// What one in-process serve measured at the source boundary.
struct ServeSample {
  double events_per_s = 0.0;
  double bytes_per_object = 0.0;
  double finish_s = 0.0;
  double wait_s = 0.0;
  double route_s = 0.0;
  double execute_s = 0.0;
  double shard_max_over_mean = 0.0;
  std::uint64_t events = 0;
  std::uint64_t objects = 0;
  std::uint64_t batches = 0;
  std::uint64_t steals = 0;
  bool traced = false;
};

/// One measured file-replay serve of `log`, parity-checked against `ref`.
/// `batch_ms`, when set, collects each batch's engine time in traced runs.
ServeSample timed_serve(RunContext& ctx, const repl::EngineBuilder& builder,
                        const std::string& log, const Aggregates& ref,
                        std::vector<double>* batch_ms);

}  // namespace perfbench
