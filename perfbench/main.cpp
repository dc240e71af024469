// perfbench: the repository benchmark harness. perfbench/run.py builds it
// and runs it once per (workload, seed); see perfbench/README.md.
//
//   perfbench --workload replay-hot --seed 1 --seconds 30 --trace 0
//             --cache <dir> --work <dir> [--smoke] [--child]
//
// Prints a metric table, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when any output differs from its reference, 2 on bad usage or
// an error that leaves no result.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunContext;

using MetricList = std::vector<std::pair<const char*, const char*>>;

/// Untraced runs print exactly these (BENCHMARK.json "end_to_end").
const MetricList kEndToEnd = {
    {"events_per_s", "1/s"}, {"setup_s", "s"},        {"bytes_per_object", "B"},
    {"cost_ratio", "ratio"}, {"recovery_s", "s"},
};

/// Traced runs print exactly these (BENCHMARK.json "per_layer"). A layer
/// a workload does not run through reads 0.
const MetricList kPerLayer = {
    {"codec.decode_s", "s"},
    {"codec.bytes_per_event", "B"},
    {"engine.source_wait_s", "s"},
    {"engine.route_s", "s"},
    {"engine.execute_s", "s"},
    {"engine.finish_s", "s"},
    {"engine.batch_p50_ms", "ms"},
    {"engine.batch_p99_ms", "ms"},
    {"engine.events_per_batch", "count"},
    {"engine.objects", "count"},
    {"run.steals", "count"},
    {"run.shard_max_over_mean", "ratio"},
    {"run.parallel_speedup", "ratio"},
    {"core.step_ns", "ns"},
    {"checkpoint.write_s", "s"},
    {"checkpoint.bytes_per_object", "B"},
    {"checkpoint.restore_s", "s"},
    {"checkpoint.seek_s", "s"},
    {"net.source_wait_s", "s"},
    {"net.backpressure_stalls", "count"},
    {"cluster.spawn_s", "s"},
    {"cluster.route_s", "s"},
    {"cluster.finals_s", "s"},
    {"cluster.detect_s", "s"},
    {"cluster.respawn_s", "s"},
    {"cluster.catch_up_s", "s"},
    {"cluster.replayed_events", "count"},
    {"trace.overhead_pct", "%"},
};

void usage() {
  std::cerr << "usage: perfbench --workload replay-1m|replay-hot|"
               "cluster-2p-kill --seed N --seconds S --trace 0|1 "
               "--cache DIR --work DIR [--smoke] [--child]\n";
}

/// The metrics in `list` order, each checked against its declared unit.
std::vector<Metric> ordered(RunContext& ctx, const MetricList& list) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : list) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : ctx.metrics) {
      if (got.name != name) continue;
      if (got.unit != unit) {
        ctx.fail(std::string("metric ") + name + " measured in " + got.unit +
                 ", declared in " + unit);
      }
      m.value = got.value;
    }
    if (!std::isfinite(m.value)) {
      ctx.fail(std::string("metric ") + name + " is not finite");
      m.value = 0.0;
    }
    out.push_back(m);
  }
  return out;
}

void print_layers(const RunContext& ctx) {
  std::fprintf(stderr, "%-22s %7s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto& [name, layer] : ctx.spans.layers()) {
    std::fprintf(stderr, "%-22s %7zu %12.6f %12.6f\n", name.c_str(),
                 layer.spans, layer.total_s, layer.self_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string trace_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        ctx.workload = next();
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(next());
      } else if (arg == "--trace") {
        trace_arg = next();
      } else if (arg == "--cache") {
        ctx.cache_dir = next();
      } else if (arg == "--work") {
        ctx.work_dir = next();
      } else if (arg == "--smoke") {
        ctx.smoke = true;
      } else if (arg == "--child") {
        ctx.child = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      usage();
      return 2;
    }
  }
  const bool known = ctx.workload == "replay-1m" ||
                     ctx.workload == "replay-hot" ||
                     ctx.workload == "cluster-2p-kill";
  if (!known || (trace_arg != "0" && trace_arg != "1") ||
      ctx.cache_dir.empty() || ctx.work_dir.empty() || !(ctx.seconds > 0)) {
    usage();
    return 2;
  }
  ctx.traced = trace_arg == "1";
  ctx.self = argv[0];

  try {
    std::filesystem::create_directories(ctx.cache_dir);
    std::filesystem::create_directories(ctx.work_dir);
    if (ctx.workload == "cluster-2p-kill") {
      perfbench::run_cluster(ctx);
    } else {
      perfbench::run_replay(ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (ctx.child) return ctx.errors.empty() ? 0 : 1;

  const std::vector<Metric> metrics =
      ordered(ctx, ctx.traced ? kPerLayer : kEndToEnd);
  if (ctx.traced) {
    print_layers(ctx);
    const std::string path = ctx.work_dir + "/trace.json";
    ctx.spans.write_chrome_trace(path);
    std::cerr << "perfbench: chrome trace written to " << path << "\n";
  }

  std::printf("%-28s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = ctx.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
