// Distributed serving throughput: what does partitioning a serve across
// worker processes cost (or buy) relative to one process?
//
// Synthesizes one event log, serves it once in-process (the baseline),
// then through a ClusterCoordinator at 1, 2, and 4 partitions — real
// worker processes over unix sockets — and finally once more at 4
// partitions with one worker SIGKILLed mid-serve and respawned from its
// per-partition checkpoint. Every cluster row's aggregates are required
// to be bit-identical to the single-process serve: the partition merge
// and reduce are deterministic by construction, so any divergence is a
// bug, not noise. Each row also reports the workers' mean events per
// engine batch (federated repl_events_ingested_total / repl_batches_total),
// which must stay at least 100: batches carry whole admitted runs, not
// one event each. At full size a 1-partition serve must also run at no
// less than half the single-process rate: the cluster's fixed costs are
// a spawn, a wire hop and the finals, not a per-event hand-off. The
// smoke run skips that rate gate, because those fixed costs are about a
// third of its 0.1-s serve and the ratio swings with them (0.40-0.94x
// over 20 smoke runs on a 4-vCPU VM).
//
//   ./build/bench/bench_cluster              # 10^6 events, 1/2/4 partitions
//   ./build/bench/bench_cluster --smoke      # CI-sized, same parity checks
//
// Writes BENCH_cluster.json next to the table.
#include <signal.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/partition.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#include "bench_util.hpp"

#ifndef REPL_GIT_DESCRIBE
#define REPL_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace repl;

struct ClusterRow {
  std::uint32_t partitions = 0;
  bool killed = false;
  bool traced = false;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double events_per_batch = 0.0;
  std::size_t respawns = 0;
  bool identical = false;
};

SystemConfig bench_config(int servers) {
  SystemConfig config;
  config.num_servers = servers;
  config.transfer_cost = 10.0;
  return config;
}

/// Sum of one federated counter over every partition.
double federated_total(const std::vector<obs::Sample>& samples,
                       const std::string& name) {
  double total = 0.0;
  for (const obs::Sample& sample : samples) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

bool same_aggregates(const EngineMetrics& a, const EngineMetrics& b) {
  return a.objects == b.objects && a.events == b.events &&
         a.num_local == b.num_local && a.num_transfers == b.num_transfers &&
         a.online_cost == b.online_cost && a.lower_bound == b.lower_bound;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_cluster",
                "multi-process partitioned serving vs one process");
  cli.add_flag("events", "1000000", "events in the synthesized log");
  cli.add_flag("objects", "100000", "objects in the synthesized log");
  cli.add_flag("servers", "10", "servers in the system");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_bool_flag("smoke", "CI-sized run (100k events)");
  if (!cli.parse(argc, argv)) return 0;

#ifndef REPL_CLUSTER_BIN
  std::cout << "bench_cluster: repl_cluster launcher not built "
               "(REPL_BUILD_EXAMPLES=OFF) — nothing to measure\n";
  return 0;
#else
  const bool smoke = cli.get_bool("smoke");
  const std::uint64_t events = smoke ? 100000 : cli.get_uint64("events");
  const std::size_t objects = smoke ? 10000 : cli.get_size_t("objects", 1);
  const int servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));

  const std::filesystem::path work =
      std::filesystem::temp_directory_path() / "bench_cluster";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const std::string log_path = (work / "stream.evlog").string();

  StreamWorkloadConfig workload;
  workload.num_objects = objects;
  workload.num_servers = servers;
  workload.max_events = events;
  workload.rate = static_cast<double>(objects) / 64.0;
  std::cout << "synthesizing " << events << " events over " << objects
            << " objects -> " << log_path << "\n";
  generate_event_log(workload, cli.get_uint64("seed"), log_path,
                     EventLogFormat::kCompressed);

  // Baseline: one process, same engine stack the workers run.
  EngineMetrics single_metrics;
  double single_seconds = 0.0;
  {
    EngineBuilder builder;
    builder.config(bench_config(servers));
    builder.policy("drwp(alpha=0.3)").predictor("last_gap");
    auto engine = builder.build();
    EventLogReader reader(log_path);
    const auto start = std::chrono::steady_clock::now();
    single_metrics = engine->serve(reader, ServeOptions{});
    single_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  const double single_rate =
      single_seconds > 0.0
          ? static_cast<double>(single_metrics.events) / single_seconds
          : 0.0;

  // Partition-local event counts, for placing the kill cut.
  std::vector<std::uint64_t> counts4(4, 0);
  {
    EventLogReader reader(log_path);
    std::vector<LogEvent> batch;
    while (reader.read_batch(batch, std::size_t{1} << 16) > 0) {
      for (const LogEvent& event : batch) {
        ++counts4[partition_of(event.object, 4)];
      }
    }
  }

  bench::ShapeChecks checks;
  std::vector<ClusterRow> rows;
  const auto run = [&](std::uint32_t partitions, bool kill_one,
                       bool traced = false) {
    std::string name("p");
    name += std::to_string(partitions);
    if (kill_one) name += "k";
    if (traced) name += "t";
    const std::string dir = (work / name).string();
    std::filesystem::create_directories(dir);

    ClusterCoordinatorOptions options;
    options.num_partitions = partitions;
    options.worker_binary = REPL_CLUSTER_BIN;
    options.socket_dir = dir;
    options.config = bench_config(servers);
    options.checkpoint_every = kill_one ? events / 16 : 0;
    const std::string coord_part = dir + "/trace.coord.jsonl";
    if (traced) {
      options.trace_dir = dir;
      obs::Tracer::global().start(coord_part, "bench-coordinator");
    }
    ClusterCoordinator* live = nullptr;
    bool fired = false;
    if (kill_one) {
      options.on_progress = [&](std::uint32_t partition,
                                std::uint64_t routed) {
        if (fired || partition != 0 || routed < counts4[0] / 2) return;
        fired = true;
        const int pid = live->worker_pid(partition);
        if (pid > 0) ::kill(pid, SIGKILL);
      };
    }
    ClusterCoordinator coordinator(options);
    live = &coordinator;

    const auto start = std::chrono::steady_clock::now();
    const ClusterServeResult result = coordinator.serve_log(log_path);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::size_t trace_events = 0;
    if (traced) {
      obs::Tracer::global().stop();
      std::vector<std::string> parts = coordinator.trace_parts();
      parts.push_back(coord_part);
      trace_events =
          obs::merge_trace_parts(parts, (work / (name + ".trace.json")).string());
    }

    ClusterRow row;
    row.partitions = partitions;
    row.killed = kill_one;
    row.traced = traced;
    row.events = result.metrics.events;
    row.seconds = seconds;
    row.events_per_sec =
        seconds > 0.0 ? static_cast<double>(result.metrics.events) / seconds
                      : 0.0;
    const std::vector<obs::Sample> federated = coordinator.federated_samples();
    const double batches = federated_total(federated, "repl_batches_total");
    row.events_per_batch =
        batches > 0.0
            ? federated_total(federated, "repl_events_ingested_total") / batches
            : 0.0;
    row.respawns = result.respawns;
    row.identical = same_aggregates(result.metrics, single_metrics);
    rows.push_back(row);

    std::string label = std::to_string(partitions) + "-partition serve";
    if (kill_one) label += " with kill/respawn";
    if (traced) label += " with tracing";
    checks.expect(row.identical,
                  label + " is bit-identical to single-process");
    if (kill_one) {
      checks.expect(fired && result.respawns >= 1,
                    label + " actually killed and respawned a worker");
    }
    checks.expect(row.events_per_batch >= 100.0,
                  label + " ingests >= 100 events per batch");
    if (partitions == 1 && !kill_one && !traced && !smoke) {
      checks.expect(row.events_per_sec >= 0.5 * single_rate,
                    label + " runs at >= 0.5x single-process");
    }
    if (traced) {
      checks.expect(trace_events > 0,
                    label + " produced a non-empty merged trace");
    }
  };

  for (const std::uint32_t partitions : {1u, 2u, 4u}) {
    run(partitions, /*kill_one=*/false);
  }
  run(4, /*kill_one=*/true);
  // Tracing is observability, not control flow: a traced serve must stay
  // bit-identical to the untraced (and single-process) serve.
  run(2, /*kill_one=*/false, /*traced=*/true);

  Table table({"partitions", "killed", "traced", "events", "seconds", "ev/s",
               "vs single", "ev/batch", "respawns", "identical"});
  for (const ClusterRow& row : rows) {
    table.add_row(
        {std::to_string(row.partitions), row.killed ? "yes" : "no",
         row.traced ? "yes" : "no",
         Table::cell(row.events), Table::cell(row.seconds, 3),
         Table::cell(row.events_per_sec, 0),
         Table::cell(single_rate > 0.0 ? row.events_per_sec / single_rate
                                       : 0.0,
                     3),
         Table::cell(row.events_per_batch, 1), std::to_string(row.respawns),
         row.identical ? "yes" : "NO"});
  }
  std::cout << "single-process: " << single_seconds << " s, " << single_rate
            << " ev/s\n"
            << table.str();

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("cluster");
  json.key("git").value(REPL_GIT_DESCRIBE);
  json.key("events").value(events);
  json.key("objects").value(static_cast<std::uint64_t>(objects));
  json.key("single_seconds").value(single_seconds);
  json.key("single_events_per_sec").value(single_rate);
  json.key("rows").begin_array();
  for (const ClusterRow& row : rows) {
    json.begin_object();
    json.key("partitions").value(static_cast<std::uint64_t>(row.partitions));
    json.key("killed").value(row.killed);
    json.key("traced").value(row.traced);
    json.key("events").value(row.events);
    json.key("seconds").value(row.seconds);
    json.key("events_per_sec").value(row.events_per_sec);
    json.key("events_per_batch").value(row.events_per_batch);
    json.key("respawns").value(static_cast<std::uint64_t>(row.respawns));
    json.key("identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream("BENCH_cluster.json") << json.str() << "\n";
  std::cout << "wrote BENCH_cluster.json\n";

  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return checks.finish();
#endif
}
