// Distributed partitioned serving launcher: one binary, three roles.
//
//   coordinator  owns the event log, fork/execs one worker per
//                partition (re-invoking this binary with --role=worker),
//                routes events by the stable partition function over
//                unix-domain sockets, and reduces the workers' finals
//                into global aggregates;
//   worker       one partition's StreamingEngine behind a NetIngestServer
//                (spawned by the coordinator — rarely run by hand);
//   single       the same log served in-process, printing the same
//                canonical AGGREGATE line — the bit-parity diff target.
//
//   ./build/examples/repl_cluster --role=single --log=trace.evlog
//   ./build/examples/repl_cluster --log=trace.evlog --partitions=4
//       --checkpoint-every=100000
//
// The two AGGREGATE lines are bit-identical (costs print as hexfloat) at
// any partition/shard/thread geometry — including after a worker is
// killed mid-serve and respawned from its per-partition checkpoint,
// which --test-kill-partition/--test-kill-after-events stage on purpose
// for the e2e suite.
#include <signal.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "api/experiment.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker.hpp"
#include "engine/engine.hpp"
#include "obs/http_exporter.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace repl;

namespace {

/// The canonical machine-diffable aggregate line. Costs print as
/// hexfloat so equality in the output is bit equality of the doubles.
void print_aggregate(const EngineMetrics& metrics) {
  std::ostringstream out;
  out << "AGGREGATE objects=" << metrics.objects
      << " events=" << metrics.events << " local=" << metrics.num_local
      << " transfers=" << metrics.num_transfers << std::hexfloat
      << " online_cost=" << metrics.online_cost
      << " lower_bound=" << metrics.lower_bound;
  std::cout << out.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("repl_cluster",
                "distributed partitioned serving: coordinator, worker, "
                "and single-process parity roles");
  cli.add_flag("role", "coordinator", "coordinator | worker | single");
  cli.add_flag("log", "", "event log to serve (coordinator/single roles)");
  cli.add_flag("partitions", "4", "worker processes / object partitions");
  cli.add_flag("socket-dir", "",
               "directory for the cluster's sockets and per-partition "
               "checkpoints (default: a fresh temp dir)");
  cli.add_flag("worker-binary", "",
               "worker executable (default: this binary)");
  cli.add_flag("servers", "10", "servers in the replicated system");
  cli.add_flag("lambda", "10", "transfer cost λ");
  cli.add_flag("initial-server", "0", "initial replica location");
  cli.add_flag("policy", "drwp(alpha=0.3)", "policy component spec");
  cli.add_flag("predictor", "last_gap", "predictor component spec");
  cli.add_flag("seed", std::to_string(0x5eed5eed5eed5eedULL),
               "base seed of the per-object seed streams");
  cli.add_flag("shards", "64", "object-table shards per engine");
  cli.add_flag("threads", "0",
               "worker threads per engine (0 = all hardware threads)");
  cli.add_flag("batch-events", "65536", "events per wire block / batch");
  cli.add_flag("checkpoint-every", "0",
               "per-partition checkpoint cadence in partition-local "
               "events (0 = never)");
  cli.add_flag("max-respawns", "3", "respawn budget per partition");
  cli.add_bool_flag("no-lower-bound", "skip the OPTL lower bound");
  cli.add_flag("metrics-port", "-1",
               "(coordinator) GET /metrics endpoint on 127.0.0.1:PORT "
               "(0 = ephemeral, -1 = off); serves the federated cluster "
               "view plus /healthz with per-partition state");
  cli.add_flag("trace-out", "",
               "coordinator: merge the whole cluster serve into one "
               "Chrome trace_event JSON here; worker: this process's "
               "trace part file (JSONL, coordinator-assigned); single: "
               "one-process trace JSONL");
  cli.add_flag("log-level", "",
               "structured-log spec, e.g. 'info' or 'warn,net=debug,"
               "cluster=debug' (default: warn)");
  cli.add_bool_flag("log-json", "emit log lines as JSON objects");
  cli.add_flag("stats-every", "0",
               "periodic progress lines every N seconds (0 = off); the "
               "coordinator also forwards this to workers");
  // Worker-role plumbing (the coordinator passes these).
  cli.add_flag("partition", "0", "(worker) partition id");
  cli.add_flag("event-socket", "", "(worker) unix socket to serve events on");
  cli.add_flag("control-socket", "",
               "(worker) coordinator's control socket to dial");
  cli.add_flag("checkpoint-path", "", "(worker) snapshot destination");
  cli.add_flag("resume-from", "", "(worker) restore this snapshot");
  // Failure-injection hooks for the e2e suite.
  cli.add_flag("test-kill-partition", "-1",
               "(coordinator, tests) SIGKILL this partition's worker once "
               "--test-kill-after-events of its events have been routed");
  cli.add_flag("test-kill-after-events", "0",
               "(coordinator, tests) the kill threshold, in "
               "partition-local events");
  if (!cli.parse(argc, argv)) return 0;

  const std::string role = cli.get_string("role");
  const auto partitions =
      static_cast<std::uint32_t>(cli.get_size_t("partitions", 1, 1024));

  // Logs go to stderr (stdout carries the AGGREGATE/table contract
  // lines); the spec/json flags reach workers via the coordinator's
  // pass-through, so one invocation configures the whole cluster.
  if (!cli.get_string("log-level").empty()) {
    obs::Logger::global().configure(cli.get_string("log-level"));
  }
  if (cli.get_bool("log-json")) obs::Logger::global().set_json(true);
  const std::string trace_out = cli.get_string("trace-out");
  const double stats_every = cli.get_double("stats-every");

  SystemConfig config;
  config.num_servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));
  config.transfer_cost = cli.get_double("lambda");
  config.initial_server =
      static_cast<int>(cli.get_size_t("initial-server", 0, 4095));

  EngineOptions engine_options;
  engine_options.num_shards = cli.get_size_t("shards", 1, 1 << 20);
  engine_options.num_threads =
      static_cast<int>(cli.get_size_t("threads", 0, 4096));
  engine_options.base_seed = cli.get_uint64("seed");
  engine_options.compute_lower_bound = !cli.get_bool("no-lower-bound");

  try {
    if (role == "worker") {
      ClusterWorkerOptions worker;
      worker.partition_id =
          static_cast<std::uint32_t>(cli.get_size_t("partition"));
      worker.num_partitions = partitions;
      worker.event_socket = cli.get_string("event-socket");
      worker.control_socket = cli.get_string("control-socket");
      worker.snapshot_path = cli.get_string("checkpoint-path");
      worker.checkpoint_every = cli.get_uint64("checkpoint-every");
      worker.resume_from = cli.get_string("resume-from");
      worker.config = config;
      worker.engine = engine_options;
      if (worker.resume_from.empty()) {
        worker.policy_spec = cli.get_string("policy");
        worker.predictor_spec = cli.get_string("predictor");
      }
      worker.batch_events = cli.get_size_t("batch-events", 1);
      worker.stats_every = stats_every;
      if (!trace_out.empty()) {
        obs::Tracer::global().start(
            trace_out, "worker-p" + std::to_string(worker.partition_id));
      }
      run_cluster_worker(worker);
      obs::Tracer::global().stop();
      return EXIT_SUCCESS;
    }

    const std::string log_path = cli.get_string("log");
    if (log_path.empty()) {
      std::cerr << "error: --log is required for role " << role << "\n";
      return EXIT_FAILURE;
    }

    if (role == "single") {
      // --stats-every reads its batch latencies from a registry.
      obs::MetricsRegistry registry;
      if (stats_every > 0) engine_options.metrics = &registry;
      EngineBuilder builder;
      builder.config(config)
          .options(engine_options)
          .policy(cli.get_string("policy"))
          .predictor(cli.get_string("predictor"));
      std::unique_ptr<StreamingEngine> engine = builder.build();
      EventLogReader reader(log_path);
      ServeOptions serve;
      serve.batch_events = cli.get_size_t("batch-events", 1);
      serve.stats_every = stats_every;
      if (!trace_out.empty()) {
        obs::Tracer::global().start(trace_out, "single");
      }
      const EngineMetrics metrics = engine->serve(reader, serve);
      obs::Tracer::global().stop();
      print_aggregate(metrics);
      return EXIT_SUCCESS;
    }

    if (role != "coordinator") {
      std::cerr << "error: unknown --role " << role << "\n";
      return EXIT_FAILURE;
    }

    std::string socket_dir = cli.get_string("socket-dir");
    if (socket_dir.empty()) {
      socket_dir = (std::filesystem::temp_directory_path() /
                    ("repl_cluster_" + std::to_string(::getpid())))
                       .string();
    }
    std::filesystem::create_directories(socket_dir);

    obs::MetricsRegistry registry;
    ClusterCoordinatorOptions opts;
    opts.num_partitions = partitions;
    opts.worker_binary = cli.get_string("worker-binary").empty()
                             ? std::string(argv[0])
                             : cli.get_string("worker-binary");
    opts.socket_dir = socket_dir;
    opts.config = config;
    opts.policy_spec = cli.get_string("policy");
    opts.predictor_spec = cli.get_string("predictor");
    opts.base_seed = engine_options.base_seed;
    opts.worker_shards = engine_options.num_shards;
    opts.worker_threads = engine_options.num_threads;
    opts.compute_lower_bound = engine_options.compute_lower_bound;
    opts.batch_events = cli.get_size_t("batch-events", 1);
    opts.checkpoint_every = cli.get_uint64("checkpoint-every");
    opts.max_respawns = cli.get_size_t("max-respawns");
    opts.metrics = &registry;
    opts.log_spec = cli.get_string("log-level");
    opts.log_json = cli.get_bool("log-json");
    opts.stats_every = stats_every;
    // Trace parts collect next to the sockets; the merged timeline goes
    // wherever --trace-out points.
    std::string coord_trace_part;
    if (!trace_out.empty()) {
      opts.trace_dir = socket_dir;
      coord_trace_part = socket_dir + "/trace.coord.jsonl";
      obs::Tracer::global().start(coord_trace_part, "coordinator");
    }

    // Staged failure injection: kill our own worker (a real SIGKILL of a
    // real process) once its routed-event count crosses the threshold —
    // the respawn/catch-up path then runs for real, deterministically.
    ClusterCoordinator* coordinator_ptr = nullptr;
    const long long kill_partition = cli.get_int("test-kill-partition");
    const std::uint64_t kill_after = cli.get_uint64("test-kill-after-events");
    bool killed = false;
    if (kill_partition >= 0) {
      opts.on_progress = [&](std::uint32_t p, std::uint64_t routed) {
        if (killed || coordinator_ptr == nullptr) return;
        if (p != static_cast<std::uint32_t>(kill_partition) ||
            routed < kill_after) {
          return;
        }
        const int pid = coordinator_ptr->worker_pid(p);
        if (pid > 0) ::kill(pid, SIGKILL);
        killed = true;
      };
    }

    ClusterCoordinator coordinator(opts);
    coordinator_ptr = &coordinator;

    // The coordinator's /metrics is the whole cluster's: its own
    // repl_cluster_* series plus every worker's federated snapshot, and
    // /healthz reports per-partition liveness. Hooks go in before
    // start() — the server reads them from its handler thread.
    std::unique_ptr<obs::MetricsHttpServer> metrics_http;
    if (cli.get_int("metrics-port") >= 0) {
      obs::MetricsHttpOptions http;
      http.port = static_cast<int>(cli.get_int("metrics-port"));
      metrics_http = std::make_unique<obs::MetricsHttpServer>(registry, http);
      metrics_http->set_extra_samples(
          [&coordinator] { return coordinator.federated_samples(); });
      metrics_http->set_health_extra(
          [&coordinator](JsonWriter& w) { coordinator.health_json(w); });
      metrics_http->start();
      std::cout << "metrics: http://127.0.0.1:" << metrics_http->port()
                << "/metrics" << std::endl;
    }

    std::cout << "serving " << log_path << " across " << partitions
              << " worker processes (sockets in " << socket_dir << ")"
              << std::endl;
    const ClusterServeResult result = coordinator.serve_log(log_path);

    if (!trace_out.empty()) {
      // Workers have exited (serve_log reaps them), so every part file
      // that will ever exist does; stitch them into one timeline.
      obs::Tracer::global().stop();
      std::vector<std::string> parts = coordinator.trace_parts();
      parts.push_back(coord_trace_part);
      const std::size_t events = obs::merge_trace_parts(parts, trace_out);
      std::cout << "trace: " << trace_out << " (" << events << " events from "
                << parts.size() << " part files)" << std::endl;
    }

    Table table({"partition", "objects", "events", "local", "transfers"});
    for (std::uint32_t p = 0; p < partitions; ++p) {
      const ControlSummary& s = result.summaries[p];
      table.add_row({std::to_string(p), Table::cell(s.objects),
                     Table::cell(s.events), Table::cell(s.num_local),
                     Table::cell(s.num_transfers)});
    }
    std::cout << table.str();
    std::cout << "respawns: " << result.respawns << "\n";
    print_aggregate(result.metrics);
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
