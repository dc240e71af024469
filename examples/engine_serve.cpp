// Streaming engine demo: synthesize an interleaved multi-object workload
// straight to a binary event log on disk, then serve it online through
// the sharded engine and print the aggregate cost/ratio metrics — the
// end-to-end "production" path (no per-object traces anywhere).
//
//   ./build/examples/engine_serve
//   ./build/examples/engine_serve --objects=100000 --arrivals=diurnal
//   ./build/examples/engine_serve --log=my.evlog   # serve an existing log
//
// Crash-safe serving: --checkpoint-every=N snapshots the full engine
// state (atomically, via rename) every N events; --resume-from=path
// restores a snapshot and continues the same log mid-stream with
// bit-identical final aggregates; --stop-after=N simulates a crash by
// abandoning the serve (checkpoint written, no metrics) after ~N events.
//
//   ./build/examples/engine_serve --keep-log --checkpoint-path=my.ckpt
//       --checkpoint-every=200000 --stop-after=400000
//   ./build/examples/engine_serve --log=/tmp/engine_serve_demo.evlog
//       --resume-from=my.ckpt
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "engine/engine.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace repl;

namespace {

/// Prints one runnable canonical spec per line for every engine-safe
/// (causal) component of `kind` — the machine-readable list CI loops
/// over.
void list_components(ComponentKind kind) {
  ComponentRegistry& registry = ComponentRegistry::instance();
  for (const ComponentInfo* info : registry.components(kind)) {
    if (info->requires_trace) continue;  // online serving has no trace
    std::cout << registry.canonical_string(kind, info->example) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("engine_serve",
                "serve an interleaved multi-object event log online");
  cli.add_flag("log", "", "existing event log to serve (empty: generate)");
  cli.add_flag("objects", "50000", "objects to synthesize");
  cli.add_flag("events", "1000000", "events to synthesize");
  cli.add_flag("servers", "10", "servers in the system");
  cli.add_flag("arrivals", "poisson", "arrival process: poisson|pareto|diurnal");
  cli.add_flag("shards", "64", "object-table shards");
  cli.add_flag("threads", "0", "worker threads (0 = all hardware threads)");
  cli.add_flag("lambda", "10", "transfer cost λ");
  cli.add_flag("alpha", "0.3", "DRWP α (used when --policy is not given)");
  cli.add_flag("policy", "",
               "policy component spec, e.g. \"adaptive(alpha=0.3)\" "
               "(default: drwp(alpha=<alpha>); on --resume-from, default "
               "is the snapshot's recorded spec)");
  cli.add_flag("predictor", "",
               "predictor component spec, e.g. "
               "\"ensemble(last_gap,history(ewma=0.3))\" (default: "
               "last_gap; on --resume-from, the snapshot's spec)");
  cli.add_bool_flag("list-policies",
                    "print every engine-safe policy spec and exit");
  cli.add_bool_flag("list-predictors",
                    "print every engine-safe predictor spec and exit");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("log-format", "raw",
               "wire format of the generated log: raw|compressed (an "
               "existing --log is read in whatever format it is)");
  cli.add_bool_flag("keep-log", "keep the generated log on disk");
  cli.add_flag("checkpoint-every", "0",
               "snapshot the engine every N events (0 = never)");
  cli.add_flag("checkpoint-path", "",
               "snapshot destination (default: <log>.ckpt)");
  cli.add_flag("resume-from", "", "restore this snapshot and resume the log");
  cli.add_flag("stop-after", "0",
               "abandon the serve after ~N events (with a final snapshot); "
               "simulates a crash for resume testing");
  cli.add_flag("stats-every", "0",
               "print a one-line serve report every N seconds (0 = off)");
  cli.add_flag("metrics-port", "-1",
               "serve GET /metrics (Prometheus text / JSON) and /healthz "
               "on 127.0.0.1:PORT; 0 binds an ephemeral port (-1 = off)");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_bool("list-policies")) {
    list_components(ComponentKind::kPolicy);
    return EXIT_SUCCESS;
  }
  if (cli.get_bool("list-predictors")) {
    list_components(ComponentKind::kPredictor);
    return EXIT_SUCCESS;
  }

  const std::size_t objects = cli.get_size_t("objects", 1, 100000000);
  const std::size_t shards = cli.get_size_t("shards", 1, 1 << 20);
  const std::size_t events = cli.get_size_t("events", 1);
  int servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));

  std::string log_path = cli.get_string("log");
  bool generated = false;
  if (log_path.empty()) {
    StreamWorkloadConfig workload;
    workload.num_objects = objects;
    workload.num_servers = servers;
    workload.max_events = events;
    workload.rate = static_cast<double>(objects) / 64.0;
    const std::string arrivals = cli.get_string("arrivals");
    if (arrivals == "pareto") {
      workload.arrivals = StreamWorkloadConfig::Arrivals::kPareto;
    } else if (arrivals == "diurnal") {
      workload.arrivals = StreamWorkloadConfig::Arrivals::kDiurnal;
    } else if (arrivals != "poisson") {
      std::cerr << "error: unknown --arrivals " << arrivals << "\n";
      return EXIT_FAILURE;
    }
    log_path = (std::filesystem::temp_directory_path() /
                "engine_serve_demo.evlog")
                   .string();
    EventLogFormat format = EventLogFormat::kRaw;
    try {
      format = parse_event_log_format(cli.get_string("log-format"));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return EXIT_FAILURE;
    }
    std::cout << "synthesizing " << events << " " << arrivals
              << " events over " << objects << " objects -> " << log_path
              << " (" << event_log_format_name(format) << ")\n";
    generate_event_log(workload, cli.get_uint64("seed"), log_path, format);
    generated = true;
  }

  EventLogReader reader(log_path);
  // An existing log knows its own server count; --servers only shapes
  // generated workloads.
  if (!generated) servers = reader.num_servers();

  SystemConfig config;
  config.num_servers = servers;
  config.transfer_cost = cli.get_double("lambda");

  EngineOptions options;
  options.num_shards = shards;
  options.num_threads = static_cast<int>(cli.get_size_t("threads", 0, 4096));

  // Telemetry: one registry feeds the optional HTTP endpoint and the
  // stats reporter's batch histogram. Declared here so it outlives the
  // engine built below.
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::MetricsHttpServer> metrics_http;
  if (cli.get_int("metrics-port") >= 0 || cli.get_double("stats-every") > 0) {
    options.metrics = &registry;
  }
  if (cli.get_int("metrics-port") >= 0) {
    obs::MetricsHttpOptions http;
    http.port = static_cast<int>(cli.get_int("metrics-port"));
    metrics_http = std::make_unique<obs::MetricsHttpServer>(registry, http);
    metrics_http->start();
    std::cout << "metrics: http://127.0.0.1:" << metrics_http->port()
              << "/metrics\n";
  }

  std::cout << "serving " << log_path << " ("
            << (reader.header().num_events == EventLogHeader::kUnknownCount
                    ? std::string("?")
                    : std::to_string(reader.header().num_events))
            << " events, " << reader.header().num_objects << " objects, "
            << reader.num_servers() << " servers)\n";

  const std::uint64_t checkpoint_every = cli.get_uint64("checkpoint-every");
  const std::uint64_t stop_after = cli.get_uint64("stop-after");
  const std::string resume_from = cli.get_string("resume-from");
  std::string checkpoint_path = cli.get_string("checkpoint-path");
  if (checkpoint_path.empty()) checkpoint_path = log_path + ".ckpt";

  // Components come from the registry via EngineBuilder: any registered
  // causal policy×predictor combination is one CLI flag away, a bad
  // spec fails here with a positioned diagnostic, and the canonical
  // specs ride into every checkpoint the serve writes.
  EngineBuilder builder;
  builder.config(config).options(options);
  try {
    if (!cli.get_string("policy").empty()) {
      builder.policy(cli.get_string("policy"));
    } else if (resume_from.empty()) {
      builder.policy("drwp(alpha=" + cli.get_string("alpha") + ")");
    }
    if (!cli.get_string("predictor").empty()) {
      builder.predictor(cli.get_string("predictor"));
    } else if (resume_from.empty()) {
      builder.predictor("last_gap");
    }
  } catch (const SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  std::unique_ptr<StreamingEngine> engine;
  try {
    if (!resume_from.empty()) {
      // Specs left unset self-construct from the snapshot's recorded
      // ones; explicit specs are cross-checked against them.
      engine = builder.restore(resume_from);
      std::cout << "resumed " << resume_from << ": "
                << engine->object_count() << " objects at event offset "
                << engine->resume_position() << "\n";
    } else {
      engine = builder.build();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "policy: " << engine->options().policy_spec
            << "\npredictor: " << engine->options().predictor_spec << "\n";

  if (stop_after > 0) {
    // Crash simulation: drain part of the log — honoring the periodic
    // --checkpoint-every cadence, like a real serve would — then write a
    // final snapshot and abandon the serve without finishing. The log is
    // kept so a later --resume-from can pick up where this run stopped.
    // Manual ingest path: bind the log identity (recorded in the
    // snapshots) and do the hash-verified resume seek ourselves, the
    // way serve() would.
    try {
      engine->bind_log(reader.header());
      engine->seek_to_resume(reader);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return EXIT_FAILURE;
    }
    std::vector<LogEvent> batch;
    std::uint64_t next_mark =
        checkpoint_every == 0
            ? 0
            : (engine->stats().events_ingested / checkpoint_every + 1) *
                  checkpoint_every;
    while (engine->stats().events_ingested < stop_after &&
           reader.read_batch(batch, std::size_t{1} << 16) > 0) {
      engine->ingest(batch);
      if (checkpoint_every > 0 &&
          engine->stats().events_ingested >= next_mark) {
        engine->checkpoint(checkpoint_path);
        while (next_mark <= engine->stats().events_ingested) {
          next_mark += checkpoint_every;
        }
      }
    }
    // The final snapshot replaces the last periodic one atomically too
    // (as every checkpoint() does): a crash mid-write — the very scenario
    // this flag simulates — never clobbers a good checkpoint.
    engine->checkpoint(checkpoint_path);
    std::cout << "stopped after " << engine->stats().events_ingested
              << " events; snapshot -> " << checkpoint_path
              << "\nresume with: --log=" << log_path
              << " --resume-from=" << checkpoint_path << "\n";
    return EXIT_SUCCESS;
  }

  ServeOptions serve_options;
  serve_options.checkpoint_every = checkpoint_every;
  if (checkpoint_every > 0) serve_options.checkpoint_path = checkpoint_path;
  serve_options.stats_every = cli.get_double("stats-every");
  EngineMetrics metrics;
  // Wall time covers the whole serve: the source's attach and waits and
  // the checkpoints as well as the engine's route, execute and finish.
  const auto serve_start = std::chrono::steady_clock::now();
  try {
    metrics = engine->serve(reader, serve_options);
  } catch (const std::exception& e) {
    // Typically the snapshot↔log cross-check: resuming against a log
    // that is not the one the checkpoint was taken from.
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - serve_start)
                          .count();
  const EngineStats& stats = engine->stats();

  Table table({"metric", "value"});
  table.add_row({"objects served", Table::cell(metrics.objects)});
  table.add_row({"events served", Table::cell(metrics.events)});
  table.add_row({"local serves", Table::cell(metrics.num_local)});
  table.add_row({"transfers", Table::cell(metrics.num_transfers)});
  table.add_row({"online cost", Table::cell(metrics.online_cost, 1)});
  table.add_row({"OPTL lower bound", Table::cell(metrics.lower_bound, 1)});
  table.add_row({"cost / OPTL", Table::cell(metrics.ratio(), 4)});
  table.add_row({"threads used", Table::cell(stats.threads_used)});
  table.add_row({"batches", Table::cell(stats.batches)});
  table.add_row({"steals", Table::cell(stats.steals)});
  if (stats.checkpoints_written > 0) {
    table.add_row({"checkpoints", Table::cell(stats.checkpoints_written)});
    table.add_row(
        {"checkpoint seconds", Table::cell(stats.checkpoint_seconds, 3)});
  }
  table.add_row({"wall seconds", Table::cell(wall, 3)});
  table.add_row(
      {"events/sec",
       Table::cell(wall > 0.0 ? static_cast<double>(metrics.events) / wall
                              : 0.0,
                   0)});
  std::cout << table.str();

  // Shard balance summary: the busiest and emptiest shards.
  const EngineShardMetrics* busiest = nullptr;
  const EngineShardMetrics* lightest = nullptr;
  for (const EngineShardMetrics& shard : metrics.shards) {
    if (busiest == nullptr || shard.events > busiest->events) {
      busiest = &shard;
    }
    if (lightest == nullptr || shard.events < lightest->events) {
      lightest = &shard;
    }
  }
  if (busiest != nullptr && lightest != nullptr) {
    std::cout << "\nshard balance: busiest " << busiest->events
              << " events / " << busiest->objects << " objects, lightest "
              << lightest->events << " events / " << lightest->objects
              << " objects across " << metrics.shards.size() << " shards\n";
  }

  if (generated && !cli.get_bool("keep-log")) {
    std::error_code ec;
    std::filesystem::remove(log_path, ec);
  }
  return EXIT_SUCCESS;
}
