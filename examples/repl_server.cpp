// Live serving front-end: run the streaming engine as an actual server.
//
// Listens on TCP and/or a unix-domain socket for client event streams
// (the v2 block-framed wire format — repl_client streams an existing
// log, or pipe stream_gen output through one), merges all connections
// into one time-ordered stream, and serves it online with periodic
// crash-safe checkpoints. Prints "READY ..." with the bound addresses
// once accepting (TCP port 0 binds an ephemeral port), and the same
// aggregate metrics table as engine_serve when the serve ends.
//
//   ./build/examples/repl_server --listen=9410 --servers=10
//   ./build/examples/repl_server --unix=/tmp/repl.sock --metrics-port=9411
//       --checkpoint-every=200000 --checkpoint-path=live.ckpt
//   ./build/examples/repl_server --listen=9410 --resume-from=live.ckpt
//
// Nothing is admitted until --min-clients connections have arrived. The
// serve ends once at least that many connections have come and gone
// and every queue has drained; aggregates are then finalized and
// printed. --keep-serving never ends on idle: the server (and its
// metrics endpoint) stays up until the process is killed. After a
// crash, --resume-from restores the snapshot and reconnecting clients
// are told (in the handshake ACK) how many events to skip, so the
// resumed session continues the same logical stream.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "api/experiment.hpp"
#include "engine/engine.hpp"
#include "net/ingest_server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace repl;

int main(int argc, char** argv) {
  CliParser cli("repl_server",
                "serve live network event streams through the engine");
  cli.add_flag("listen", "-1",
               "TCP port to accept event streams on (0 = ephemeral, "
               "-1 = TCP disabled)");
  cli.add_flag("host", "127.0.0.1", "TCP listen address");
  cli.add_flag("unix", "", "unix-domain socket path to listen on");
  cli.add_flag("metrics-port", "-1",
               "HTTP metrics/health port (GET /metrics, /healthz; "
               "0 = ephemeral, -1 = disabled)");
  cli.add_flag("servers", "10", "servers in the replicated system");
  cli.add_flag("lambda", "10", "transfer cost λ");
  cli.add_flag("shards", "64", "object-table shards");
  cli.add_flag("threads", "0", "worker threads (0 = all hardware threads)");
  cli.add_flag("alpha", "0.3", "DRWP α (used when --policy is not given)");
  cli.add_flag("policy", "",
               "policy component spec (default: drwp(alpha=<alpha>); on "
               "--resume-from, the snapshot's recorded spec)");
  cli.add_flag("predictor", "",
               "predictor component spec (default: last_gap; on "
               "--resume-from, the snapshot's spec)");
  cli.add_flag("min-clients", "1",
               "admit nothing until this many clients have connected, and "
               "serve until all of them have finished");
  cli.add_bool_flag("keep-serving",
                    "never end on idle: keep accepting clients (and serving "
                    "metrics) until the process is killed");
  cli.add_flag("batch-events", "65536", "events per engine batch");
  cli.add_flag("max-queue", "65536", "per-connection queue bound (events)");
  cli.add_flag("max-total-queue", "1048576",
               "global queue bound across connections (events)");
  cli.add_flag("max-events-per-sec", "0",
               "per-connection ingest rate cap, events/second (token "
               "bucket with one second of burst; 0 = unlimited)");
  cli.add_flag("checkpoint-every", "0",
               "snapshot the engine every N events (0 = never)");
  cli.add_flag("checkpoint-path", "", "snapshot destination");
  cli.add_flag("resume-from", "",
               "restore this snapshot; reconnecting clients are told to "
               "skip the already-ingested prefix");
  cli.add_flag("stats-every", "0",
               "print a one-line serve report every N seconds (0 = off)");
  cli.add_flag("trace-out", "",
               "write this process's spans as trace_event JSONL here "
               "(flushed at each checkpoint and at exit)");
  cli.add_flag("log-level", "",
               "structured-log spec, e.g. 'info' or 'warn,net=debug' "
               "(default: info)");
  cli.add_bool_flag("log-json", "emit log lines as JSON objects");
  if (!cli.parse(argc, argv)) return 0;

  if (!cli.get_string("log-level").empty()) {
    obs::Logger::global().configure(cli.get_string("log-level"));
  }
  if (cli.get_bool("log-json")) obs::Logger::global().set_json(true);
  if (!cli.get_string("trace-out").empty()) {
    obs::Tracer::global().start(cli.get_string("trace-out"), "repl_server");
  }

  const int servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));

  SystemConfig config;
  config.num_servers = servers;
  config.transfer_cost = cli.get_double("lambda");

  EngineOptions options;
  options.num_shards = cli.get_size_t("shards", 1, 1 << 20);
  options.num_threads = static_cast<int>(cli.get_size_t("threads", 0, 4096));

  // One registry for the whole process: the engine's pipeline telemetry
  // and the net server's ingest counters land in the same store, so the
  // --metrics-port endpoint scrapes everything in one GET. Declared
  // before the engine so it outlives it.
  obs::MetricsRegistry registry;
  options.metrics = &registry;

  const std::string resume_from = cli.get_string("resume-from");
  EngineBuilder builder;
  builder.config(config).options(options);
  std::unique_ptr<StreamingEngine> engine;
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
    engine = resume_from.empty() ? builder.build() : builder.restore(resume_from);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  if (!resume_from.empty()) {
    std::cout << "resumed " << resume_from << ": " << engine->object_count()
              << " objects at event offset " << engine->resume_position()
              << "\n";
  }
  std::cout << "policy: " << engine->options().policy_spec
            << "\npredictor: " << engine->options().predictor_spec << "\n";

  NetServerOptions net;
  net.tcp_host = cli.get_string("host");
  net.tcp_port = static_cast<int>(cli.get_int("listen"));
  net.unix_path = cli.get_string("unix");
  net.metrics_port = static_cast<int>(cli.get_int("metrics-port"));
  net.batch_events = cli.get_size_t("batch-events", 1);
  net.max_connection_events = cli.get_size_t("max-queue", 1);
  net.max_total_events = cli.get_size_t("max-total-queue", 1);
  net.max_events_per_sec = cli.get_double("max-events-per-sec");
  net.min_connections = cli.get_size_t("min-clients", 1);
  net.stop_when_idle = !cli.get_bool("keep-serving");
  net.metrics = &registry;

  ServeOptions serve_options;
  serve_options.checkpoint_every = cli.get_uint64("checkpoint-every");
  serve_options.checkpoint_path = cli.get_string("checkpoint-path");
  serve_options.stats_every = cli.get_double("stats-every");

  EngineMetrics metrics;
  // Wall seconds around serve(): the wait for clients, admission and
  // checkpoints as well as the engine's own stages.
  double wall = 0.0;
  try {
    // The source carries the front-end's hooks: ingest spans adopt the
    // newest trace context a client announced on the wire, and
    // checkpoints drive the checkpoint-age metrics. The server shares the
    // engine's registry, so stats lines end with its queue depth and
    // connection counts.
    NetIngestServer server(net);
    NetIngestSource source(server,
                           static_cast<std::uint32_t>(servers));
    // Attach now (serve()'s own attach is a no-op on an attached source)
    // so the READY line can carry the kernel-assigned ports before
    // serve() blocks for the first batch.
    source.attach(*engine);
    std::cout << "READY";
    if (server.tcp_port() >= 0) {
      std::cout << " tcp=" << net.tcp_host << ":" << server.tcp_port();
    }
    if (!net.unix_path.empty()) std::cout << " unix=" << net.unix_path;
    if (server.metrics_port() >= 0) {
      std::cout << " metrics=" << net.tcp_host << ":"
                << server.metrics_port();
    }
    std::cout << std::endl;  // flushed: drivers wait for this line
    const auto serve_start = std::chrono::steady_clock::now();
    metrics = engine->serve(source, serve_options);
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         serve_start)
               .count();
    obs::Tracer::global().stop();
    std::cout << "clients: " << server.connections_total() << " total, "
              << server.connections_failed() << " failed\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  const EngineStats& stats = engine->stats();
  Table table({"metric", "value"});
  table.add_row({"objects served", Table::cell(metrics.objects)});
  table.add_row({"events served", Table::cell(metrics.events)});
  table.add_row({"local serves", Table::cell(metrics.num_local)});
  table.add_row({"transfers", Table::cell(metrics.num_transfers)});
  table.add_row({"online cost", Table::cell(metrics.online_cost, 1)});
  table.add_row({"OPTL lower bound", Table::cell(metrics.lower_bound, 1)});
  table.add_row({"cost / OPTL", Table::cell(metrics.ratio(), 4)});
  if (stats.checkpoints_written > 0) {
    table.add_row({"checkpoints", Table::cell(stats.checkpoints_written)});
  }
  table.add_row({"wall seconds", Table::cell(wall, 3)});
  std::cout << table.str();
  return EXIT_SUCCESS;
}
