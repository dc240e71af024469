// Live-ingest throughput: how much does serving over a socket cost
// relative to file replay of the same stream?
//
// Synthesizes one interleaved event log, serves it twice per row — once
// by file replay (the baseline ingestion path), once through
// NetIngestServer over a unix-domain socket with N concurrent clients
// each streaming a round-robin share of the log — and reports events/sec
// for both plus the net/file ratio. The aggregates of every net serve
// are required to be bit-identical to the file replay: the watermark
// merge preserves each producer's order and the engine's aggregates
// depend only on per-object subsequences, so any divergence is a bug,
// not noise.
//
//   ./build/bench/bench_net              # 10^6 events, 1/2/4 clients
//   ./build/bench/bench_net --smoke      # CI-sized, same parity checks
//
// Writes BENCH_net.json next to the table.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "net/socket.hpp"
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

struct NetRow {
  int clients = 0;
  std::uint64_t events = 0;
  double file_events_per_sec = 0.0;
  double net_events_per_sec = 0.0;
  bool identical = false;
};

std::unique_ptr<StreamingEngine> build_engine(int servers) {
  SystemConfig config;
  config.num_servers = servers;
  config.transfer_cost = 10.0;
  EngineBuilder builder;
  builder.config(config);
  builder.policy("drwp(alpha=0.3)").predictor("last_gap");
  return builder.build();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_aggregates(const EngineMetrics& a, const EngineMetrics& b) {
  return a.objects == b.objects && a.events == b.events &&
         a.num_local == b.num_local && a.num_transfers == b.num_transfers &&
         a.online_cost == b.online_cost && a.lower_bound == b.lower_bound;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_net", "socket ingest throughput vs file replay");
  cli.add_flag("events", "1000000", "events in the synthesized log");
  cli.add_flag("objects", "20000", "objects in the synthesized log");
  cli.add_flag("servers", "10", "servers in the system");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_bool_flag("smoke", "CI-sized run (50k events)");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const std::uint64_t events =
      smoke ? 50000 : cli.get_uint64("events");
  const std::size_t objects = smoke ? 2000 : cli.get_size_t("objects", 1);
  const int servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));

  const std::string log_path =
      (std::filesystem::temp_directory_path() / "bench_net.evlog").string();
  const std::string sock_path =
      (std::filesystem::temp_directory_path() / "bench_net.sock").string();

  StreamWorkloadConfig workload;
  workload.num_objects = objects;
  workload.num_servers = servers;
  workload.max_events = events;
  workload.rate = static_cast<double>(objects) / 64.0;
  std::cout << "synthesizing " << events << " events over " << objects
            << " objects -> " << log_path << "\n";
  generate_event_log(workload, cli.get_uint64("seed"), log_path,
                     EventLogFormat::kCompressed);

  // The whole log in memory once, so client threads stream slices
  // without disk contention inside the timed region.
  std::vector<LogEvent> all;
  {
    EventLogReader reader(log_path);
    std::vector<LogEvent> batch;
    while (reader.read_batch(batch, std::size_t{1} << 16) > 0) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
  }

  // Baseline: file replay.
  EngineMetrics file_metrics;
  double file_rate = 0.0;
  {
    auto engine = build_engine(servers);
    EventLogReader reader(log_path);
    ServeOptions options;
    const auto start = std::chrono::steady_clock::now();
    file_metrics = engine->serve(reader, options);
    const double wall = seconds_since(start);
    file_rate = wall > 0.0 ? static_cast<double>(file_metrics.events) / wall
                           : 0.0;
  }

  bench::ShapeChecks checks;
  std::vector<NetRow> rows;
  for (const int clients : {1, 2, 4}) {
    NetServerOptions net;
    net.tcp_port = -1;
    net.unix_path = sock_path;
    net.min_connections = static_cast<std::size_t>(clients);

    auto engine = build_engine(servers);
    NetIngestServer server(net);
    NetIngestSource source(server, static_cast<std::uint32_t>(servers));
    source.attach(*engine);

    // The clock starts before the clients do, so events they queue
    // ahead of serve() are timed too.
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> senders;
    senders.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      senders.emplace_back([&, c] {
        try {
          EventStreamClient client(connect_unix(sock_path));
          client.handshake(static_cast<std::uint32_t>(servers));
          for (std::size_t i = static_cast<std::size_t>(c); i < all.size();
               i += static_cast<std::size_t>(clients)) {
            client.send(all[i]);
          }
          client.finish();
        } catch (const std::exception& e) {
          std::cerr << "client " << c << " failed: " << e.what() << "\n";
        }
      });
    }

    ServeOptions options;
    const EngineMetrics metrics = engine->serve(source, options);
    const double wall = seconds_since(start);
    for (std::thread& t : senders) t.join();

    NetRow row;
    row.clients = clients;
    row.events = metrics.events;
    row.file_events_per_sec = file_rate;
    row.net_events_per_sec =
        wall > 0.0 ? static_cast<double>(metrics.events) / wall : 0.0;
    row.identical = same_aggregates(metrics, file_metrics);
    rows.push_back(row);
    checks.expect(row.identical,
                  std::to_string(clients) +
                      "-client net serve is bit-identical to file replay");
  }

  Table table({"clients", "events", "file ev/s", "net ev/s", "net/file"});
  for (const NetRow& row : rows) {
    table.add_row({Table::cell(row.clients), Table::cell(row.events),
                   Table::cell(row.file_events_per_sec, 0),
                   Table::cell(row.net_events_per_sec, 0),
                   Table::cell(row.file_events_per_sec > 0.0
                                   ? row.net_events_per_sec /
                                         row.file_events_per_sec
                                   : 0.0,
                               3)});
  }
  std::cout << table.str();

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("net");
  json.key("git").value(REPL_GIT_DESCRIBE);
  json.key("events").value(events);
  json.key("file_events_per_sec").value(file_rate);
  json.key("rows").begin_array();
  for (const NetRow& row : rows) {
    json.begin_object();
    json.key("clients").value(row.clients);
    json.key("events").value(row.events);
    json.key("net_events_per_sec").value(row.net_events_per_sec);
    json.key("identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream("BENCH_net.json") << json.str() << "\n";
  std::cout << "wrote BENCH_net.json\n";

  std::error_code ec;
  std::filesystem::remove(log_path, ec);
  return checks.finish();
}
