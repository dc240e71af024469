#include "cluster/worker.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "cluster/control.hpp"
#include "cluster/partition.hpp"
#include "engine/event_source.hpp"
#include "net/ingest_server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

void send_buffer(Socket& sock, std::vector<unsigned char>& buf) {
  sock.write_all(buf.data(), buf.size());
  buf.clear();
}

/// The worker's serving adapter over its event source. It checks that
/// every event the coordinator routed here actually belongs to this
/// partition: a misrouted event means the two sides disagree about the
/// partition function — the exact bug the pf_version machinery exists to
/// catch — and silently serving it would double-count the object
/// somewhere, so the serve dies loudly instead. Trace context and
/// checkpoint notices pass through to the inner source; the engine's
/// hooks also carry the worker's own control-plane duties.
class WorkerSource final : public EventSource {
 public:
  WorkerSource(EventSource& inner, const ClusterWorkerOptions& options,
               obs::MetricsRegistry& registry, Socket& control)
      : inner_(inner),
        options_(options),
        registry_(registry),
        control_(control) {}

  void attach(StreamingEngine& engine) override { inner_.attach(engine); }

  bool next_batch(std::vector<LogEvent>& out) override {
    if (!inner_.next_batch(out)) return false;
    for (const LogEvent& event : out) {
      const std::uint32_t owner =
          partition_of(event.object, options_.num_partitions);
      if (owner != options_.partition_id) {
        throw std::runtime_error(
            "misrouted event: object " + std::to_string(event.object) +
            " belongs to partition " + std::to_string(owner) +
            ", this worker serves partition " +
            std::to_string(options_.partition_id));
      }
    }
    return true;
  }

  std::uint64_t bytes_consumed() const override {
    return inner_.bytes_consumed();
  }

  obs::TraceContext trace_parent() const override {
    return inner_.trace_parent();
  }

  /// Streams progress, then the metrics snapshot, to the coordinator.
  void ingested(const EngineStats& stats) override {
    ControlProgress progress;
    progress.events_ingested = stats.events_ingested;
    progress.batches = stats.batches;
    encode_control_progress(progress, ctl_);
    send_buffer(control_, ctl_);
    send_metrics();
  }

  /// The engine snapshot, slice included, just landed atomically: tell
  /// the coordinator. `events_ingested` is the cumulative stream
  /// position (it carries across restores) — exactly what a respawn
  /// reports as its resume offset.
  void checkpointed(std::uint64_t events_ingested) override {
    inner_.checkpointed(events_ingested);
    ControlCheckpoint note;
    note.events_ingested = events_ingested;
    encode_control_checkpoint(note, ctl_);
    send_buffer(control_, ctl_);
  }

  /// Each metrics message carries the full registry snapshot plus the
  /// newest wire trace context, so the coordinator's federated view and
  /// the merged timeline both know which batch the numbers belong to.
  void send_metrics() {
    ControlMetrics snapshot;
    const obs::TraceContext trace = inner_.trace_parent();
    snapshot.trace_id = trace.trace_id;
    snapshot.span_id = trace.span_id;
    snapshot.samples = registry_.collect();
    encode_control_metrics(snapshot, ctl_);
    send_buffer(control_, ctl_);
  }

 private:
  EventSource& inner_;
  const ClusterWorkerOptions& options_;
  obs::MetricsRegistry& registry_;
  Socket& control_;
  std::vector<unsigned char> ctl_;
};

}  // namespace

EngineMetrics run_cluster_worker(const ClusterWorkerOptions& options) {
  REPL_REQUIRE_MSG(options.num_partitions >= 1,
                   "worker needs at least one partition");
  REPL_REQUIRE_MSG(options.partition_id < options.num_partitions,
                   "partition id " << options.partition_id
                                   << " out of range (cluster has "
                                   << options.num_partitions
                                   << " partitions)");
  REPL_REQUIRE_MSG(!options.event_socket.empty(),
                   "worker needs an event socket path");
  REPL_REQUIRE_MSG(!options.control_socket.empty(),
                   "worker needs a control socket path");
  REPL_REQUIRE_MSG(options.checkpoint_every == 0 ||
                       !options.snapshot_path.empty(),
                   "checkpoint_every requires snapshot_path");
  const auto num_servers =
      static_cast<std::uint32_t>(options.config.num_servers);

  // The worker always runs with telemetry on: its registry snapshot is
  // what the coordinator federates into the cluster /metrics view. Use
  // the caller's registry when provided, else a worker-owned one.
  obs::MetricsRegistry owned_registry;
  EngineOptions engine_options = options.engine;
  if (engine_options.metrics == nullptr) {
    engine_options.metrics = &owned_registry;
  }
  obs::MetricsRegistry& registry = *engine_options.metrics;

  EngineBuilder builder;
  builder.config(options.config).options(engine_options);
  if (!options.policy_spec.empty()) builder.policy(options.policy_spec);
  if (!options.predictor_spec.empty()) {
    builder.predictor(options.predictor_spec);
  }

  // Restore checks the snapshot's server count, seed root and specs;
  // the slice bind refuses one cut for another partition, partition
  // count or partition-function version, or for no slice at all. Both
  // fail here, before the hello, naming both sides.
  std::unique_ptr<StreamingEngine> engine =
      options.resume_from.empty() ? builder.build()
                                  : builder.restore(options.resume_from);
  engine->bind_slice(options.partition_id, options.num_partitions,
                     kPartitionFunctionVersion);

  NetServerOptions net;
  net.tcp_port = -1;
  net.unix_path = options.event_socket;
  net.batch_events = options.batch_events;
  net.min_connections = 1;
  net.stop_when_idle = true;
  net.metrics = engine_options.metrics;
  NetIngestServer server(net);
  NetIngestSource net_source(server, num_servers);
  // Bind the event listener before the hello: the coordinator dials the
  // event socket once it has the hello, so its first dial lands. serve()
  // re-attaches harmlessly.
  net_source.attach(*engine);

  // Dial the coordinator's control listener and identify ourselves. The
  // resume position repeats what the event-plane handshake ACK will say;
  // the hello adds the geometry + pf_version cross-check the event plane
  // has no field for.
  Socket control = connect_unix(options.control_socket);
  WorkerSource source(net_source, options, registry, control);
  std::vector<unsigned char> ctl;
  encode_control_header(ctl);
  ControlHello hello;
  hello.partition_id = options.partition_id;
  hello.num_partitions = options.num_partitions;
  hello.pf_version = kPartitionFunctionVersion;
  hello.num_servers = num_servers;
  hello.resume_events = engine->resume_position();
  hello.base_seed = options.engine.base_seed;
  encode_control_hello(hello, ctl);
  send_buffer(control, ctl);

  ServeOptions serve;
  serve.stats_every = options.stats_every;
  serve.checkpoint_every = options.checkpoint_every;
  serve.checkpoint_path = options.snapshot_path;
  std::vector<EngineObjectFinal> finals;
  serve.collect_finals = &finals;

  REPL_LOG_INFO("cluster", "worker serving partition="
                               << options.partition_id << "/"
                               << options.num_partitions << " resume_events="
                               << engine->resume_position());
  const EngineMetrics metrics = engine->serve(source, serve);

  // One last snapshot after the drain, so the coordinator's federated
  // counters settle at the partition's final totals before finals begin
  // (metrics frames are rejected once the finals sequence starts).
  source.send_metrics();

  // The slice has drained: ship the id-sorted finals in bounded chunks,
  // then the summary that seals the stream.
  for (std::size_t off = 0; off < finals.size();
       off += kControlFinalsChunk) {
    const std::size_t count =
        std::min(kControlFinalsChunk, finals.size() - off);
    encode_control_finals(finals.data() + off, count, ctl);
    send_buffer(control, ctl);
  }
  ControlSummary summary;
  summary.objects = metrics.objects;
  summary.events = metrics.events;
  summary.num_local = metrics.num_local;
  summary.num_transfers = metrics.num_transfers;
  summary.online_cost = metrics.online_cost;
  summary.lower_bound = metrics.lower_bound;
  encode_control_summary(summary, ctl);
  send_buffer(control, ctl);
  control.shutdown_write();
  REPL_LOG_INFO("cluster", "worker finished partition="
                               << options.partition_id
                               << " events=" << metrics.events
                               << " objects=" << metrics.objects);
  return metrics;
}

}  // namespace repl
