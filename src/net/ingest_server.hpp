// Live network ingest: the socket front-end for StreamingEngine.
//
// NetIngestServer accepts concurrent client connections — TCP and/or a
// unix-domain socket — each speaking the v2 block-framed wire format
// (net/wire.hpp). One reader thread per connection validates frames at
// the socket boundary and enqueues decoded events into a bounded
// per-connection queue; the serving thread merges those queues into
// globally time-ordered batches via a watermark rule and feeds them to
// StreamingEngine::serve through NetIngestSource (engine/event_source.hpp)
// — the same ingestion path file replay uses.
//
// Admission order (the watermark rule): an event is admitted only once
// its time is ≤ the watermark, the minimum over all open connections of
// the newest time that connection has decoded and queued (0 before its
// first event, which blocks admission: an open connection that has sent
// nothing might still send anything). The frame decoder kills a
// connection whose times go backwards, across frames too, so nothing a
// connection sends later is earlier than that cap — and a single
// time-ordered client is admitted in whole queued runs of up to
// batch_events. Admission also waits for a start barrier: nothing is
// admitted until min_connections clients have connected, so a client
// that connects a moment after another has started streaming is merged,
// not rejected. Admitted output is therefore globally non-decreasing in
// time regardless of how client streams interleave on the wire;
// per-connection order is preserved, so every object's subsequence is
// exactly as its producer sent it — the engine's determinism contract
// needs nothing more. A connection that joins after the barrier with
// events below the already-admitted watermark (a late joiner replaying
// old times) is killed with a diagnostic, never reordered.
//
// Backpressure: each connection's queue is bounded, and a global bound
// caps the sum. A reader that cannot enqueue stops reading its socket,
// so the peer's TCP window closes and the slow consumer's pressure
// propagates to the producers — no unbounded buffering anywhere.
//
// Failure containment: a malformed frame (CRC, length, time order), a
// mid-frame disconnect, or a handshake mismatch kills that connection
// with a positioned diagnostic and counts it in metrics; the server and
// every other connection keep running. Events the dead connection
// delivered in complete validated frames stay admitted — the stream
// that survives is exactly the prefix a file replay of those frames
// would produce.
//
// Telemetry: the server publishes its counters and gauges into an
// obs::MetricsRegistry — the one passed in NetServerOptions::metrics
// (shared with the engine, so one scrape covers the whole process) or a
// private one otherwise — and the optional metrics endpoint is an
// obs::MetricsHttpServer over that registry: GET /metrics serves
// Prometheus text (JSON via Accept: application/json or /metrics.json,
// with per-connection detail appended), GET /healthz a small JSON
// health document.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/event_source.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"

#include <condition_variable>

namespace repl {

class JsonWriter;

namespace obs {
class MetricsRegistry;
class MetricsHttpServer;
}

struct NetServerOptions {
  /// TCP listen address; port -1 disables TCP, 0 binds an ephemeral port
  /// (read it back via tcp_port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// Unix-domain socket path; empty disables.
  std::string unix_path;
  /// Metrics/health HTTP endpoint port on tcp_host; -1 disables, 0 binds
  /// an ephemeral port (metrics_port()).
  int metrics_port = -1;
  /// Events per admitted batch handed to the engine.
  std::size_t batch_events = std::size_t{1} << 16;
  /// Bounded queue sizes (events): per connection, and summed across all
  /// connections. A reader that cannot enqueue stops reading its socket.
  /// A connection whose queue is empty may still enqueue one event past
  /// the global bound, so every open connection can publish the time
  /// the watermark waits on (the sum can exceed the bound by at most one
  /// event per connection).
  std::size_t max_connection_events = std::size_t{1} << 16;
  std::size_t max_total_events = std::size_t{1} << 20;
  /// Per-connection ingest rate cap, events/second; 0 disables. A token
  /// bucket with one second of burst: a reader that decodes faster than
  /// the cap sleeps off the debt before enqueueing, so the peer's TCP
  /// window closes exactly as under queue backpressure. Stalls count in
  /// repl_net_backpressure_stalls_total (one per stall episode).
  double max_events_per_sec = 0.0;
  /// The start barrier: nothing is admitted until at least this many
  /// connections have been accepted in total. The serve ends once that
  /// many have been accepted AND all connections have closed AND every
  /// queue has drained (with stop_when_idle). Lets a test or batch job
  /// say "serve exactly these N clients, then finalize".
  std::size_t min_connections = 1;
  /// When false the server never ends on idle — it runs until stop().
  bool stop_when_idle = true;
  /// Publish net telemetry into this registry — pass the engine's
  /// (EngineOptions::metrics) so one endpoint scrapes the whole process.
  /// Null: the server owns a private registry, so the metrics endpoint
  /// works standalone. Must outlive the server when set.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Accepts client event streams and merges them into time-ordered
/// batches. Use through NetIngestSource for engine serving; the raw
/// next_batch() interface exists for tests.
class NetIngestServer {
 public:
  explicit NetIngestServer(NetServerOptions options);
  ~NetIngestServer();

  NetIngestServer(const NetIngestServer&) = delete;
  NetIngestServer& operator=(const NetIngestServer&) = delete;

  /// Binds listeners and starts accepting. `num_servers` is the serving
  /// system's server count — client streams declaring a different count
  /// are rejected at handshake. `resume_events` is returned to every
  /// client in the handshake ACK (how many events of the logical stream
  /// are already ingested; clients skip that many).
  void start(std::uint32_t num_servers, std::uint64_t resume_events);

  /// Blocks for the next admitted, time-ordered batch (appended to the
  /// cleared `out`). Returns false at end of serve: stop() was called,
  /// or the idle end condition held. Rethrows nothing — connection
  /// failures are contained and reported via metrics.
  bool next_batch(std::vector<LogEvent>& out);

  /// Shuts down listeners and all connections and wakes next_batch.
  /// Idempotent; the destructor calls it too.
  void stop();

  /// Record that a checkpoint just landed (drives checkpoint-age
  /// metrics). NetIngestSource::checkpointed() calls it.
  void note_checkpoint(std::uint64_t events_ingested);

  /// Kernel-assigned ports (valid after start()); -1 when disabled.
  int tcp_port() const;
  int metrics_port() const;

  /// The JSON metrics document (what GET /metrics.json serves): the
  /// registry's series plus per-connection detail.
  std::string metrics_json() const;

  /// The registry this server publishes into (the one from options, or
  /// the server-owned fallback). For scraping without the HTTP endpoint.
  obs::MetricsRegistry& registry() const { return *registry_; }

  /// Trace context announced by the most recent trace frame on any
  /// connection (invalid before the first). NetIngestSource::trace_parent()
  /// returns it, so engine spans join the sender's trace.
  obs::TraceContext latest_trace() const;

  std::uint64_t events_admitted() const;
  std::size_t connections_total() const;
  std::size_t connections_failed() const;
  /// Events sitting in connection queues, not yet admitted.
  std::size_t events_queued() const;

 private:
  struct Connection;
  struct Instruments;

  void accept_loop(Listener& listener, const char* kind);
  void connection_main(Connection& conn);
  void enqueue(Connection& conn, const std::vector<LogEvent>& events);
  /// Appends the non-registry members of the JSON document (uptime,
  /// admission state, per-connection detail). Locks mu_.
  void append_extra_json(JsonWriter& json) const;
  /// Refreshes the registry gauges that mirror state under mu_; runs as
  /// a registry collect hook on the scraping thread.
  void refresh_gauges() const;
  /// The watermark under mu_: +inf when no open connection constrains it.
  double watermark_locked() const;
  bool idle_end_locked() const;

  NetServerOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;  // options' or owned_
  std::unique_ptr<Instruments> inst_;
  std::size_t hook_id_ = 0;
  std::unique_ptr<Listener> tcp_;
  std::unique_ptr<Listener> unix_;
  std::unique_ptr<obs::MetricsHttpServer> http_;
  std::vector<std::thread> accept_threads_;

  mutable std::mutex mu_;
  std::condition_variable consumer_cv_;  // next_batch waits here
  std::condition_variable space_cv_;     // readers wait for queue room
  std::vector<std::unique_ptr<Connection>> connections_;
  bool started_ = false;
  bool stopping_ = false;
  std::uint32_t num_servers_ = 0;
  std::uint64_t resume_events_ = 0;
  std::size_t total_queued_ = 0;
  std::uint64_t admitted_events_ = 0;
  obs::TraceContext latest_trace_{};
  double emitted_time_ = 0.0;
  std::size_t failed_connections_ = 0;
  std::chrono::steady_clock::time_point start_time_;
  std::size_t checkpoints_ = 0;
  std::uint64_t checkpoint_events_ = 0;
  std::chrono::steady_clock::time_point checkpoint_time_;
};

/// EventSource adapter: serve(source, options) over a NetIngestServer.
/// attach() binds the engine to a synthetic streaming-log identity and
/// starts the server with the engine's resume position, so a restart
/// from a checkpoint tells reconnecting clients how much to skip.
/// Idempotent per engine: a front-end may attach early (to learn the
/// bound ports before serve() blocks) and serve() re-attaches harmlessly.
/// The hooks need no wiring: engine spans join the newest wire trace
/// frame, and each checkpoint drives the server's checkpoint-age metrics.
/// An engine that shares the server's registry ends its stats lines with
/// the queue depth and connection counts (obs::ProgressLine).
class NetIngestSource final : public EventSource {
 public:
  NetIngestSource(NetIngestServer& server, std::uint32_t num_servers)
      : server_(server), num_servers_(num_servers) {}

  void attach(StreamingEngine& engine) override;
  bool next_batch(std::vector<LogEvent>& out) override;
  obs::TraceContext trace_parent() const override {
    return server_.latest_trace();
  }
  void checkpointed(std::uint64_t events_ingested) override {
    server_.note_checkpoint(events_ingested);
  }

 private:
  NetIngestServer& server_;
  std::uint32_t num_servers_;
  bool attached_ = false;
};

}  // namespace repl
