// Cluster coordinator: distributed partitioned serving over worker
// processes, with a deterministic cross-partition reduce.
//
// The coordinator owns the event source (a finished event log) and the
// partition map (cluster/partition.hpp). It fork/execs one worker
// process per partition, routes each event to its partition's worker
// over the existing v2 event wire (each worker is a NetIngestServer on
// a unix-domain socket; the coordinator is one event-stream client per
// worker incarnation), and listens on one control socket where workers
// report progress, checkpoints, and — when their slice drains — the
// id-sorted per-object finals plus a summary (cluster/control.hpp).
//
// Parity contract: the final aggregates are bit-identical to a
// single-process StreamingEngine serve of the same log, at every
// (partitions × shards × threads) geometry. The mechanism is shared
// code, not luck: each worker's finals are the exact id-sorted records
// its own finish() reduced, partitions are disjoint in object space, so
// the coordinator's ascending-id k-way merge reproduces the global
// id-sorted sweep, and reduce_object_finals — the same function
// finish() reduces through — accumulates it in the same floating-point
// order.
//
// Start-up: every worker incarnation, first spawn or respawn, starts
// the same way. The coordinator waits until the worker's hello (sent
// once its event listener is bound) is accepted, then dials its event
// socket exactly once. A rejected hello, a worker that exits before its
// hello, or a failed dial fails the start at once, naming its cause;
// the wait has no deadline, so a slow snapshot restore is not a failure.
//
// Failure model: a worker death surfaces as a transport error on its
// event stream (or a control-stream EOF without a summary). The
// coordinator reaps the process, respawns it — from its per-partition
// checkpoint when part<P>.ckpt exists, fresh otherwise — starts it as
// above, replays the partition's tail from the worker's reported resume
// offset by re-reading the source log, and continues. A checkpoint cut
// is that one snapshot file, renamed into place atomically and naming
// its slice, so a respawn resumes from whichever cut last landed, even
// one the coordinator never heard about. Aggregates after any number of
// kill/respawn cycles are bit-identical to an uninterrupted run, because
// the resume offset counts exactly the events the snapshot covers and
// everything after is replayed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/control.hpp"
#include "core/types.hpp"
#include "engine/engine.hpp"
#include "net/socket.hpp"
#include "obs/federation.hpp"

namespace repl {

class JsonWriter;

namespace obs {
class MetricsRegistry;
}

struct ClusterCoordinatorOptions {
  /// Worker processes / object-space partitions. 1 is legal (and useful
  /// as the degenerate parity case).
  std::uint32_t num_partitions = 2;
  /// Executable spawned per worker; must accept the repl_cluster
  /// --role=worker flag set (examples/repl_cluster.cpp).
  std::string worker_binary;
  /// Directory for the cluster's unix-domain sockets and per-partition
  /// checkpoints; must exist.
  std::string socket_dir;

  /// Workers receive the server count, λ and the initial server, and
  /// serve unit storage rates, so every listed rate must be 1.
  SystemConfig config;
  std::string policy_spec = "drwp(alpha=0.3)";
  std::string predictor_spec = "last_gap";
  std::uint64_t base_seed = 0x5eed5eed5eed5eedULL;
  /// Per-worker engine geometry (free for parity — the contract holds at
  /// any shard/thread count).
  std::size_t worker_shards = 64;
  int worker_threads = 0;
  bool compute_lower_bound = true;

  /// Events per wire block / engine batch.
  std::size_t batch_events = std::size_t{1} << 16;
  /// Per-partition checkpoint cadence, in partition-local events;
  /// 0 disables (a killed worker then replays its whole slice).
  std::uint64_t checkpoint_every = 0;
  /// Respawn budget per partition; exhausting it fails serve_log with an
  /// error that names the failure which triggered the last respawn.
  std::size_t max_respawns = 3;

  /// repl_cluster_* series land here; null = coordinator-private registry.
  obs::MetricsRegistry* metrics = nullptr;

  /// Directory for per-process trace part files. Non-empty: every worker
  /// incarnation gets --trace-out=<dir>/trace.p<P>.i<N>.jsonl, the
  /// coordinator mints a root span per routed batch and announces it to
  /// every worker with a wire trace frame. The coordinator's own Tracer
  /// is the caller's to start (examples/repl_cluster does). Empty
  /// disables the worker flags.
  std::string trace_dir;
  /// --log-level spec forwarded to workers; empty keeps their default.
  std::string log_spec;
  /// Forward --log-json to workers (JSON log lines on stderr).
  bool log_json = false;
  /// Cadence in seconds (0 disables) of the `[cluster]` progress line,
  /// plus a last one after every summary; also forwarded to workers as
  /// --stats-every.
  double stats_every = 0.0;

  /// Test hook: invoked after each partition-p event is routed (or
  /// skipped as already-ingested) with the running partition-local
  /// count. Kill-matrix tests SIGKILL workers from here at exact cuts.
  std::function<void(std::uint32_t partition, std::uint64_t routed)>
      on_progress;
};

struct ClusterServeResult {
  /// The cross-partition reduce — bit-identical to single-process serve.
  EngineMetrics metrics;
  /// Each worker's own summary, indexed by partition.
  std::vector<ControlSummary> summaries;
  /// Worker respawns across the serve (0 on an undisturbed run).
  std::size_t respawns = 0;
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterCoordinatorOptions options);
  ~ClusterCoordinator();

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// Serves one event log across the cluster to completion. One-shot.
  ClusterServeResult serve_log(const std::string& log_path);

  /// OS pid of partition p's current worker (-1 before spawn). For
  /// kill/respawn tests.
  int worker_pid(std::uint32_t partition) const;

  /// The cluster's file layout under socket_dir.
  std::string event_socket_path(std::uint32_t partition) const;
  std::string control_socket_path() const;
  /// part<P>.ckpt: partition P's checkpoint, and the file whose
  /// existence makes a (re)spawn resume.
  std::string snapshot_path(std::uint32_t partition) const;
  /// Part file for one incarnation of one worker (under trace_dir).
  std::string trace_part_path(std::uint32_t partition,
                              std::size_t incarnation) const;
  /// Every worker part file this serve may have produced (one per
  /// incarnation per partition; the coordinator's own part is the
  /// caller's Tracer path). Some may not exist — a SIGKILLed worker
  /// might never have flushed; merge_trace_parts skips those.
  std::vector<std::string> trace_parts() const;

  /// Registry the repl_cluster_* series land in.
  obs::MetricsRegistry& registry() const { return *registry_; }

  /// The federated metrics view: every worker's latest control-plane
  /// snapshot, `partition`-labeled, plus cluster-derived gauges
  /// (per-partition admitted lag, slowest-partition watermark). Wire
  /// into MetricsHttpServer::set_extra_samples for a one-stop cluster
  /// /metrics.
  std::vector<obs::Sample> federated_samples() const;

  /// Latest federated value of an unlabeled counter for one partition
  /// (0 when the worker has not reported it). For tests and probes.
  std::uint64_t federated_counter(std::uint32_t partition,
                                  const std::string& name) const;

  /// Appends per-partition health members (state, respawns, progress,
  /// checkpoint age) to an open JSON object — the coordinator /healthz
  /// body. Thread-safe.
  void health_json(JsonWriter& w) const;

 private:
  struct Partition;
  struct Instruments;

  void start_control_plane();
  void stop_control_plane();
  void control_accept_loop();
  void control_connection_main(Socket sock, std::uint64_t epoch);
  void spawn_worker(std::uint32_t p);
  /// waitpid on partition p's worker with `flags` (0 or WNOHANG). Once
  /// it is reaped, clears its pid and returns the wait status; nullopt
  /// when there is no worker or, under WNOHANG, it is still running.
  std::optional<int> reap_worker(std::uint32_t p, int flags);
  /// SIGKILL + reap; idempotent, no-op when already reaped.
  void kill_worker(std::uint32_t p);
  /// kill + spawn + dial_worker; throws once the respawn budget is gone,
  /// naming `failure`, the error that called for this respawn.
  void respawn_worker(std::uint32_t p, const std::string& failure);
  /// Blocks until partition p's current worker's hello is accepted. It
  /// binds its event listener before the hello, so the dial that follows
  /// lands. Throws at once on a rejected hello (with the coordinator's
  /// diagnostic) or when the worker exits first (with its exit status).
  /// No deadline: a slow start is not a failure.
  void await_hello(std::uint32_t p);
  /// The one start path, for the first spawn and every respawn:
  /// await_hello, then one dial and handshake, whose resume offset it
  /// records. A failed dial throws at once.
  void dial_worker(std::uint32_t p);
  /// Re-reads the log and re-sends partition-p events in positions
  /// (resume offset, through] that the respawned worker is missing.
  void catch_up(std::uint32_t p, std::uint64_t through);
  /// respawn + catch_up until both succeed (budget-capped); `failure`
  /// is the error that called for the first respawn.
  void recover(std::uint32_t p, std::uint64_t through, std::string failure);
  void route_event(std::uint32_t p, const LogEvent& event);
  void finish_partition(std::uint32_t p);
  /// Waits for partition p's summary, recovering a worker that dies
  /// first. With a stats cadence it wakes every `stats_every` seconds to
  /// call `report`, so progress lines continue while workers drain.
  void await_summary(std::uint32_t p, const std::function<void()>& report);

  ClusterCoordinatorOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<Instruments> inst_;
  obs::FederatedMetrics fed_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::string log_path_;
  bool served_ = false;
  std::size_t total_respawns_ = 0;

  /// Control plane: one listener, one accept thread, one reader thread
  /// per worker control connection. Per-partition control state lives in
  /// Partition, guarded by ctl_mu_; ctl_cv_ signals summary/failure.
  std::unique_ptr<Listener> control_listener_;
  std::thread accept_thread_;
  std::vector<std::thread> control_threads_;
  mutable std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  std::uint64_t next_epoch_ = 0;
  bool control_stopping_ = false;
};

}  // namespace repl
