// Cluster worker runtime: one partition's slice of a distributed serve.
//
// A worker is a StreamingEngine wrapped in the two wire protocols the
// cluster composes from existing parts. Its *event plane* is a
// NetIngestServer on a unix-domain socket — the coordinator is just an
// event-stream client, and the handshake ACK already tells a
// reconnecting coordinator how many partition-local events a restored
// worker holds. Its *control plane* is one outbound connection to the
// coordinator speaking cluster/control.hpp: hello (identity + resume
// position), per-batch progress, checkpoint notices, and — when the
// slice drains — the id-sorted per-object finals and a summary for the
// cross-partition reduce.
//
// Start-up order: build or restore the engine and bind it to this slice,
// bind the event listener, then send the hello. The coordinator dials
// the event socket only after the hello arrives, so the hello doubles
// as the readiness signal and the first dial finds the listener bound.
//
// Correctness guards:
//   * every ingested event is checked against partition_of(): an event
//     routed to the wrong worker fails the serve loudly instead of
//     silently double-counting an object;
//   * the engine is bound to its slice (StreamingEngine::bind_slice)
//     right after build or restore, so every checkpoint is one snapshot
//     file that names its partition id, partition count and
//     partition-function version, and a restore of a snapshot cut for
//     another slice, or for none, fails before the hello.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "engine/engine.hpp"

namespace repl {

struct ClusterWorkerOptions {
  /// This worker's slice: objects with partition_of(id, num_partitions)
  /// == partition_id.
  std::uint32_t partition_id = 0;
  std::uint32_t num_partitions = 1;

  /// Unix-domain socket this worker listens on for the coordinator's
  /// event stream.
  std::string event_socket;
  /// Unix-domain socket of the coordinator's control listener; the
  /// worker dials it once at startup.
  std::string control_socket;

  /// Periodic crash-safe checkpoints: an engine snapshot, bound to this
  /// slice, at snapshot_path every checkpoint_every partition-local
  /// events; 0 disables.
  std::string snapshot_path;
  std::uint64_t checkpoint_every = 0;
  /// Restore from this snapshot (its slice must be this worker's)
  /// instead of starting fresh; the engine's resume position flows to
  /// the coordinator via both the event-plane ACK and the control hello.
  std::string resume_from;

  SystemConfig config;
  EngineOptions engine;
  /// Component specs (empty on resume = self-construct from snapshot).
  std::string policy_spec;
  std::string predictor_spec;

  /// Events per engine batch on the ingest side.
  std::size_t batch_events = std::size_t{1} << 16;

  /// Periodic engine stats lines (seconds; 0 disables). Emitted through
  /// the structured logger, component "engine".
  double stats_every = 0.0;
};

/// Runs one worker to completion: build/restore the engine, say hello,
/// serve the event socket until the coordinator finishes its stream,
/// then ship finals + summary over the control socket. Returns the
/// partition's aggregates (what the summary carried). Throws on any
/// protocol, validation, or transport failure — the coordinator treats
/// a dead worker uniformly, however it died.
EngineMetrics run_cluster_worker(const ClusterWorkerOptions& options);

}  // namespace repl
