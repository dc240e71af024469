// Streaming serving engine: online replication over an interleaved
// multi-object event stream.
//
// Where ParallelRunner consumes a fully materialized per-object workload,
// the engine ingests one globally time-ordered stream of (time, object,
// server) events — from an EventLogReader or any in-memory batch source —
// and serves each event online through a lazily instantiated per-object
// OnlineSimulation. Millions of objects fit without pre-splitting the
// stream into traces.
//
// Architecture:
//   * a sharded object table: shard = mix(object_id) mod num_shards, and
//     each shard keeps its objects' records by value in one vector, in
//     creation order, found through an open-addressing table of 32-bit
//     record positions (linear probing, load at most 3/4, hashed with a
//     mix independent of the shard's). A shard allocates nothing until
//     its first object; an object costs one record plus its policy,
//     predictor and simulation state, whose per-server entries cover
//     only the servers it touched (core/server_table.hpp; ~0.8 KB in
//     all on perfbench's replay-1m, where an object touches 2.5 of 10);
//   * an event batcher: ingest() routes a time-ordered batch to per-shard
//     inboxes and executes the non-empty shards in parallel, one task
//     per shard in a round of the fork-join ThreadPool. Within a shard
//     events stay in stream order, so per-object order is preserved;
//     across shards objects are independent (the paper's footnote 1 —
//     the same argument that makes ParallelRunner correct);
//   * a metrics reducer: finish() finalizes and counts each shard's
//     objects in its task, then reduces every final in ascending object
//     id on the calling thread.
//
// Determinism contract (same as run/parallel_runner.hpp): the global
// aggregates are bit-identical to running each object's subsequence
// through Simulator serially in object-id order, for every shard count
// and thread count. Shard tasks only touch their own shard; the global
// floating-point reduction happens on the calling thread over the
// id-sorted per-object results; per-object randomness derives from
// ParallelRunner::object_seed(base_seed, object_id).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/simulator.hpp"
#include "obs/trace.hpp"
#include "predictor/predictor.hpp"
#include "trace/event_log.hpp"

namespace repl {

namespace obs {
class MetricsRegistry;
}

class EventSource;
class ThreadPool;

/// Everything the factories get to build one object's components. There
/// is no trace — the engine is online — so predictors must be causal
/// (last-gap, EWMA history, fixed, ...), not trace-peeking ones.
struct EngineObjectContext {
  std::uint64_t object_id = 0;
  /// Deterministic per-object seed: a pure function of
  /// (EngineOptions::base_seed, object_id), independent of shard and
  /// thread counts.
  std::uint64_t seed = 0;
};

/// Invoked concurrently from shard tasks — must be thread-safe (draw
/// randomness only from the context's seed).
using EnginePolicyFactory = std::function<PolicyPtr(const EngineObjectContext&)>;
using EnginePredictorFactory =
    std::function<PredictorPtr(const EngineObjectContext&)>;

struct EngineOptions {
  /// Shards of the object table; also the parallelism grain. More shards
  /// than threads keeps the pool busy when object popularity is skewed.
  std::size_t num_shards = 64;
  /// 0 => all hardware threads; 1 => run shards inline on the calling
  /// thread (the serial reference path — no worker thread is started).
  int num_threads = 0;
  /// Also accumulate the streaming OPTL lower bound per object, enabling
  /// the ratio aggregate. Requires uniform unit storage rates.
  bool compute_lower_bound = true;
  /// Root of the per-object seed streams.
  std::uint64_t base_seed = 0x5eed5eed5eed5eedULL;
  /// Canonical component specs of the factories (api/registry.hpp),
  /// recorded in checkpoints so restore() can cross-check the resuming
  /// components — or reconstruct them from the snapshot alone (see
  /// EngineBuilder::restore). Empty when the engine was built from raw
  /// factory lambdas: the snapshot then carries no spec and restore()
  /// trusts the caller's factories unchecked.
  std::string policy_spec;
  std::string predictor_spec;
  /// Publish engine telemetry (event/batch/checkpoint counters, per-stage
  /// latency histograms, the active-object gauge) into this registry.
  /// Null (the default) disables telemetry entirely: the hot path then
  /// pays nothing beyond the EngineStats accumulators it always kept.
  /// Telemetry is observational only — aggregates are bit-identical with
  /// it on or off. The registry must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One finalized object's contribution to the global reduction. Public
/// so distributed serving can ship per-object finals across process
/// boundaries and reduce them with reduce_object_finals — the same code
/// path finish() uses, which is what keeps a cross-partition reduce
/// bit-identical to a single-process serve.
struct EngineObjectFinal {
  std::uint64_t id = 0;
  std::size_t events = 0;
  std::size_t num_local = 0;
  std::size_t num_transfers = 0;
  double online_cost = 0.0;
  double lower_bound = 0.0;
};

/// Per-shard counts, for load balance; costs are only reduced globally.
struct EngineShardMetrics {
  std::size_t objects = 0;
  std::size_t events = 0;
  std::size_t num_local = 0;
  std::size_t num_transfers = 0;
};

/// Global aggregate, reduced in ascending object id across all shards —
/// the order a serial per-object Simulator sweep would use.
struct EngineMetrics {
  std::size_t objects = 0;
  std::size_t events = 0;
  std::size_t num_local = 0;
  std::size_t num_transfers = 0;
  double online_cost = 0.0;
  /// Sum of per-object OPTL bounds; 0 when compute_lower_bound is off.
  double lower_bound = 0.0;
  /// online / OPTL — an upper bound on the empirical competitive ratio.
  double ratio() const {
    return lower_bound > 0.0 ? online_cost / lower_bound : 1.0;
  }

  std::vector<EngineShardMetrics> shards;
};

/// Accumulates id-sorted per-object finals into global aggregates — the
/// exact floating-point order of the determinism contract (a serial
/// per-object sweep in ascending object id). finish() reduces through
/// this, and a distributed coordinator reduces its id-merged
/// cross-partition finals through the same function, so the two paths
/// cannot drift. Requires strictly increasing ids.
EngineMetrics reduce_object_finals(const std::vector<EngineObjectFinal>& finals);

/// Diagnostics accumulated across ingest()/finish(). Each timed field is
/// the same measurement the registry histogram of its stage records when
/// EngineOptions::metrics is set, so the two views agree bit for bit.
struct EngineStats {
  int threads_used = 1;
  std::size_t batches = 0;
  std::uint64_t events_ingested = 0;
  /// Shard tasks a worker ran beyond an even share of their pass
  /// (ThreadPool::steal_count), summed over passes: the work that moved
  /// off a loaded worker. 0 when every pass ran inline.
  std::uint64_t steals = 0;
  /// route + execute per batch (repl_batch_seconds).
  double ingest_seconds = 0.0;
  double finish_seconds = 0.0;
  /// Stage split of ingest_seconds: batch validation + shard routing on
  /// the calling thread vs. parallel shard execution.
  double route_seconds = 0.0;
  double execute_seconds = 0.0;
  /// serve() time spent waiting on the source for the next batch — the
  /// file decode that replay's reader thread did not finish during the
  /// previous batch, or network admission.
  double source_wait_seconds = 0.0;
  /// Snapshots sealed by checkpoint(), periodic or manual
  /// (repl_checkpoint_writes_total).
  std::size_t checkpoints_written = 0;
  /// Wall seconds of every checkpoint() cut, periodic or manual
  /// (repl_stage_seconds{stage="checkpoint_write"}).
  double checkpoint_seconds = 0.0;
  /// Bytes sealed into snapshots by checkpoint() (encode side of the
  /// codec; the decode side is the source's bytes_consumed).
  std::uint64_t checkpoint_bytes = 0;
};

/// Records one serve() session into a self-contained REPLFIXT fixture
/// (replay/fixture.hpp): the component specs, the served event slice
/// (re-encoded, so live network sessions capture too), every checkpoint
/// cut point, and the final aggregates. fixture_run() replays the file
/// and diffs aggregates bit-exactly — the capture-to-test workflow.
struct CaptureOptions {
  /// Fixture destination. Written only after finish() succeeds.
  std::string path;
  /// Wire format of the embedded event slice.
  EventLogFormat log_format = EventLogFormat::kCompressed;
  /// Label recorded in the fixture (the driving log path, a peer name —
  /// whatever identifies the source for humans).
  std::string source_name;
};

/// Controls one serve() drain, including periodic crash-safe snapshots.
/// What only the producer knows (trace context, what to do after a batch
/// or a checkpoint) lives on the EventSource instead. Every field has a
/// default, so `{.batch_events = n}` names only what changes.
struct ServeOptions {
  /// Events per batch the reader overload of serve() decodes. Only that
  /// overload reads it: an EventSource sets its own batch size.
  std::size_t batch_events = std::size_t{1} << 16;
  /// Write a checkpoint after roughly every this many ingested events
  /// (snapshots land on the next batch boundary); 0 disables. Requires
  /// `checkpoint_path`. Each one is written atomically by checkpoint().
  std::uint64_t checkpoint_every = 0;
  /// Destination for periodic checkpoints.
  std::string checkpoint_path{};
  /// Log one `[serve]` progress line (obs::ProgressLine, rendered from
  /// the registry, so EngineOptions::metrics is required) roughly every
  /// this many seconds of serve() wall time, and a last one at the end;
  /// 0 disables. Purely observational — aggregates are bit-identical
  /// with reporting on or off.
  double stats_every = 0.0;
  /// When set, serve() records this session as a replay fixture. Capture
  /// requires a fresh engine (resume_position() == 0): a restored
  /// engine's aggregates depend on state the fixture would not embed.
  /// Observational only — aggregates are bit-identical with capture on
  /// or off.
  std::optional<CaptureOptions> capture{};
  /// When set, serve() moves the id-sorted per-object finals here at
  /// finish() time (see finish(finals)) — how a partition worker extracts
  /// the records the coordinator's cross-partition reduce consumes.
  std::vector<EngineObjectFinal>* collect_finals = nullptr;
};

class StreamingEngine {
 public:
  StreamingEngine(SystemConfig config, EngineOptions options,
                  EnginePolicyFactory make_policy,
                  EnginePredictorFactory make_predictor);
  ~StreamingEngine();

  StreamingEngine(const StreamingEngine&) = delete;
  StreamingEngine& operator=(const StreamingEngine&) = delete;

  /// Serves one time-ordered batch of events. Batches must be mutually
  /// ordered too (the stream's global time order spans calls). Bad
  /// input that needs no per-object state to detect — out-of-order or
  /// non-positive times, servers outside the config — is rejected
  /// up front, before any engine state changes, so the caller may
  /// retry with corrected input. A failure *inside* shard execution
  /// (a per-object time tie, a policy invariant violation) has already
  /// advanced some object state: it poisons the engine and every later
  /// call fails fast. When several shards fail, the error of the one
  /// whose first event came earliest in the batch wins, whatever the
  /// thread count.
  void ingest(const LogEvent* events, std::size_t count);
  void ingest(const std::vector<LogEvent>& events) {
    ingest(events.data(), events.size());
  }

  /// Drains any EventSource (engine/event_source.hpp) through ingest()
  /// and returns finish(). One ingestion path for every producer: file
  /// replay and live network ingest both land here, and the source's
  /// hooks (bytes_consumed, trace_parent, ingested, checkpointed) are
  /// the only per-producer behaviour. The source is attach()ed first — it
  /// binds the stream identity and positions itself past a restored engine's
  /// consumed prefix — then batches flow until the source ends, with
  /// periodic atomic checkpoints per `options`.
  EngineMetrics serve(EventSource& source, const ServeOptions& options);

  /// Drains `reader` in options.batch_events chunks through a
  /// double-buffered LogReplaySource and returns finish(). The whole log
  /// never resides in memory. On an engine restored from a checkpoint,
  /// serve() first seeks the reader forward to the snapshot's event
  /// offset, so passing the original log resumes mid-stream.
  EngineMetrics serve(EventLogReader& reader, const ServeOptions& options = {});

  /// Freezes the full engine state — every object's policy, predictor,
  /// simulation, and lower-bound accumulators, plus the stream position —
  /// into a versioned snapshot at `path` (see checkpoint/snapshot.hpp).
  /// Object records are written in ascending object id, so the snapshot
  /// is canonical: independent of this engine's shard count and thread
  /// count, and restorable into any other shard/thread geometry.
  /// Written atomically: the snapshot is sealed under "<path>.tmp",
  /// renamed over `path` and the directory synced, so a crash mid-write
  /// never clobbers the previous good snapshot. The engine remains
  /// serveable afterwards.
  void checkpoint(const std::string& path);

  /// Reconstructs an engine from a snapshot written by checkpoint().
  /// `config`, `options.compute_lower_bound`, `options.base_seed`, and
  /// the factories must match the checkpointing run (the snapshot
  /// cross-checks what it can and fails with a diagnostic otherwise);
  /// shard and thread counts are free to differ. Continue with serve()
  /// on the original log — final aggregates are bit-identical to an
  /// uninterrupted run.
  static std::unique_ptr<StreamingEngine> restore(
      const std::string& path, SystemConfig config, EngineOptions options,
      EnginePolicyFactory make_policy, EnginePredictorFactory make_predictor);

  /// Events already consumed from the driving log at the restore point
  /// (0 for an engine that was never restored): the record offset
  /// serve() seeks past before reading.
  std::uint64_t resume_position() const { return resume_events_; }

  /// Binds the engine to the identity of the log it is serving. serve()
  /// calls this automatically; manual ingest() loops should call it once
  /// before reading so checkpoints record the log fingerprint. On an
  /// engine restored from a snapshot that was bound, a mismatching
  /// header (different object/event counts) fails with a diagnostic —
  /// the cheap first line of the wrong-log defense.
  void bind_log(const EventLogHeader& header);

  /// Binds the engine to the slice of a partitioned object space it
  /// serves: partition `partition_id` of `num_partitions` under
  /// partition-function version `pf_version` (cluster/partition.hpp).
  /// Every later checkpoint records the slice. A fresh engine just
  /// records it. On a restored engine it must equal the snapshot's
  /// slice, or this throws naming both; a snapshot cut with no slice is
  /// refused. A restored engine that is never bound keeps the
  /// snapshot's slice, as spec-less restores keep its specs.
  void bind_slice(std::uint32_t partition_id, std::uint32_t num_partitions,
                  std::uint32_t pf_version);

  /// Seeks `reader` forward to the snapshot's resume position. When the
  /// reader is still at the log start and the snapshot carries a rolling
  /// event hash (format v2), the skipped prefix is read and verified
  /// against it, so resuming against the wrong log fails with a
  /// diagnostic; otherwise this degrades to a positional skip. serve()
  /// calls this automatically; manual ingest() loops should call it
  /// after bind_log(). No-op on a fresh engine.
  void seek_to_resume(EventLogReader& reader);

  /// Finalizes every object (post-stream expiry flush, per-object cost
  /// extraction) and reduces the aggregates. No ingest() may follow.
  /// When `finals` is non-null the id-sorted per-object finals are moved
  /// into it — exactly the records the returned metrics were reduced
  /// from, so reduce_object_finals(*finals) reproduces them bit for bit.
  EngineMetrics finish(std::vector<EngineObjectFinal>* finals = nullptr);

  /// Objects instantiated so far.
  std::size_t object_count() const;

  const EngineStats& stats() const { return stats_; }
  const EngineOptions& options() const { return options_; }

 private:
  struct Shard;
  struct ObjectState;
  struct Telemetry;

  /// ingest() with the trace context the batch's span joins.
  void ingest(const LogEvent* events, std::size_t count,
              obs::TraceContext parent);
  /// checkpoint() under the trace context its span joins.
  void checkpoint(const std::string& path, obs::TraceContext parent);
  /// One pass over `count` shard tasks on the pool (ThreadPool::run);
  /// a failed task poisons the engine.
  void run_shard_tasks(std::size_t count,
                       const std::function<void(std::size_t)>& task);
  ObjectState make_object_state(std::uint64_t object_id);

  SystemConfig config_;
  EngineOptions options_;
  EnginePolicyFactory make_policy_;
  EnginePredictorFactory make_predictor_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Starts its workers on the first multi-shard pass and reuses them
  /// across passes, so building an engine spawns no thread and
  /// ingestion does not pay spawn/join churn.
  std::unique_ptr<ThreadPool> pool_;
  /// Registry-backed instruments, created iff options_.metrics is set.
  std::unique_ptr<Telemetry> telemetry_;
  EngineStats stats_;
  double last_batch_time_ = 0.0;
  bool any_event_ = false;
  bool finished_ = false;
  /// Stream position recorded in the snapshot this engine was restored
  /// from; 0 for a fresh engine.
  std::uint64_t resume_events_ = 0;
  /// Built by restore(): bind_slice then checks the snapshot's slice.
  bool restored_ = false;
  /// The bound slice (bind_slice / restored snapshot); num_partitions_
  /// 0 means unbound.
  std::uint32_t partition_id_ = 0;
  std::uint32_t num_partitions_ = 0;
  std::uint32_t pf_version_ = 0;
  /// Rolling hash over every ingested event (event_stream_hash), the
  /// snapshot↔log binding. Continues from the snapshot's value across a
  /// restore; invalid only when restored from a pre-v2 snapshot.
  std::uint64_t log_hash_ = kEventStreamHashSeed;
  bool log_hash_valid_ = true;
  /// Hash of the consumed prefix at the restore point, verified by
  /// seek_to_resume.
  std::uint64_t resume_hash_ = 0;
  bool resume_hash_valid_ = false;
  /// Identity of the bound log (bind_log / restored snapshot).
  bool log_bound_ = false;
  std::uint64_t log_num_objects_ = 0;  // 0 = unknown
  std::uint64_t log_num_events_ = EventLogHeader::kUnknownCount;
  /// Set when a shard task failed (object state partially advanced);
  /// every later ingest()/finish() fails fast. A batch rejected by the
  /// pre-routing validation does NOT poison the engine — no state was
  /// touched, so the caller may retry with corrected input.
  bool failed_ = false;
};

}  // namespace repl
