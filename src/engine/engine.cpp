#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "checkpoint/snapshot.hpp"
#include "checkpoint/state_io.hpp"
#include "engine/event_source.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/fixture.hpp"
#include "offline/opt_lower_bound.hpp"
#include "run/parallel_runner.hpp"
#include "run/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repl {

namespace {

/// Shard assignment: a SplitMix64 mix of the id, so dense and strided id
/// spaces both spread evenly. Pure function of the id — shard layout
/// never affects results, only load balance.
std::size_t shard_index(std::uint64_t object_id, std::size_t num_shards) {
  return static_cast<std::size_t>(SplitMix64(object_id).next() %
                                  static_cast<std::uint64_t>(num_shards));
}

/// Home slot mix of a shard's id table: MurmurHash3's 64-bit finalizer,
/// a different function from shard_index's SplitMix64. With a
/// power-of-two shard count every id in one shard shares the low bits of
/// SplitMix64(id), so reusing those bits would pile a shard's ids onto a
/// fraction of its table.
std::uint64_t table_hash(std::uint64_t id) {
  id ^= id >> 33;
  id *= 0xff51afd7ed558ccdULL;
  id ^= id >> 33;
  id *= 0xc4ceb9fe1a85ec53ULL;
  id ^= id >> 33;
  return id;
}

}  // namespace

EngineMetrics reduce_object_finals(const std::vector<EngineObjectFinal>& finals) {
  EngineMetrics metrics;
  std::uint64_t prev_id = 0;
  for (std::size_t i = 0; i < finals.size(); ++i) {
    const EngineObjectFinal& final = finals[i];
    REPL_REQUIRE_MSG(i == 0 || final.id > prev_id,
                     "object finals must arrive in strictly increasing id "
                     "order: id "
                         << final.id << " after " << prev_id);
    prev_id = final.id;
    ++metrics.objects;
    metrics.events += final.events;
    metrics.num_local += final.num_local;
    metrics.num_transfers += final.num_transfers;
    metrics.online_cost += final.online_cost;
    metrics.lower_bound += final.lower_bound;
  }
  return metrics;
}

/// The engine's registry-backed instruments. Counters/histograms are
/// sharded-atomic (obs/metrics.hpp), so updating them from the serving
/// thread while a scraper reads is race-free; all pointers live as long
/// as the registry, which EngineOptions::metrics requires to outlive the
/// engine.
struct StreamingEngine::Telemetry {
  explicit Telemetry(obs::MetricsRegistry& registry)
      : events_ingested(registry.counter(
            "repl_events_ingested_total",
            "Events ingested into the engine across all batches")),
        batches(registry.counter("repl_batches_total",
                                 "Ingest batches executed")),
        checkpoint_writes(registry.counter(
            "repl_checkpoint_writes_total",
            "Snapshots sealed by checkpoint(), periodic or manual")),
        checkpoint_bytes(registry.counter(
            "repl_checkpoint_bytes_total",
            "Bytes written into sealed snapshots (encode side)")),
        source_bytes(registry.gauge(
            "repl_source_bytes_read",
            "Encoded bytes consumed from the event source (decode side); "
            "0 when the source has no byte-level view")),
        objects_active(registry.gauge(
            "repl_objects_active",
            "Objects instantiated in the engine's sharded table")),
        batch_seconds(registry.histogram(
            "repl_batch_seconds", "Wall seconds per ingest batch",
            obs::Histogram::default_latency_bounds())),
        batch_events(registry.histogram(
            "repl_batch_events", "Events per ingest batch",
            batch_events_bounds())),
        source_wait(stage(registry, "source_wait")),
        route(stage(registry, "route")),
        execute(stage(registry, "execute")),
        reduce(stage(registry, "reduce")),
        checkpoint_write(stage(registry, "checkpoint_write")),
        checkpoint_encode(stage(registry, "checkpoint_encode")),
        checkpoint_io(stage(registry, "checkpoint_io")),
        checkpoint_sync(stage(registry, "checkpoint_sync")),
        checkpoint_restore(stage(registry, "checkpoint_restore")) {}

  static obs::Histogram& stage(obs::MetricsRegistry& registry,
                               const std::string& name) {
    return registry.histogram(
        "repl_stage_seconds",
        "Wall seconds per serve-pipeline stage, labeled by stage: "
        "source_wait (log decode / admission wait), route "
        "(validate + shard routing), execute (parallel shard tasks), "
        "reduce (finish), checkpoint_write (a whole cut) split into "
        "checkpoint_encode (shard tasks), checkpoint_io (merge and "
        "writes) and checkpoint_sync (fsync, rename, directory sync), "
        "checkpoint_restore",
        obs::Histogram::default_latency_bounds(), {{"stage", name}});
  }

  /// Powers of two from 1 to 65,536 events (the default batch size).
  static std::vector<double> batch_events_bounds() {
    std::vector<double> bounds;
    for (double b = 1.0; b <= 65536.0; b *= 2.0) bounds.push_back(b);
    return bounds;
  }

  obs::Counter& events_ingested;
  obs::Counter& batches;
  obs::Counter& checkpoint_writes;
  obs::Counter& checkpoint_bytes;
  obs::Gauge& source_bytes;
  obs::Gauge& objects_active;
  obs::Histogram& batch_seconds;
  obs::Histogram& batch_events;
  obs::Histogram& source_wait;
  obs::Histogram& route;
  obs::Histogram& execute;
  obs::Histogram& reduce;
  obs::Histogram& checkpoint_write;
  obs::Histogram& checkpoint_encode;
  obs::Histogram& checkpoint_io;
  obs::Histogram& checkpoint_sync;
  obs::Histogram& checkpoint_restore;
};

/// One object's record. Records live by value in their shard's vector,
/// which moves them when it grows, so nothing may point into a record:
/// the policy, the predictor and the simulation's state are separate heap
/// objects, and the simulation's references to them survive a move.
struct StreamingEngine::ObjectState {
  ObjectState(std::uint64_t object_id, const SystemConfig& config,
              const SimulationOptions& sim, PolicyPtr pol, PredictorPtr pred,
              bool with_lower_bound)
      : id(object_id),
        policy(std::move(pol)),
        predictor(std::move(pred)),
        simulation(config, sim, *policy, *predictor) {
    if (with_lower_bound) lower_bound.emplace(config);
  }

  void step(int server, double time) {
    simulation.step(server, time);
    if (lower_bound) lower_bound->step(server, time);
  }

  /// The record's event count is the simulation's step count: both
  /// advance once per ingested event. The snapshot header carries the
  /// component names and the config the record's fields price against.
  void save_state(StateWriter& out) const {
    out.u64(static_cast<std::uint64_t>(simulation.steps()));
    out.boolean(lower_bound.has_value());
    if (lower_bound) lower_bound->save_state(out);
    simulation.save_record(out);
  }

  /// Reads a record of `header`'s snapshot version; a version-5 record's
  /// components must carry the header's names.
  void load_state(StateReader& in, const SnapshotHeader& header) {
    if (!in.legacy()) {
      simulation.expect_components(header.policy_name, header.predictor_name,
                                   in);
    }
    const std::uint64_t events = in.u64();
    if (in.boolean() != lower_bound.has_value()) {
      in.fail("lower-bound presence mismatch");
    }
    if (lower_bound) lower_bound->load_state(in);
    if (in.legacy()) {
      simulation.load_state(in);  // the names and config ride inline
    } else {
      simulation.load_record(in);
    }
    in.expect_end();
    if (events != simulation.steps()) {
      in.fail("event count " + std::to_string(events) +
              " disagrees with the restored step count " +
              std::to_string(simulation.steps()));
    }
  }

  EngineObjectFinal finish() {
    const SimulationResult result = simulation.finish();
    EngineObjectFinal final;
    final.id = id;
    final.events = simulation.steps();
    final.num_local = result.num_local;
    final.num_transfers = result.num_transfers;
    final.online_cost = result.total_cost();
    final.lower_bound = lower_bound ? lower_bound->value() : 0.0;
    return final;
  }

  std::uint64_t id;
  PolicyPtr policy;
  PredictorPtr predictor;
  OnlineSimulation simulation;
  std::optional<StreamingLowerBound> lower_bound;
};

struct StreamingEngine::Shard {
  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

  /// The record of `id`, or null.
  ObjectState* find(std::uint64_t id) {
    if (index.empty()) return nullptr;
    const std::uint32_t at = slot(id);
    return at == kEmptySlot ? nullptr : &objects[at];
  }

  /// Appends the record of an id the shard does not hold yet.
  ObjectState& insert(ObjectState&& state) {
    REPL_CHECK(objects.size() < kEmptySlot);
    // Load factor at most 3/4; the first object allocates the table.
    if ((objects.size() + 1) * 4 > index.size() * 3) {
      index.assign(std::max<std::size_t>(16, 2 * index.size()), kEmptySlot);
      for (std::size_t i = 0; i < objects.size(); ++i) {
        slot(objects[i].id) = static_cast<std::uint32_t>(i);
      }
    }
    std::uint32_t& at = slot(state.id);
    REPL_CHECK_MSG(at == kEmptySlot,
                   "object " << state.id << " inserted twice");
    at = static_cast<std::uint32_t>(objects.size());
    objects.push_back(std::move(state));
    return objects.back();
  }

  /// Frees the records and the table.
  void release() {
    std::vector<ObjectState>().swap(objects);
    std::vector<std::uint32_t>().swap(index);
  }

  /// Object records in creation order.
  std::vector<ObjectState> objects;
  /// Open-addressing id table over `objects`: power-of-two capacity,
  /// linear probing, each slot a record position or kEmptySlot. Empty
  /// until the shard's first object, so an idle shard allocates nothing.
  std::vector<std::uint32_t> index;
  /// Events routed to this shard for the batch in flight, in stream order.
  std::vector<LogEvent> inbox;

 private:
  /// The slot holding `id`, or the empty slot where it belongs. The
  /// table is never full, so the probe ends.
  std::uint32_t& slot(std::uint64_t id) {
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(table_hash(id)) & mask;;
         i = (i + 1) & mask) {
      std::uint32_t& at = index[i];
      if (at == kEmptySlot || objects[at].id == id) return at;
    }
  }
};

StreamingEngine::StreamingEngine(SystemConfig config, EngineOptions options,
                                 EnginePolicyFactory make_policy,
                                 EnginePredictorFactory make_predictor)
    : config_(std::move(config)),
      options_(options),
      make_policy_(std::move(make_policy)),
      make_predictor_(std::move(make_predictor)) {
  config_.validate();
  REPL_REQUIRE(options_.num_shards >= 1);
  REPL_REQUIRE(options_.num_threads >= 0);
  REPL_REQUIRE(make_policy_ != nullptr);
  REPL_REQUIRE(make_predictor_ != nullptr);
  if (options_.compute_lower_bound) {
    // Fail here, not inside the first shard task (which would poison
    // the engine for a statically-checkable precondition).
    for (double r : config_.storage_rates) {
      REPL_REQUIRE_MSG(r == 1.0,
                       "compute_lower_bound requires uniform unit storage "
                       "rates (OPTL is derived for them)");
    }
  }
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(options_.num_threads));
  if (options_.metrics != nullptr) {
    telemetry_ = std::make_unique<Telemetry>(*options_.metrics);
  }
}

StreamingEngine::~StreamingEngine() = default;

StreamingEngine::ObjectState StreamingEngine::make_object_state(
    std::uint64_t object_id) {
  SimulationOptions sim_options;
  sim_options.record_events = false;
  EngineObjectContext context;
  context.object_id = object_id;
  context.seed = ParallelRunner::object_seed(
      options_.base_seed, static_cast<std::size_t>(object_id));
  return ObjectState(object_id, config_, sim_options, make_policy_(context),
                     make_predictor_(context), options_.compute_lower_bound);
}

void StreamingEngine::run_shard_tasks(
    std::size_t count, const std::function<void(std::size_t)>& task) {
  const std::uint64_t steals_before = pool_->steal_count();
  try {
    // When several tasks fail, the lowest task index wins: in ingest()
    // the shard whose first event came earliest in the batch, in
    // finish() and checkpoint(), which order tasks by shard id, the
    // lowest shard index — whatever the thread count.
    pool_->run(count, task);
  } catch (...) {
    // A shard that failed mid-inbox has partially advanced object
    // state, so the engine as a whole is poisoned — later calls fail
    // fast instead of silently dropping the stuck inbox.
    failed_ = true;
    throw;
  }
  stats_.steals += pool_->steal_count() - steals_before;
  stats_.threads_used = std::max(
      stats_.threads_used, static_cast<int>(pool_->threads_for(count)));
}

void StreamingEngine::ingest(const LogEvent* events, std::size_t count) {
  ingest(events, count, obs::TraceContext{});
}

void StreamingEngine::ingest(const LogEvent* events, std::size_t count,
                             obs::TraceContext parent) {
  REPL_CHECK_MSG(!finished_, "ingest after finish()");
  REPL_CHECK_MSG(!failed_, "engine unusable after a prior failure");
  if (count == 0) return;
  Telemetry* tel = telemetry_.get();
  // One batch interval (ingest_seconds, repl_batch_seconds, the
  // engine.ingest span), split into route and execute at a shared clock
  // read: three reads for three measurements.
  obs::Span batch("engine.ingest", parent, &stats_.ingest_seconds,
                  tel ? &tel->batch_seconds : nullptr);
  batch.set_arg("events", count);
  obs::Span route(nullptr, {}, &stats_.route_seconds,
                  tel ? &tel->route : nullptr, batch.start_ns());

  // Validate the whole batch before touching any engine state, so a
  // rejected batch leaves the engine clean and the caller may retry
  // with corrected input. Everything checkable without per-object state
  // is checked here; only per-object time strictness remains for
  // OnlineSimulation::step (a violation there poisons the engine).
  double prev = any_event_ ? last_batch_time_
                           : -std::numeric_limits<double>::infinity();
  std::uint64_t hash = log_hash_;
  for (std::size_t i = 0; i < count; ++i) {
    REPL_REQUIRE_MSG(events[i].time > 0.0,
                     "event times must be strictly positive: "
                         << events[i].time);
    REPL_REQUIRE_MSG(events[i].time >= prev,
                     "event stream out of order: " << events[i].time
                                                   << " after " << prev);
    REPL_REQUIRE_MSG(
        events[i].server < static_cast<std::uint32_t>(config_.num_servers),
        "event server " << events[i].server << " out of range [0, "
                        << config_.num_servers << ")");
    prev = events[i].time;
    hash = event_stream_hash(hash, events[i]);
  }

  // Route to shard inboxes in stream order. A shard's task index is the
  // order of its first event in the batch, which puts a hot shard's
  // long task first and decides which error wins when several shards
  // fail.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < count; ++i) {
    const LogEvent& event = events[i];
    const std::size_t id = shard_index(event.object, options_.num_shards);
    std::vector<LogEvent>& inbox = shards_[id]->inbox;
    if (inbox.empty()) active.push_back(id);
    inbox.push_back(event);
  }
  last_batch_time_ = prev;
  any_event_ = true;
  log_hash_ = hash;  // committed only once the whole batch validated

  obs::Span execute(nullptr, {}, &stats_.execute_seconds,
                    tel ? &tel->execute : nullptr, route.stop());
  run_shard_tasks(active.size(), [&](std::size_t task) {
    Shard& shard = *shards_[active[task]];
    for (const LogEvent& event : shard.inbox) {
      ObjectState* state = shard.find(event.object);
      if (state == nullptr) {
        state = &shard.insert(make_object_state(event.object));
      }
      state->step(static_cast<int>(event.server), event.time);
    }
    shard.inbox.clear();
  });

  ++stats_.batches;
  stats_.events_ingested += count;
  batch.stop(execute.stop());
  if (tel) {
    tel->events_ingested.inc(count);
    tel->batches.inc();
    tel->batch_events.observe(static_cast<double>(count));
  }
}

EngineMetrics StreamingEngine::finish(std::vector<EngineObjectFinal>* finals) {
  REPL_CHECK_MSG(!finished_, "finish() called twice");
  REPL_CHECK_MSG(!failed_, "engine unusable after a prior failure");
  finished_ = true;
  obs::Span reduce(nullptr, {}, &stats_.finish_seconds,
                   telemetry_ ? &telemetry_->reduce : nullptr);

  // Shard tasks in ascending shard id: each finalizes its objects into
  // its own run, in creation order, and counts them.
  std::vector<std::vector<EngineObjectFinal>> shard_finals(shards_.size());
  std::vector<EngineShardMetrics> shard_metrics(shards_.size());
  run_shard_tasks(shards_.size(), [&](std::size_t task) {
    Shard& shard = *shards_[task];
    std::vector<EngineObjectFinal>& run = shard_finals[task];
    EngineShardMetrics& metrics = shard_metrics[task];
    run.reserve(shard.objects.size());
    for (ObjectState& state : shard.objects) {
      run.push_back(state.finish());
      const EngineObjectFinal& final = run.back();
      ++metrics.objects;
      metrics.events += final.events;
      metrics.num_local += final.num_local;
      metrics.num_transfers += final.num_transfers;
    }
    shard.release();
  });

  // Global reduction: id-sorted across every shard, on the calling
  // thread — the exact order of a serial per-object sweep, which is what
  // makes the totals bit-identical for any shard/thread configuration.
  std::vector<EngineObjectFinal> all;
  std::size_t total_objects = 0;
  for (const auto& run : shard_finals) total_objects += run.size();
  all.reserve(total_objects);
  for (auto& run : shard_finals) {
    all.insert(all.end(), run.begin(), run.end());
    std::vector<EngineObjectFinal>().swap(run);
  }
  std::sort(all.begin(), all.end(),
            [](const EngineObjectFinal& a, const EngineObjectFinal& b) {
              return a.id < b.id;
            });

  EngineMetrics metrics = reduce_object_finals(all);
  metrics.shards = std::move(shard_metrics);

  reduce.stop();
  if (telemetry_) telemetry_->objects_active.set(0.0);  // table released
  if (finals != nullptr) *finals = std::move(all);
  return metrics;
}

EngineMetrics StreamingEngine::serve(EventSource& source,
                                     const ServeOptions& options) {
  // Invariant geometry, validated and hoisted once — nothing in the
  // drain loop below re-validates it.
  const std::uint64_t checkpoint_every = options.checkpoint_every;
  REPL_REQUIRE_MSG(checkpoint_every == 0 || !options.checkpoint_path.empty(),
                   "checkpoint_every requires a checkpoint_path");
  const bool report = options.stats_every > 0.0;
  REPL_REQUIRE_MSG(!report || telemetry_,
                   "stats_every requires EngineOptions::metrics (the stats "
                   "line renders from the registry)");
  Telemetry* tel = telemetry_.get();

  // Bind to (and cross-check) the stream's identity, and position the
  // source past a restored engine's consumed prefix (for file replay,
  // a hash-verified seek over the snapshot's rolling event hash).
  source.attach(*this);

  // Session capture: every ingested batch is re-encoded into the fixture
  // in ingest order, so the capture works identically for file replay
  // and live socket traffic.
  std::unique_ptr<SessionCapture> capture;
  std::uint64_t capture_begin_byte = 0;
  if (options.capture) {
    capture = std::make_unique<SessionCapture>(*options.capture, config_,
                                               options_, resume_events_);
    capture_begin_byte = source.bytes_consumed();
  }

  std::uint64_t next_checkpoint =
      checkpoint_every == 0
          ? 0
          : (stats_.events_ingested / checkpoint_every + 1) * checkpoint_every;

  // Periodic progress lines, rendered from the registry alone.
  auto last_report = std::chrono::steady_clock::now();
  std::uint64_t reported_events = stats_.events_ingested;
  std::optional<obs::ProgressLine> progress;
  if (report) {
    progress.emplace("[serve]", options_.metrics->collect(), last_report);
  }
  const auto emit_stats = [&](std::chrono::steady_clock::time_point now) {
    REPL_LOG_INFO("engine",
                  progress->render(options_.metrics->collect(), now));
    last_report = now;
    reported_events = stats_.events_ingested;
  };

  // Per batch: the wait stage covers blocking on the source (its span's
  // parent — the context the batch rode in with — is only known once
  // next_batch returns), then ingest() times route + execute under the
  // same parent. With the process Tracer disabled no span is recorded
  // and trace_parent() is never called.
  std::vector<LogEvent> batch;
  for (;;) {
    bool more;
    obs::TraceContext parent;
    {
      obs::Span wait("serve.wait", {}, &stats_.source_wait_seconds,
                     tel ? &tel->source_wait : nullptr);
      more = source.next_batch(batch);
      if (wait.traced()) {
        parent = source.trace_parent();
        wait.set_parent(parent);
      }
      wait.set_arg("events", batch.size());
    }
    if (!more) break;
    ingest(batch.data(), batch.size(), parent);
    if (capture) capture->record(batch);
    source.ingested(stats_);
    if (tel) {
      tel->objects_active.set(static_cast<double>(object_count()));
      tel->source_bytes.set(static_cast<double>(source.bytes_consumed()));
    }
    if (checkpoint_every > 0 && stats_.events_ingested >= next_checkpoint) {
      checkpoint(options.checkpoint_path, parent);
      if (capture) capture->record_cut(stats_.events_ingested);
      source.checkpointed(stats_.events_ingested);
      // Flush spans at every checkpoint, so a SIGKILLed process leaves a
      // trace prefix at least as fresh as its last durable snapshot.
      if (obs::Tracer::global().enabled()) obs::Tracer::global().flush();
      while (next_checkpoint <= stats_.events_ingested) {
        next_checkpoint += checkpoint_every;
      }
    }
    if (report) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_report).count() >=
          options.stats_every) {
        emit_stats(now);
      }
    }
  }
  if (report && stats_.events_ingested != reported_events) {
    emit_stats(std::chrono::steady_clock::now());
  }
  EngineMetrics metrics = finish(options.collect_finals);
  if (capture) {
    capture->set_byte_range(capture_begin_byte, source.bytes_consumed());
    capture->finish(metrics);
  }
  return metrics;
}

EngineMetrics StreamingEngine::serve(EventLogReader& reader,
                                     const ServeOptions& options) {
  // Double-buffered: the source's reader thread decodes the next batch
  // while the shards execute this one. The batches are the ones a plain
  // read_batch loop yields, so aggregates are unchanged bit for bit.
  LogReplaySource source(reader, options.batch_events, /*async_ingest=*/true);
  return serve(source, options);
}

void StreamingEngine::bind_log(const EventLogHeader& header) {
  REPL_REQUIRE_MSG(static_cast<int>(header.num_servers) ==
                       config_.num_servers,
                   "log has " << header.num_servers
                              << " servers, config expects "
                              << config_.num_servers);
  if (log_bound_) {
    // Cross-check against the previously bound (possibly
    // snapshot-recorded) identity; "unknown" on either side matches
    // anything and is refined below.
    REPL_REQUIRE_MSG(
        log_num_objects_ == 0 || header.num_objects == 0 ||
            log_num_objects_ == header.num_objects,
        "engine is bound to a log with " << log_num_objects_
                                         << " objects, this log has "
                                         << header.num_objects
                                         << " (wrong log?)");
    REPL_REQUIRE_MSG(
        log_num_events_ == EventLogHeader::kUnknownCount ||
            header.num_events == EventLogHeader::kUnknownCount ||
            log_num_events_ == header.num_events,
        "engine is bound to a log with " << log_num_events_
                                         << " events, this log has "
                                         << header.num_events
                                         << " (wrong log?)");
    if (log_num_objects_ == 0) log_num_objects_ = header.num_objects;
    if (log_num_events_ == EventLogHeader::kUnknownCount) {
      log_num_events_ = header.num_events;
    }
    return;
  }
  log_bound_ = true;
  log_num_objects_ = header.num_objects;
  log_num_events_ = header.num_events;
}

void StreamingEngine::bind_slice(std::uint32_t partition_id,
                                 std::uint32_t num_partitions,
                                 std::uint32_t pf_version) {
  REPL_REQUIRE_MSG(partition_id < num_partitions,
                   "partition " << partition_id << " of " << num_partitions
                                << " is not a slice");
  const auto slice = [](std::uint32_t id, std::uint32_t count,
                        std::uint32_t version) {
    return "partition " + std::to_string(id) + " of " +
           std::to_string(count) + " under partition function " +
           std::to_string(version);
  };
  if (restored_) {
    REPL_REQUIRE_MSG(num_partitions_ != 0,
                     "snapshot was cut with no partition slice; this worker "
                     "serves "
                         << slice(partition_id, num_partitions, pf_version));
    REPL_REQUIRE_MSG(partition_id_ == partition_id &&
                         num_partitions_ == num_partitions &&
                         pf_version_ == pf_version,
                     "snapshot was cut for "
                         << slice(partition_id_, num_partitions_, pf_version_)
                         << "; this worker serves "
                         << slice(partition_id, num_partitions, pf_version));
  }
  partition_id_ = partition_id;
  num_partitions_ = num_partitions;
  pf_version_ = pf_version;
}

void StreamingEngine::seek_to_resume(EventLogReader& reader) {
  REPL_REQUIRE_MSG(reader.events_read() <= resume_events_,
                   "reader is already past the checkpoint's position ("
                       << reader.events_read() << " > " << resume_events_
                       << " events)");
  const std::uint64_t remaining = resume_events_ - reader.events_read();
  if (remaining == 0) return;
  if (resume_hash_valid_ && reader.events_read() == 0) {
    // Verified seek: hash the whole skipped prefix and require it to
    // match the snapshot's. Sequential decode at memory bandwidth —
    // cheap relative to serving, and it turns "resumed against the
    // wrong log" from silent garbage into a diagnostic.
    const std::uint64_t hash =
        reader.hash_events(remaining, kEventStreamHashSeed);
    REPL_REQUIRE_MSG(hash == resume_hash_,
                     "this log does not match the snapshot: the first "
                         << remaining
                         << " events hash differently from the prefix the "
                            "checkpointed engine ingested (wrong log?)");
  } else {
    reader.skip_events(remaining);
  }
}

void StreamingEngine::checkpoint(const std::string& path) {
  checkpoint(path, obs::TraceContext{});
}

void StreamingEngine::checkpoint(const std::string& path,
                                 obs::TraceContext parent) {
  REPL_CHECK_MSG(!finished_, "checkpoint after finish()");
  REPL_CHECK_MSG(!failed_, "engine unusable after a prior failure");
  Telemetry* tel = telemetry_.get();
  // The whole cut, then its three phases back to back as child spans:
  // encode, merge and write, sync.
  obs::Span cut("engine.checkpoint", parent, &stats_.checkpoint_seconds,
                tel ? &tel->checkpoint_write : nullptr);
  cut.set_arg("events", stats_.events_ingested);
  obs::Span encode("engine.checkpoint.encode", cut.context(), nullptr,
                   tel ? &tel->checkpoint_encode : nullptr, cut.start_ns());

  SnapshotHeader header;
  header.num_servers = static_cast<std::uint32_t>(config_.num_servers);
  header.num_objects = object_count();
  header.events_ingested = stats_.events_ingested;
  header.batches = stats_.batches;
  header.base_seed = options_.base_seed;
  header.last_batch_time = last_batch_time_;
  header.flags = (any_event_ ? SnapshotHeader::kFlagAnyEvent : 0u) |
                 (options_.compute_lower_bound ? SnapshotHeader::kFlagLowerBound
                                               : 0u) |
                 (log_bound_ ? SnapshotHeader::kFlagLogBound : 0u) |
                 (log_hash_valid_ ? SnapshotHeader::kFlagLogHash : 0u);
  header.log_hash = log_hash_;
  header.log_num_objects = log_bound_ ? log_num_objects_ : 0;
  header.log_num_events = log_bound_ ? log_num_events_
                                     : SnapshotHeader::kUnknownLogEvents;
  header.policy_spec = options_.policy_spec;
  header.predictor_spec = options_.predictor_spec;
  header.partition_id = partition_id_;
  header.num_partitions = num_partitions_;
  header.pf_version = pf_version_;
  header.transfer_cost = config_.transfer_cost;
  header.initial_server = config_.initial_server;
  header.storage_rates = config_.storage_rates;

  // Every object's components must carry the names the header records
  // once; any object's names serve as the reference.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->objects.empty()) active.push_back(i);
  }
  if (!active.empty()) {
    const ObjectState& first = shards_[active.front()]->objects.front();
    header.policy_name = first.policy->name();
    header.predictor_name = first.predictor->name();
  }

  // Shard-parallel, in ascending shard id: each task frames its shard's
  // records, in ascending object id, one after another into one buffer.
  struct EncodedShard {
    std::vector<unsigned char> records;
    const ObjectState* mismatch = nullptr;  // first object named otherwise
  };
  std::vector<EncodedShard> encoded(active.size());
  run_shard_tasks(active.size(), [&](std::size_t task) {
    const Shard& shard = *shards_[active[task]];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    order.reserve(shard.objects.size());
    for (std::size_t i = 0; i < shard.objects.size(); ++i) {
      order.emplace_back(shard.objects[i].id, static_cast<std::uint32_t>(i));
    }
    std::sort(order.begin(), order.end());
    std::vector<unsigned char>& out = encoded[task].records;
    out.reserve(shard.objects.size() * 320);
    StateWriter writer(out);
    for (const auto& [id, index] : order) {
      const ObjectState& state = shard.objects[index];
      if (encoded[task].mismatch == nullptr &&
          (state.policy->name() != header.policy_name ||
           state.predictor->name() != header.predictor_name)) {
        encoded[task].mismatch = &state;
      }
      const std::size_t at = out.size();
      out.resize(at + SnapshotHeader::kRecordPrefixSize);
      state.save_state(writer);
      frame_record(out, at, id, header.codec);
    }
  });
  for (const EncodedShard& shard : encoded) {
    REPL_REQUIRE_MSG(shard.mismatch == nullptr,
                     "object " << shard.mismatch->id << " runs policy '"
                               << shard.mismatch->policy->name()
                               << "' and predictor '"
                               << shard.mismatch->predictor->name()
                               << "', but a snapshot names one pair for "
                                  "every object: '"
                               << header.policy_name << "' and '"
                               << header.predictor_name << "'");
  }

  // Atomic replace: seal the snapshot under a temporary name first, so a
  // crash mid-write never clobbers the previous good one; a failed cut
  // removes its temporary file and leaves the previous snapshot in place.
  const std::string tmp = path + ".tmp";
  std::uint64_t bytes = 0;
  try {
    obs::Span io("engine.checkpoint.io", cut.context(), nullptr,
                 tel ? &tel->checkpoint_io : nullptr, encode.stop());
    SnapshotWriter writer(tmp, header);
    // Merge to canonical order: shards partition the id space, so
    // interleaving the id-sorted runs by their next id yields the
    // snapshot's record order whatever the shard layout.
    struct Cursor {
      std::uint64_t id;
      std::size_t run;
      std::size_t at;
    };
    const auto later = [](const Cursor& a, const Cursor& b) {
      return a.id > b.id;
    };
    std::vector<Cursor> heap;
    for (std::size_t run = 0; run < encoded.size(); ++run) {
      heap.push_back(
          {framed_record_id(encoded[run].records.data()), run, 0});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& next = heap.back();
      std::vector<unsigned char>& run = encoded[next.run].records;
      const unsigned char* record = run.data() + next.at;
      writer.add_framed(record);
      next.at += framed_record_size(record);
      if (next.at < run.size()) {
        next.id = framed_record_id(run.data() + next.at);
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        std::vector<unsigned char>().swap(run);
        heap.pop_back();
      }
    }
    writer.seal();
    obs::Span sync("engine.checkpoint.sync", cut.context(), nullptr,
                   tel ? &tel->checkpoint_sync : nullptr, io.stop());
    writer.close();  // fsyncs the snapshot's bytes
    rename_and_sync_dir(tmp, path);
    bytes = writer.bytes_written();
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
  ++stats_.checkpoints_written;
  stats_.checkpoint_bytes += bytes;
  if (tel) {
    tel->checkpoint_writes.inc();
    tel->checkpoint_bytes.inc(bytes);
  }
}

std::unique_ptr<StreamingEngine> StreamingEngine::restore(
    const std::string& path, SystemConfig config, EngineOptions options,
    EnginePolicyFactory make_policy, EnginePredictorFactory make_predictor) {
  SnapshotReader reader(path);
  const SnapshotHeader& header = reader.header();
  REPL_REQUIRE_MSG(header.num_servers ==
                       static_cast<std::uint32_t>(config.num_servers),
                   "snapshot has " << header.num_servers
                                   << " servers, config expects "
                                   << config.num_servers);
  if (header.version >= 5) {
    // Every component prices against the same SystemConfig, so a
    // different λ, initial server or storage rate would continue with
    // diverging durations and costs. Older records check these inline.
    REPL_REQUIRE_MSG(header.transfer_cost == config.transfer_cost,
                     "snapshot was cut with transfer cost (lambda) "
                         << header.transfer_cost << ", config has "
                         << config.transfer_cost);
    REPL_REQUIRE_MSG(header.initial_server == config.initial_server,
                     "snapshot was cut with initial server "
                         << header.initial_server << ", config has "
                         << config.initial_server);
    for (int s = 0; s < config.num_servers; ++s) {
      REPL_REQUIRE_MSG(
          header.storage_rates[static_cast<std::size_t>(s)] ==
              config.storage_rate(s),
          "snapshot was cut with storage rate "
              << header.storage_rates[static_cast<std::size_t>(s)]
              << " at server " << s << ", config has "
              << config.storage_rate(s));
    }
  }
  const bool snapshot_lower_bound =
      (header.flags & SnapshotHeader::kFlagLowerBound) != 0;
  REPL_REQUIRE_MSG(snapshot_lower_bound == options.compute_lower_bound,
                   "snapshot and options disagree on compute_lower_bound");
  REPL_REQUIRE_MSG(header.base_seed == options.base_seed,
                   "snapshot base_seed " << header.base_seed
                                         << " != options.base_seed "
                                         << options.base_seed
                                         << " (object seed streams would "
                                            "fork)");
  // Spec-level self-validation: when both the snapshot and the caller
  // name their components, they must agree — a mismatched restore would
  // decode one policy's state into another's fields (or fail later with
  // a byte-level diagnostic that names no component). A side with no
  // spec (raw factory lambdas) is trusted unchecked, as before v2.
  REPL_REQUIRE_MSG(options.policy_spec.empty() ||
                       header.policy_spec.empty() ||
                       options.policy_spec == header.policy_spec,
                   "snapshot was written with policy '"
                       << header.policy_spec << "' but restore requested '"
                       << options.policy_spec << "'");
  REPL_REQUIRE_MSG(options.predictor_spec.empty() ||
                       header.predictor_spec.empty() ||
                       options.predictor_spec == header.predictor_spec,
                   "snapshot was written with predictor '"
                       << header.predictor_spec
                       << "' but restore requested '"
                       << options.predictor_spec << "'");
  // Preserve the snapshot's specs across spec-less restores, so a later
  // checkpoint of this engine still names its components.
  if (options.policy_spec.empty()) options.policy_spec = header.policy_spec;
  if (options.predictor_spec.empty()) {
    options.predictor_spec = header.predictor_spec;
  }

  auto engine = std::make_unique<StreamingEngine>(
      std::move(config), options, std::move(make_policy),
      std::move(make_predictor));
  obs::Span restoring(nullptr, {}, nullptr,
                      engine->telemetry_
                          ? &engine->telemetry_->checkpoint_restore
                          : nullptr);
  engine->any_event_ = (header.flags & SnapshotHeader::kFlagAnyEvent) != 0;
  engine->last_batch_time_ = header.last_batch_time;
  engine->stats_.events_ingested = header.events_ingested;
  engine->stats_.batches = header.batches;
  engine->resume_events_ = header.events_ingested;
  engine->restored_ = true;
  engine->partition_id_ = header.partition_id;
  engine->num_partitions_ = header.num_partitions;
  engine->pf_version_ = header.pf_version;
  engine->log_hash_ = header.log_hash;
  engine->log_hash_valid_ =
      (header.flags & SnapshotHeader::kFlagLogHash) != 0;
  engine->resume_hash_ = header.log_hash;
  engine->resume_hash_valid_ = engine->log_hash_valid_;
  if ((header.flags & SnapshotHeader::kFlagLogBound) != 0) {
    engine->log_bound_ = true;
    engine->log_num_objects_ = header.log_num_objects;
    engine->log_num_events_ = header.log_num_events;
  }

  // Rebuild the object table in bounded-memory chunks: read a chunk's
  // payloads into one buffer and route them to per-shard inboxes (both
  // reused across chunks), then decode shard-parallel with one task per
  // shard in the order of its first record (object construction runs the
  // factories + a fresh simulation reset before load_state overwrites
  // the evolved fields — the expensive part, worth the fan-out).
  constexpr std::size_t kChunkObjects = std::size_t{1} << 16;
  struct Routed {
    std::uint64_t id;
    std::size_t at;
    std::size_t size;
  };
  const std::size_t num_shards = engine->options_.num_shards;
  std::vector<std::vector<Routed>> inboxes(num_shards);
  std::vector<unsigned char> chunk;
  std::vector<unsigned char> payload;
  bool more = true;
  while (more) {
    std::vector<std::size_t> active;
    std::size_t routed = 0;
    std::uint64_t id = 0;
    chunk.clear();
    while (routed < kChunkObjects && (more = reader.next_object(id, payload))) {
      const std::size_t shard = shard_index(id, num_shards);
      if (inboxes[shard].empty()) active.push_back(shard);
      inboxes[shard].push_back({id, chunk.size(), payload.size()});
      chunk.insert(chunk.end(), payload.begin(), payload.end());
      ++routed;
    }
    if (routed == 0) break;
    engine->run_shard_tasks(active.size(), [&](std::size_t task) {
      Shard& shard = *engine->shards_[active[task]];
      std::vector<Routed>& inbox = inboxes[active[task]];
      for (const Routed& record : inbox) {
        ObjectState state = engine->make_object_state(record.id);
        StateReader in(chunk.data() + record.at, record.size,
                       "object " + std::to_string(record.id), header.version);
        state.load_state(in, header);
        shard.insert(std::move(state));
      }
      inbox.clear();
    });
  }
  REPL_CHECK(engine->object_count() ==
             static_cast<std::size_t>(header.num_objects));
  restoring.stop();
  if (engine->telemetry_) {
    engine->telemetry_->objects_active.set(
        static_cast<double>(engine->object_count()));
    // Like the net admitted counter, the ingested counter speaks
    // logical-stream positions: a restore at N seeds it to N, so sums
    // federated across a respawn match an uninterrupted process.
    engine->telemetry_->events_ingested.inc(header.events_ingested);
    engine->telemetry_->batches.inc(header.batches);
  }
  return engine;
}

std::size_t StreamingEngine::object_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->objects.size();
  return total;
}

}  // namespace repl
