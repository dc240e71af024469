// File-replay workloads: whole-log serves of one cached log through
// StreamingEngine and timed restores of an untimed half-log snapshot.
// Untraced runs take each sample in a fresh child process; traced runs
// serve in-process.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "api/experiment.hpp"
#include "engine/event_source.hpp"
#include "trace/event_log.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace repl;

constexpr std::size_t kBatch = std::size_t{1} << 16;
constexpr std::size_t kShards = 256;
/// Child processes (untraced) or serve pairs (traced) per run at least,
/// whatever --seconds says.
constexpr std::size_t kMinServes = 3;
/// Set-up-only repetitions per child: one set-up is ~0.1 ms, so its median
/// needs many samples.
constexpr int kSetupReps = 40;

struct ReplayShape {
  std::uint64_t objects = 0;
  double zipf = 1.0;
  std::uint64_t events = 0;
  /// Timed restores of the half-log snapshot in a traced run.
  int restores = 1;
  /// Timed restores in each child process of an untraced run.
  int child_restores = 1;
};

ReplayShape shape_of(const RunContext& ctx) {
  if (ctx.workload == "replay-1m") {
    return {1000000, 1.0, ctx.smoke ? 20000u : 4000000u, 3, 1};
  }
  return {10000, 1.2, ctx.smoke ? 20000u : 2000000u, 9, 9};
}

/// Wraps the file replay source and time-stamps the boundaries a serve
/// crosses: attach (end of set-up), each batch request and delivery, and
/// the drain, where it also samples allocator bytes and object count.
class MeasuredSource final : public EventSource {
 public:
  MeasuredSource(EventLogReader& reader, SpanLog& spans,
                 std::uint64_t serve_span, std::uint64_t setup_span,
                 std::vector<double>* batch_ms)
      : inner_(reader, kBatch, /*async_ingest=*/true),
        spans_(spans),
        serve_span_(serve_span),
        setup_span_(setup_span),
        batch_ms_(batch_ms) {}

  void attach(StreamingEngine& engine) override {
    const auto start = Clock::now();
    inner_.attach(engine);
    engine_ = &engine;
    attached = Clock::now();
    spans_.add("source.attach", 0, setup_span_, start, attached);
  }

  bool next_batch(std::vector<LogEvent>& out) override {
    const auto requested = Clock::now();
    if (!started_) {
      first_request = requested;
      started_ = true;
    } else if (spans_.enabled()) {
      // The engine's turn: batch delivered -> next batch requested.
      spans_.add("engine.batch", trace_, serve_span_, delivered_, requested);
      if (batch_ms_ != nullptr) {
        batch_ms_->push_back(seconds_between(delivered_, requested) * 1e3);
      }
    }
    const bool more = inner_.next_batch(out);
    const auto got = Clock::now();
    wait_s += seconds_between(requested, got);
    trace_ = spans_.next_id();
    spans_.add("engine.source_wait", trace_, serve_span_, requested, got);
    if (!more) {
      drained = got;
      heap_at_drain = heap_in_use();
      objects_at_drain = engine_->object_count();
      return false;
    }
    delivered_ = got;
    events += out.size();
    return true;
  }

  std::uint64_t bytes_consumed() const override {
    return inner_.bytes_consumed();
  }

  Clock::time_point attached;
  Clock::time_point first_request;
  Clock::time_point drained;
  double wait_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t heap_at_drain = 0;
  std::size_t objects_at_drain = 0;

 private:
  LogReplaySource inner_;
  SpanLog& spans_;
  std::uint64_t serve_span_;
  std::uint64_t setup_span_;
  std::vector<double>* batch_ms_;
  StreamingEngine* engine_ = nullptr;
  bool started_ = false;
  Clock::time_point delivered_;
  std::uint64_t trace_ = 0;
};

}  // namespace

EngineBuilder make_builder(int threads) {
  EngineOptions options;
  options.num_shards = kShards;
  options.num_threads = threads;
  EngineBuilder builder;
  builder.config(bench_config()).options(options);
  builder.policy(kPolicy).predictor(kPredictor);
  return builder;
}

ServeSample timed_serve(RunContext& ctx, const EngineBuilder& builder,
                        const std::string& log, const Aggregates& ref,
                        std::vector<double>* batch_ms) {
  release_free_memory();
  const std::uint64_t heap_before = heap_in_use();
  const std::uint64_t serve_span = ctx.spans.next_id();
  const std::uint64_t setup_span = ctx.spans.next_id();
  const auto start = Clock::now();
  auto engine = builder.build();
  const auto built = Clock::now();
  EventLogReader reader(log);
  const auto opened = Clock::now();
  MeasuredSource source(reader, ctx.spans, serve_span, setup_span, batch_ms);
  ServeOptions options;
  options.batch_events = kBatch;
  const EngineMetrics metrics = engine->serve(source, options);
  const auto returned = Clock::now();

  ctx.spans.add("engine.build", 0, setup_span, start, built);
  ctx.spans.add("log.open", 0, setup_span, built, opened);
  ctx.spans.add("setup", 0, serve_span, start, source.attached, setup_span);
  ctx.spans.add("engine.finish", 0, serve_span, source.drained, returned);
  ctx.spans.add("serve", 0, 0, start, returned, serve_span);

  ServeSample s;
  s.traced = ctx.spans.enabled();
  s.events = source.events;
  s.events_per_s = static_cast<double>(source.events) /
                   seconds_between(source.first_request, returned);
  s.objects = source.objects_at_drain;
  s.bytes_per_object =
      s.objects == 0
          ? 0.0
          : (static_cast<double>(source.heap_at_drain) -
             static_cast<double>(heap_before)) /
                static_cast<double>(s.objects);
  s.finish_s = seconds_between(source.drained, returned);
  s.wait_s = source.wait_s;
  const EngineStats& stats = engine->stats();
  s.route_s = stats.route_seconds;
  s.execute_s = stats.execute_seconds;
  s.batches = stats.batches;
  s.steals = stats.steals;
  std::uint64_t max_shard = 0;
  for (const EngineShardMetrics& shard : metrics.shards) {
    max_shard = std::max<std::uint64_t>(max_shard, shard.events);
  }
  if (!metrics.shards.empty() && metrics.events > 0) {
    s.shard_max_over_mean =
        static_cast<double>(max_shard) *
        static_cast<double>(metrics.shards.size()) /
        static_cast<double>(metrics.events);
  }

  std::fprintf(stderr,
               "perfbench: serve events_per_s=%.0f bytes_per_object=%.1f "
               "finish_s=%.4f\n",
               s.events_per_s, s.bytes_per_object, s.finish_s);
  ctx.attempted += ref.events;
  const Aggregates got = Aggregates::of(metrics);
  if (!(got == ref)) {
    ctx.failed += ref.events;
    ctx.fail("serve aggregates differ from the reference\n  got " +
             got.to_line() + "\n  ref " + ref.to_line());
  }
  return s;
}

namespace {

/// Set-up alone: build, log open, source attach — then torn down.
double setup_only(const EngineBuilder& builder, const std::string& log) {
  const auto start = Clock::now();
  auto engine = builder.build();
  EventLogReader reader(log);
  LogReplaySource source(reader, kBatch, /*async_ingest=*/true);
  source.attach(*engine);
  return seconds_between(start, Clock::now());
}

std::string snapshot_path(const RunContext& ctx) {
  return ctx.work_dir + "/replay.ckpt";
}

struct SnapshotInfo {
  double write_s = 0.0;
  double bytes_per_object = 0.0;
};

/// Untimed: a fresh engine ingests the first half of the log and
/// checkpoints; the snapshot, restored once, must serve the rest of the
/// log to exactly `ref`.
SnapshotInfo write_snapshot(RunContext& ctx, const EngineBuilder& builder,
                            const std::string& log, const Aggregates& ref) {
  const std::string snapshot = snapshot_path(ctx);
  SnapshotInfo info;
  {
    auto engine = builder.build();
    EventLogReader reader(log);
    engine->bind_log(reader.header());
    std::vector<LogEvent> batch;
    while (engine->stats().events_ingested < ref.events / 2 &&
           reader.read_batch(batch, kBatch) > 0) {
      engine->ingest(batch);
    }
    const auto start = Clock::now();
    engine->checkpoint(snapshot);
    const auto end = Clock::now();
    ctx.spans.add("checkpoint.write", ctx.spans.next_id(), 0, start, end);
    info.write_s = seconds_between(start, end);
  }
  auto engine = builder.restore(snapshot);
  info.bytes_per_object =
      static_cast<double>(std::filesystem::file_size(snapshot)) /
      static_cast<double>(std::max<std::size_t>(1, engine->object_count()));
  EventLogReader reader(log);
  LogReplaySource source(reader, kBatch, /*async_ingest=*/true);
  ServeOptions options;
  options.batch_events = kBatch;
  const EngineMetrics metrics = engine->serve(source, options);
  const std::uint64_t offered = ref.events - engine->resume_position();
  ctx.attempted += offered;
  const Aggregates got = Aggregates::of(metrics);
  if (!(got == ref)) {
    ctx.failed += offered;
    ctx.fail("resumed aggregates differ from the serial reference\n  got " +
             got.to_line() + "\n  ref " + ref.to_line());
  }
  return info;
}

struct Restore {
  double restore_s = 0.0;
  double seek_s = 0.0;
};

/// Restore plus resume seek of the half-log snapshot.
Restore timed_restore(RunContext& ctx, const EngineBuilder& builder,
                      const std::string& log) {
  release_free_memory();
  const std::uint64_t span = ctx.spans.next_id();
  const std::uint64_t trace = ctx.spans.next_id();
  const auto t0 = Clock::now();
  auto engine = builder.restore(snapshot_path(ctx));
  const auto t1 = Clock::now();
  EventLogReader reader(log);
  const auto t2 = Clock::now();
  engine->bind_log(reader.header());
  engine->seek_to_resume(reader);
  const auto t3 = Clock::now();
  ctx.spans.add("checkpoint.restore", trace, span, t0, t1);
  ctx.spans.add("checkpoint.seek", trace, span, t2, t3);
  ctx.spans.add("recovery", trace, 0, t0, t3, span);
  return Restore{seconds_between(t0, t1), seconds_between(t2, t3)};
}

/// One child process's share of an untraced run: set-ups, restores (their
/// median) and one serve, printed as a single "child key=value..." line.
void replay_child(RunContext& ctx, const ReplayShape& shape,
                  const EngineBuilder& builder, const std::string& log,
                  const Aggregates& ref) {
  std::string setups;
  for (int i = 0; i < kSetupReps; ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%s%.9g", i == 0 ? "" : ",",
                  setup_only(builder, log));
    setups += value;
  }
  std::vector<double> recoveries;
  for (int i = 0; i < shape.child_restores; ++i) {
    const Restore restore = timed_restore(ctx, builder, log);
    recoveries.push_back(restore.restore_s + restore.seek_s);
  }
  const ServeSample serve = timed_serve(ctx, builder, log, ref, nullptr);
  std::printf("child events_per_s=%.17g bytes_per_object=%.17g "
              "recovery_s=%.17g attempted=%llu failed=%llu setup_s=%s\n",
              serve.events_per_s, serve.bytes_per_object, median(recoveries),
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed), setups.c_str());
}

/// Runs one child process of this run; returns its "child" line's fields
/// (empty when it failed).
std::map<std::string, std::string> run_child(RunContext& ctx) {
  const auto quote = [](const std::string& arg) {
    std::string out = "'";
    for (const char c : arg) {
      if (c == '\'') {
        out += "'\\''";
      } else {
        out += c;
      }
    }
    return out + "'";
  };
  std::string cmd = quote(ctx.self) + " --child --trace 0 --seconds 1";
  cmd += " --workload " + quote(ctx.workload);
  cmd += " --seed " + std::to_string(ctx.seed);
  cmd += " --cache " + quote(ctx.cache_dir);
  cmd += " --work " + quote(ctx.work_dir);
  if (ctx.smoke) cmd += " --smoke";
  std::map<std::string, std::string> fields;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start " + cmd);
  char buf[4096];
  std::string line;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    line = buf;
    if (line.rfind("child ", 0) != 0) continue;
    std::istringstream in(line.substr(6));
    std::string token;
    while (in >> token) {
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        fields[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
  }
  const int status = ::pclose(pipe);
  if (status != 0 || fields.count("events_per_s") == 0) {
    ctx.fail("child process failed (status " + std::to_string(status) +
             "): " + cmd);
    fields.clear();
  }
  return fields;
}

template <typename F>
std::vector<double> collect(const std::vector<ServeSample>& samples,
                            bool traced, F field) {
  std::vector<double> out;
  for (const ServeSample& s : samples) {
    if (s.traced == traced) out.push_back(field(s));
  }
  return out;
}

}  // namespace

void run_replay(RunContext& ctx) {
  const ReplayShape shape = shape_of(ctx);
  const std::string log = ensure_log(
      ctx, workload_config(shape.objects, shape.zipf, shape.events));
  const Aggregates ref =
      ensure_reference(ctx, [&] { return serial_reference(log); });
  const EngineBuilder builder = make_builder(0);
  if (ctx.child) {
    replay_child(ctx, shape, builder, log, ref);
    return;
  }
  const bool traced = ctx.traced;
  ctx.spans.set_enabled(traced);
  const SnapshotInfo snapshot = write_snapshot(ctx, builder, log, ref);
  ctx.spans.set_enabled(false);

  if (!traced) {
    // Speed differs from process to process by more than from serve to
    // serve (address-space layout, thread placement), so the samples come
    // from a fresh child process each, until --seconds is spent.
    std::vector<double> rates;
    std::vector<double> bytes;
    std::vector<double> recoveries;
    std::vector<double> setups;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(ctx.seconds);
    while (rates.size() < kMinServes || Clock::now() < deadline) {
      const auto fields = run_child(ctx);
      if (fields.empty()) break;
      rates.push_back(std::stod(fields.at("events_per_s")));
      bytes.push_back(std::stod(fields.at("bytes_per_object")));
      recoveries.push_back(std::stod(fields.at("recovery_s")));
      ctx.attempted += std::stoull(fields.at("attempted"));
      ctx.failed += std::stoull(fields.at("failed"));
      std::istringstream list(fields.at("setup_s"));
      std::string value;
      std::vector<double> child_setups;
      while (std::getline(list, value, ',')) {
        child_setups.push_back(std::stod(value));
      }
      setups.insert(setups.end(), child_setups.begin(), child_setups.end());
      std::fprintf(stderr,
                   "perfbench: child events_per_s=%.0f setup_s=%.6f "
                   "recovery_s=%.4f\n",
                   rates.back(), median(child_setups), recoveries.back());
    }
    std::filesystem::remove(snapshot_path(ctx));
    ctx.metric("events_per_s", median(rates), "1/s");
    ctx.metric("setup_s", median(setups), "s");
    ctx.metric("bytes_per_object", median(bytes), "B");
    ctx.metric("cost_ratio", ref.online_cost / ref.lower_bound, "ratio");
    ctx.metric("recovery_s", median(recoveries), "s");
    return;
  }

  // Traced: everything in this process. Restores, a warm-up serve, then
  // serves alternating untraced and traced (the pair gives the overhead).
  ctx.spans.set_enabled(true);
  std::vector<double> restore_s;
  std::vector<double> seek_s;
  for (int i = 0; i < shape.restores; ++i) {
    const Restore r = timed_restore(ctx, builder, log);
    restore_s.push_back(r.restore_s);
    seek_s.push_back(r.seek_s);
  }
  std::filesystem::remove(snapshot_path(ctx));
  ctx.spans.set_enabled(false);
  timed_serve(ctx, builder, log, ref, nullptr);
  std::vector<ServeSample> samples;
  std::vector<double> batch_ms;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(ctx.seconds);
  while (samples.size() < 2 * kMinServes || Clock::now() < deadline) {
    ctx.spans.set_enabled(samples.size() % 2 == 1);
    samples.push_back(timed_serve(ctx, builder, log, ref, &batch_ms));
  }
  ctx.spans.set_enabled(false);
  const double events_per_s = median(collect(
      samples, false, [](const ServeSample& s) { return s.events_per_s; }));

  // Per-layer metrics, from the traced serves.
  const auto per_serve = [&](auto field) {
    return median(collect(samples, true, field));
  };
  std::uint64_t log_events = 0;
  std::vector<double> scans;
  for (int i = 0; i < 3; ++i) scans.push_back(scan_log(log, &log_events));
  double step_ns = 0.0;
  if (!(serial_reference(log, &step_ns) == ref)) {
    ctx.fail("serial sweep disagrees with the cached reference");
  }
  ServeSample single;
  {
    const EngineBuilder one = make_builder(1);
    single = timed_serve(ctx, one, log, ref, nullptr);
  }
  const double traced_rate =
      per_serve([](const ServeSample& s) { return s.events_per_s; });

  ctx.metric("codec.decode_s", median(scans), "s");
  ctx.metric("codec.bytes_per_event",
             static_cast<double>(std::filesystem::file_size(log)) /
                 static_cast<double>(std::max<std::uint64_t>(1, log_events)),
             "B");
  ctx.metric("engine.source_wait_s",
             per_serve([](const ServeSample& s) { return s.wait_s; }), "s");
  ctx.metric("engine.route_s",
             per_serve([](const ServeSample& s) { return s.route_s; }), "s");
  ctx.metric("engine.execute_s",
             per_serve([](const ServeSample& s) { return s.execute_s; }),
             "s");
  ctx.metric("engine.finish_s",
             per_serve([](const ServeSample& s) { return s.finish_s; }), "s");
  ctx.metric("engine.batch_p50_ms", quantile(batch_ms, 0.50), "ms");
  ctx.metric("engine.batch_p99_ms", quantile(batch_ms, 0.99), "ms");
  ctx.metric("engine.events_per_batch",
             per_serve([](const ServeSample& s) {
               return static_cast<double>(s.events) /
                      static_cast<double>(std::max<std::uint64_t>(1, s.batches));
             }),
             "count");
  ctx.metric("engine.objects",
             per_serve([](const ServeSample& s) {
               return static_cast<double>(s.objects);
             }),
             "count");
  ctx.metric("run.steals",
             per_serve([](const ServeSample& s) {
               return static_cast<double>(s.steals);
             }),
             "count");
  ctx.metric("run.shard_max_over_mean",
             per_serve([](const ServeSample& s) {
               return s.shard_max_over_mean;
             }),
             "ratio");
  ctx.metric("run.parallel_speedup", events_per_s / single.events_per_s,
             "ratio");
  ctx.metric("core.step_ns", step_ns, "ns");
  ctx.metric("checkpoint.write_s", snapshot.write_s, "s");
  ctx.metric("checkpoint.bytes_per_object", snapshot.bytes_per_object, "B");
  ctx.metric("checkpoint.restore_s", median(restore_s), "s");
  ctx.metric("checkpoint.seek_s", median(seek_s), "s");
  ctx.metric("trace.overhead_pct", (events_per_s / traced_rate - 1.0) * 100.0,
             "%");
}

}  // namespace perfbench
