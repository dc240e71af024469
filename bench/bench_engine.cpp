// Streaming-engine throughput sweep: synthesizes interleaved
// multi-object event logs to disk (objects swept geometrically up to
// --objects, a fixed --events per row), then serves each log through the
// sharded StreamingEngine at every thread count in --threads, reporting
// events/sec and the allocator bytes each object holds when the stream
// drains (bytes/obj). Per-object traces are never materialized — the
// stream goes binary log → batcher → shards.
//
// Components are spec-driven (api/registry.hpp): --policy/--predictor
// select any registered causal combination, and a comparison grid
// additionally benches adaptive DRWP and ensemble predictors against
// the default wiring on the same log. An object_zipf_s skew sweep
// (--zipf) reports per-shard event-count spread under hot objects.
//
//   ./build/bench/bench_engine                  # 10^4..10^6 objects, 10^7 events
//   ./build/bench/bench_engine --smoke          # CI-sized run + parity check
//   ./build/bench/bench_engine --policy "adaptive(alpha=0.3)"
//       --predictor "ensemble(last_gap,history(ewma=0.3))"
//
// At smoke scale (or with --verify) the engine aggregates are checked
// bit-for-bit against a serial per-object Simulator sweep over the same
// log, with components built from the same specs. A machine-readable
// BENCH_engine.json accompanies the table.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "engine/event_source.hpp"
#include "offline/opt_lower_bound.hpp"
#include "run/parallel_runner.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#ifndef REPL_GIT_DESCRIBE
#define REPL_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace repl;

struct RowResult {
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  int threads_requested = 0;
  int threads_used = 1;
  double events_per_sec = 0.0;
  double ingest_seconds = 0.0;
  double finish_seconds = 0.0;
  std::uint64_t steals = 0;
  /// Allocator bytes held per object when the stream drains.
  double bytes_per_object = 0.0;
  double online_cost = 0.0;
  double ratio = 1.0;
  bool verified = false;
  bool identical = true;
};

/// Allocator bytes in use: mallinfo2 uordblks + hblkhd. Unlike RSS it
/// falls when memory is freed, so a difference of two samples is what
/// the engine holds.
std::uint64_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks) +
         static_cast<std::uint64_t>(info.hblkhd);
}

/// File replay that measures per-object memory the way the repository
/// benchmark does: when the stream drains, before finish() frees
/// anything, the allocator bytes in use minus `heap_before` (sampled
/// before the engine was built), divided by the objects instantiated.
class HeapSamplingSource final : public EventSource {
 public:
  HeapSamplingSource(EventLogReader& reader, std::size_t batch_events,
                     std::uint64_t heap_before)
      : inner_(reader, batch_events, /*async_ingest=*/true),
        heap_before_(heap_before) {}

  void attach(StreamingEngine& engine) override {
    engine_ = &engine;
    inner_.attach(engine);
  }

  bool next_batch(std::vector<LogEvent>& out) override {
    if (inner_.next_batch(out)) return true;
    const std::size_t objects =
        std::max<std::size_t>(1, engine_->object_count());
    bytes_per_object = (static_cast<double>(heap_in_use()) -
                        static_cast<double>(heap_before_)) /
                       static_cast<double>(objects);
    return false;
  }

  std::uint64_t bytes_consumed() const override {
    return inner_.bytes_consumed();
  }

  double bytes_per_object = 0.0;

 private:
  LogReplaySource inner_;
  std::uint64_t heap_before_;
  StreamingEngine* engine_ = nullptr;
};

/// One policy×predictor grid point served over the reference log.
struct ComparisonResult {
  std::string policy;
  std::string predictor;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double online_cost = 0.0;
  double ratio = 1.0;
  bool verified = false;
  bool identical = true;
};

/// Mid-stream snapshot cost at one object count: write the checkpoint at
/// half the log, restore it, finish the serve, and require the resumed
/// aggregates to be bit-identical to an uninterrupted run. Both restore
/// paths are measured: the explicit-spec restore (the builder names its
/// components, the snapshot cross-checks) and the spec-less one (the
/// components self-construct from the snapshot's recorded specs — the
/// `engine_serve --resume-from` path with no component flags).
struct CheckpointResult {
  std::string policy;
  std::uint64_t objects = 0;
  std::uint64_t at_events = 0;
  std::uint64_t bytes = 0;
  double write_seconds = 0.0;
  double restore_seconds = 0.0;
  double specless_restore_seconds = 0.0;
  bool identical = true;
};

/// One wire format's cost/benefit on the same workload: bytes on disk,
/// transcode (encode) and scan (decode) throughput, and the end-to-end
/// serve rate — with the aggregates cross-checked bit-for-bit between
/// formats.
struct CompressionResult {
  std::uint64_t events = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  double encode_seconds = 0.0;   // raw -> compressed transcode
  double decode_seconds = 0.0;   // full scan of the compressed log
  double raw_events_per_sec = 0.0;
  double compressed_events_per_sec = 0.0;
  bool identical = true;

  double raw_bytes_per_event() const {
    return events > 0 ? static_cast<double>(raw_bytes) /
                            static_cast<double>(events)
                      : 0.0;
  }
  double compressed_bytes_per_event() const {
    return events > 0 ? static_cast<double>(compressed_bytes) /
                            static_cast<double>(events)
                      : 0.0;
  }
  double ratio() const {
    return compressed_bytes > 0
               ? static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes)
               : 0.0;
  }
  /// Encode rate over the raw bytes consumed; decode over the
  /// compressed bytes scanned.
  double encode_mb_per_sec() const {
    return encode_seconds > 0.0
               ? static_cast<double>(raw_bytes) / (1024.0 * 1024.0) /
                     encode_seconds
               : 0.0;
  }
  double decode_mb_per_sec() const {
    return decode_seconds > 0.0
               ? static_cast<double>(compressed_bytes) / (1024.0 * 1024.0) /
                     decode_seconds
               : 0.0;
  }
};

/// Per-shard event spread under one object-popularity skew.
struct ZipfResult {
  double zipf_s = 0.0;
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  std::size_t shards = 0;
  std::uint64_t shard_events_min = 0;
  std::uint64_t shard_events_max = 0;
  double shard_events_mean = 0.0;
  double shard_events_stddev = 0.0;
  /// max/mean — 1.0 is perfect balance.
  double spread = 0.0;
};

EngineBuilder make_builder(const SystemConfig& config,
                           const EngineOptions& options,
                           const std::string& policy_spec,
                           const std::string& predictor_spec) {
  EngineBuilder builder;
  builder.config(config).options(options);
  builder.policy(policy_spec).predictor(predictor_spec);
  return builder;
}

/// Serial reference for the parity check: per-object Simulator + OPTL
/// sweep in object-id order, components built from the same specs with
/// the same per-object seeds the engine uses (materializes the traces,
/// so only run at verification scale).
bool matches_serial(const std::string& log_path, const SystemConfig& config,
                    const std::string& policy_spec,
                    const std::string& predictor_spec,
                    std::uint64_t base_seed, const EngineMetrics& metrics) {
  std::map<std::uint64_t, std::vector<Request>> per_object;
  {
    EventLogReader reader(log_path);
    LogEvent event;
    while (reader.next(event)) {
      per_object[event.object].push_back(
          Request{event.time, static_cast<int>(event.server)});
    }
  }
  SimulationOptions options;
  options.record_events = false;
  const Simulator simulator(config, options);
  ComponentRegistry& registry = ComponentRegistry::instance();
  const ComponentSpec policy_ast = registry.canonicalize(
      ComponentKind::kPolicy, parse_component_spec(policy_spec));
  const ComponentSpec predictor_ast = registry.canonicalize(
      ComponentKind::kPredictor, parse_component_spec(predictor_spec));
  double online_cost = 0.0;
  double lower_bound = 0.0;
  std::size_t transfers = 0;
  for (auto& [id, requests] : per_object) {
    Trace trace(config.num_servers, std::move(requests));
    BuildContext build;
    build.config = config;
    build.seed = ParallelRunner::object_seed(
        base_seed, static_cast<std::size_t>(id));
    build.trace = &trace;
    const PolicyPtr policy = registry.build_policy(policy_ast, build);
    const PredictorPtr predictor =
        registry.build_predictor(predictor_ast, build);
    const SimulationResult result =
        simulator.run(*policy, trace, *predictor);
    online_cost += result.total_cost();
    transfers += result.num_transfers;
    lower_bound += opt_lower_bound(config, trace);
  }
  return online_cost == metrics.online_cost &&
         lower_bound == metrics.lower_bound &&
         transfers == metrics.num_transfers &&
         per_object.size() == metrics.objects;
}

/// Measures checkpoint write + restore throughput on `log_path` under
/// the given specs, and verifies the resumed serve reproduces
/// `reference` bit for bit (restore goes through EngineBuilder, so the
/// snapshot's recorded specs are also cross-checked).
CheckpointResult measure_checkpoint(const std::string& log_path,
                                    const SystemConfig& config,
                                    const EngineOptions& options,
                                    const std::string& policy_spec,
                                    const std::string& predictor_spec,
                                    const EngineMetrics& reference) {
  const std::string ckpt_path = log_path + ".ckpt";
  const EngineBuilder builder =
      make_builder(config, options, policy_spec, predictor_spec);
  CheckpointResult result;
  result.policy = builder.policy_spec();
  {
    EventLogReader reader(log_path);
    auto engine = builder.build();
    engine->bind_log(reader.header());
    // Drain half the log, snapshot, abandon (the simulated crash).
    const std::uint64_t half =
        reader.header().num_events == EventLogHeader::kUnknownCount
            ? 0
            : reader.header().num_events / 2;
    std::vector<LogEvent> batch;
    while (engine->stats().events_ingested < half &&
           reader.read_batch(batch, std::size_t{1} << 16) > 0) {
      engine->ingest(batch);
    }
    result.at_events = engine->stats().events_ingested;
    const auto write_start = std::chrono::steady_clock::now();
    engine->checkpoint(ckpt_path);
    result.write_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      write_start)
            .count();
  }
  result.bytes = std::filesystem::file_size(ckpt_path);

  const auto identical_to_reference = [&reference](const EngineMetrics& m) {
    return m.online_cost == reference.online_cost &&
           m.lower_bound == reference.lower_bound &&
           m.num_transfers == reference.num_transfers &&
           m.num_local == reference.num_local &&
           m.events == reference.events && m.objects == reference.objects;
  };

  const auto restore_start = std::chrono::steady_clock::now();
  auto resumed = builder.restore(ckpt_path);
  result.restore_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    restore_start)
          .count();
  result.objects = resumed->object_count();
  {
    EventLogReader reader(log_path);
    const EngineMetrics metrics = resumed->serve(reader);
    result.identical = identical_to_reference(metrics);
  }

  // The spec-less path: a builder with no component specs reconstructs
  // the factories from the snapshot's recorded canonical specs alone.
  {
    EngineBuilder specless;
    specless.config(config).options(options);
    const auto specless_start = std::chrono::steady_clock::now();
    auto self_constructed = specless.restore(ckpt_path);
    result.specless_restore_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      specless_start)
            .count();
    EventLogReader reader(log_path);
    const EngineMetrics metrics = self_constructed->serve(reader);
    result.identical =
        result.identical && identical_to_reference(metrics) &&
        self_constructed->options().policy_spec == builder.policy_spec();
  }
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);
  return result;
}

/// Measures the wire-format trade on `log_path` (a raw log): transcode
/// to the compressed format, scan it, and serve both formats end-to-end
/// under the same specs, requiring bit-identical aggregates.
CompressionResult measure_compression(const std::string& log_path,
                                      const SystemConfig& config,
                                      const EngineOptions& options,
                                      const std::string& policy_spec,
                                      const std::string& predictor_spec,
                                      std::size_t batch, bool keep) {
  const std::string compressed_path = log_path + ".z";
  CompressionResult result;
  {
    const auto start = std::chrono::steady_clock::now();
    result.events = event_log_transcode(log_path, compressed_path,
                                        EventLogFormat::kCompressed);
    result.encode_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }
  result.raw_bytes = std::filesystem::file_size(log_path);
  result.compressed_bytes = std::filesystem::file_size(compressed_path);
  {
    // Pure decode scan, no engine: the format's read throughput.
    const auto start = std::chrono::steady_clock::now();
    EventLogReader reader(compressed_path);
    LogEvent event;
    while (reader.next(event)) {
    }
    result.decode_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  }

  // Wall-clock around the whole serve, as every rate here is: the decode
  // runs on the replay source's reader thread, and time the serve loop
  // spends *blocked on it* shows up in neither ingest_seconds nor
  // finish_seconds — only wall time can expose a decode bottleneck,
  // which is exactly what this raw-vs-compressed comparison is for.
  const auto serve_once = [&](const std::string& path,
                              EngineMetrics& metrics) {
    EventLogReader reader(path);
    auto engine =
        make_builder(config, options, policy_spec, predictor_spec).build();
    const auto start = std::chrono::steady_clock::now();
    metrics = engine->serve(reader, {.batch_events = batch});
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return wall > 0.0 ? static_cast<double>(metrics.events) / wall : 0.0;
  };
  EngineMetrics raw_metrics;
  EngineMetrics compressed_metrics;
  result.raw_events_per_sec = serve_once(log_path, raw_metrics);
  result.compressed_events_per_sec =
      serve_once(compressed_path, compressed_metrics);
  result.identical =
      raw_metrics.online_cost == compressed_metrics.online_cost &&
      raw_metrics.lower_bound == compressed_metrics.lower_bound &&
      raw_metrics.num_transfers == compressed_metrics.num_transfers &&
      raw_metrics.num_local == compressed_metrics.num_local &&
      raw_metrics.events == compressed_metrics.events &&
      raw_metrics.objects == compressed_metrics.objects;
  if (!keep) {
    std::error_code ec;
    std::filesystem::remove(compressed_path, ec);
  }
  return result;
}

ZipfResult shard_spread(double zipf_s, const EngineMetrics& metrics) {
  ZipfResult result;
  result.zipf_s = zipf_s;
  result.objects = metrics.objects;
  result.events = metrics.events;
  result.shards = metrics.shards.size();
  if (metrics.shards.empty()) return result;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  double sum = 0.0;
  for (const EngineShardMetrics& shard : metrics.shards) {
    const std::uint64_t events = shard.events;
    min = std::min(min, events);
    max = std::max(max, events);
    sum += static_cast<double>(events);
  }
  const double mean = sum / static_cast<double>(metrics.shards.size());
  double var = 0.0;
  for (const EngineShardMetrics& shard : metrics.shards) {
    const double d = static_cast<double>(shard.events) - mean;
    var += d * d;
  }
  var /= static_cast<double>(metrics.shards.size());
  result.shard_events_min = min;
  result.shard_events_max = max;
  result.shard_events_mean = mean;
  result.shard_events_stddev = std::sqrt(var);
  result.spread = mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_engine",
                "streaming engine throughput sweep over binary event logs");
  cli.add_flag("min-objects", "10000", "smallest object count in the sweep");
  cli.add_flag("objects", "1000000", "largest object count in the sweep");
  cli.add_flag("events", "10000000", "events per generated log");
  cli.add_flag("servers", "10", "servers in the system");
  cli.add_flag("shards", "256", "object-table shards");
  cli.add_flag("batch", "65536", "events per ingest batch");
  cli.add_flag("threads", "1,2,4,8", "comma-separated thread counts "
               "(0 = all hardware threads)");
  cli.add_flag("lambda", "10", "transfer cost λ");
  cli.add_flag("alpha", "0.3", "DRWP α (used when --policy is not given)");
  cli.add_flag("policy", "",
               "policy component spec for the main sweep "
               "(default: drwp(alpha=<alpha>))");
  cli.add_flag("predictor", "",
               "predictor component spec for the main sweep "
               "(default: last_gap)");
  cli.add_flag("zipf", "0,0.8,1.2",
               "object_zipf_s skew sweep at the smallest object count "
               "(per-shard event spread; empty disables)");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("json", "BENCH_engine.json", "machine-readable output path");
  cli.add_flag("log-format", "raw",
               "wire format of the generated sweep logs: raw|compressed");
  cli.add_bool_flag("compress", "bench the compressed wire format "
                    "(bytes/event, encode/decode MB/s, end-to-end "
                    "events/sec vs raw) on the smallest log");
  cli.add_bool_flag("verify", "also run the serial per-object Simulator "
                    "sweep and require bit-identical aggregates");
  cli.add_bool_flag("checkpoint", "also measure checkpoint write/restore "
                    "throughput at half of each log (resume parity checked, "
                    "explicit-spec and spec-less restore paths)");
  cli.add_bool_flag("compare", "also bench a spec grid (adaptive DRWP, "
                    "ensemble predictors, ...) on the smallest log");
  cli.add_bool_flag("keep-logs", "keep the generated event logs on disk");
  cli.add_bool_flag("smoke", "CI-sized run: 2·10^3 objects, 2·10^5 events, "
                    "threads 1 and 4, verification + comparison grid on");
  if (!cli.parse(argc, argv)) return 0;

  // Bounds-checked count flags (no narrowing casts from get_int).
  std::size_t min_objects = cli.get_size_t("min-objects", 1, 100000000);
  std::size_t max_objects = cli.get_size_t("objects", 1, 100000000);
  std::uint64_t events = cli.get_size_t("events", 1);
  const std::size_t shards = cli.get_size_t("shards", 1, 1 << 20);
  const std::size_t batch = cli.get_size_t("batch", 1);
  const int servers = static_cast<int>(cli.get_size_t("servers", 1, 4096));
  const double lambda = cli.get_double("lambda");
  const std::uint64_t seed = cli.get_uint64("seed");
  const bool smoke = cli.get_bool("smoke");
  bool verify = cli.get_bool("verify") || smoke;
  const bool checkpointing = cli.get_bool("checkpoint") || smoke;
  const bool comparing = cli.get_bool("compare") || smoke;
  const bool compressing = cli.get_bool("compress") || smoke;
  EventLogFormat log_format = EventLogFormat::kRaw;
  try {
    log_format = parse_event_log_format(cli.get_string("log-format"));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  std::vector<int> thread_counts;
  for (const double t : cli.get_double_list("threads")) {
    thread_counts.push_back(static_cast<int>(t));
  }
  std::vector<double> zipf_values;
  if (!cli.get_string("zipf").empty()) {
    zipf_values = cli.get_double_list("zipf");
  }
  if (smoke) {
    min_objects = 2000;
    max_objects = 2000;
    events = 200000;
    thread_counts = {1, 4};
  }
  if (min_objects > max_objects || thread_counts.empty()) {
    std::cerr << "error: need --min-objects <= --objects and a non-empty "
                 "--threads list\n";
    return EXIT_FAILURE;
  }

  std::string policy_spec = cli.get_string("policy");
  if (policy_spec.empty()) {
    policy_spec = "drwp(alpha=" + cli.get_string("alpha") + ")";
  }
  std::string predictor_spec = cli.get_string("predictor");
  if (predictor_spec.empty()) predictor_spec = "last_gap";

  SystemConfig config;
  config.num_servers = servers;
  config.transfer_cost = lambda;

  // Fail on a bad spec before generating gigabytes of workload; also
  // canonicalizes the strings used in reports and JSON.
  try {
    ComponentRegistry& registry = ComponentRegistry::instance();
    policy_spec = registry.canonical_string(ComponentKind::kPolicy,
                                            policy_spec);
    predictor_spec = registry.canonical_string(ComponentKind::kPredictor,
                                               predictor_spec);
    EngineBuilder probe;
    probe.config(config);
    probe.policy(policy_spec).predictor(predictor_spec);
  } catch (const SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "components: " << policy_spec << " x " << predictor_spec
            << "\n";

  // The grid the ROADMAP asks for: adaptive DRWP and ensemble
  // predictors wired through the registry, against the sweep's own
  // combination and the prediction-free baseline.
  std::vector<ExperimentSpec> grid;
  if (comparing) {
    const std::string alpha_arg = "(alpha=" + cli.get_string("alpha") + ")";
    grid.push_back(ExperimentSpec{policy_spec, predictor_spec});
    grid.push_back(ExperimentSpec{"adaptive" + alpha_arg, "last_gap"});
    grid.push_back(ExperimentSpec{
        "adaptive" + alpha_arg, "ensemble(last_gap,history(ewma=0.3))"});
    grid.push_back(ExperimentSpec{
        "drwp" + alpha_arg, "ensemble(last_gap,history(ewma=0.3))"});
    grid.push_back(ExperimentSpec{"drwp" + alpha_arg, "history(ewma=0.3)"});
    grid.push_back(ExperimentSpec{"conventional", "fixed(within=true)"});
  }

  Table table({"objects", "events", "threads", "used", "events/s",
               "ingest_s", "finish_s", "steals", "bytes/obj", "cost", "ratio",
               "identical"});
  std::vector<RowResult> rows;
  std::vector<ComparisonResult> comparison_rows;
  std::vector<CheckpointResult> checkpoint_rows;
  std::vector<ZipfResult> zipf_rows;
  std::optional<CompressionResult> compression;
  bool all_identical = true;
  // Pipeline stage breakdown of the last sweep serve (largest log,
  // last thread count) — where the serve's wall time actually went.
  EngineStats stage_stats;
  double stage_wall = 0.0;
  bool have_stage_stats = false;

  for (std::size_t objects = min_objects;;) {
    // One log per object count; every thread count serves the same file.
    StreamWorkloadConfig workload;
    workload.num_objects = objects;
    workload.num_servers = servers;
    workload.rate = static_cast<double>(objects) / 64.0;
    workload.max_events = events;
    const std::string log_path =
        (std::filesystem::temp_directory_path() /
         ("bench_engine_" + std::to_string(objects) + ".evlog"))
            .string();
    std::cerr << "generating " << events << " events over " << objects
              << " objects -> " << log_path << " ("
              << event_log_format_name(log_format) << ")\n";
    generate_event_log(workload, seed, log_path, log_format);

    EngineMetrics last_metrics;
    EngineOptions last_options;
    for (const int threads : thread_counts) {
      EngineOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      options.base_seed = seed;

      const EngineBuilder builder =
          make_builder(config, options, policy_spec, predictor_spec);
      ::malloc_trim(0);
      const std::uint64_t heap_before = heap_in_use();
      auto engine = builder.build();
      EventLogReader reader(log_path);
      HeapSamplingSource source(reader, batch, heap_before);
      const auto start = std::chrono::steady_clock::now();
      const EngineMetrics metrics = engine->serve(source, {});
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const EngineStats& stats = engine->stats();
      last_metrics = metrics;
      last_options = options;
      stage_stats = stats;
      stage_wall = wall;
      have_stage_stats = true;

      RowResult row;
      row.objects = objects;
      row.events = stats.events_ingested;
      row.threads_requested = threads;
      row.threads_used = stats.threads_used;
      row.ingest_seconds = stats.ingest_seconds;
      row.finish_seconds = stats.finish_seconds;
      row.events_per_sec =
          wall > 0.0 ? static_cast<double>(row.events) / wall : 0.0;
      row.steals = stats.steals;
      row.bytes_per_object = source.bytes_per_object;
      row.online_cost = metrics.online_cost;
      row.ratio = metrics.ratio();
      if (verify) {
        row.verified = true;
        row.identical = matches_serial(log_path, config, policy_spec,
                                       predictor_spec, seed, metrics);
        all_identical = all_identical && row.identical;
      }
      rows.push_back(row);

      table.add_row({Table::cell(row.objects), Table::cell(row.events),
                     Table::cell(row.threads_requested),
                     Table::cell(row.threads_used),
                     Table::cell(row.events_per_sec, 0),
                     Table::cell(row.ingest_seconds, 3),
                     Table::cell(row.finish_seconds, 3),
                     Table::cell(row.steals),
                     Table::cell(row.bytes_per_object, 1),
                     Table::cell(row.online_cost, 1),
                     Table::cell(row.ratio, 4),
                     row.verified ? (row.identical ? "yes" : "NO") : "-"});
    }

    // Comparison grid runs once, on the smallest log (cost scales with
    // the grid, not the sweep). Its first point is the main sweep's own
    // combination, so its checkpoint measurement doubles as that log's
    // checkpoint row — no duplicate half-log serve.
    const bool grid_here = objects == min_objects && !grid.empty();
    if (grid_here) {
      for (const ExperimentSpec& point : grid) {
        const EngineBuilder builder = make_builder(
            config, last_options, point.policy, point.predictor);
        const bool is_default = builder.policy_spec() == policy_spec &&
                                builder.predictor_spec() == predictor_spec;
        EventLogReader reader(log_path);
        auto engine = builder.build();
        const auto start = std::chrono::steady_clock::now();
        const EngineMetrics metrics =
            engine->serve(reader, {.batch_events = batch});
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        ComparisonResult comparison;
        comparison.policy = builder.policy_spec();
        comparison.predictor = builder.predictor_spec();
        comparison.events = engine->stats().events_ingested;
        comparison.events_per_sec =
            wall > 0.0 ? static_cast<double>(comparison.events) / wall
                       : 0.0;
        comparison.online_cost = metrics.online_cost;
        comparison.ratio = metrics.ratio();
        if (verify) {
          comparison.verified = true;
          // The main sweep already ran the serial reference for its own
          // combination on this log — reuse that verdict.
          comparison.identical =
              is_default ? rows.back().identical
                         : matches_serial(log_path, config, point.policy,
                                          point.predictor, seed, metrics);
          all_identical = all_identical && comparison.identical;
        }
        if (checkpointing) {
          // Engine-level snapshot coverage for the non-default wirings:
          // every grid point must resume bit-identically.
          const CheckpointResult ck = measure_checkpoint(
              log_path, config, last_options, point.policy,
              point.predictor, metrics);
          all_identical = all_identical && ck.identical;
          comparison.identical = comparison.identical && ck.identical;
          checkpoint_rows.push_back(ck);
        }
        comparison_rows.push_back(comparison);
      }
    } else if (checkpointing) {
      const CheckpointResult ck = measure_checkpoint(
          log_path, config, last_options, policy_spec, predictor_spec,
          last_metrics);
      all_identical = all_identical && ck.identical;
      checkpoint_rows.push_back(ck);
    }

    // Wire-format trade on the smallest log: the compression section's
    // transcode needs a raw source, so a compressed sweep first decodes
    // back to a raw twin.
    if (objects == min_objects && compressing) {
      std::string raw_path = log_path;
      if (log_format != EventLogFormat::kRaw) {
        raw_path = log_path + ".raw";
        event_log_transcode(log_path, raw_path, EventLogFormat::kRaw);
      }
      std::cerr << "measuring wire-format trade on " << raw_path << "\n";
      compression = measure_compression(raw_path, config, last_options,
                                        policy_spec, predictor_spec, batch,
                                        cli.get_bool("keep-logs"));
      all_identical = all_identical && compression->identical;
      if (raw_path != log_path && !cli.get_bool("keep-logs")) {
        std::error_code ec;
        std::filesystem::remove(raw_path, ec);
      }
    }

    if (!cli.get_bool("keep-logs")) {
      std::error_code ec;
      std::filesystem::remove(log_path, ec);
    }
    if (objects >= max_objects) break;
    objects = std::min(objects * 10, max_objects);
  }

  // Skew sweep: same event budget, increasingly hot objects; reports
  // how unevenly events land across shards (the load-balance risk of
  // popularity skew).
  for (const double zipf_s : zipf_values) {
    StreamWorkloadConfig workload;
    workload.num_objects = min_objects;
    workload.num_servers = servers;
    workload.rate = static_cast<double>(min_objects) / 64.0;
    workload.max_events = events;
    workload.object_zipf_s = zipf_s;
    std::ostringstream name;
    name << "bench_engine_zipf_" << zipf_s << ".evlog";
    const std::string log_path =
        (std::filesystem::temp_directory_path() / name.str()).string();
    std::cerr << "generating zipf s=" << zipf_s << " log -> " << log_path
              << "\n";
    generate_event_log(workload, seed + 1, log_path);
    EngineOptions options;
    options.num_shards = shards;
    options.num_threads = thread_counts.back();
    options.base_seed = seed;
    EventLogReader reader(log_path);
    auto engine =
        make_builder(config, options, policy_spec, predictor_spec).build();
    const EngineMetrics metrics =
        engine->serve(reader, {.batch_events = batch});
    zipf_rows.push_back(shard_spread(zipf_s, metrics));
    if (!cli.get_bool("keep-logs")) {
      std::error_code ec;
      std::filesystem::remove(log_path, ec);
    }
  }

  std::cout << table.str() << "\n";

  if (!comparison_rows.empty()) {
    Table cmp_table({"policy", "predictor", "events/s", "cost", "ratio",
                     "identical"});
    for (const ComparisonResult& row : comparison_rows) {
      cmp_table.add_row(
          {row.policy, row.predictor, Table::cell(row.events_per_sec, 0),
           Table::cell(row.online_cost, 1), Table::cell(row.ratio, 4),
           row.verified ? (row.identical ? "yes" : "NO") : "-"});
    }
    std::cout << cmp_table.str() << "\n";
  }

  if (!checkpoint_rows.empty()) {
    Table ck_table({"policy", "objects", "ckpt@events", "bytes", "write_s",
                    "write_MB/s", "restore_s", "restore_MB/s", "specless_s",
                    "identical"});
    for (const CheckpointResult& ck : checkpoint_rows) {
      const double mb = static_cast<double>(ck.bytes) / (1024.0 * 1024.0);
      ck_table.add_row(
          {ck.policy, Table::cell(ck.objects), Table::cell(ck.at_events),
           Table::cell(ck.bytes),
           Table::cell(ck.write_seconds, 3),
           Table::cell(ck.write_seconds > 0.0 ? mb / ck.write_seconds : 0.0,
                       1),
           Table::cell(ck.restore_seconds, 3),
           Table::cell(
               ck.restore_seconds > 0.0 ? mb / ck.restore_seconds : 0.0, 1),
           Table::cell(ck.specless_restore_seconds, 3),
           ck.identical ? "yes" : "NO"});
    }
    std::cout << ck_table.str() << "\n";
  }

  if (compression) {
    Table z_table({"format", "bytes", "bytes/event", "encode_MB/s",
                   "decode_MB/s", "serve_events/s", "identical"});
    z_table.add_row({"raw", Table::cell(compression->raw_bytes),
                     Table::cell(compression->raw_bytes_per_event(), 2), "-",
                     "-", Table::cell(compression->raw_events_per_sec, 0),
                     "-"});
    z_table.add_row(
        {"compressed", Table::cell(compression->compressed_bytes),
         Table::cell(compression->compressed_bytes_per_event(), 2),
         Table::cell(compression->encode_mb_per_sec(), 1),
         Table::cell(compression->decode_mb_per_sec(), 1),
         Table::cell(compression->compressed_events_per_sec, 0),
         compression->identical ? "yes" : "NO"});
    std::cout << z_table.str();
    std::cout << "compression: " << compression->ratio()
              << "x smaller than raw\n\n";
  }

  if (have_stage_stats) {
    Table st_table({"stage", "seconds", "share"});
    const auto stage_row = [&](const char* name, double s) {
      st_table.add_row(
          {name, Table::cell(s, 3),
           Table::cell(stage_wall > 0.0 ? s / stage_wall : 0.0, 3)});
    };
    stage_row("source_wait", stage_stats.source_wait_seconds);
    stage_row("route", stage_stats.route_seconds);
    stage_row("execute", stage_stats.execute_seconds);
    stage_row("reduce", stage_stats.finish_seconds);
    stage_row("checkpoint_write", stage_stats.checkpoint_seconds);
    std::cout << st_table.str() << "\n";
  }

  if (!zipf_rows.empty()) {
    Table z_table({"zipf_s", "objects", "events", "shards", "min", "max",
                   "mean", "stddev", "max/mean"});
    for (const ZipfResult& z : zipf_rows) {
      z_table.add_row({Table::cell(z.zipf_s, 2), Table::cell(z.objects),
                       Table::cell(z.events),
                       Table::cell(static_cast<std::uint64_t>(z.shards)),
                       Table::cell(z.shard_events_min),
                       Table::cell(z.shard_events_max),
                       Table::cell(z.shard_events_mean, 1),
                       Table::cell(z.shard_events_stddev, 1),
                       Table::cell(z.spread, 3)});
    }
    std::cout << z_table.str() << "\n";
  }

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("bench_engine");
  json.key("git_describe").value(REPL_GIT_DESCRIBE);
  json.key("smoke").value(smoke);
  json.key("servers").value(servers);
  json.key("shards").value(static_cast<std::uint64_t>(shards));
  json.key("lambda").value(lambda);
  json.key("policy").value(policy_spec);
  json.key("predictor").value(predictor_spec);
  json.key("rows").begin_array();
  for (const RowResult& row : rows) {
    json.begin_object();
    json.key("objects").value(row.objects);
    json.key("events").value(row.events);
    json.key("threads").value(row.threads_requested);
    json.key("threads_used").value(row.threads_used);
    json.key("events_per_second").value(row.events_per_sec);
    json.key("ingest_seconds").value(row.ingest_seconds);
    json.key("finish_seconds").value(row.finish_seconds);
    json.key("steals").value(row.steals);
    json.key("bytes_per_object").value(row.bytes_per_object);
    json.key("online_cost").value(row.online_cost);
    json.key("ratio").value(row.ratio);
    json.key("verified").value(row.verified);
    json.key("identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.key("comparison").begin_array();
  for (const ComparisonResult& row : comparison_rows) {
    json.begin_object();
    json.key("policy").value(row.policy);
    json.key("predictor").value(row.predictor);
    json.key("events").value(row.events);
    json.key("events_per_second").value(row.events_per_sec);
    json.key("online_cost").value(row.online_cost);
    json.key("ratio").value(row.ratio);
    json.key("verified").value(row.verified);
    json.key("identical").value(row.identical);
    json.end_object();
  }
  json.end_array();
  json.key("checkpoints").begin_array();
  for (const CheckpointResult& ck : checkpoint_rows) {
    json.begin_object();
    json.key("policy").value(ck.policy);
    json.key("objects").value(ck.objects);
    json.key("at_events").value(ck.at_events);
    json.key("bytes").value(ck.bytes);
    json.key("write_seconds").value(ck.write_seconds);
    json.key("restore_seconds").value(ck.restore_seconds);
    json.key("specless_restore_seconds").value(ck.specless_restore_seconds);
    json.key("identical").value(ck.identical);
    json.end_object();
  }
  json.end_array();
  if (compression) {
    json.key("compression").begin_object();
    json.key("events").value(compression->events);
    json.key("raw_bytes").value(compression->raw_bytes);
    json.key("compressed_bytes").value(compression->compressed_bytes);
    json.key("raw_bytes_per_event").value(compression->raw_bytes_per_event());
    json.key("compressed_bytes_per_event")
        .value(compression->compressed_bytes_per_event());
    json.key("ratio").value(compression->ratio());
    json.key("encode_seconds").value(compression->encode_seconds);
    json.key("decode_seconds").value(compression->decode_seconds);
    json.key("encode_mb_per_second").value(compression->encode_mb_per_sec());
    json.key("decode_mb_per_second").value(compression->decode_mb_per_sec());
    json.key("raw_serve_events_per_second")
        .value(compression->raw_events_per_sec);
    json.key("compressed_serve_events_per_second")
        .value(compression->compressed_events_per_sec);
    json.key("identical").value(compression->identical);
    json.end_object();
  }
  if (have_stage_stats) {
    // Where the last sweep serve's wall time went, per pipeline stage.
    // route + execute == ingest_seconds; checkpoint_write overlaps the
    // serve loop, so its share is informational, not additive.
    json.key("stage_timings").begin_object();
    json.key("wall_seconds").value(stage_wall);
    const auto stage = [&json, stage_wall](const char* name, double s) {
      json.key(name).begin_object();
      json.key("seconds").value(s);
      json.key("share").value(stage_wall > 0.0 ? s / stage_wall : 0.0);
      json.end_object();
    };
    stage("source_wait", stage_stats.source_wait_seconds);
    stage("route", stage_stats.route_seconds);
    stage("execute", stage_stats.execute_seconds);
    stage("reduce", stage_stats.finish_seconds);
    stage("checkpoint_write", stage_stats.checkpoint_seconds);
    json.end_object();
  }
  json.key("zipf_sweep").begin_array();
  for (const ZipfResult& z : zipf_rows) {
    json.begin_object();
    json.key("zipf_s").value(z.zipf_s);
    json.key("objects").value(z.objects);
    json.key("events").value(z.events);
    json.key("shards").value(static_cast<std::uint64_t>(z.shards));
    json.key("shard_events_min").value(z.shard_events_min);
    json.key("shard_events_max").value(z.shard_events_max);
    json.key("shard_events_mean").value(z.shard_events_mean);
    json.key("shard_events_stddev").value(z.shard_events_stddev);
    json.key("spread").value(z.spread);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  const std::string json_path = cli.get_string("json");
  std::ofstream out(json_path);
  out << json.str() << "\n";
  out.flush();
  if (!out) {
    std::cerr << "error: failed to write " << json_path << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "wrote " << json_path << "\n";

  if (!all_identical) {
    std::cerr << "FAIL: engine aggregates diverged (serial-sweep parity, "
                 "checkpoint resume parity, or wire-format parity)\n";
    return EXIT_FAILURE;
  }
  // Size-regression gate: the dense-id smoke workload must stay well
  // under the raw 20 bytes/event — a coding change that bloats the
  // compressed format fails CI here.
  if (smoke && compression &&
      compression->compressed_bytes_per_event() > 12.0) {
    std::cerr << "FAIL: compressed format spent "
              << compression->compressed_bytes_per_event()
              << " bytes/event on the dense-id smoke workload (cap: 12)\n";
    return EXIT_FAILURE;
  }
  if (verify) {
    std::cout << "engine aggregates bit-identical to the serial "
                 "per-object sweep (every spec combination)\n";
  }
  if (checkpointing) {
    std::cout << "checkpoint resume aggregates bit-identical to the "
                 "uninterrupted serve\n";
  }
  return EXIT_SUCCESS;
}
