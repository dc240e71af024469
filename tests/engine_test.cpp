// Streaming engine tests. The load-bearing property: engine aggregates
// are bit-identical to running every object's subsequence through the
// batch Simulator serially in object-id order — for 1, 4, and
// hardware-concurrency threads, across shard counts, including randomized
// per-object components seeded from the object id.
#include <malloc.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "baselines/wang2021.hpp"
#include "core/drwp.hpp"
#include "core/server_table.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "engine/event_source.hpp"
#include "extensions/randomized_drwp.hpp"
#include "obs/metrics.hpp"
#include "offline/opt_lower_bound.hpp"
#include "predictor/ensemble.hpp"
#include "predictor/history.hpp"
#include "predictor/last_gap.hpp"
#include "run/parallel_runner.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace repl {
namespace {

constexpr double kAlpha = 0.3;

SystemConfig engine_config(int num_servers) {
  SystemConfig config;
  config.num_servers = num_servers;
  config.transfer_cost = 10.0;
  return config;
}

EnginePolicyFactory drwp_factory() {
  return [](const EngineObjectContext&) -> PolicyPtr {
    return std::make_unique<DrwpPolicy>(kAlpha);
  };
}

EnginePolicyFactory randomized_factory() {
  return [](const EngineObjectContext& context) -> PolicyPtr {
    return std::make_unique<RandomizedDrwpPolicy>(kAlpha, context.seed);
  };
}

EnginePredictorFactory last_gap_factory(int num_servers) {
  return [num_servers](const EngineObjectContext&) -> PredictorPtr {
    return std::make_unique<LastGapPredictor>(num_servers);
  };
}

/// The serial reference per object: group the stream per object (id
/// order), run the batch Simulator + OPTL per object. The factories run
/// outside any engine, so every component lives on the heap.
std::vector<EngineObjectFinal> serial_finals(
    const std::vector<LogEvent>& events, const SystemConfig& config,
    const EnginePolicyFactory& make_policy,
    const EnginePredictorFactory& make_predictor, std::uint64_t base_seed) {
  std::map<std::uint64_t, std::vector<Request>> per_object;
  for (const LogEvent& e : events) {
    per_object[e.object].push_back(
        Request{e.time, static_cast<int>(e.server)});
  }

  std::vector<EngineObjectFinal> finals;
  SimulationOptions options;
  options.record_events = false;
  const Simulator simulator(config, options);
  for (const auto& [id, requests] : per_object) {
    const Trace trace(config.num_servers, requests);
    EngineObjectContext context;
    context.object_id = id;
    context.seed = ParallelRunner::object_seed(
        base_seed, static_cast<std::size_t>(id));
    const PolicyPtr policy = make_policy(context);
    const PredictorPtr predictor = make_predictor(context);
    const SimulationResult result =
        simulator.run(*policy, trace, *predictor);
    EngineObjectFinal final;
    final.id = id;
    final.events = trace.size();
    final.num_local = result.num_local;
    final.num_transfers = result.num_transfers;
    final.online_cost = result.total_cost();
    final.lower_bound = opt_lower_bound(config, trace);
    finals.push_back(final);
  }
  return finals;
}

/// The same with DRWP (randomized or not) and the last-gap predictor.
std::vector<EngineObjectFinal> serial_finals(
    const std::vector<LogEvent>& events, const SystemConfig& config,
    bool randomized, std::uint64_t base_seed) {
  return serial_finals(events, config,
                       randomized ? randomized_factory() : drwp_factory(),
                       last_gap_factory(config.num_servers), base_seed);
}

/// The serial reference aggregates: serial_finals reduced in id order.
struct SerialReference {
  std::size_t objects = 0;
  std::size_t events = 0;
  std::size_t num_local = 0;
  std::size_t num_transfers = 0;
  double online_cost = 0.0;
  double lower_bound = 0.0;
};

SerialReference serial_reference(const std::vector<LogEvent>& events,
                                 const SystemConfig& config,
                                 bool randomized, std::uint64_t base_seed) {
  SerialReference ref;
  for (const EngineObjectFinal& final :
       serial_finals(events, config, randomized, base_seed)) {
    ++ref.objects;
    ref.events += final.events;
    ref.num_local += final.num_local;
    ref.num_transfers += final.num_transfers;
    ref.online_cost += final.online_cost;
    ref.lower_bound += final.lower_bound;
  }
  return ref;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_engine_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string temp_path(const std::string& name) {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string make_log(const std::string& path, std::uint64_t num_objects,
                     int num_servers, double rate, double horizon,
                     std::uint64_t seed) {
  StreamWorkloadConfig config;
  config.num_objects = num_objects;
  config.num_servers = num_servers;
  config.rate = rate;
  config.horizon = horizon;
  generate_event_log(config, seed, path);
  return path;
}

std::vector<LogEvent> read_all(const std::string& path) {
  EventLogReader reader(path);
  std::vector<LogEvent> events;
  LogEvent event;
  while (reader.next(event)) events.push_back(event);
  return events;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

/// Allocator bytes in use: mallinfo2 uordblks + hblkhd, the measure
/// bench_engine and the repository benchmark take per object.
std::uint64_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks) +
         static_cast<std::uint64_t>(info.hblkhd);
}

/// Serves the log at `log_path` on a fresh engine (stats optionally
/// copied out).
EngineMetrics serve_log(const std::string& log_path,
                        const SystemConfig& config,
                        const EngineOptions& options,
                        const EnginePolicyFactory& make_policy,
                        const EnginePredictorFactory& make_predictor,
                        EngineStats* stats = nullptr) {
  EventLogReader reader(log_path);
  StreamingEngine engine(config, options, make_policy, make_predictor);
  EngineMetrics metrics = engine.serve(reader);
  if (stats != nullptr) *stats = engine.stats();
  return metrics;
}

/// The acceptance-criteria matrix: engine == serial Simulator sweep, at
/// 1 / 4 / hardware-concurrency threads and several shard counts.
TEST_F(EngineTest, AggregatesBitIdenticalToSerialSimulator) {
  const SystemConfig config = engine_config(6);
  const std::string log =
      make_log(temp_path("w.evlog"), 300, 6, 3.0, 3000.0, 21);
  const std::vector<LogEvent> events = read_all(log);
  ASSERT_GT(events.size(), 2000u);

  const SerialReference ref =
      serial_reference(events, config, /*randomized=*/false,
                       EngineOptions{}.base_seed);

  for (const int threads : {1, 4, 0 /* hardware concurrency */}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{7},
                                     std::size_t{64}}) {
      EngineOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      EngineStats stats;
      const EngineMetrics metrics = serve_log(
          log, config, options, drwp_factory(), last_gap_factory(6), &stats);

      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(metrics.objects, ref.objects);
      EXPECT_EQ(metrics.events, ref.events);
      EXPECT_EQ(metrics.num_local, ref.num_local);
      EXPECT_EQ(metrics.num_transfers, ref.num_transfers);
      EXPECT_EQ(metrics.online_cost, ref.online_cost);   // bit-identical
      EXPECT_EQ(metrics.lower_bound, ref.lower_bound);   // bit-identical
      EXPECT_EQ(stats.events_ingested, ref.events);
      EXPECT_EQ(metrics.shards.size(), shards);
    }
  }
}

/// Randomized policies draw from object_seed(base_seed, id): results must
/// not depend on shard layout or scheduling.
TEST_F(EngineTest, RandomizedPolicySeedsAreShardAndThreadInvariant) {
  const SystemConfig config = engine_config(4);
  const std::string log =
      make_log(temp_path("r.evlog"), 120, 4, 2.0, 1500.0, 33);
  const std::vector<LogEvent> events = read_all(log);

  const SerialReference ref =
      serial_reference(events, config, /*randomized=*/true,
                       EngineOptions{}.base_seed);

  for (const int threads : {1, 4}) {
    for (const std::size_t shards : {std::size_t{3}, std::size_t{32}}) {
      EngineOptions options;
      options.num_threads = threads;
      options.num_shards = shards;
      const EngineMetrics metrics =
          serve_log(log, config, options, randomized_factory(),
                    last_gap_factory(4));
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EXPECT_EQ(metrics.online_cost, ref.online_cost);
      EXPECT_EQ(metrics.num_transfers, ref.num_transfers);
    }
  }
}

TEST_F(EngineTest, ShardMetricsPartitionTheGlobals) {
  const SystemConfig config = engine_config(5);
  const std::string log =
      make_log(temp_path("s.evlog"), 200, 5, 2.0, 2000.0, 5);
  EngineOptions options;
  options.num_shards = 16;
  options.num_threads = 1;
  const EngineMetrics metrics =
      serve_log(log, config, options, drwp_factory(), last_gap_factory(5));

  std::size_t objects = 0, events = 0, local = 0, transfers = 0;
  for (const EngineShardMetrics& shard : metrics.shards) {
    objects += shard.objects;
    events += shard.events;
    local += shard.num_local;
    transfers += shard.num_transfers;
  }
  EXPECT_EQ(objects, metrics.objects);
  EXPECT_EQ(events, metrics.events);
  EXPECT_EQ(local, metrics.num_local);
  EXPECT_EQ(transfers, metrics.num_transfers);
  EXPECT_GT(metrics.ratio(), 1.0);  // online pays at least OPTL
}

TEST_F(EngineTest, LazyInstantiationOnlyMaterializesRequestedObjects) {
  const SystemConfig config = engine_config(3);
  StreamingEngine engine(config, EngineOptions{}, drwp_factory(),
                         last_gap_factory(3));
  // Ids are sparse over a huge space — the table only holds what it saw.
  const std::vector<LogEvent> events = {
      {1.0, 0, 0}, {2.0, 1u << 20, 1}, {3.0, 0, 2}, {4.0, 0xffffffffffULL, 0}};
  engine.ingest(events);
  EXPECT_EQ(engine.object_count(), 3u);
  const EngineMetrics metrics = engine.finish();
  EXPECT_EQ(metrics.objects, 3u);
  EXPECT_EQ(metrics.events, 4u);
}

TEST_F(EngineTest, MultiBatchIngestEqualsSingleServe) {
  const SystemConfig config = engine_config(4);
  const std::string log =
      make_log(temp_path("b.evlog"), 80, 4, 1.0, 1000.0, 9);
  const std::vector<LogEvent> events = read_all(log);

  EngineOptions options;
  options.num_shards = 8;
  options.num_threads = 4;

  // One call per event (worst-case batching)...
  StreamingEngine drip(config, options, drwp_factory(),
                       last_gap_factory(4));
  for (const LogEvent& e : events) drip.ingest(&e, 1);
  const EngineMetrics dripped = drip.finish();

  // ...equals one giant batch.
  StreamingEngine bulk(config, options, drwp_factory(),
                       last_gap_factory(4));
  bulk.ingest(events);
  const EngineMetrics bulked = bulk.finish();

  EXPECT_EQ(dripped.online_cost, bulked.online_cost);
  EXPECT_EQ(dripped.lower_bound, bulked.lower_bound);
  EXPECT_EQ(dripped.num_transfers, bulked.num_transfers);
  EXPECT_EQ(dripped.events, bulked.events);
}

TEST_F(EngineTest, RejectsOutOfOrderStreams) {
  const SystemConfig config = engine_config(2);
  StreamingEngine engine(config, EngineOptions{}, drwp_factory(),
                         last_gap_factory(2));
  const std::vector<LogEvent> bad = {{2.0, 0, 0}, {1.0, 1, 0}};
  EXPECT_THROW(engine.ingest(bad), std::invalid_argument);
  // Unknown servers and non-positive times are likewise caught by the
  // pre-routing validation.
  EXPECT_THROW(engine.ingest({{{1.0, 0, 2}}}), std::invalid_argument);
  EXPECT_THROW(engine.ingest({{{0.0, 0, 0}}}), std::invalid_argument);
  // The rejections happened before any routing: no event of a bad
  // batch (including its in-order prefix) was served, and the engine
  // accepts a corrected batch afterwards.
  EXPECT_EQ(engine.object_count(), 0u);
  engine.ingest({{{2.0, 0, 0}, {2.5, 1, 0}}});
  const EngineMetrics metrics = engine.finish();
  EXPECT_EQ(metrics.objects, 2u);
  EXPECT_EQ(metrics.events, 2u);

  StreamingEngine engine2(config, EngineOptions{}, drwp_factory(),
                          last_gap_factory(2));
  engine2.ingest({{{2.0, 0, 0}}});
  // Order is enforced across batches too.
  const std::vector<LogEvent> earlier = {{1.5, 1, 0}};
  EXPECT_THROW(engine2.ingest(earlier), std::invalid_argument);
  // A per-object time tie violates the Trace invariants. This throw
  // comes from *inside* shard execution, so the engine is poisoned and
  // later calls fail fast instead of serving a half-applied stream.
  const std::vector<LogEvent> tie = {{2.0, 0, 1}};
  EXPECT_THROW(engine2.ingest(tie), std::invalid_argument);
  EXPECT_THROW(engine2.ingest({{{3.0, 1, 0}}}), CheckFailure);
  EXPECT_THROW(engine2.finish(), CheckFailure);
}

TEST_F(EngineTest, ShardFailureRuleIsFirstInBatchAtAnyThreadCount) {
  // Two objects in different shards each hit a per-object time tie in
  // one batch, at different times, so their diagnostics differ. The
  // documented rule names the failing shard whose first event came
  // earliest in the batch: object `first`, although its shard index is
  // the higher of the two (the opposite of a lowest-shard-index rule).
  const SystemConfig config = engine_config(2);
  EngineOptions options;
  options.num_shards = 16;
  options.num_threads = 1;
  // Which shard each of objects 0..7 lands in, read off the per-shard
  // metrics of a one-event serve.
  std::vector<std::size_t> shard_of;
  for (std::uint64_t id = 0; id < 8; ++id) {
    StreamingEngine probe(config, options, drwp_factory(),
                          last_gap_factory(2));
    probe.ingest({{{1.0, id, 0}}});
    const EngineMetrics metrics = probe.finish();
    for (std::size_t s = 0; s < metrics.shards.size(); ++s) {
      if (metrics.shards[s].objects == 1) shard_of.push_back(s);
    }
  }
  ASSERT_EQ(shard_of.size(), 8u);
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  bool found = false;
  for (std::uint64_t a = 0; a < 8 && !found; ++a) {
    for (std::uint64_t b = 0; b < 8 && !found; ++b) {
      if (shard_of[a] > shard_of[b]) {
        first = a;
        second = b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const std::vector<LogEvent> batch = {{1.0, first, 0},
                                       {1.0, first, 1},
                                       {2.0, second, 0},
                                       {2.0, second, 1}};
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.num_threads = threads;
    StreamingEngine engine(config, options, drwp_factory(),
                           last_gap_factory(2));
    try {
      engine.ingest(batch);
      ADD_FAILURE() << "expected the tie to fail the batch";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "strictly increasing and positive: 1 after 1"),
                std::string::npos)
          << e.what();
    }
    // The failure advanced object state: the engine is poisoned.
    EXPECT_THROW(engine.ingest({{{3.0, first, 0}}}), CheckFailure);
  }
}

TEST_F(EngineTest, FinishIsTerminal) {
  const SystemConfig config = engine_config(2);
  StreamingEngine engine(config, EngineOptions{}, drwp_factory(),
                         last_gap_factory(2));
  engine.ingest({{{1.0, 0, 0}}});
  engine.finish();
  EXPECT_THROW(engine.ingest({{{2.0, 0, 0}}}), CheckFailure);
  EXPECT_THROW(engine.finish(), CheckFailure);
}

TEST_F(EngineTest, EmptyStreamYieldsEmptyMetrics) {
  const SystemConfig config = engine_config(2);
  StreamingEngine engine(config, EngineOptions{}, drwp_factory(),
                         last_gap_factory(2));
  const EngineMetrics metrics = engine.finish();
  EXPECT_EQ(metrics.objects, 0u);
  EXPECT_EQ(metrics.events, 0u);
  EXPECT_EQ(metrics.online_cost, 0.0);
  EXPECT_EQ(metrics.ratio(), 1.0);
}

/// The OnlineSimulation step/finish path must agree with Simulator::run
/// (which now delegates to it — this guards the contract either way).
TEST_F(EngineTest, OnlineSimulationMatchesBatchSimulator) {
  const SystemConfig config = engine_config(4);
  const std::string log =
      make_log(temp_path("o.evlog"), 1, 4, 0.5, 2000.0, 77);
  const std::vector<LogEvent> events = read_all(log);
  std::vector<Request> requests;
  for (const LogEvent& e : events) {
    requests.push_back(Request{e.time, static_cast<int>(e.server)});
  }
  const Trace trace(4, requests);

  DrwpPolicy batch_policy(kAlpha);
  LastGapPredictor batch_predictor(4);
  const SimulationResult batch =
      Simulator(config).run(batch_policy, trace, batch_predictor);

  DrwpPolicy online_policy(kAlpha);
  LastGapPredictor online_predictor(4);
  OnlineSimulation online(config, SimulationOptions{}, online_policy,
                          online_predictor);
  for (const Request& r : trace.requests()) online.step(r.server, r.time);
  EXPECT_EQ(online.steps(), trace.size());
  EXPECT_EQ(online.last_time(), trace.duration());
  const SimulationResult streamed = online.finish();

  EXPECT_EQ(streamed.total_cost(), batch.total_cost());
  EXPECT_EQ(streamed.storage_cost, batch.storage_cost);
  EXPECT_EQ(streamed.transfer_cost, batch.transfer_cost);
  EXPECT_EQ(streamed.num_local, batch.num_local);
  EXPECT_EQ(streamed.horizon, batch.horizon);
  EXPECT_EQ(streamed.serves.size(), batch.serves.size());
  EXPECT_EQ(streamed.segments.size(), batch.segments.size());
}

/// Resume-parity across the interruption (the checkpoint acceptance
/// criterion): a serve interrupted at 1/4, 1/2, and 3/4 of the log and
/// restored with *different* shard/thread counts must still match the
/// serial per-object Simulator sweep bit for bit.
TEST_F(EngineTest, ResumeParityAtAnyCutShardAndThreadCount) {
  const SystemConfig config = engine_config(6);
  const std::string log =
      make_log(temp_path("ck.evlog"), 250, 6, 3.0, 2500.0, 55);
  const std::vector<LogEvent> events = read_all(log);
  ASSERT_GT(events.size(), 2000u);

  const SerialReference ref =
      serial_reference(events, config, /*randomized=*/false,
                       EngineOptions{}.base_seed);

  struct Geometry {
    std::size_t shards;
    int threads;
  };
  const Geometry before[] = {{1, 1}, {7, 4}, {64, 0}};
  const Geometry after[] = {{32, 4}, {1, 1}, {5, 2}};

  for (const double fraction : {0.25, 0.5, 0.75}) {
    const auto cut =
        static_cast<std::size_t>(fraction *
                                 static_cast<double>(events.size()));
    for (std::size_t g = 0; g < std::size(before); ++g) {
      SCOPED_TRACE("fraction=" + std::to_string(fraction) +
                   " geometry=" + std::to_string(g));
      const std::string ckpt =
          temp_path("cut_" + std::to_string(cut) + "_" + std::to_string(g) +
                    ".ckpt");
      {
        EngineOptions options;
        options.num_shards = before[g].shards;
        options.num_threads = before[g].threads;
        StreamingEngine engine(config, options, drwp_factory(),
                               last_gap_factory(6));
        engine.ingest(events.data(), cut);
        engine.checkpoint(ckpt);
        // Dropped without finish(): the interruption.
      }
      EngineOptions options;
      options.num_shards = after[g].shards;
      options.num_threads = after[g].threads;
      auto resumed = StreamingEngine::restore(ckpt, config, options,
                                              drwp_factory(),
                                              last_gap_factory(6));
      EXPECT_EQ(resumed->resume_position(), cut);
      // Resume through the reader path (seeks past the consumed prefix).
      EventLogReader reader(log);
      const EngineMetrics metrics = resumed->serve(reader);

      EXPECT_EQ(metrics.objects, ref.objects);
      EXPECT_EQ(metrics.events, ref.events);
      EXPECT_EQ(metrics.num_local, ref.num_local);
      EXPECT_EQ(metrics.num_transfers, ref.num_transfers);
      EXPECT_EQ(metrics.online_cost, ref.online_cost);   // bit-identical
      EXPECT_EQ(metrics.lower_bound, ref.lower_bound);   // bit-identical
    }
  }
}

/// StreamingLowerBound mirrors the batch OPTL bit for bit.
TEST_F(EngineTest, StreamingLowerBoundMatchesBatch) {
  const SystemConfig config = engine_config(5);
  const std::string log =
      make_log(temp_path("lb.evlog"), 1, 5, 0.8, 4000.0, 13);
  const std::vector<LogEvent> events = read_all(log);
  std::vector<Request> requests;
  for (const LogEvent& e : events) {
    requests.push_back(Request{e.time, static_cast<int>(e.server)});
  }
  const Trace trace(5, requests);

  StreamingLowerBound streaming(config);
  for (const Request& r : trace.requests()) streaming.step(r.server, r.time);
  EXPECT_EQ(streaming.value(), opt_lower_bound(config, trace));
}

/// Requires `finals` to equal the serial reference record for record,
/// bit for bit; reports the first difference only.
void expect_finals_equal(const std::vector<EngineObjectFinal>& finals,
                         const std::vector<EngineObjectFinal>& ref) {
  ASSERT_EQ(finals.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const EngineObjectFinal& a = finals[i];
    const EngineObjectFinal& b = ref[i];
    if (a.id != b.id || a.events != b.events || a.num_local != b.num_local ||
        a.num_transfers != b.num_transfers ||
        a.online_cost != b.online_cost || a.lower_bound != b.lower_bound) {
      ADD_FAILURE() << "final " << i << " differs: object " << a.id
                    << " vs reference object " << b.id;
      return;
    }
  }
}

/// The object table under growth and colliding ids: id 0, UINT64_MAX,
/// multiples of 2^32 (identical low words) and a dense run, 5,000+
/// objects in all, so a shard's table grows many times while ingest
/// runs. Per-object finals match the serial sweep bit for bit at 1 and
/// 3 shards, and a checkpoint cut mid-growth restores into the other
/// shard count and finishes identically.
TEST_F(EngineTest, ObjectTableGrowsUnderCollidingIds) {
  const SystemConfig config = engine_config(4);
  std::vector<std::uint64_t> ids = {0, UINT64_MAX};
  for (std::uint64_t k = 1; k <= 2500; ++k) ids.push_back(k << 32);
  for (std::uint64_t k = 1; k <= 2700; ++k) ids.push_back(k);
  Rng rng(404);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<std::size_t>(rng.uniform_index(i + 1))]);
  }

  // Every id first appears in shuffled order, interleaved with repeat
  // requests for ids already seen.
  std::vector<LogEvent> events;
  std::size_t introduced = 0;
  std::size_t cut = 0;  // event index once half the ids exist
  double t = 0.0;
  while (introduced < ids.size() || events.size() < 20000) {
    t += rng.uniform(0.01, 1.0);
    std::uint64_t id;
    if (introduced < ids.size() && (introduced == 0 || rng.bernoulli(0.3))) {
      id = ids[introduced++];
      // The cut falls just after this event.
      if (introduced == ids.size() / 2) cut = events.size() + 1;
    } else {
      id = ids[static_cast<std::size_t>(rng.uniform_index(introduced))];
    }
    events.push_back(LogEvent{
        t, id, static_cast<std::uint32_t>(rng.uniform_index(4))});
  }
  ASSERT_GT(cut, 0u);

  const std::vector<EngineObjectFinal> ref =
      serial_finals(events, config, /*randomized=*/false,
                    EngineOptions{}.base_seed);
  ASSERT_EQ(ref.size(), ids.size());
  ASSERT_GE(ref.size(), 5000u);
  const EngineMetrics ref_metrics = reduce_object_finals(ref);

  const auto engine_options = [](std::size_t shards) {
    EngineOptions options;
    options.num_shards = shards;
    options.num_threads = shards == 1 ? 1 : 2;
    return options;
  };
  const auto expect_metrics = [&](const EngineMetrics& metrics) {
    EXPECT_EQ(metrics.objects, ref_metrics.objects);
    EXPECT_EQ(metrics.events, ref_metrics.events);
    EXPECT_EQ(metrics.num_local, ref_metrics.num_local);
    EXPECT_EQ(metrics.num_transfers, ref_metrics.num_transfers);
    EXPECT_EQ(metrics.online_cost, ref_metrics.online_cost);
    EXPECT_EQ(metrics.lower_bound, ref_metrics.lower_bound);
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StreamingEngine engine(config, engine_options(shards), drwp_factory(),
                           last_gap_factory(4));
    engine.ingest(events);
    EXPECT_EQ(engine.object_count(), ids.size());
    std::vector<EngineObjectFinal> finals;
    expect_metrics(engine.finish(&finals));
    expect_finals_equal(finals, ref);

    const std::size_t other = shards == 1 ? 3 : 1;
    const std::string ckpt = temp_path("growth_" + std::to_string(shards));
    {
      StreamingEngine first(config, engine_options(shards), drwp_factory(),
                            last_gap_factory(4));
      first.ingest(events.data(), cut);
      EXPECT_EQ(first.object_count(), ids.size() / 2);
      first.checkpoint(ckpt);
    }
    auto resumed = StreamingEngine::restore(ckpt, config,
                                            engine_options(other),
                                            drwp_factory(),
                                            last_gap_factory(4));
    EXPECT_EQ(resumed->object_count(), ids.size() / 2);
    resumed->ingest(events.data() + cut, events.size() - cut);
    std::vector<EngineObjectFinal> resumed_finals;
    expect_metrics(resumed->finish(&resumed_finals));
    expect_finals_equal(resumed_finals, ref);
  }
}

/// Aggregates pinned as hexfloats from the dense per-server layout that
/// preceded the touched-server tables. Every parity test above compares
/// the engine with Simulator, which shares the per-object classes, so a
/// bit those classes change would move both sides; these goldens do not
/// move. Each DRWP-family policy and each causal predictor runs at least
/// once, at 10 and at 100 servers (objects touch few servers at 100, so
/// the sparse tables and their switch to direct indexing both run), over
/// the whole log and resumed from a mid-log checkpoint.
TEST_F(EngineTest, GoldenAggregatesMatchTheDenseLayout) {
  struct Golden {
    const char* policy;
    const char* predictor;
    int servers;
    bool weighted_rates;
    std::size_t objects;
    std::size_t events;
    std::size_t num_local;
    std::size_t num_transfers;
    double online_cost;
    double lower_bound;
  };
  const Golden goldens[] = {
      {"drwp(alpha=0.3)", "last_gap", 10, false, 300, 20000, 4914, 15086,
       0x1.8611b163515b3p+20, 0x1.682a082e7c281p+20},
      {"drwp(alpha=0.3)", "last_gap", 100, false, 300, 20000, 1776, 18224,
       0x1.8d340e32e46e1p+20, 0x1.6b5d2c3613b87p+20},
      {"conventional", "history(ewma=0.3)", 10, false, 300, 20000, 5652,
       14348, 0x1.8b269201b8865p+20, 0x1.682a082e7c281p+20},
      {"conventional", "history(ewma=0.3)", 100, false, 300, 20000, 2224,
       17776, 0x1.96b6559be213p+20, 0x1.6b5d2c3613b87p+20},
      {"adaptive(alpha=1.5)", "ensemble(last_gap,history(ewma=0.3))", 10,
       false, 300, 20000, 6209, 13791, 0x1.906dba5e64e46p+20,
       0x1.682a082e7c281p+20},
      {"adaptive(alpha=1.5)", "ensemble(last_gap,history(ewma=0.3))", 100,
       false, 300, 20000, 2346, 17654, 0x1.9bbd6c0daa639p+20,
       0x1.6b5d2c3613b87p+20},
      {"randomized(alpha=0.1)", "fixed(within=false)", 10, false, 300, 20000,
       3731, 16269, 0x1.852b73f374269p+20, 0x1.682a082e7c281p+20},
      {"randomized(alpha=0.1)", "fixed(within=false)", 100, false, 300,
       20000, 1273, 18727, 0x1.8b2ffbf0e2f4p+20, 0x1.6b5d2c3613b87p+20},
      {"weighted(alpha=0.3)", "last_gap", 10, true, 300, 20000, 4782, 15218,
       0x1.066cfcf3e7082p+21, 0.0},
      {"weighted(alpha=0.3)", "last_gap", 100, true, 300, 20000, 1741, 18259,
       0x1.24380d9f3de46p+21, 0.0},
  };
  for (const int servers : {10, 100}) {
    StreamWorkloadConfig workload;
    workload.num_objects = 300;
    workload.num_servers = servers;
    workload.rate = 4.0;
    workload.max_events = 20000;
    const std::string log = temp_path("golden_" + std::to_string(servers));
    ASSERT_EQ(generate_event_log(workload, 20, log), 20000u);
    const std::vector<LogEvent> events = read_all(log);
    const std::size_t cut = events.size() / 2;

    for (const Golden& golden : goldens) {
      if (golden.servers != servers) continue;
      SCOPED_TRACE(std::string(golden.policy) + " + " + golden.predictor +
                   " at " + std::to_string(servers) + " servers");
      SystemConfig config = engine_config(servers);
      EngineOptions options;
      options.num_shards = 7;
      options.num_threads = 2;
      if (golden.weighted_rates) {
        for (int s = 0; s < servers; ++s) {
          config.storage_rates.push_back(1.0 + 0.25 * (s % 7));
        }
        options.compute_lower_bound = false;
      }
      EngineBuilder builder;
      builder.config(config).options(options);
      builder.policy(golden.policy).predictor(golden.predictor);
      const auto expect_golden = [&](const EngineMetrics& metrics) {
        EXPECT_EQ(metrics.objects, golden.objects);
        EXPECT_EQ(metrics.events, golden.events);
        EXPECT_EQ(metrics.num_local, golden.num_local);
        EXPECT_EQ(metrics.num_transfers, golden.num_transfers);
        EXPECT_EQ(metrics.online_cost, golden.online_cost);
        EXPECT_EQ(metrics.lower_bound, golden.lower_bound);
      };

      auto whole = builder.build();
      whole->ingest(events);
      expect_golden(whole->finish());

      const std::string ckpt = temp_path("golden.ckpt");
      {
        auto first = builder.build();
        first->ingest(events.data(), cut);
        first->checkpoint(ckpt);
      }
      auto resumed = builder.restore(ckpt);
      // The restored tables re-checkpoint the dense record byte for byte.
      const std::string again = temp_path("golden_again.ckpt");
      resumed->checkpoint(again);
      EXPECT_EQ(read_bytes(again), read_bytes(ckpt));
      resumed->ingest(events.data() + cut, events.size() - cut);
      expect_golden(resumed->finish());
    }
  }
}


/// An object's state follows the servers it touches, not the fleet: 64
/// objects that each touch 3 servers (the initial one and two others)
/// hold at most twice the heap bytes per object at 10,000 servers as at
/// 10.
TEST_F(EngineTest, PerObjectMemoryDoesNotFollowTheFleet) {
  std::vector<LogEvent> events;
  double t = 0.0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t id = 0; id < 64; ++id) {
      const auto first = static_cast<std::uint32_t>(1 + id % 4);
      events.push_back(LogEvent{t += 1.0, id, round % 2 == 0 ? first
                                                             : first + 4});
    }
  }
  const auto bytes_per_object = [&events](const EnginePolicyFactory& policy,
                                          int num_servers) {
    EngineOptions options;
    options.num_shards = 1;
    options.num_threads = 1;
    const std::uint64_t before = heap_in_use();
    StreamingEngine engine(engine_config(num_servers), options, policy,
                           last_gap_factory(num_servers));
    engine.ingest(events);
    EXPECT_EQ(engine.object_count(), 64u);
    return (static_cast<double>(heap_in_use()) -
            static_cast<double>(before)) /
           64.0;
  };
  const EnginePolicyFactory wang2021_factory =
      [](const EngineObjectContext&) -> PolicyPtr {
    return std::make_unique<Wang2021Policy>();
  };
  const std::pair<const char*, EnginePolicyFactory> policies[] = {
      {"drwp", drwp_factory()}, {"wang2021", wang2021_factory}};
  for (const auto& [name, make_policy] : policies) {
    const double at_10 = bytes_per_object(make_policy, 10);
    const double at_10000 = bytes_per_object(make_policy, 10000);
    if (at_10 <= 0.0 || at_10000 <= 0.0) {
      GTEST_SKIP() << "the allocator reports no heap growth (" << at_10
                   << " and " << at_10000
                   << " B/object); a sanitizer's allocator hides it";
    }
    EXPECT_LE(at_10000, 2.0 * at_10)
        << name << ": " << at_10 << " B/object at 10 servers, " << at_10000
        << " at 10,000";
  }
}

TEST_F(EngineTest, BatchPastThirtyTwoBitPositionsIsRefused) {
  // Shard inboxes hold 32-bit batch positions, so a larger batch is
  // refused before any event is read, and the engine stays usable.
  StreamingEngine engine(engine_config(4), EngineOptions{}, drwp_factory(),
                         last_gap_factory(4));
  const std::vector<LogEvent> events = {LogEvent{1.0, 7, 0}};
  EXPECT_THROW(engine.ingest(events.data(), std::size_t{1} << 32),
               std::invalid_argument);
  engine.ingest(events);
  EXPECT_EQ(engine.finish().events, 1u);
}

// ---------------------------------------------------------------------------
// Shard arenas: each shard's objects live in its ObjectArena (util/arena.hpp)

/// The serial reference for any factories, reduced as finish() reduces.
EngineMetrics serial_metrics(const std::vector<LogEvent>& events,
                             const SystemConfig& config,
                             const EnginePolicyFactory& make_policy,
                             const EnginePredictorFactory& make_predictor) {
  return reduce_object_finals(serial_finals(events, config, make_policy,
                                            make_predictor,
                                            EngineOptions{}.base_seed));
}

void expect_same_metrics(const EngineMetrics& want, const EngineMetrics& got) {
  EXPECT_EQ(got.objects, want.objects);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.num_local, want.num_local);
  EXPECT_EQ(got.num_transfers, want.num_transfers);
  EXPECT_EQ(got.online_cost, want.online_cost);  // bit-identical
  EXPECT_EQ(got.lower_bound, want.lower_bound);  // bit-identical
}

/// A seeded stream over `num_servers` servers: every third of 300 objects
/// requests anywhere in the fleet, so at 100 servers its tables grow from
/// 2 entries through sparse blocks past ObjectArena::kMaxSmall to direct
/// arrays; the others keep to 3 servers.
std::vector<LogEvent> growing_events(std::size_t count, int num_servers,
                                     std::uint64_t seed) {
  SplitMix64 rng(seed);
  const auto fleet = static_cast<std::uint64_t>(num_servers);
  std::vector<LogEvent> events;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = rng.next() % 300;
    const std::uint64_t server =
        id % 3 == 0 ? rng.next() % fleet : (id + rng.next() % 3) % fleet;
    t += 0.01 + static_cast<double>(rng.next() % 100) / 1000.0;
    events.push_back(LogEvent{t, id, static_cast<std::uint32_t>(server)});
  }
  return events;
}

class EngineArenaTest : public EngineTest {};

TEST_F(EngineArenaTest, GeometriesAgreeThroughARestoreMidway) {
  const int servers = 100;
  const SystemConfig config = engine_config(servers);
  const std::vector<LogEvent> events = growing_events(20000, servers, 71);
  const std::size_t half = events.size() / 2;
  const EngineMetrics want = serial_metrics(events, config, drwp_factory(),
                                            last_gap_factory(servers));

  std::vector<char> first_cut;
  std::vector<char> last_cut;
  for (const int threads : {1, 4}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{7},
                                     std::size_t{256}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      EngineOptions options;
      options.num_shards = shards;
      options.num_threads = threads;
      const std::string cut = temp_path("half.ckpt");
      {
        StreamingEngine engine(config, options, drwp_factory(),
                               last_gap_factory(servers));
        engine.ingest(events.data(), half);
        engine.checkpoint(cut);
      }
      auto resumed = StreamingEngine::restore(cut, config, options,
                                              drwp_factory(),
                                              last_gap_factory(servers));
      const std::string recut = temp_path("recut.ckpt");
      resumed->checkpoint(recut);
      EXPECT_EQ(read_bytes(recut), read_bytes(cut));
      if (first_cut.empty()) first_cut = read_bytes(cut);
      EXPECT_EQ(read_bytes(cut), first_cut);

      resumed->ingest(events.data() + half, events.size() - half);
      resumed->checkpoint(recut);
      if (last_cut.empty()) last_cut = read_bytes(recut);
      EXPECT_EQ(read_bytes(recut), last_cut);
      expect_same_metrics(want, resumed->finish());
    }
  }
}

TEST_F(EngineArenaTest, EngineDroppedWithoutFinishGivesItsMemoryBack) {
  // Once after ingest, once after restore: the destructor runs every
  // object's destructor in its shard's scope and hands the chunks back.
  // A sanitizer build checks the frees; mallinfo checks the total.
  const SystemConfig config = engine_config(100);
  const std::vector<LogEvent> events = growing_events(6000, 100, 73);
  EngineOptions options;
  options.num_shards = 16;
  options.num_threads = 4;
  const std::string cut = temp_path("dropped.ckpt");
  for (const bool restored : {false, true}) {
    SCOPED_TRACE(restored ? "after restore" : "after ingest");
    const std::uint64_t before = heap_in_use();
    {
      std::unique_ptr<StreamingEngine> engine;
      if (restored) {
        engine = StreamingEngine::restore(cut, config, options,
                                          drwp_factory(),
                                          last_gap_factory(100));
      } else {
        engine = std::make_unique<StreamingEngine>(
            config, options, drwp_factory(), last_gap_factory(100));
        engine->ingest(events);
        engine->checkpoint(cut);
      }
      EXPECT_EQ(engine->object_count(), 300u);
      EXPECT_GT(engine->object_bytes(), 0u);
    }
    const std::uint64_t after = heap_in_use();
    if (before > 0) {
      EXPECT_LE(after, before + (std::uint64_t{64} << 10));
    }
  }
}

/// DRWP that replaces itself with a clone of itself before every request:
/// a component, grown tables and all, cloned and dropped inside a shard
/// task.
class RecloningDrwp final : public ReplicationPolicy {
 public:
  explicit RecloningDrwp(PolicyPtr inner) : inner_(std::move(inner)) {}
  void reset(const SystemConfig& config, const Prediction& pred0,
             EventSink& sink) override {
    inner_->reset(config, pred0, sink);
  }
  void advance_to(double time, EventSink& sink) override {
    inner_->advance_to(time, sink);
  }
  ServeAction on_request(int server, double time, const Prediction& pred,
                         EventSink& sink) override {
    inner_ = inner_->clone();
    return inner_->on_request(server, time, pred, sink);
  }
  double next_transition_time() const override {
    return inner_->next_transition_time();
  }
  bool holds(int server) const override { return inner_->holds(server); }
  int copy_count() const override { return inner_->copy_count(); }
  std::string name() const override { return inner_->name(); }
  PolicyPtr clone() const override {
    return std::make_unique<RecloningDrwp>(inner_->clone());
  }

 private:
  PolicyPtr inner_;
};

TEST_F(EngineArenaTest, EnsembleAndClonedComponentsServeAndDrop) {
  // An ensemble deletes its experts through shared_ptrs; a factory may
  // clone a prototype built on the heap and drop the first clone; a
  // policy may clone itself mid-stream. Each block goes back to the arena
  // it came from, and the aggregates match the serial heap reference.
  const int servers = 10;
  const SystemConfig config = engine_config(servers);
  const std::vector<LogEvent> events = growing_events(12000, servers, 79);
  const auto prototype = std::make_shared<const DrwpPolicy>(kAlpha);
  const EnginePolicyFactory cloned = [prototype](const EngineObjectContext&) {
    const PolicyPtr dropped = prototype->clone();
    return dropped->clone();
  };
  const EnginePolicyFactory recloning = [](const EngineObjectContext&) {
    return PolicyPtr(
        std::make_unique<RecloningDrwp>(std::make_unique<DrwpPolicy>(kAlpha)));
  };
  const EnginePredictorFactory ensemble = [servers](const EngineObjectContext&) {
    std::vector<std::shared_ptr<Predictor>> experts;
    experts.push_back(std::make_unique<LastGapPredictor>(servers));
    experts.push_back(std::make_unique<HistoryPredictor>(servers));
    return PredictorPtr(std::make_unique<EnsemblePredictor>(experts));
  };
  struct Case {
    const char* name;
    EnginePolicyFactory policy;
    EnginePredictorFactory predictor;
  };
  const Case cases[] = {{"cloned prototype", cloned, last_gap_factory(servers)},
                        {"recloning policy", recloning,
                         last_gap_factory(servers)},
                        {"ensemble", drwp_factory(), ensemble}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const EngineMetrics want =
        serial_metrics(events, config, c.policy, c.predictor);
    for (const int threads : {1, 4}) {
      EngineOptions options;
      options.num_shards = 7;
      options.num_threads = threads;
      StreamingEngine served(config, options, c.policy, c.predictor);
      served.ingest(events);
      expect_same_metrics(want, served.finish());
      StreamingEngine dropped(config, options, c.policy, c.predictor);
      dropped.ingest(events);
    }
  }
}

TEST_F(EngineArenaTest, TableGrowthBlocksAreReused) {
  // Objects keep arriving, and each grows its tables 2 → 4 entries →
  // direct while newer ones arrive. The blocks growth leaves behind serve
  // the newer objects' small tables, so the arena holds no more than ~5%
  // over the same objects rebuilt by a restore (which grows no table
  // step by step). Without reuse it would hold about 30% more.
  const int servers = 10;
  const SystemConfig config = engine_config(servers);
  std::vector<LogEvent> events;
  double t = 0.0;
  const std::uint64_t objects = 3000;
  for (std::uint64_t round = 0; round < objects + servers; ++round) {
    for (int age = 0; age < servers; ++age) {
      if (round < static_cast<std::uint64_t>(age) ||
          round - static_cast<std::uint64_t>(age) >= objects) {
        continue;
      }
      events.push_back(LogEvent{t += 0.5, round - static_cast<std::uint64_t>(age),
                                static_cast<std::uint32_t>(age)});
    }
  }
  EngineOptions options;
  options.num_shards = 1;
  options.num_threads = 1;
  const std::string cut = temp_path("grown.ckpt");
  std::size_t grown = 0;
  {
    StreamingEngine engine(config, options, drwp_factory(),
                           last_gap_factory(servers));
    engine.ingest(events);
    ASSERT_EQ(engine.object_count(), objects);
    grown = engine.object_bytes();
    engine.checkpoint(cut);
  }
  auto rebuilt = StreamingEngine::restore(cut, config, options,
                                          drwp_factory(),
                                          last_gap_factory(servers));
  const std::size_t packed = rebuilt->object_bytes();
  EXPECT_LE(static_cast<double>(grown), 1.05 * static_cast<double>(packed))
      << grown << " B after growth, " << packed << " B rebuilt, for "
      << objects << " objects";
}

/// Ends its stream by recording the engine's object bytes and the gauge:
/// the state after the last batch, before finish().
class GaugeProbeSource final : public EventSource {
 public:
  GaugeProbeSource(std::vector<LogEvent> events, obs::Gauge& gauge)
      : events_(std::move(events)), gauge_(gauge) {}
  void attach(StreamingEngine& engine) override { engine_ = &engine; }
  bool next_batch(std::vector<LogEvent>& out) override {
    out.clear();
    if (at_ >= events_.size()) {
      held = engine_->object_bytes();
      reported = gauge_.value();
      return false;
    }
    const std::size_t n = std::min<std::size_t>(500, events_.size() - at_);
    out.assign(events_.begin() + static_cast<std::ptrdiff_t>(at_),
               events_.begin() + static_cast<std::ptrdiff_t>(at_ + n));
    at_ += n;
    return true;
  }

  std::size_t held = 0;
  double reported = -1.0;

 private:
  std::vector<LogEvent> events_;
  obs::Gauge& gauge_;
  StreamingEngine* engine_ = nullptr;
  std::size_t at_ = 0;
};

TEST_F(EngineArenaTest, ObjectBytesGaugeReadsTheArenas) {
  // repl_object_bytes holds the arenas' chunk bytes after every batch and
  // after restore, and 0 once finish() has released them. At 10 servers
  // every block fits a chunk, so the bytes are whole chunks.
  const SystemConfig config = engine_config(10);
  const std::vector<LogEvent> events = growing_events(8000, 10, 83);
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("repl_object_bytes", "");
  EngineOptions options;
  options.num_shards = 7;
  options.num_threads = 4;
  options.metrics = &registry;
  StreamingEngine engine(config, options, drwp_factory(),
                         last_gap_factory(10));
  GaugeProbeSource source(events, gauge);
  const std::string cut = temp_path("gauge.ckpt");
  ServeOptions serve;
  serve.checkpoint_every = events.size() / 2;
  serve.checkpoint_path = cut;
  engine.serve(source, serve);
  EXPECT_GT(source.held, 0u);
  EXPECT_EQ(source.held % ObjectArena::kChunkBytes, 0u);
  EXPECT_EQ(source.reported, static_cast<double>(source.held));
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(engine.object_bytes(), 0u);

  auto restored = StreamingEngine::restore(cut, config, options,
                                           drwp_factory(),
                                           last_gap_factory(10));
  EXPECT_GT(restored->object_bytes(), 0u);
  EXPECT_EQ(gauge.value(), static_cast<double>(restored->object_bytes()));
}

TEST(EngineArena, FreeListsServeExactSizesThenSplitLargerBlocks) {
  ObjectArena arena;
  void* a = arena.allocate(176);
  void* b = arena.allocate(80);
  EXPECT_EQ(static_cast<char*>(b), static_cast<char*>(a) + 176);
  const std::size_t held = arena.bytes();
  EXPECT_EQ(held, ObjectArena::kChunkBytes);
  arena.deallocate(b, 80);
  EXPECT_EQ(arena.allocate(80), b);  // exact size first
  arena.deallocate(a, 176);
  // No 96-byte block is free: the 176-byte one splits, and its 80-byte
  // remainder serves the next request of that size.
  EXPECT_EQ(arena.allocate(96), a);
  EXPECT_EQ(arena.allocate(80), static_cast<char*>(a) + 96);
  EXPECT_EQ(arena.bytes(), held);
  // Blocks past kMaxSmall are heap blocks the arena counts and frees.
  void* large = arena.allocate(ObjectArena::kMaxSmall + 8);
  EXPECT_GT(arena.bytes(), held + ObjectArena::kMaxSmall);
  arena.deallocate(large, ObjectArena::kMaxSmall + 8);
  EXPECT_EQ(arena.bytes(), held);
  arena.release();
  EXPECT_EQ(arena.bytes(), 0u);
}

#ifdef REPL_ARENA_ASAN
TEST(EngineArenaDeathTest, AsanFailsAStalePointerIntoAGrownTable) {
  struct Entry {
    double value = 0.0;
  };
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ObjectArena arena;
        const ArenaScope scope(arena);
        ServerTable<Entry> table;
        const double* stale = &table.touch(0, 100).value;
        for (int s = 1; s < 4; ++s) table.touch(s, 100);  // regrows
        volatile double read = *stale;
        (void)read;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace repl
