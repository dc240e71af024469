// Checkpoint/restore subsystem tests.
//
// The load-bearing properties:
//  * round trip — for randomized traces, every policy×predictor
//    combination snapshotted at a random request index and restored into
//    fresh objects replays the remaining requests with bit-identical
//    ServeRecords and a bit-identical final SimulationResult;
//  * crash recovery — a snapshot truncated at any record boundary or
//    random byte offset, or with tampered magic/version bytes, fails
//    restore() cleanly with a diagnostic (no UB under ASan/UBSan),
//    mirroring event_log_test's corruption coverage;
//  * empty-state snapshots — zero-event and single-event logs serve and
//    checkpoint correctly;
//  * pinned bytes — a fixed log's snapshot under five spec pairs keeps
//    its exact size and CRC-32C, so no save_state stream or component
//    name drifts, and checked-in version-4 snapshots keep restoring;
//  * canonical records — a CRC-valid but hostile record payload either
//    fails naming its object or re-cuts to its own bytes;
//  * failed cuts — a cut whose writes fail throws and leaves the
//    previous snapshot in place.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "api/experiment.hpp"
#include "checkpoint/snapshot.hpp"
#include "checkpoint/state_io.hpp"
#include "codec/crc32.hpp"
#include "core/adaptive_drwp.hpp"
#include "core/drwp.hpp"
#include "core/simulator.hpp"
#include "engine/engine.hpp"
#include "extensions/randomized_drwp.hpp"
#include "predictor/ensemble.hpp"
#include "predictor/fixed.hpp"
#include "predictor/history.hpp"
#include "predictor/last_gap.hpp"
#include "predictor/noisy.hpp"
#include "predictor/oracle.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace repl {
namespace {

constexpr int kServers = 5;
constexpr double kLambda = 10.0;

SystemConfig test_config() {
  SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = kLambda;
  return config;
}

/// A random trace mixing short bursts and long gaps so policies exercise
/// every branch (local serves, transfers, special copies, expiries).
Trace random_trace(std::uint64_t seed, std::size_t num_requests) {
  Rng rng(seed);
  std::vector<Request> requests;
  double t = 0.0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    t += rng.bernoulli(0.6) ? rng.uniform(0.05, 0.5 * kLambda)
                            : rng.uniform(kLambda, 5.0 * kLambda);
    requests.push_back(
        Request{t, static_cast<int>(rng.uniform_index(kServers))});
  }
  return Trace(kServers, std::move(requests));
}

using PolicyFactory = std::function<PolicyPtr()>;
using PredictorFactory = std::function<PredictorPtr(const Trace&)>;

std::vector<std::pair<std::string, PolicyFactory>> policy_factories() {
  return {
      {"drwp", [] { return std::make_unique<DrwpPolicy>(0.3); }},
      {"conventional", [] { return std::make_unique<ConventionalPolicy>(); }},
      {"adaptive",
       [] {
         AdaptiveDrwpPolicy::Options options;
         options.beta = 0.25;
         options.warmup_requests = 10;
         return std::make_unique<AdaptiveDrwpPolicy>(0.3, options);
       }},
      {"randomized",
       [] { return std::make_unique<RandomizedDrwpPolicy>(0.3, 99); }},
  };
}

std::vector<std::pair<std::string, PredictorFactory>> predictor_factories() {
  return {
      {"last-gap",
       [](const Trace&) { return std::make_unique<LastGapPredictor>(kServers); }},
      {"history",
       [](const Trace&) {
         return std::make_unique<HistoryPredictor>(kServers);
       }},
      {"ensemble",
       [](const Trace&) {
         std::vector<std::shared_ptr<Predictor>> experts;
         experts.push_back(std::make_shared<HistoryPredictor>(kServers));
         experts.push_back(std::make_shared<LastGapPredictor>(kServers));
         experts.push_back(std::make_shared<FixedPredictor>(true));
         return std::make_unique<EnsemblePredictor>(std::move(experts));
       }},
      {"fixed",
       [](const Trace&) { return std::make_unique<FixedPredictor>(false); }},
      {"oracle",
       [](const Trace& trace) {
         return std::make_unique<OraclePredictor>(trace);
       }},
      {"noisy",
       [](const Trace& trace) {
         return std::make_unique<AccuracyPredictor>(trace, 0.8, 7);
       }},
  };
}

void expect_serves_equal(const ServeRecord& a, const ServeRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.local, b.local);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.source_special, b.source_special);
  EXPECT_EQ(a.special_since, b.special_since);
  EXPECT_EQ(a.intended_duration, b.intended_duration);
  EXPECT_EQ(a.prediction, b.prediction);
}

/// Snapshots a run at `cut`, restores into fresh components, and checks
/// the resumed run against the uninterrupted one: remaining ServeRecords
/// and every scalar of the final result bit-identical.
void check_round_trip(const PolicyFactory& make_policy,
                      const PredictorFactory& make_predictor,
                      const Trace& trace, std::size_t cut) {
  const SystemConfig config = test_config();
  const SimulationOptions options;  // record_events on: serves compared

  // Uninterrupted reference.
  PolicyPtr ref_policy = make_policy();
  PredictorPtr ref_predictor = make_predictor(trace);
  OnlineSimulation reference(config, options, *ref_policy, *ref_predictor);
  for (const Request& r : trace.requests()) reference.step(r.server, r.time);
  const SimulationResult full = reference.finish();

  // Prefix, snapshot.
  PolicyPtr cut_policy = make_policy();
  PredictorPtr cut_predictor = make_predictor(trace);
  OnlineSimulation prefix(config, options, *cut_policy, *cut_predictor);
  for (std::size_t i = 0; i < cut; ++i) {
    prefix.step(trace[i].server, trace[i].time);
  }
  StateWriter snapshot;
  prefix.save_state(snapshot);

  // Restore into fresh objects, replay the remainder.
  PolicyPtr resumed_policy = make_policy();
  PredictorPtr resumed_predictor = make_predictor(trace);
  OnlineSimulation resumed(config, options, *resumed_policy,
                           *resumed_predictor);
  StateReader in(snapshot.buffer().data(), snapshot.size(), "round trip");
  resumed.load_state(in);
  in.expect_end();
  EXPECT_EQ(resumed.steps(), cut);
  for (std::size_t i = cut; i < trace.size(); ++i) {
    resumed.step(trace[i].server, trace[i].time);
  }
  const SimulationResult result = resumed.finish();

  // Final aggregates: bit-identical to the uninterrupted run.
  EXPECT_EQ(result.storage_cost, full.storage_cost);
  EXPECT_EQ(result.transfer_cost, full.transfer_cost);
  EXPECT_EQ(result.total_cost(), full.total_cost());
  EXPECT_EQ(result.num_local, full.num_local);
  EXPECT_EQ(result.num_transfers, full.num_transfers);
  EXPECT_EQ(result.horizon, full.horizon);
  EXPECT_EQ(result.initial_intended_duration, full.initial_intended_duration);
  EXPECT_EQ(result.initial_prediction, full.initial_prediction);
  EXPECT_EQ(result.policy_name, full.policy_name);
  EXPECT_EQ(result.predictor_name, full.predictor_name);

  // The restored run records exactly the remaining serves.
  ASSERT_EQ(result.serves.size(), full.serves.size() - cut);
  for (std::size_t i = 0; i < result.serves.size(); ++i) {
    expect_serves_equal(result.serves[i], full.serves[cut + i]);
  }
}

TEST(CheckpointStateIoTest, PrimitivesRoundTrip) {
  StateWriter out;
  out.u8(0xab);
  out.u32(0xdeadbeefu);
  out.u64(0x0123456789abcdefULL);
  out.i32(-42);
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::infinity());
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.boolean(true);
  out.str("checkpoint");

  StateReader in(out.buffer().data(), out.size(), "primitives");
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.i32(), -42);
  const double negzero = in.f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));  // -0.0 preserved bit-exactly
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.str(), "checkpoint");
  EXPECT_EQ(in.remaining(), 0u);
  in.expect_end();
}

TEST(CheckpointStateIoTest, UnderflowAndTrailingBytesAreDiagnosed) {
  StateWriter out;
  out.u32(7);
  StateReader in(out.buffer().data(), out.size(), "short payload");
  EXPECT_THROW(in.u64(), std::runtime_error);

  StateReader trailing(out.buffer().data(), out.size(), "trailing");
  EXPECT_THROW(trailing.expect_end(), std::runtime_error);

  StateWriter bad_bool;
  bad_bool.u8(2);
  StateReader bools(bad_bool.buffer().data(), bad_bool.size(), "bool");
  EXPECT_THROW(bools.boolean(), std::runtime_error);

  try {
    StateReader named(out.buffer().data(), out.size(), "object 42");
    named.u64();
    FAIL() << "expected underflow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("object 42"), std::string::npos);
  }
}

/// The satellite property test: every policy×predictor combination,
/// randomized traces, random cut points.
TEST(CheckpointRoundTripTest, AllPolicyPredictorCombinations) {
  Rng cuts(0xc0ffee);
  for (const auto& [policy_name, make_policy] : policy_factories()) {
    for (const auto& [predictor_name, make_predictor] :
         predictor_factories()) {
      const Trace trace = random_trace(
          0x5eed0000 + std::hash<std::string>{}(policy_name + predictor_name),
          120);
      for (int rep = 0; rep < 3; ++rep) {
        const std::size_t cut =
            static_cast<std::size_t>(cuts.uniform_index(trace.size() - 1)) + 1;
        SCOPED_TRACE(policy_name + " × " + predictor_name + " cut=" +
                     std::to_string(cut));
        check_round_trip(make_policy, make_predictor, trace, cut);
      }
    }
  }
}

TEST(CheckpointRoundTripTest, BoundaryCutsIncludingZeroAndAll) {
  const Trace trace = random_trace(0xfeed, 60);
  const auto make_policy = [] { return std::make_unique<DrwpPolicy>(0.3); };
  const auto make_predictor = [](const Trace&) {
    return std::make_unique<HistoryPredictor>(kServers);
  };
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, trace.size() - 1, trace.size()}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    check_round_trip(make_policy, make_predictor, trace, cut);
  }
}

TEST(CheckpointRoundTripTest, LoadRejectsComponentMismatch) {
  const Trace trace = random_trace(0xd00d, 40);
  const SystemConfig config = test_config();
  DrwpPolicy policy(0.3);
  LastGapPredictor predictor(kServers);
  OnlineSimulation sim(config, SimulationOptions{}, policy, predictor);
  for (std::size_t i = 0; i < 10; ++i) sim.step(trace[i].server, trace[i].time);
  StateWriter snapshot;
  sim.save_state(snapshot);

  // Wrong policy type.
  {
    ConventionalPolicy other;
    LastGapPredictor pred(kServers);
    OnlineSimulation fresh(config, SimulationOptions{}, other, pred);
    StateReader in(snapshot.buffer().data(), snapshot.size(), "mismatch");
    EXPECT_THROW(fresh.load_state(in), std::runtime_error);
  }
  // Wrong predictor type.
  {
    DrwpPolicy same(0.3);
    HistoryPredictor pred(kServers);
    OnlineSimulation fresh(config, SimulationOptions{}, same, pred);
    StateReader in(snapshot.buffer().data(), snapshot.size(), "mismatch");
    EXPECT_THROW(fresh.load_state(in), std::runtime_error);
  }
  // Wrong alpha (same type): the policy's own cross-check fires.
  {
    DrwpPolicy other_alpha(0.7);
    LastGapPredictor pred(kServers);
    OnlineSimulation fresh(config, SimulationOptions{}, other_alpha, pred);
    StateReader in(snapshot.buffer().data(), snapshot.size(), "mismatch");
    EXPECT_THROW(fresh.load_state(in), std::runtime_error);
  }
  // Wrong transfer cost: the config cross-check fires even though every
  // component type matches.
  {
    SystemConfig other_lambda = config;
    other_lambda.transfer_cost = kLambda / 2.0;
    DrwpPolicy same(0.3);
    LastGapPredictor pred(kServers);
    OnlineSimulation fresh(other_lambda, SimulationOptions{}, same, pred);
    StateReader in(snapshot.buffer().data(), snapshot.size(), "mismatch");
    EXPECT_THROW(fresh.load_state(in), std::runtime_error);
  }
}

// ---------------------------------------------------------------------
// Engine-level checkpoint files: format validation and corruption paths.
// ---------------------------------------------------------------------

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_checkpoint_test_" +
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

EnginePolicyFactory engine_policy_factory() {
  return [](const EngineObjectContext&) -> PolicyPtr {
    return std::make_unique<DrwpPolicy>(0.3);
  };
}

EnginePredictorFactory engine_predictor_factory() {
  return [](const EngineObjectContext&) -> PredictorPtr {
    return std::make_unique<LastGapPredictor>(kServers);
  };
}

/// A deterministic interleaved multi-object batch.
std::vector<LogEvent> interleaved_events(std::size_t count,
                                         std::size_t num_objects,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LogEvent> events;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.uniform(0.01, 2.0);
    events.push_back(LogEvent{t, rng.uniform_index(num_objects),
                              static_cast<std::uint32_t>(
                                  rng.uniform_index(kServers))});
  }
  return events;
}

std::unique_ptr<StreamingEngine> fresh_engine(std::size_t shards,
                                              int threads) {
  EngineOptions options;
  options.num_shards = shards;
  options.num_threads = threads;
  return std::make_unique<StreamingEngine>(test_config(), options,
                                           engine_policy_factory(),
                                           engine_predictor_factory());
}

TEST_F(CheckpointFileTest, EngineRoundTripAcrossShardGeometries) {
  const std::vector<LogEvent> events = interleaved_events(4000, 50, 17);
  const std::size_t cut = events.size() / 2;
  const std::string path = temp_path("engine.ckpt");

  // Uninterrupted reference.
  auto reference = fresh_engine(8, 1);
  reference->ingest(events);
  const EngineMetrics full = reference->finish();

  // First half, checkpoint with one geometry...
  auto first = fresh_engine(8, 4);
  first->ingest(events.data(), cut);
  first->checkpoint(path);

  // ...restore with a different geometry, serve the rest.
  EngineOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  auto resumed = StreamingEngine::restore(path, test_config(), options,
                                          engine_policy_factory(),
                                          engine_predictor_factory());
  EXPECT_EQ(resumed->resume_position(), cut);
  EXPECT_EQ(resumed->object_count(), 50u);
  resumed->ingest(events.data() + cut, events.size() - cut);
  const EngineMetrics metrics = resumed->finish();

  EXPECT_EQ(metrics.objects, full.objects);
  EXPECT_EQ(metrics.events, full.events);
  EXPECT_EQ(metrics.num_local, full.num_local);
  EXPECT_EQ(metrics.num_transfers, full.num_transfers);
  EXPECT_EQ(metrics.online_cost, full.online_cost);  // bit-identical
  EXPECT_EQ(metrics.lower_bound, full.lower_bound);  // bit-identical

  // The checkpointed engine is still serveable afterwards.
  first->ingest(events.data() + cut, events.size() - cut);
  const EngineMetrics continued = first->finish();
  EXPECT_EQ(continued.online_cost, full.online_cost);
}

TEST_F(CheckpointFileTest, RestoreRejectsMismatchedConfiguration) {
  const std::vector<LogEvent> events = interleaved_events(500, 10, 3);
  const std::string path = temp_path("mismatch.ckpt");
  auto engine = fresh_engine(4, 1);
  engine->ingest(events);
  engine->checkpoint(path);

  // Wrong server count.
  {
    SystemConfig config = test_config();
    config.num_servers = kServers + 1;
    EXPECT_THROW(StreamingEngine::restore(path, config, EngineOptions{},
                                          engine_policy_factory(),
                                          engine_predictor_factory()),
                 std::invalid_argument);
  }
  // Wrong base seed.
  {
    EngineOptions options;
    options.base_seed = 123;
    EXPECT_THROW(StreamingEngine::restore(path, test_config(), options,
                                          engine_policy_factory(),
                                          engine_predictor_factory()),
                 std::invalid_argument);
  }
  // Lower-bound accumulators missing from the restored options.
  {
    EngineOptions options;
    options.compute_lower_bound = false;
    EXPECT_THROW(StreamingEngine::restore(path, test_config(), options,
                                          engine_policy_factory(),
                                          engine_predictor_factory()),
                 std::invalid_argument);
  }
  // Mismatched per-object components (different predictor type).
  {
    EXPECT_THROW(
        StreamingEngine::restore(
            path, test_config(), EngineOptions{}, engine_policy_factory(),
            [](const EngineObjectContext&) -> PredictorPtr {
              return std::make_unique<HistoryPredictor>(kServers);
            }),
        std::runtime_error);
  }
}

/// Parses the record table of a snapshot file to find every record
/// boundary (offsets where a record begins, plus the footer offset).
/// The v2 header is variable-length (log binding + spec strings), so
/// the walk starts at header.encoded_size().
std::vector<std::uintmax_t> record_boundaries(const std::string& path) {
  const SnapshotHeader header = read_snapshot_header(path);
  std::ifstream in(path, std::ios::binary);
  auto le32 = [](const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    return v;
  };
  const std::uint64_t num_objects = header.num_objects;
  const std::size_t prefix_size = header.record_prefix_size();
  std::vector<std::uintmax_t> boundaries;
  std::uintmax_t offset = header.encoded_size();
  for (std::uint64_t i = 0; i < num_objects; ++i) {
    boundaries.push_back(offset);
    unsigned char prefix[20];
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(prefix), static_cast<std::streamsize>(
                                                 prefix_size));
    offset += prefix_size + le32(prefix + 8);  // +8: encoded length
  }
  boundaries.push_back(offset);  // footer position
  return boundaries;
}

void expect_restore_fails(const std::string& path) {
  try {
    StreamingEngine::restore(path, test_config(), EngineOptions{},
                             engine_policy_factory(),
                             engine_predictor_factory());
    FAIL() << "restore accepted a corrupt snapshot: " << path;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
        << e.what();
  }
}

/// The crash-recovery satellite: every record boundary, random byte
/// offsets, and tampered header bytes must all fail cleanly.
TEST_F(CheckpointFileTest, TruncationAndTamperingAreRejected) {
  const std::vector<LogEvent> events = interleaved_events(800, 12, 29);
  const std::string path = temp_path("corrupt.ckpt");
  auto engine = fresh_engine(4, 1);
  engine->ingest(events);
  engine->checkpoint(path);

  // Sanity: the intact snapshot restores.
  ASSERT_NE(StreamingEngine::restore(path, test_config(), EngineOptions{},
                                     engine_policy_factory(),
                                     engine_predictor_factory()),
            nullptr);

  const auto full_size = std::filesystem::file_size(path);
  const std::vector<std::uintmax_t> boundaries = record_boundaries(path);
  ASSERT_EQ(boundaries.size(), 13u);  // 12 objects + footer
  ASSERT_EQ(boundaries.back() + 8, full_size);

  const auto copy_to = [&](const std::string& name) {
    const std::string dst = temp_path(name);
    std::filesystem::copy_file(path, dst,
                               std::filesystem::copy_options::overwrite_existing);
    return dst;
  };

  // Truncation at every record boundary — including boundaries.back(),
  // a snapshot cut exactly before the footer, which only the footer
  // check can catch.
  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    const std::string trunc = copy_to("trunc_" + std::to_string(i) + ".ckpt");
    std::filesystem::resize_file(trunc, boundaries[i]);
    SCOPED_TRACE("record boundary " + std::to_string(i));
    expect_restore_fails(trunc);
  }

  // Truncation at random byte offsets (mid-header, mid-record, mid-footer).
  Rng rng(0xbad);
  for (int i = 0; i < 20; ++i) {
    const auto offset = rng.uniform_index(full_size - 1);
    const std::string trunc = copy_to("rand_" + std::to_string(i) + ".ckpt");
    std::filesystem::resize_file(trunc, offset);
    SCOPED_TRACE("random offset " + std::to_string(offset));
    expect_restore_fails(trunc);
  }

  const auto flip_byte = [&](const std::string& name, std::uintmax_t offset,
                             unsigned char value) {
    const std::string dst = copy_to(name);
    std::fstream f(dst, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), 1);
    f.close();
    return dst;
  };

  // Header magic, version, and footer magic tampering.
  expect_restore_fails(flip_byte("bad_magic.ckpt", 0, 'X'));
  expect_restore_fails(flip_byte("bad_version.ckpt", 8, 99));
  expect_restore_fails(flip_byte("bad_footer.ckpt", boundaries.back(), 'X'));
  // Zeroed server count.
  {
    const std::string dst = copy_to("zero_servers.ckpt");
    std::fstream f(dst, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const char zeros[4] = {0, 0, 0, 0};
    f.write(zeros, 4);
    f.close();
    expect_restore_fails(dst);
  }
  // Trailing garbage after the footer.
  {
    const std::string dst = copy_to("trailing.ckpt");
    std::ofstream f(dst, std::ios::binary | std::ios::app);
    f << "junk";
    f.close();
    expect_restore_fails(dst);
  }
}

/// Regression for the serve-loop fix: zero-event and single-event logs
/// serve and checkpoint correctly (empty-state snapshots restore).
TEST_F(CheckpointFileTest, EmptyAndSingleEventLogsServeAndCheckpoint) {
  // Zero events.
  {
    const std::string log = temp_path("empty.evlog");
    EventLogWriter writer(log, kServers);
    writer.close();

    EventLogReader reader(log);
    auto engine = fresh_engine(4, 1);
    const std::string ckpt = temp_path("empty.ckpt");
    engine->checkpoint(ckpt);  // empty-state snapshot
    auto restored = StreamingEngine::restore(ckpt, test_config(),
                                             EngineOptions{},
                                             engine_policy_factory(),
                                             engine_predictor_factory());
    EXPECT_EQ(restored->object_count(), 0u);
    EXPECT_EQ(restored->resume_position(), 0u);
    const EngineMetrics metrics = restored->serve(reader);
    EXPECT_EQ(metrics.objects, 0u);
    EXPECT_EQ(metrics.events, 0u);
    EXPECT_EQ(metrics.online_cost, 0.0);
  }
  // One event.
  {
    const std::string log = temp_path("single.evlog");
    {
      EventLogWriter writer(log, kServers);
      writer.write(1.5, 7, 2);
      writer.close();
    }
    auto engine = fresh_engine(4, 1);
    {
      EventLogReader reader(log);
      std::vector<LogEvent> batch;
      ASSERT_EQ(reader.read_batch(batch, 16), 1u);
      engine->ingest(batch);
    }
    const std::string ckpt = temp_path("single.ckpt");
    engine->checkpoint(ckpt);
    auto restored = StreamingEngine::restore(ckpt, test_config(),
                                             EngineOptions{},
                                             engine_policy_factory(),
                                             engine_predictor_factory());
    EXPECT_EQ(restored->object_count(), 1u);
    EXPECT_EQ(restored->resume_position(), 1u);
    EventLogReader reader(log);
    const EngineMetrics metrics = restored->serve(reader);
    EXPECT_EQ(metrics.objects, 1u);
    EXPECT_EQ(metrics.events, 1u);

    auto uninterrupted = fresh_engine(4, 1);
    EventLogReader again(log);
    const EngineMetrics reference = uninterrupted->serve(again);
    EXPECT_EQ(metrics.online_cost, reference.online_cost);
    EXPECT_EQ(metrics.lower_bound, reference.lower_bound);
  }
}

/// serve() with periodic checkpoints: the last snapshot resumes to the
/// same aggregates, and the .tmp staging file never survives.
TEST_F(CheckpointFileTest, PeriodicCheckpointsDuringServeResume) {
  const std::vector<LogEvent> events = interleaved_events(5000, 40, 41);
  const std::string log = temp_path("serve.evlog");
  {
    EventLogWriter writer(log, kServers);
    for (const LogEvent& e : events) writer.write(e);
    writer.close();
  }
  const std::string ckpt = temp_path("serve.ckpt");

  // Reference: plain serve.
  EngineMetrics full;
  {
    EventLogReader reader(log);
    auto engine = fresh_engine(8, 2);
    full = engine->serve(reader);
  }

  // Serve with periodic checkpoints; capture the penultimate snapshot by
  // stopping the drain manually at 3/4 of the log.
  const std::uint64_t stop_at = 3 * events.size() / 4;
  {
    EventLogReader reader(log);
    auto engine = fresh_engine(8, 2);
    ServeOptions options;
    options.batch_events = 512;
    options.checkpoint_every = 1000;
    options.checkpoint_path = ckpt;
    std::vector<LogEvent> batch;
    std::uint64_t next_mark = options.checkpoint_every;
    while (engine->stats().events_ingested < stop_at &&
           reader.read_batch(batch, options.batch_events) > 0) {
      engine->ingest(batch);
      if (engine->stats().events_ingested >= next_mark) {
        engine->checkpoint(ckpt);
        while (next_mark <= engine->stats().events_ingested) {
          next_mark += options.checkpoint_every;
        }
      }
    }
    // Crash here: the engine is dropped without finish().
  }
  // A direct checkpoint() call stages through "<path>.tmp" and renames
  // too: the snapshot is in place and the staging file is gone.
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(ckpt + ".tmp"));

  // Resume from the last on-disk snapshot and drain to the end.
  auto resumed = StreamingEngine::restore(
      ckpt, test_config(),
      [] {
        EngineOptions options;
        options.num_shards = 16;  // different geometry across the restart
        options.num_threads = 1;
        return options;
      }(),
      engine_policy_factory(), engine_predictor_factory());
  EXPECT_GT(resumed->resume_position(), 0u);
  EXPECT_LE(resumed->resume_position(), stop_at + 512);
  EventLogReader reader(log);
  const EngineMetrics metrics = resumed->serve(reader);

  EXPECT_EQ(metrics.objects, full.objects);
  EXPECT_EQ(metrics.events, full.events);
  EXPECT_EQ(metrics.online_cost, full.online_cost);
  EXPECT_EQ(metrics.lower_bound, full.lower_bound);
  EXPECT_EQ(metrics.num_transfers, full.num_transfers);

  // Periodic checkpoints during serve() go through the same atomic
  // checkpoint(); the staging file must not remain.
  {
    EventLogReader again(log);
    auto engine = fresh_engine(4, 1);
    ServeOptions options;
    options.batch_events = 512;
    options.checkpoint_every = 1500;
    options.checkpoint_path = temp_path("staged.ckpt");
    const EngineMetrics staged = engine->serve(again, options);
    EXPECT_EQ(staged.online_cost, full.online_cost);
    EXPECT_GE(engine->stats().checkpoints_written, 1u);
    EXPECT_TRUE(std::filesystem::exists(options.checkpoint_path));
    EXPECT_FALSE(std::filesystem::exists(options.checkpoint_path + ".tmp"));
  }
}

TEST_F(CheckpointFileTest, ServeRequiresPathWithCheckpointEvery) {
  const std::string log = temp_path("nopath.evlog");
  {
    EventLogWriter writer(log, kServers);
    writer.write(1.0, 0, 0);
    writer.close();
  }
  EventLogReader reader(log);
  auto engine = fresh_engine(2, 1);
  ServeOptions options;
  options.checkpoint_every = 10;
  EXPECT_THROW(engine->serve(reader, options), std::invalid_argument);
}

// A record's event count and its simulation's step count advance
// together, so a snapshot whose two disagree is corrupt: restore must
// reject it, naming the object, rather than report the wrong count.
TEST_F(CheckpointFileTest, RestoreRejectsEventCountOffByOne) {
  const std::vector<LogEvent> events = interleaved_events(600, 12, 5);
  const std::string path = temp_path("count.ckpt");
  auto engine = fresh_engine(4, 1);
  engine->ingest(events);
  engine->checkpoint(path);

  // Rewrite object 7's record with its event count (the record's first
  // field) one higher; every other byte stays as written.
  const std::string tampered = temp_path("count_tampered.ckpt");
  {
    SnapshotReader reader(path);
    SnapshotWriter writer(tampered, reader.header());
    std::uint64_t id = 0;
    std::vector<unsigned char> payload;
    bool rewritten = false;
    while (reader.next_object(id, payload)) {
      if (id == 7) {
        StateReader in(payload.data(), payload.size(), "record 7");
        StateWriter count;
        count.u64(in.u64() + 1);
        std::copy(count.buffer().begin(), count.buffer().end(),
                  payload.begin());
        rewritten = true;
      }
      writer.add_object(id, payload);
    }
    writer.close();
    ASSERT_TRUE(rewritten);
  }

  try {
    StreamingEngine::restore(tampered, test_config(), EngineOptions{},
                             engine_policy_factory(),
                             engine_predictor_factory());
    FAIL() << "restore accepted an event count off by one";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("object 7:"), std::string::npos) << what;
    EXPECT_NE(what.find("event count"), std::string::npos) << what;
  }
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The v3 twin of a v4 snapshot: the same bytes without the slice block
/// and header CRC, with the version set to 3.
std::vector<char> strip_to_v3(const std::string& v4_path) {
  const std::size_t header_end = read_snapshot_header(v4_path).encoded_size();
  std::vector<char> bytes = read_file(v4_path);
  const auto end = bytes.begin() + static_cast<std::ptrdiff_t>(header_end);
  bytes.erase(end - static_cast<std::ptrdiff_t>(SnapshotHeader::kSliceSize),
              end);
  bytes[8] = 3;
  return bytes;
}

/// Restores `path` with the test engine's factories.
std::unique_ptr<StreamingEngine> restore_test_engine(const std::string& path) {
  return StreamingEngine::restore(path, test_config(), EngineOptions{},
                                  engine_policy_factory(),
                                  engine_predictor_factory());
}

/// A checked-in snapshot that the version-4 writer produced: the
/// workloads below, cut by the build before snapshot version 5.
std::string legacy_snapshot(const std::string& name) {
  return std::string(REPL_SNAPSHOT_V4_DIR) + "/" + name;
}

/// A checked-in version-5 snapshot with codec-1 (word codec) records,
/// cut by the last build whose engine could pack its records.
std::string word_snapshot(const std::string& name) {
  return std::string(REPL_SNAPSHOT_V5_WORD_DIR) + "/" + name;
}

// A cluster worker's checkpoint is one file that names its slice, so the
// slice must survive checkpoint -> restore -> checkpoint, with or without
// a bind on the restored engine.
TEST_F(CheckpointFileTest, SliceRoundTripsThroughCheckpointAndRestore) {
  const std::vector<LogEvent> events = interleaved_events(600, 12, 41);
  auto engine = fresh_engine(4, 1);
  engine->ingest(events);
  const std::string unbound = temp_path("unbound.ckpt");
  engine->checkpoint(unbound);
  EXPECT_EQ(read_snapshot_header(unbound).num_partitions, 0u);

  engine->bind_slice(1, 4, 1);
  const std::string bound = temp_path("bound.ckpt");
  engine->checkpoint(bound);
  const SnapshotHeader header = read_snapshot_header(bound);
  EXPECT_EQ(header.version, SnapshotHeader::kVersion);
  EXPECT_EQ(header.partition_id, 1u);
  EXPECT_EQ(header.num_partitions, 4u);
  EXPECT_EQ(header.pf_version, 1u);

  // A restore that never binds carries the slice into its checkpoints,
  // and one that binds the same slice writes the same bytes.
  const std::string carried = temp_path("carried.ckpt");
  restore_test_engine(bound)->checkpoint(carried);
  EXPECT_EQ(read_file(carried), read_file(bound));
  auto rebound = restore_test_engine(bound);
  rebound->bind_slice(1, 4, 1);
  const std::string again = temp_path("again.ckpt");
  rebound->checkpoint(again);
  EXPECT_EQ(read_file(again), read_file(bound));
}

TEST_F(CheckpointFileTest, RestoreRefusesAnotherSlice) {
  const std::vector<LogEvent> events = interleaved_events(600, 12, 43);
  auto engine = fresh_engine(4, 1);
  engine->ingest(events);
  const std::string unbound = temp_path("unbound.ckpt");
  engine->checkpoint(unbound);
  // The same engine's unbound cut as the version-4 writer made it, and
  // its v3 twin.
  const std::string v4 = legacy_snapshot("unbound-drwp-last_gap.ckpt");
  const std::string v3 = temp_path("v3.ckpt");
  write_file(v3, strip_to_v3(v4));
  engine->bind_slice(1, 4, 1);
  const std::string bound = temp_path("bound.ckpt");
  engine->checkpoint(bound);

  const auto expect_refused = [](const std::string& path, std::uint32_t id,
                                 std::uint32_t count, std::uint32_t version,
                                 const std::string& snapshot_side,
                                 const std::string& worker_side) {
    auto restored = restore_test_engine(path);
    try {
      restored->bind_slice(id, count, version);
      FAIL() << "bind_slice accepted " << worker_side;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(snapshot_side), std::string::npos) << what;
      EXPECT_NE(what.find("this worker serves " + worker_side),
                std::string::npos)
          << what;
    }
  };
  const std::string cut_for =
      "snapshot was cut for partition 1 of 4 under partition function 1";
  expect_refused(bound, 2, 4, 1, cut_for,
                 "partition 2 of 4 under partition function 1");
  expect_refused(bound, 1, 8, 1, cut_for,
                 "partition 1 of 8 under partition function 1");
  expect_refused(bound, 1, 4, 2, cut_for,
                 "partition 1 of 4 under partition function 2");
  // An unbound snapshot, v5, v4 or v3, cannot resume a partition.
  for (const std::string& path : {unbound, v4, v3}) {
    SCOPED_TRACE(path);
    expect_refused(path, 0, 2, 1,
                   "snapshot was cut with no partition slice",
                   "partition 0 of 2 under partition function 1");
  }
  // Not a slice at all.
  EXPECT_THROW(fresh_engine(4, 1)->bind_slice(4, 4, 1), std::invalid_argument);
}

/// Flips every bit of `path`'s header, and cuts the file at every header
/// byte: each copy must fail `restore` at the reader, naming the file.
/// Past the version, the header CRC (or a spec length's own check, for
/// a length that runs past its cap or the file) names the cause, and a
/// cut names the truncation.
void expect_every_header_bit_flip_and_cut_rejected(
    const std::string& path, const std::string& probe,
    const std::function<void(const std::string&)>& restore) {
  const std::size_t header_bytes = read_snapshot_header(path).encoded_size();
  const std::vector<char> intact = read_file(path);
  const auto rejection = [&](const std::vector<char>& bytes) -> std::string {
    write_file(probe, bytes);
    try {
      restore(probe);
    } catch (const std::exception& error) {
      return error.what();
    }
    return "";
  };
  std::size_t accepted = 0;
  for (std::size_t byte = 0; byte < header_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> bytes = intact;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      const std::string what = rejection(bytes);
      if (what.empty()) {
        ++accepted;
        ADD_FAILURE() << "byte " << byte << " bit " << bit << " restored";
        continue;
      }
      EXPECT_EQ(what.rfind("checkpoint " + probe + ": ", 0), 0u) << what;
      if (byte >= 12) {
        EXPECT_TRUE(what.find("header CRC mismatch") != std::string::npos ||
                    what.find("spec length") != std::string::npos)
            << "byte " << byte << " bit " << bit << ": " << what;
      }
    }
  }
  EXPECT_EQ(accepted, 0u);
  for (std::size_t cut = 0; cut < header_bytes; ++cut) {
    const std::vector<char> bytes(
        intact.begin(), intact.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_NE(rejection(bytes).find("truncated"), std::string::npos)
        << "cut " << cut;
  }
}

// The header CRC covers every header byte: a single flipped bit
// anywhere in it, or a cut anywhere inside it, fails the restore at the
// reader with a diagnostic naming the cause, before any field is used.
// That holds for a version-4 header as well as for the current one.
TEST_F(CheckpointFileTest, EveryHeaderBitFlipAndTruncationIsRejected) {
  EngineBuilder builder;
  builder.config(test_config()).policy("drwp(alpha=0.3)").predictor("last_gap");
  auto engine = builder.build();
  EventLogHeader log;
  log.num_servers = kServers;
  log.num_objects = 200;
  log.num_events = 4000;
  engine->bind_log(log);
  engine->bind_slice(1, 2, 1);
  engine->ingest(interleaved_events(4000, 200, 47));
  const std::string path = temp_path("header.ckpt");
  engine->checkpoint(path);
  const SnapshotHeader header = read_snapshot_header(path);
  ASSERT_FALSE(header.policy_spec.empty() || header.predictor_spec.empty());
  ASSERT_NE(builder.restore(path), nullptr);
  const std::string probe = temp_path("probe.ckpt");
  expect_every_header_bit_flip_and_cut_rejected(
      path, probe, [&](const std::string& file) { builder.restore(file); });

  const std::string v4 = legacy_snapshot("drwp-last_gap.ckpt");
  ASSERT_EQ(read_snapshot_header(v4).version, 4u);
  SystemConfig config;
  config.num_servers = 10;
  config.transfer_cost = 10.0;
  EngineBuilder legacy;
  legacy.config(config).policy("drwp(alpha=0.3)").predictor("last_gap");
  ASSERT_NE(legacy.restore(v4), nullptr);
  expect_every_header_bit_flip_and_cut_rejected(
      v4, probe, [&](const std::string& file) { legacy.restore(file); });
}

/// One pinned snapshot: a spec pair and the engine it needs; the
/// checked-in files the version-4 writer and the codec-1 version-5
/// writer made of the small log (same name in both directories), with
/// the size and CRC-32C of each and of the v4 file's v3 twin; and the
/// size and CRC-32C of the version-5 file of the full log.
struct PinnedSnapshot {
  const char* policy;
  const char* predictor;
  bool weighted_rates;  // storage rates 1..10, no lower bound
  const char* legacy_file;
  std::uint64_t v4_bytes;
  std::uint32_t v4_crc;
  std::uint64_t v3_bytes;
  std::uint32_t v3_crc;
  std::uint64_t word_bytes;
  std::uint32_t word_crc;
  std::uint64_t bytes;
  std::uint32_t crc;
};

/// The pinned generator's log of `objects` objects and `events` events
/// over 10 servers, written to `path`, and its events.
std::vector<LogEvent> pinned_log(const std::string& path,
                                 std::uint64_t objects, std::uint64_t events) {
  StreamWorkloadConfig workload;
  workload.num_objects = objects;
  workload.num_servers = 10;
  workload.rate = static_cast<double>(objects) / 64.0;
  workload.max_events = events;
  EXPECT_EQ(generate_event_log(workload, 2024, path), events);
  std::vector<LogEvent> out;
  EventLogReader reader(path);
  LogEvent event;
  while (reader.next(event)) out.push_back(event);
  return out;
}

// Snapshot bytes are the on-disk contract: fixtures, live checkpoints and
// worker snapshots written by an older build must restore bit for bit.
// These constants pin the exact files for a fixed log under five spec
// pairs, so a change to any save_state stream, the recorder's layout or
// a component's name() shows up here as a byte difference. The writer
// emits version 5 only, so the version-4 pins are checked-in files its
// predecessor wrote of a small log: each must keep its bytes, strip to
// its v3 twin's, and both must restore and cut exactly the version-5
// file a fresh engine fed the same events writes. The engine cuts
// codec 0 only, so the codec-1 pins are checked-in version-5 files of
// the same log with word-packed records, held to the same rule.
TEST_F(CheckpointFileTest, SnapshotBytesArePinned) {
  const std::vector<LogEvent> events =
      pinned_log(temp_path("pinned.evlog"), 200, 5000);
  const std::string small_log = temp_path("pinned_small.evlog");
  const std::vector<LogEvent> small_events = pinned_log(small_log, 8, 400);

  const PinnedSnapshot pinned[] = {
      {"drwp(alpha=0.3)", "last_gap", false, "drwp-last_gap.ckpt", 8793,
       0x0276501e, 8777, 0x98d3f726, 5351, 0x5ecb557e, 89337, 0xf7bc51e9},
      {"adaptive(alpha=1.5)", "ensemble(last_gap,history(ewma=0.3))", false,
       "adaptive-ensemble.ckpt", 13685, 0x57621c8a, 13669, 0x6bad0a90, 8023,
       0x8bd1e2f3, 134035, 0x55225e26},
      {"randomized(alpha=0.1)", "history(ewma=0.3)", false,
       "randomized-history.ckpt", 9648, 0x12842b59, 9632, 0x1a424903, 6041,
       0xa0f89b0a, 101615, 0xace6b775},
      {"drwp(alpha=0.30000000000000004)", "fixed(within=true)", false,
       "drwp-fixed.ckpt", 7853, 0x71a52ef3, 7837, 0xf09191a6, 4426,
       0x218273fe, 75644, 0x3f824be7},
      {"weighted(alpha=0.3)", "last_gap", true, "weighted-last_gap.ckpt",
       7973, 0x4af439a9, 7957, 0x41722fde, 4568, 0x6cbd1244, 75987,
       0x7e8fc7d7},
  };
  for (const PinnedSnapshot& pin : pinned) {
    SCOPED_TRACE(std::string(pin.policy) + " + " + pin.predictor);
    SystemConfig config;
    config.num_servers = 10;
    config.transfer_cost = 10.0;
    EngineOptions options;
    options.num_shards = 7;
    options.num_threads = 2;
    if (pin.weighted_rates) {
      for (int s = 1; s <= 10; ++s) config.storage_rates.push_back(s);
      options.compute_lower_bound = false;
    }
    EngineBuilder builder;
    builder.config(config).options(options);
    builder.policy(pin.policy).predictor(pin.predictor);
    const auto cut = [&](const std::string& log,
                         const std::vector<LogEvent>& stream) {
      auto engine = builder.build();
      EventLogReader reader(log);
      engine->bind_log(reader.header());
      for (std::size_t at = 0; at < stream.size(); at += 1024) {
        engine->ingest(stream.data() + at,
                       std::min<std::size_t>(1024, stream.size() - at));
      }
      const std::string path = temp_path("pinned.ckpt");
      engine->checkpoint(path);
      return read_file(path);
    };

    // The version-4 file, its v3 twin and the codec-1 file keep their
    // bytes, and each restores into the engine that cuts a fresh
    // engine's codec-0 version-5 file.
    const std::string v4_path = legacy_snapshot(pin.legacy_file);
    const std::vector<char> v4 = read_file(v4_path);
    EXPECT_EQ(v4.size(), pin.v4_bytes);
    EXPECT_EQ(crc32c(v4.data(), v4.size()), pin.v4_crc);
    const std::vector<char> v3 = strip_to_v3(v4_path);
    EXPECT_EQ(v3.size(), pin.v3_bytes);
    EXPECT_EQ(crc32c(v3.data(), v3.size()), pin.v3_crc);
    const std::string v3_path = temp_path("pinned_v3.ckpt");
    write_file(v3_path, v3);
    const std::string word_path = word_snapshot(pin.legacy_file);
    const std::vector<char> word = read_file(word_path);
    EXPECT_EQ(word.size(), pin.word_bytes);
    EXPECT_EQ(crc32c(word.data(), word.size()), pin.word_crc);
    const SnapshotHeader word_header = read_snapshot_header(word_path);
    EXPECT_EQ(word_header.version, 5u);
    EXPECT_EQ(word_header.codec, SnapshotHeader::kCodecWord);
    const std::vector<char> small = cut(small_log, small_events);
    EXPECT_EQ(read_snapshot_header(temp_path("pinned.ckpt")).codec,
              SnapshotHeader::kCodecRaw);
    for (const std::string& legacy : {v4_path, v3_path, word_path}) {
      SCOPED_TRACE(legacy);
      const std::string again = temp_path("pinned_again.ckpt");
      builder.restore(legacy)->checkpoint(again);
      EXPECT_EQ(read_file(again), small);
    }

    const std::vector<char> bytes = cut(temp_path("pinned.evlog"), events);
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(crc32c(bytes.data(), bytes.size()), pin.crc);
  }
}

/// Lowers the soft file-size limit for its lifetime, with SIGXFSZ
/// ignored, so a write past the limit fails with EFBIG instead of
/// killing the process.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &previous_), 0);
    rlimit lowered = previous_;
    lowered.rlim_cur = std::min(bytes, previous_.rlim_max);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

// A cut whose writes fail throws naming the path, removes its temporary
// file and leaves the previous snapshot in place, which still restores
// and resumes bit-identically; the engine cuts again once the cause is
// gone. A failing fsync takes the same path, but a test cannot make one
// fail, so the file-size limit stands in for it.
TEST_F(CheckpointFileTest, FailedWriteFailsTheCutAndKeepsThePreviousOne) {
  const std::vector<LogEvent> events = interleaved_events(6000, 300, 59);
  const std::size_t first = 2000;
  const std::size_t second = 4000;
  auto reference = fresh_engine(4, 1);
  reference->ingest(events);
  const EngineMetrics full = reference->finish();
  const auto expect_full = [&full](const EngineMetrics& metrics) {
    EXPECT_EQ(metrics.objects, full.objects);
    EXPECT_EQ(metrics.num_local, full.num_local);
    EXPECT_EQ(metrics.num_transfers, full.num_transfers);
    EXPECT_EQ(metrics.online_cost, full.online_cost);  // bit-identical
    EXPECT_EQ(metrics.lower_bound, full.lower_bound);
  };
  const auto resume = [&events](const std::string& snapshot,
                                std::size_t at) {
    auto restored = restore_test_engine(snapshot);
    EXPECT_EQ(restored->resume_position(), at);
    restored->ingest(events.data() + at, events.size() - at);
    return restored->finish();
  };

  const std::string path = temp_path("limited.ckpt");
  auto engine = fresh_engine(4, 2);
  engine->ingest(events.data(), first);
  engine->checkpoint(path);
  const std::vector<char> previous = read_file(path);
  engine->ingest(events.data() + first, second - first);
  {
    FileSizeLimit limit(previous.size() / 2);
    try {
      engine->checkpoint(path);
      ADD_FAILURE() << "a cut past the file-size limit succeeded";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
          << error.what();
    }
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(read_file(path), previous);
  expect_full(resume(path, first));

  engine->checkpoint(path);
  expect_full(resume(path, second));
  engine->ingest(events.data() + second, events.size() - second);
  expect_full(engine->finish());
}

/// One seeded mutation of a version-5 record payload, named in `name`.
/// Besides byte flips, cuts and extensions it breaks the lower-bound
/// table, the first table of every record with the bound on: its count
/// sits at byte 25 (event count, presence flag, two accumulators),
/// server i's one-byte id at 26 + 9i and its entry, one binary64 whose
/// untouched default is −inf, right after.
void mutate_payload(std::vector<unsigned char>& payload, Rng& rng,
                    std::string& name) {
  ASSERT_GT(payload.size(), 26u);
  ASSERT_EQ(payload[8], 1);  // the lower bound is present
  const std::size_t count = payload[25];
  ASSERT_LE(26 + 9 * count, payload.size());
  switch (rng.uniform_index(6)) {
    case 5: {
      if (count == 0) break;
      const std::size_t i = rng.uniform_index(count);
      StateWriter untouched;
      untouched.f64(-std::numeric_limits<double>::infinity());
      std::copy(untouched.buffer().begin(), untouched.buffer().end(),
                payload.begin() + static_cast<std::ptrdiff_t>(27 + 9 * i));
      name = "entry " + std::to_string(i) + " at its default";
      return;
    }
    case 0: {
      const std::size_t byte = rng.uniform_index(payload.size());
      const int bit = static_cast<int>(rng.uniform_index(8));
      payload[byte] = static_cast<unsigned char>(payload[byte] ^ (1 << bit));
      name = "flip byte " + std::to_string(byte) + " bit " +
             std::to_string(bit);
      return;
    }
    case 1: {
      const std::size_t keep = rng.uniform_index(payload.size());
      payload.resize(keep);
      name = "truncate to " + std::to_string(keep);
      return;
    }
    case 2: {
      const std::size_t extra = 1 + rng.uniform_index(8);
      for (std::size_t i = 0; i < extra; ++i) {
        payload.push_back(static_cast<unsigned char>(rng.uniform_index(256)));
      }
      name = "extend by " + std::to_string(extra);
      return;
    }
    case 3: {
      const auto value = static_cast<unsigned char>(
          rng.bernoulli(0.5) ? 11 + rng.uniform_index(117)
                             : count + (rng.bernoulli(0.5) ? 1 : 0) - 1 +
                                   (count == 0 ? 2 : 0));
      payload[25] = value;
      name = "table count " + std::to_string(count) + " -> " +
             std::to_string(value);
      return;
    }
    default: {
      if (count < 2) {
        payload[26] = static_cast<unsigned char>(10 + rng.uniform_index(118));
        name = "server id out of range";
        return;
      }
      const std::size_t i = 1 + rng.uniform_index(count - 1);
      unsigned char& id = payload[26 + 9 * i];
      const unsigned char before = payload[26 + 9 * (i - 1)];
      switch (rng.uniform_index(3)) {
        case 0:
          id = static_cast<unsigned char>(10 + rng.uniform_index(118));
          name = "server id out of range";
          break;
        case 1:
          id = before;
          name = "server id repeated";
          break;
        default:
          id = static_cast<unsigned char>(rng.uniform_index(before + 1u));
          name = "server id descending";
          break;
      }
      name += " at entry " + std::to_string(i);
      return;
    }
  }
}

// Record payloads that pass every CRC but break the decoder's rules: a
// seeded mutator rewrites one record of a version-5 snapshot at a time
// through SnapshotWriter, so the CRCs are valid. Each restore must fail
// with a std::runtime_error naming the object, or succeed and cut that
// record back to the same bytes: the decoder accepts only what the
// encoder writes.
TEST_F(CheckpointFileTest, HostileRecordPayloadsFailOrRecutToTheirBytes) {
  const std::string log = temp_path("hostile.evlog");
  const std::vector<LogEvent> events = pinned_log(log, 40, 3000);
  const std::pair<const char*, const char*> pairs[] = {
      {"drwp(alpha=0.3)", "last_gap"},
      {"adaptive(alpha=1.5)", "ensemble(last_gap,history(ewma=0.3))"},
      {"randomized(alpha=0.1)", "history(ewma=0.3)"},
  };
  Rng rng(0x4057113);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (const auto& [policy, predictor] : pairs) {
    SCOPED_TRACE(std::string(policy) + " + " + predictor);
    SystemConfig config;
    config.num_servers = 10;
    config.transfer_cost = 10.0;
    EngineBuilder builder;
    builder.config(config).policy(policy).predictor(predictor);
    auto engine = builder.build();
    engine->ingest(events);
    const std::string base = temp_path("hostile.ckpt");
    engine->checkpoint(base);
    SnapshotReader reader(base);
    const SnapshotHeader header = reader.header();
    std::vector<std::pair<std::uint64_t, std::vector<unsigned char>>> records;
    {
      std::uint64_t id = 0;
      std::vector<unsigned char> payload;
      while (reader.next_object(id, payload)) records.emplace_back(id, payload);
    }
    ASSERT_EQ(records.size(), 40u);

    for (int round = 0; round < 160; ++round) {
      const std::size_t k = rng.uniform_index(records.size());
      const std::uint64_t id = records[k].first;
      std::vector<unsigned char> payload = records[k].second;
      std::string name;
      mutate_payload(payload, rng, name);
      if (payload == records[k].second) continue;
      SCOPED_TRACE("object " + std::to_string(id) + ": " + name);
      SnapshotHeader rewritten = header;
      rewritten.codec = round % 2 == 0 ? SnapshotHeader::kCodecRaw
                                       : SnapshotHeader::kCodecWord;
      const std::string hostile = temp_path("hostile_mutated.ckpt");
      {
        SnapshotWriter writer(hostile, rewritten);
        for (std::size_t i = 0; i < records.size(); ++i) {
          writer.add_object(records[i].first,
                            i == k ? payload : records[i].second);
        }
        writer.close();
      }
      std::unique_ptr<StreamingEngine> restored;
      try {
        restored = builder.restore(hostile);
      } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("object " + std::to_string(id) + ":"),
                  std::string::npos)
            << what;
        ++rejected;
        continue;
      }
      const std::string recut = temp_path("hostile_recut.ckpt");
      restored->checkpoint(recut);
      SnapshotReader again(recut);
      std::uint64_t recut_id = 0;
      std::vector<unsigned char> recut_payload;
      while (again.next_object(recut_id, recut_payload) && recut_id != id) {
      }
      ASSERT_EQ(recut_id, id);
      EXPECT_EQ(recut_payload, payload);
      ++accepted;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace repl
