#include "replay/fixture_run.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "api/experiment.hpp"
#include "checkpoint/snapshot.hpp"
#include "cluster/control.hpp"
#include "net/wire.hpp"
#include "replay/structure.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff_aggregates(const FixtureAggregates& want,
                            const FixtureAggregates& got) {
  std::ostringstream os;
  const auto count = [&](const char* name, std::uint64_t w, std::uint64_t g) {
    if (w != g) os << name << " " << w << " -> " << g << "; ";
  };
  count("objects", want.objects, got.objects);
  count("events", want.events, got.events);
  count("num_local", want.num_local, got.num_local);
  count("num_transfers", want.num_transfers, got.num_transfers);
  const auto real = [&](const char* name, double w, double g) {
    if (!bits_equal(w, g)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s %.17g (%016llx) -> %.17g (%016llx); ",
                    name, w,
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(w)),
                    g,
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(g)));
      os << buf;
    }
  };
  real("online_cost", want.online_cost, got.online_cost);
  real("lower_bound", want.lower_bound, got.lower_bound);
  return os.str();
}

EngineBuilder make_builder(const Fixture& fixture,
                           const FixtureRunOptions& options) {
  EngineOptions engine_options;
  if (options.num_shards > 0) engine_options.num_shards = options.num_shards;
  engine_options.num_threads = options.num_threads;
  engine_options.compute_lower_bound = fixture.compute_lower_bound;
  engine_options.base_seed = fixture.base_seed;
  EngineBuilder builder;
  builder.config(fixture.system_config())
      .options(engine_options)
      .policy(fixture.policy_spec)
      .predictor(fixture.predictor_spec);
  return builder;
}

FixtureAggregates to_aggregates(const EngineMetrics& metrics) {
  FixtureAggregates a;
  a.objects = metrics.objects;
  a.events = metrics.events;
  a.num_local = metrics.num_local;
  a.num_transfers = metrics.num_transfers;
  a.online_cost = metrics.online_cost;
  a.lower_bound = metrics.lower_bound;
  return a;
}

/// Serves the fixture's slice end to end and returns the aggregates.
FixtureAggregates replay_serve(const Fixture& fixture,
                               const FixtureRunOptions& options,
                               const ScratchDir& scratch) {
  const std::string slice = scratch.file("slice.evlog");
  write_bytes(slice, fixture.blob);
  EngineBuilder builder = make_builder(fixture, options);

  if (options.verify_cuts) {
    // Every recorded cut is a restart point: snapshot there, restore
    // into a fresh engine, and the finished aggregates must not care.
    for (std::uint64_t cut : fixture.cuts) {
      if (cut == 0 || cut > fixture.slice_events) continue;
      const std::string ckpt = scratch.file("cut.ckpt");
      {
        auto engine = builder.build();
        EventLogReader reader(slice);
        engine->bind_log(reader.header());
        std::vector<LogEvent> batch;
        std::uint64_t remaining = cut;
        while (remaining > 0) {
          const std::size_t want = static_cast<std::size_t>(
              std::min<std::uint64_t>(remaining, options.batch_events));
          if (reader.read_batch(batch, want) == 0) {
            throw std::runtime_error(
                "fixture cut " + std::to_string(cut) +
                " lies past the embedded slice (" +
                std::to_string(cut - remaining) + " events)");
          }
          engine->ingest(batch);
          remaining -= batch.size();
        }
        engine->checkpoint(ckpt);
      }
      auto resumed = builder.restore(ckpt);
      EventLogReader reader(slice);
      ServeOptions serve_options;
      serve_options.batch_events = options.batch_events;
      const FixtureAggregates got =
          to_aggregates(resumed->serve(reader, serve_options));
      const std::string diff = diff_aggregates(fixture.aggregates, got);
      if (!diff.empty()) {
        throw std::runtime_error("aggregates diverge after restart at cut " +
                                 std::to_string(cut) + ": " + diff);
      }
    }
  }

  auto engine = builder.build();
  EventLogReader reader(slice);
  ServeOptions serve_options;
  serve_options.batch_events = options.batch_events;
  return to_aggregates(engine->serve(reader, serve_options));
}

/// Drains the embedded snapshot; objects = records, events = payload
/// bytes (a cheap content fingerprint on top of the record count).
FixtureAggregates replay_snapshot(const Fixture& fixture,
                                  const ScratchDir& scratch) {
  const std::string path = scratch.file("snapshot.ckpt");
  write_bytes(path, fixture.blob);
  SnapshotReader reader(path);
  FixtureAggregates a;
  std::uint64_t id = 0;
  std::vector<unsigned char> payload;
  while (reader.next_object(id, payload)) {
    ++a.objects;
    a.events += payload.size();
  }
  return a;
}

/// Feeds the embedded wire bytes through a FrameAssembler in a fixed
/// cycle of chunk sizes (splitting inside headers, frames, and payloads)
/// — the recv-boundary torture the socket front-end sees.
FixtureAggregates replay_wire(const Fixture& fixture) {
  FrameAssembler assembler("wire fixture");
  std::vector<LogEvent> events;
  static constexpr std::size_t kChunks[] = {1, 3, 16, 7, 4096, 2};
  std::size_t at = 0;
  std::size_t turn = 0;
  while (at < fixture.blob.size()) {
    const std::size_t take =
        std::min(kChunks[turn++ % std::size(kChunks)],
                 fixture.blob.size() - at);
    assembler.feed(fixture.blob.data() + at, take, events);
    at += take;
  }
  if (!assembler.at_boundary()) {
    throw std::runtime_error(
        "wire stream ends mid-frame (truncated stream — a live peer "
        "closing here would be a mid-frame disconnect) after " +
        std::to_string(assembler.frames_completed()) + " frames, byte " +
        std::to_string(assembler.bytes_consumed()));
  }
  FixtureAggregates a;
  a.objects = assembler.frames_completed();
  a.events = assembler.events_decoded();
  return a;
}

/// Feeds the embedded control-stream bytes through a
/// ClusterControlAssembler under the same chunk-boundary torture as the
/// wire replay. Unlike the event wire, a clean close is only legal
/// after the terminal summary, so an incomplete stream is a failure
/// even at a frame boundary.
FixtureAggregates replay_cluster(const Fixture& fixture) {
  ClusterControlAssembler assembler("cluster fixture");
  std::vector<ControlMessage> messages;
  static constexpr std::size_t kChunks[] = {1, 3, 16, 7, 4096, 2};
  std::size_t at = 0;
  std::size_t turn = 0;
  while (at < fixture.blob.size()) {
    const std::size_t take =
        std::min(kChunks[turn++ % std::size(kChunks)],
                 fixture.blob.size() - at);
    assembler.feed(fixture.blob.data() + at, take, messages);
    at += take;
  }
  if (!assembler.at_boundary()) {
    throw std::runtime_error(
        "control stream ends mid-frame after " +
        std::to_string(assembler.frames_completed()) + " frames, byte " +
        std::to_string(assembler.bytes_consumed()));
  }
  if (!assembler.complete()) {
    throw std::runtime_error(
        "control stream closed before its terminal summary (" +
        std::to_string(assembler.frames_completed()) +
        " frames — the coordinator would fail this worker)");
  }
  FixtureAggregates a;
  a.objects = assembler.messages_decoded();
  a.events = assembler.finals_records();
  return a;
}

}  // namespace

FixtureRunResult fixture_run(const Fixture& fixture,
                             const FixtureRunOptions& options) {
  FixtureRunResult result;
  ScratchDir scratch(options.scratch_dir);
  bool failed = false;
  std::string diagnostic;
  FixtureAggregates got;
  try {
    switch (fixture.target) {
      case FixtureTarget::kServe:
        got = replay_serve(fixture, options, scratch);
        break;
      case FixtureTarget::kSnapshot:
        got = replay_snapshot(fixture, scratch);
        break;
      case FixtureTarget::kWire:
        got = replay_wire(fixture);
        break;
      case FixtureTarget::kCluster:
        got = replay_cluster(fixture);
        break;
    }
  } catch (const std::exception& e) {
    failed = true;
    diagnostic = e.what();
    result.signature = failure_signature(diagnostic);
  }

  if (fixture.expect == FixtureExpect::kParity) {
    if (failed) {
      result.detail = "replay failed, parity expected: " + diagnostic;
      return result;
    }
    result.aggregates = got;
    const std::string diff = diff_aggregates(fixture.aggregates, got);
    if (!diff.empty()) {
      result.detail = "aggregates differ from the recorded ones: " + diff;
      return result;
    }
    result.pass = true;
    return result;
  }

  // Failure fixture: the replay must fail, the same way.
  if (!failed) {
    result.detail =
        "replay succeeded, failure expected (signature: " +
        fixture.signature + ")";
    return result;
  }
  if (result.signature != fixture.signature) {
    result.detail = "failure signature changed:\n  recorded: " +
                    fixture.signature + "\n  observed: " + result.signature +
                    "\n  (diagnostic: " + diagnostic + ")";
    return result;
  }
  result.pass = true;
  return result;
}

FixtureRunResult fixture_run(const std::string& path,
                             const FixtureRunOptions& options) {
  return fixture_run(read_fixture(path), options);
}

}  // namespace repl
