// Replay subsystem tests: fixture format round trip and corruption
// rejection, failure-signature normalization, capture → replay
// bit-parity across slice formats and checkpointing, the structured
// fuzzer's determinism and zero-escape invariant, and minimizer
// convergence on a large failing input.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "checkpoint/snapshot.hpp"
#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "replay/fixture.hpp"
#include "replay/fixture_run.hpp"
#include "replay/fuzz.hpp"
#include "replay/minimize.hpp"
#include "replay/structure.hpp"
#include "trace/event_log.hpp"

namespace repl {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return (dir_ / name).string();
  }

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_replay_test_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

std::vector<LogEvent> make_events(std::size_t n) {
  std::vector<LogEvent> events;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 0.125 * static_cast<double>(1 + (i % 5));
    events.push_back(
        LogEvent{t, (i * 13) % 29, static_cast<std::uint32_t>(i % 3)});
  }
  return events;
}

std::string write_event_log(const std::string& path,
                            const std::vector<LogEvent>& events,
                            EventLogFormat format,
                            std::size_t block_events = kEventLogBlockEvents) {
  EventLogWriter writer(path, /*num_servers=*/3, /*num_objects=*/0, format,
                        block_events);
  for (const LogEvent& event : events) writer.write(event);
  writer.close();
  return path;
}

TEST_F(ReplayTest, FixtureRoundTripsEveryField) {
  Fixture fixture;
  fixture.target = FixtureTarget::kServe;
  fixture.expect = FixtureExpect::kFailure;
  fixture.policy_spec = "drwp(alpha=0.3)";
  fixture.predictor_spec = "last_gap";
  fixture.source_name = "unit-test";
  fixture.num_servers = 5;
  fixture.transfer_cost = 2.5;
  fixture.initial_server = 1;
  fixture.storage_rates = {0.5, 1.0, 1.5, 2.0, 2.5};
  fixture.base_seed = 42;
  fixture.compute_lower_bound = false;
  fixture.slice_first_event = 7;
  fixture.slice_events = 123;
  fixture.slice_begin_byte = 32;
  fixture.slice_end_byte = 4096;
  fixture.cuts = {10, 20, 30};
  fixture.aggregates.objects = 29;
  fixture.aggregates.events = 123;
  fixture.aggregates.num_local = 60;
  fixture.aggregates.num_transfers = 9;
  fixture.aggregates.online_cost = 17.125;
  fixture.aggregates.lower_bound = 11.0625;
  fixture.signature = "event log slice.evlog: something # happened";
  fixture.blob = {0x01, 0x02, 0x03, 0xff, 0x00, 0x7f};

  const std::string path = temp_path("roundtrip.replfixt");
  write_fixture(path, fixture);
  const Fixture back = read_fixture(path);

  EXPECT_EQ(back.target, fixture.target);
  EXPECT_EQ(back.expect, fixture.expect);
  EXPECT_EQ(back.policy_spec, fixture.policy_spec);
  EXPECT_EQ(back.predictor_spec, fixture.predictor_spec);
  EXPECT_EQ(back.source_name, fixture.source_name);
  EXPECT_EQ(back.num_servers, fixture.num_servers);
  EXPECT_EQ(back.transfer_cost, fixture.transfer_cost);
  EXPECT_EQ(back.initial_server, fixture.initial_server);
  EXPECT_EQ(back.storage_rates, fixture.storage_rates);
  EXPECT_EQ(back.base_seed, fixture.base_seed);
  EXPECT_EQ(back.compute_lower_bound, fixture.compute_lower_bound);
  EXPECT_EQ(back.slice_first_event, fixture.slice_first_event);
  EXPECT_EQ(back.slice_events, fixture.slice_events);
  EXPECT_EQ(back.slice_begin_byte, fixture.slice_begin_byte);
  EXPECT_EQ(back.slice_end_byte, fixture.slice_end_byte);
  EXPECT_EQ(back.cuts, fixture.cuts);
  EXPECT_EQ(back.aggregates.objects, fixture.aggregates.objects);
  EXPECT_EQ(back.aggregates.events, fixture.aggregates.events);
  EXPECT_EQ(back.aggregates.num_local, fixture.aggregates.num_local);
  EXPECT_EQ(back.aggregates.num_transfers, fixture.aggregates.num_transfers);
  EXPECT_EQ(back.aggregates.online_cost, fixture.aggregates.online_cost);
  EXPECT_EQ(back.aggregates.lower_bound, fixture.aggregates.lower_bound);
  EXPECT_EQ(back.signature, fixture.signature);
  EXPECT_EQ(back.blob, fixture.blob);
}

TEST_F(ReplayTest, FixtureFileRejectsEveryFlippedByte) {
  Fixture fixture;
  fixture.target = FixtureTarget::kWire;
  fixture.source_name = "flip";
  fixture.blob = {1, 2, 3, 4, 5};
  const std::string path = temp_path("flip.replfixt");
  write_fixture(path, fixture);
  const std::vector<unsigned char> bytes = read_bytes(path);

  const std::string corrupt = temp_path("flip_corrupt.replfixt");
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::vector<unsigned char> mutated = bytes;
    mutated[offset] ^= 0x20;
    write_bytes(corrupt, mutated);
    EXPECT_THROW(read_fixture(corrupt), std::runtime_error)
        << "flipped byte " << offset << " went undetected";
  }
}

TEST_F(ReplayTest, SnapshotWalkSurvivesTruncationAtEveryByte) {
  // Regression: a v2+ snapshot truncated inside the extension header
  // (64..87 bytes) used to underflow the walker's size_t arithmetic and
  // read past the buffer. Every prefix must walk cleanly, including cuts
  // inside v4's slice block and header CRC, and a well-formed header
  // claim must stay inside the bytes it was given.
  SnapshotHeader header;
  header.num_servers = 3;
  header.num_objects = 2;
  header.policy_spec = "drwp(alpha=0.3)";
  header.predictor_spec = "last_gap";
  header.partition_id = 1;
  header.num_partitions = 2;
  header.pf_version = 1;
  const std::string path = temp_path("walk.ckpt");
  {
    SnapshotWriter writer(path, header);
    writer.add_object(1, {0x10, 0x20, 0x30});
    writer.add_object(4, {0x40});
    writer.close();
  }
  const std::vector<unsigned char> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), SnapshotHeader::kSize + SnapshotHeader::kExtensionSize);
  const SnapshotImage whole = walk_snapshot_image(bytes);
  EXPECT_TRUE(whole.header_ok && whole.header_crc_ok && whole.footer_present);
  EXPECT_EQ(whole.header_bytes, header.encoded_size());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::vector<unsigned char> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    for (const std::uint32_t version :
         {std::uint32_t{4}, std::uint32_t{3}, std::uint32_t{2}}) {
      if (version != 4) {
        if (prefix.size() < 12) continue;
        store_le32(prefix.data() + 8, version);
      }
      const SnapshotImage image = walk_snapshot_image(prefix);
      EXPECT_LE(image.header_bytes, prefix.size()) << "cut " << cut;
      EXPECT_LE(image.tail_offset, prefix.size()) << "cut " << cut;
      if (version == 4 && cut < header.encoded_size()) {
        EXPECT_FALSE(image.header_ok) << "cut " << cut;
      }
      if (cut < bytes.size()) {
        EXPECT_FALSE(image.header_ok && image.records.size() == 2 &&
                     image.footer_present)
            << "cut " << cut << " walked as complete";
      }
    }
  }

  // End-to-end reachability from the review: minimizing a fixture whose
  // blob is a snapshot cut mid-extension drives build_snapshot_model
  // over exactly these truncated bytes.
  Fixture fixture;
  fixture.target = FixtureTarget::kSnapshot;
  fixture.expect = FixtureExpect::kFailure;
  fixture.source_name = "truncated-extension";
  fixture.blob.assign(bytes.begin(), bytes.begin() + 70);
  const MinimizeResult result = minimize_fixture(fixture);
  EXPECT_FALSE(result.signature.empty());
  const FixtureRunResult replay = fixture_run(result.fixture);
  EXPECT_TRUE(replay.pass) << replay.detail;
}

TEST_F(ReplayTest, SnapshotCountPatchReachesTheRecordChecks) {
  // The dup-record mutation and the minimizer rewrite a v4 header's
  // object count. The patch reseals the header CRC, so the reader's
  // verdict comes from the records, not the header; a header whose CRC
  // already failed stays failed.
  SnapshotHeader header;
  header.num_servers = 3;
  header.num_objects = 2;
  const std::string path = temp_path("count.ckpt");
  {
    SnapshotWriter writer(path, header);
    writer.add_object(1, {0x10, 0x20});
    writer.add_object(4, {0x40});
    writer.close();
  }
  const std::vector<unsigned char> bytes = read_bytes(path);
  const SnapshotImage image = walk_snapshot_image(bytes);
  ASSERT_EQ(image.records.size(), 2u);
  const auto reader_verdict = [&](const std::vector<unsigned char>& file) {
    write_bytes(path, file);
    try {
      SnapshotReader reader(path);
      std::uint64_t id = 0;
      std::vector<unsigned char> payload;
      while (reader.next_object(id, payload)) {
      }
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string();
  };

  // Record 1 duplicated, count raised to 3: the ids break order.
  const SegmentSpan& last = image.records[1];
  std::vector<unsigned char> dup(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(last.end()));
  dup.insert(dup.end(),
             bytes.begin() + static_cast<std::ptrdiff_t>(last.offset),
             bytes.end());
  patch_snapshot_object_count(dup, 3);
  EXPECT_TRUE(walk_snapshot_image(dup).header_crc_ok);
  EXPECT_NE(reader_verdict(dup).find("object ids out of order"),
            std::string::npos);

  // Count lowered to 1: the footer is missing where the header says.
  std::vector<unsigned char> fewer = bytes;
  patch_snapshot_object_count(fewer, 1);
  EXPECT_NE(reader_verdict(fewer).find("bad footer magic"), std::string::npos);

  // A header that failed its CRC before the patch is not resealed.
  std::vector<unsigned char> broken = bytes;
  broken[40] ^= 0x01;  // base_seed
  patch_snapshot_object_count(broken, 2);
  EXPECT_FALSE(walk_snapshot_image(broken).header_crc_ok);
  EXPECT_NE(reader_verdict(broken).find("header CRC mismatch"),
            std::string::npos);
}

// Recomputes a patched fixture's trailing CRC, so the mutation reaches
// the metadata decoder instead of the CRC check.
void reseal_fixture(std::vector<unsigned char>& bytes) {
  const std::size_t crc_at = bytes.size() - 12;
  store_le32(bytes.data() + crc_at, crc32c(bytes.data(), crc_at));
}

// Overwrites the u32 at `at` and reseals the fixture.
void patch_fixture_u32(std::vector<unsigned char>& bytes, std::size_t at,
                       std::uint32_t value) {
  ASSERT_LT(at + 4, bytes.size() - 12);
  store_le32(bytes.data() + at, value);
  reseal_fixture(bytes);
}

// Where the cost horizon (f64) sits in `fixture`'s file (see
// write_fixture): the three spec strings, num_servers, λ, the initial
// server, the storage rates and the seed come first. The
// compute_lower_bound byte and the snapshot-codec byte follow it.
std::size_t fixture_horizon_at(const Fixture& fixture) {
  return 32 + (4 + fixture.policy_spec.size()) +
         (4 + fixture.predictor_spec.size()) +
         (4 + fixture.source_name.size()) + 4 + 8 + 4 +
         (4 + 8 * fixture.storage_rates.size()) + 8;
}

TEST_F(ReplayTest, FixtureRejectsImplausibleServerAndRateCounts) {
  // Regression: num_servers and the storage-rate count are untrusted
  // u32s; uncapped they drove an int overflow (SystemConfig) and a
  // multi-GB resize respectively. Both must fail with a diagnostic.
  Fixture fixture;
  fixture.policy_spec = "p";
  fixture.predictor_spec = "q";
  fixture.source_name = "s";
  fixture.num_servers = 2;
  fixture.storage_rates = {1.0, 2.0};
  const std::string path = temp_path("counts.replfixt");
  write_fixture(path, fixture);
  const std::vector<unsigned char> sealed = read_bytes(path);

  // Meta field offsets (see write_fixture): three length-prefixed spec
  // strings, then num_servers u32, transfer_cost f64, initial_server
  // i32, rate count u32.
  const std::size_t meta_at = 32;
  const std::size_t servers_at = meta_at + (4 + fixture.policy_spec.size()) +
                                 (4 + fixture.predictor_spec.size()) +
                                 (4 + fixture.source_name.size());
  const std::size_t rates_at = servers_at + 4 + 8 + 4;

  const auto read_failure = [&](const std::vector<unsigned char>& bytes) {
    const std::string corrupt = temp_path("counts_bad.replfixt");
    write_bytes(corrupt, bytes);
    try {
      read_fixture(corrupt);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  {
    std::vector<unsigned char> mutated = sealed;
    patch_fixture_u32(mutated, servers_at, 0xFFFFFFFFu);
    EXPECT_NE(read_failure(mutated).find("implausible server count"),
              std::string::npos);
  }
  {
    std::vector<unsigned char> mutated = sealed;
    patch_fixture_u32(mutated, servers_at, 0);
    EXPECT_NE(read_failure(mutated).find("implausible server count"),
              std::string::npos);
  }
  {
    // A server count at the cap is fine, but a rate count claiming more
    // doubles than the metadata holds must fail before any resize.
    std::vector<unsigned char> mutated = sealed;
    patch_fixture_u32(mutated, servers_at, 1u << 20);
    patch_fixture_u32(mutated, rates_at, 1u << 20);
    EXPECT_NE(read_failure(mutated).find("implausible storage-rate count"),
              std::string::npos);
  }

  // The untouched fixture still reads back.
  EXPECT_EQ(read_fixture(path).num_servers, 2u);
}

// Engines bill each object up to its final request, so the metadata's
// horizon field must read -1: writers emit -1 and a codec byte of 0, and
// a reader names any other horizon instead of replaying it wrongly.
TEST_F(ReplayTest, FixtureRejectsAnyCostHorizonButTheFinalRequest) {
  Fixture fixture;
  fixture.policy_spec = "p";
  fixture.predictor_spec = "q";
  fixture.source_name = "s";
  fixture.num_servers = 2;
  fixture.storage_rates = {1.0, 2.0};
  const std::string path = temp_path("horizon.replfixt");
  write_fixture(path, fixture);
  std::vector<unsigned char> bytes = read_bytes(path);
  const std::size_t horizon_at = fixture_horizon_at(fixture);
  EXPECT_EQ(std::bit_cast<double>(load_le64(bytes.data() + horizon_at)),
            -1.0);
  EXPECT_EQ(bytes[horizon_at + 8], 1);  // compute_lower_bound
  EXPECT_EQ(bytes[horizon_at + 9], 0);  // snapshot codec

  store_le64(bytes.data() + horizon_at, std::bit_cast<std::uint64_t>(99.5));
  reseal_fixture(bytes);
  const std::string patched = temp_path("horizon_99.replfixt");
  write_bytes(patched, bytes);
  try {
    read_fixture(patched);
    FAIL() << "read_fixture accepted a cost horizon of 99.5";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("cost horizon 99.5"),
              std::string::npos)
        << error.what();
  }
}

// A fixture captured while its engine wrote word-codec snapshots records
// codec byte 1; the snapshot codec never changed aggregates, so such a
// fixture still reads and replays, its cuts included.
TEST_F(ReplayTest, FixtureWithCodecByteOneReadsAndReplays) {
  const std::string log_path = write_event_log(
      temp_path("source.evlog"), make_events(600), EventLogFormat::kRaw);
  SystemConfig config;
  config.num_servers = 3;
  EngineBuilder builder;
  builder.config(config).policy("drwp(alpha=0.3)").predictor("last_gap");
  ServeOptions serve;
  serve.batch_events = 128;
  serve.checkpoint_every = 150;
  serve.checkpoint_path = temp_path("serve.ckpt");
  CaptureOptions capture;
  capture.path = temp_path("captured.replfixt");
  capture.source_name = log_path;
  serve.capture = capture;
  EventLogReader reader(log_path);
  builder.build()->serve(reader, serve);

  std::vector<unsigned char> bytes = read_bytes(capture.path);
  const std::size_t codec_at =
      fixture_horizon_at(read_fixture(capture.path)) + 9;
  ASSERT_EQ(bytes[codec_at], 0);
  bytes[codec_at] = 1;
  reseal_fixture(bytes);
  const std::string patched = temp_path("codec1.replfixt");
  write_bytes(patched, bytes);

  const Fixture fixture = read_fixture(patched);
  EXPECT_EQ(fixture.cuts.size(), 4u);
  FixtureRunOptions run;
  run.verify_cuts = true;
  const FixtureRunResult result = fixture_run(fixture, run);
  EXPECT_TRUE(result.pass) << result.detail;
}

TEST_F(ReplayTest, FailureSignatureNormalizesPathsAndDigits) {
  EXPECT_EQ(failure_signature(
                "event log /tmp/replfixt-123-4/slice.evlog: CRC mismatch "
                "(corrupt block) (block 17, byte offset 4242)"),
            "event log slice.evlog: CRC mismatch (corrupt block) (block #, "
            "byte offset #)");
  // Signatures are stable across scratch directories and positions.
  EXPECT_EQ(failure_signature("log /a/b/x.evlog: bad 1 at 999"),
            failure_signature("log /other/dir/x.evlog: bad 7 at 3"));
}

TEST_F(ReplayTest, CaptureReplayParityAcrossFormatsAndCheckpoints) {
  const std::vector<LogEvent> events = make_events(600);
  const std::string log_path = write_event_log(
      temp_path("source.evlog"), events, EventLogFormat::kCompressed, 64);

  for (const EventLogFormat slice_format :
       {EventLogFormat::kRaw, EventLogFormat::kCompressed}) {
    for (const std::uint64_t checkpoint_every : {std::uint64_t{0},
                                                 std::uint64_t{150}}) {
      const std::string label =
          std::string(event_log_format_name(slice_format)) + "-ckpt" +
          std::to_string(checkpoint_every);

      SystemConfig config;
      config.num_servers = 3;
      EngineBuilder builder;
      builder.config(config).policy("drwp(alpha=0.3)").predictor("last_gap");
      auto engine = builder.build();

      const std::string fixture_path = temp_path(label + ".replfixt");
      ServeOptions serve;
      serve.batch_events = 128;
      serve.checkpoint_every = checkpoint_every;
      if (checkpoint_every > 0) {
        serve.checkpoint_path = temp_path(label + ".ckpt");
      }
      CaptureOptions capture;
      capture.path = fixture_path;
      capture.log_format = slice_format;
      capture.source_name = log_path;
      serve.capture = capture;

      EventLogReader reader(log_path);
      engine->serve(reader, serve);

      const Fixture fixture = read_fixture(fixture_path);
      EXPECT_EQ(fixture.slice_events, events.size()) << label;
      EXPECT_EQ(fixture.cuts.size(), checkpoint_every > 0 ? 4u : 0u) << label;

      // Replay must reproduce the aggregates bit-exactly — including
      // when every recorded cut is checkpointed, restored, and finished.
      FixtureRunOptions run;
      run.verify_cuts = checkpoint_every > 0;
      const FixtureRunResult result = fixture_run(fixture, run);
      EXPECT_TRUE(result.pass) << label << ": " << result.detail;

      // And the parity check has teeth: a single-ulp aggregate nudge
      // fails the replay.
      Fixture tampered = fixture;
      tampered.aggregates.online_cost =
          tampered.aggregates.online_cost * (1.0 + 1e-15) + 1e-300;
      const FixtureRunResult mismatch = fixture_run(tampered);
      EXPECT_FALSE(mismatch.pass) << label;
      EXPECT_NE(mismatch.detail.find("aggregates differ"), std::string::npos)
          << label << ": " << mismatch.detail;
    }
  }
}

TEST_F(ReplayTest, FuzzerIsDeterministicPerSeed) {
  for (const FuzzTarget target :
       {FuzzTarget::kLog, FuzzTarget::kSnapshot, FuzzTarget::kWire,
        FuzzTarget::kCluster}) {
    FuzzOptions options;
    options.seed = 5;
    options.cases = 40;
    const FuzzReport first = fuzz_format(target, options);
    const FuzzReport second = fuzz_format(target, options);
    EXPECT_EQ(first.trace, second.trace) << fuzz_target_name(target);
    EXPECT_EQ(first.accepted, second.accepted) << fuzz_target_name(target);
    EXPECT_EQ(first.rejected, second.rejected) << fuzz_target_name(target);

    options.seed = 6;
    const FuzzReport other = fuzz_format(target, options);
    EXPECT_NE(first.trace, other.trace) << fuzz_target_name(target);
  }
}

TEST_F(ReplayTest, FuzzSmokeFindsNoEscapes) {
  // The zero-escape invariant on a small budget: every mutation either
  // decodes to the expected result or is rejected with a positioned
  // diagnostic. (CI runs the same check with bigger budgets.)
  for (const FuzzTarget target :
       {FuzzTarget::kLog, FuzzTarget::kSnapshot, FuzzTarget::kWire,
        FuzzTarget::kCluster}) {
    FuzzOptions options;
    options.seed = 11;
    options.cases = 80;
    const FuzzReport report = fuzz_format(target, options);
    std::string escapes;
    for (const FuzzFailure& failure : report.failures) {
      escapes += failure.mutation + ": " + failure.detail + "\n";
    }
    EXPECT_TRUE(report.ok()) << fuzz_target_name(target) << " escapes:\n"
                             << escapes;
  }
}

TEST_F(ReplayTest, MinimizerConvergesOnLargeFailingInput) {
  // A 10k-event compressed log with one corrupt block must shrink to a
  // fixture of fewer than 100 events that still fails with the same
  // signature.
  const std::vector<LogEvent> events = make_events(10000);
  const std::string log_path = write_event_log(
      temp_path("big.evlog"), events, EventLogFormat::kCompressed, 64);
  std::vector<unsigned char> bytes = read_bytes(log_path);
  const LogImage image = walk_log_image(bytes);
  ASSERT_GT(image.segments.size(), 100u);
  const SegmentSpan& victim = image.segments[image.segments.size() / 2];
  bytes[victim.payload_offset + 5] ^= 0x08;

  Fixture fixture;
  fixture.target = FixtureTarget::kServe;
  fixture.expect = FixtureExpect::kFailure;
  fixture.policy_spec = "drwp(alpha=0.3)";
  fixture.predictor_spec = "last_gap";
  fixture.num_servers = 3;
  fixture.source_name = "minimizer-convergence";
  fixture.blob = std::move(bytes);

  const MinimizeResult result = minimize_fixture(fixture);
  EXPECT_LT(result.fixture.slice_events, 100u);
  EXPECT_LT(result.minimized_bytes, result.original_bytes / 10);
  EXPECT_NE(result.signature.find("CRC mismatch"), std::string::npos)
      << result.signature;

  // The minimized fixture still fails with the preserved signature.
  const FixtureRunResult replay = fixture_run(result.fixture);
  EXPECT_TRUE(replay.pass) << replay.detail;

  // A healthy input has nothing to minimize.
  Fixture healthy = fixture;
  healthy.blob = read_bytes(log_path);
  EXPECT_THROW(minimize_fixture(healthy), std::invalid_argument);
}

}  // namespace
}  // namespace repl
