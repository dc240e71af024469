// LogReplaySource contracts, in the threaded (double-buffered) and the
// inline mode: shutdown without a consumer, zero-event streams, partial
// batches delivered before a sticky error, bit-identical parity between
// the modes on a corrupt log, the exact batches of a plain read_batch
// loop, two rotating batch buffers, and the byte marks behind
// bytes_consumed().
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codec/endian.hpp"
#include "core/drwp.hpp"
#include "engine/engine.hpp"
#include "engine/event_source.hpp"
#include "predictor/last_gap.hpp"
#include "trace/event_log.hpp"

namespace repl {
namespace {

constexpr int kServers = 5;
constexpr double kAlpha = 0.3;

class LogReplaySourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_log_replay_source_test_" +
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

  /// Writes `count` events with strictly increasing times as a
  /// compressed log with `block_events` per block.
  std::string make_log(const std::string& name, std::size_t count,
                       std::size_t block_events) {
    const std::string path = temp_path(name);
    EventLogWriter writer(path, kServers, 0, EventLogFormat::kCompressed,
                          block_events);
    for (std::size_t i = 0; i < count; ++i) {
      writer.write(0.5 * static_cast<double>(i + 1), (i * 13) % 97,
                   static_cast<std::uint32_t>(i % kServers));
    }
    writer.close();
    return path;
  }

  std::filesystem::path dir_;
};

/// Flips one payload byte inside block `target` of a compressed log.
void corrupt_block_payload(const std::string& path, std::size_t target) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  std::uint64_t offset = EventLogHeader::kSize;
  for (std::size_t block = 0;; ++block) {
    unsigned char frame[kBlockFrameBytes];
    file.seekg(static_cast<std::streamoff>(offset));
    file.read(reinterpret_cast<char*>(frame), sizeof(frame));
    ASSERT_TRUE(file.good()) << "log has no block " << target;
    const std::uint32_t body_len = load_le32(frame);
    if (block == target) {
      const std::uint64_t victim = offset + kBlockFrameBytes + body_len / 2;
      file.seekg(static_cast<std::streamoff>(victim));
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x20);
      file.seekp(static_cast<std::streamoff>(victim));
      file.write(&byte, 1);
      return;
    }
    offset += kBlockFrameBytes + body_len;
  }
}

SystemConfig test_config() {
  SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = 10.0;
  return config;
}

PolicyPtr make_policy(const EngineObjectContext&) {
  return std::make_unique<DrwpPolicy>(kAlpha);
}

PredictorPtr make_predictor(const EngineObjectContext&) {
  return std::make_unique<LastGapPredictor>(kServers);
}

std::unique_ptr<StreamingEngine> make_engine() {
  return std::make_unique<StreamingEngine>(test_config(), EngineOptions{},
                                           make_policy, make_predictor);
}

TEST_F(LogReplaySourceTest, DestructorJoinsWhenConsumerNeverDrains) {
  // Enough batches that the reader thread fills the spare slot and
  // blocks; destroying the source with the slot still full must wake it
  // and join, not deadlock or leak the thread.
  const std::string path = make_log("undrained.evlog", 10000, 64);
  {
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 64, /*async_ingest=*/true);
    source.attach(*engine);
    // No next_batch() at all.
  }
  {
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 64, /*async_ingest=*/true);
    source.attach(*engine);
    std::vector<LogEvent> batch;
    ASSERT_TRUE(source.next_batch(batch));  // consume one, abandon the rest
    EXPECT_EQ(batch.size(), 64u);
  }
}

TEST_F(LogReplaySourceTest, ZeroEventLogIsAStableEndInBothModes) {
  const std::string path = make_log("empty.evlog", 0, 64);
  for (const bool async_ingest : {true, false}) {
    SCOPED_TRACE(async_ingest ? "threaded" : "inline");
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 128, async_ingest);
    source.attach(*engine);
    std::vector<LogEvent> batch;
    EXPECT_FALSE(source.next_batch(batch));
    EXPECT_TRUE(batch.empty());
    // The end is stable, not a one-shot.
    EXPECT_FALSE(source.next_batch(batch));
    EXPECT_FALSE(source.next_batch(batch));
  }
}

TEST_F(LogReplaySourceTest, PartialBatchDeliveredBeforeStickyError) {
  // Blocks of 64, corruption in block 2: a 256-event batch spans four
  // blocks, so the reader throws mid-batch with 128 events already
  // decoded. Those 128 must arrive as a partial batch before the error,
  // and the error must stick.
  const std::string path = make_log("corrupt.evlog", 320, 64);
  corrupt_block_payload(path, 2);

  for (const bool async_ingest : {true, false}) {
    SCOPED_TRACE(async_ingest ? "threaded" : "inline");
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 256, async_ingest);
    source.attach(*engine);
    std::vector<LogEvent> batch;
    ASSERT_TRUE(source.next_batch(batch));
    EXPECT_EQ(batch.size(), 128u);  // blocks 0 and 1, then the failure
    EXPECT_EQ(batch.front().time, 0.5);

    try {
      source.next_batch(batch);
      ADD_FAILURE() << "corrupt block must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
          << e.what();
    }
    // Sticky: a retry is an error, never a clean end.
    EXPECT_THROW(source.next_batch(batch), std::runtime_error);
    EXPECT_THROW(source.next_batch(batch), std::runtime_error);
  }
}

TEST_F(LogReplaySourceTest, ThreadedAndInlineModesAgreeOnACorruptLog) {
  // The two modes must be indistinguishable to the engine: same
  // delivered prefix, same error, same (bit-identical) aggregates over
  // the surviving events.
  const std::string path = make_log("parity.evlog", 500, 64);
  corrupt_block_payload(path, 4);

  struct Outcome {
    std::uint64_t events = 0;
    std::string error;
    EngineMetrics metrics;
  };
  const auto run = [&](bool async_ingest) {
    Outcome outcome;
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 256, async_ingest);
    source.attach(*engine);
    std::vector<LogEvent> batch;
    try {
      while (source.next_batch(batch)) {
        engine->ingest(batch);
      }
      ADD_FAILURE() << "corrupt log must throw";
    } catch (const std::runtime_error& e) {
      outcome.error = e.what();
    }
    // Sticky in both modes.
    EXPECT_THROW(source.next_batch(batch), std::runtime_error);
    outcome.events = engine->stats().events_ingested;
    outcome.metrics = engine->finish();
    return outcome;
  };

  const Outcome inline_run = run(false);
  const Outcome threaded_run = run(true);
  EXPECT_EQ(inline_run.events, 256u);  // blocks 0-3 survive, block 4 fails
  EXPECT_EQ(threaded_run.events, inline_run.events);
  EXPECT_EQ(threaded_run.error, inline_run.error);
  EXPECT_NE(inline_run.error.find("CRC"), std::string::npos)
      << inline_run.error;
  EXPECT_EQ(threaded_run.metrics.objects, inline_run.metrics.objects);
  EXPECT_EQ(threaded_run.metrics.events, inline_run.metrics.events);
  EXPECT_EQ(threaded_run.metrics.num_local, inline_run.metrics.num_local);
  EXPECT_EQ(threaded_run.metrics.num_transfers,
            inline_run.metrics.num_transfers);
  EXPECT_EQ(threaded_run.metrics.online_cost, inline_run.metrics.online_cost);
  EXPECT_EQ(threaded_run.metrics.lower_bound, inline_run.metrics.lower_bound);
}

TEST_F(LogReplaySourceTest, CleanLogDeliversTheBatchesOfAPlainReadLoop) {
  // Same-order equivalence on the happy path: both modes yield the exact
  // batch sequence a plain read_batch loop produces.
  const std::string path = make_log("clean.evlog", 1000, 64);

  std::vector<std::vector<LogEvent>> plain_batches;
  {
    EventLogReader reader(path);
    std::vector<LogEvent> batch;
    while (reader.read_batch(batch, 192) > 0) {
      plain_batches.push_back(batch);
    }
  }

  for (const bool async_ingest : {true, false}) {
    SCOPED_TRACE(async_ingest ? "threaded" : "inline");
    auto engine = make_engine();
    EventLogReader reader(path);
    LogReplaySource source(reader, 192, async_ingest);
    source.attach(*engine);
    std::vector<LogEvent> batch;
    std::size_t index = 0;
    while (source.next_batch(batch)) {
      ASSERT_LT(index, plain_batches.size());
      EXPECT_EQ(batch, plain_batches[index]);
      ++index;
    }
    EXPECT_EQ(index, plain_batches.size());
    EXPECT_FALSE(source.next_batch(batch));
  }
}

TEST_F(LogReplaySourceTest, ThreadedModeRotatesTwoBatchBuffers) {
  // Double buffering: the caller's buffer and the one spare. The
  // consumer pauses before each call, as an executing engine does, so
  // the reader thread is always as far ahead as it may go; however far
  // that is, only two buffers may ever reach the caller.
  const std::string path = make_log("rotate.evlog", 64 * 12, 64);
  auto engine = make_engine();
  EventLogReader reader(path);
  LogReplaySource source(reader, 64, /*async_ingest=*/true);
  source.attach(*engine);
  std::vector<LogEvent> batch;
  std::set<const LogEvent*> buffers;
  std::size_t batches = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!source.next_batch(batch)) break;
    buffers.insert(batch.data());
    ++batches;
  }
  EXPECT_EQ(batches, 12u);
  EXPECT_LE(buffers.size(), 2u);
}

TEST_F(LogReplaySourceTest, BytesConsumedMatchesAPlainReaderInBothModes) {
  // Multi-block compressed log, batches that end mid-block: after each
  // delivered batch the source reports the byte position a plain reader
  // has after reading the same batch, the file size once drained, and,
  // on a restored engine, the position the resume seek reached.
  const std::string path = make_log("marks.evlog", 1000, 64);
  constexpr std::size_t kBatch = 100;

  std::vector<std::uint64_t> plain_marks;
  std::uint64_t plain_start = 0;
  {
    EventLogReader reader(path);
    plain_start = reader.bytes_read();
    std::vector<LogEvent> batch;
    while (reader.read_batch(batch, kBatch) > 0) {
      plain_marks.push_back(reader.bytes_read());
    }
  }
  ASSERT_EQ(plain_marks.size(), 10u);
  const std::uint64_t file_size = std::filesystem::file_size(path);
  EXPECT_EQ(plain_marks.back(), file_size);

  // A snapshot three batches in, for the resumed half of the check.
  const std::string snapshot = temp_path("marks.ckpt");
  {
    auto engine = make_engine();
    EventLogReader reader(path);
    engine->bind_log(reader.header());
    std::vector<LogEvent> batch;
    for (int i = 0; i < 3; ++i) {
      ASSERT_GT(reader.read_batch(batch, kBatch), 0u);
      engine->ingest(batch);
    }
    engine->checkpoint(snapshot);
  }

  for (const bool async_ingest : {true, false}) {
    SCOPED_TRACE(async_ingest ? "threaded" : "inline");
    {
      auto engine = make_engine();
      EventLogReader reader(path);
      LogReplaySource source(reader, kBatch, async_ingest);
      source.attach(*engine);
      EXPECT_EQ(source.bytes_consumed(), plain_start);
      std::vector<LogEvent> batch;
      std::size_t index = 0;
      while (source.next_batch(batch)) {
        ASSERT_LT(index, plain_marks.size());
        EXPECT_EQ(source.bytes_consumed(), plain_marks[index])
            << "batch " << index;
        ++index;
      }
      EXPECT_EQ(index, plain_marks.size());
      EXPECT_EQ(source.bytes_consumed(), file_size);
    }
    {
      auto engine = StreamingEngine::restore(snapshot, test_config(),
                                             EngineOptions{}, make_policy,
                                             make_predictor);
      EventLogReader reader(path);
      LogReplaySource source(reader, kBatch, async_ingest);
      source.attach(*engine);
      EXPECT_EQ(source.bytes_consumed(), plain_marks[2]);
      std::vector<LogEvent> batch;
      std::size_t index = 3;
      while (source.next_batch(batch)) {
        ASSERT_LT(index, plain_marks.size());
        EXPECT_EQ(source.bytes_consumed(), plain_marks[index])
            << "batch " << index;
        ++index;
      }
      EXPECT_EQ(index, plain_marks.size());
      EXPECT_EQ(source.bytes_consumed(), file_size);
    }
  }
}

}  // namespace
}  // namespace repl
