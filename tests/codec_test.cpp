// Codec subsystem tests: varint/zigzag and CRC-32C primitives, the
// word codec for state payloads, the block-framed container and its
// socket stream decoder, the compressed event-log format (round trips,
// O(blocks) skip, corruption: truncation at every byte offset and bit
// flips → CRC rejection with a positioned diagnostic), cross-version
// reads (v1 logs and v1/v2 snapshots through the current readers), and
// end-to-end engine parity: compressed-log serves — including a
// checkpoint/resume cut on the compressed path — are bit-identical to
// raw-log serves.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "checkpoint/snapshot.hpp"
#include "codec/block.hpp"
#include "codec/crc32.hpp"
#include "codec/delta.hpp"
#include "codec/varint.hpp"
#include "codec/word_codec.hpp"
#include "engine/engine.hpp"
#include "engine/event_source.hpp"
#include "trace/event_log.hpp"
#include "trace/stream_gen.hpp"
#include "util/rng.hpp"

namespace repl {
namespace {

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  std::uint64_t{1} << 32,
                                  (std::uint64_t{1} << 63) - 1,
                                  std::uint64_t{1} << 63,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    std::vector<unsigned char> buf;
    put_uvarint(buf, v);
    EXPECT_LE(buf.size(), kMaxUvarintBytes);
    std::uint64_t back = 0;
    EXPECT_EQ(get_uvarint(buf.data(), buf.data() + buf.size(), back),
              buf.size())
        << v;
    EXPECT_EQ(back, v);
  }
}

TEST(VarintTest, RejectsTruncatedAndOverlongInput) {
  std::vector<unsigned char> buf;
  put_uvarint(buf, ~std::uint64_t{0});  // 10 bytes
  std::uint64_t v = 0;
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(get_uvarint(buf.data(), buf.data() + cut, v), 0u) << cut;
  }
  // 10 continuation bytes with no terminator: overlong.
  const std::vector<unsigned char> overlong(kMaxUvarintBytes, 0x80);
  EXPECT_EQ(get_uvarint(overlong.data(),
                        overlong.data() + overlong.size(), v),
            0u);
  // A 10th byte with bits above bit 0 would overflow 64 bits; accepting
  // it would alias two byte strings to one value.
  std::vector<unsigned char> overflow(kMaxUvarintBytes - 1, 0x80);
  overflow.push_back(0x7F);
  EXPECT_EQ(get_uvarint(overflow.data(),
                        overflow.data() + overflow.size(), v),
            0u);
}

TEST(VarintTest, ZigzagFoldsSign) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  const std::int64_t values[] = {0, -1, 1, 4242, -4242,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  // The CRC-32C check value for "123456789" (iSCSI/RFC 3720 test vector).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Rng rng(7);
  std::vector<unsigned char> data(1000);
  for (auto& b : data) {
    b = static_cast<unsigned char>(rng.uniform_index(256));
  }
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{499}, std::size_t{1000}}) {
    std::uint32_t state = crc32c_init();
    state = crc32c_update(state, data.data(), split);
    state = crc32c_update(state, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32c_final(state), crc32c(data.data(), data.size()));
  }
}

TEST(TimeDeltaTest, RoundTripsMonotoneAndOddDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> times = {1e-300, 0.5,  1.0, 1.0, 1.0000000001,
                                     3.25,   1e6,  1e6, 2e6, 9e9,
                                     inf,    inf};
  std::vector<unsigned char> buf;
  TimeDeltaEncoder enc;
  for (const double t : times) enc.encode(t, buf);
  // Dense monotone streams cost a fraction of the raw 8 bytes each.
  EXPECT_LT(buf.size(), times.size() * 8);

  TimeDeltaDecoder dec;
  const unsigned char* p = buf.data();
  const unsigned char* const end = p + buf.size();
  for (const double t : times) {
    double back = 0.0;
    ASSERT_TRUE(dec.decode(&p, end, back));
    EXPECT_EQ(back, t);
  }
  EXPECT_EQ(p, end);
  double dummy = 0.0;
  EXPECT_FALSE(dec.decode(&p, end, dummy));  // exhausted input
}

// ---------------------------------------------------------------------
// Word codec
// ---------------------------------------------------------------------

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> data(n);
  for (auto& b : data) {
    b = static_cast<unsigned char>(rng.uniform_index(256));
  }
  return data;
}

void expect_word_round_trip(const std::vector<unsigned char>& data) {
  const std::vector<unsigned char> packed = word_pack(data);
  EXPECT_EQ(word_unpack(packed.data(), packed.size(), data.size(), "test"),
            data);
}

TEST(WordCodecTest, RoundTripsEverySizeClass) {
  expect_word_round_trip({});
  for (const std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 1000u, 1003u}) {
    expect_word_round_trip(random_bytes(n, n));
  }
}

TEST(WordCodecTest, SentinelRunsCompress) {
  // A payload dominated by repeated NaN/inf sentinel doubles — the
  // checkpoint shape the codec targets.
  std::vector<unsigned char> data;
  const auto push_double = [&data](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      data.push_back(static_cast<unsigned char>(bits >> (8 * i)));
    }
  };
  for (int i = 0; i < 100; ++i) {
    push_double(std::numeric_limits<double>::infinity());
  }
  for (int i = 0; i < 100; ++i) {
    push_double(std::numeric_limits<double>::quiet_NaN());
  }
  for (int i = 0; i < 100; ++i) push_double(1234.5 + i * 1e-9);
  const std::vector<unsigned char> packed = word_pack(data);
  EXPECT_LT(packed.size(), data.size() / 3);  // sentinels nearly vanish
  EXPECT_EQ(word_unpack(packed.data(), packed.size(), data.size(), "test"),
            data);
}

TEST(WordCodecTest, WorstCaseExpansionIsBounded) {
  const std::vector<unsigned char> data = random_bytes(8000, 99);
  const std::vector<unsigned char> packed = word_pack(data);
  // One control byte per two words: at most +1/16 plus a constant.
  EXPECT_LE(packed.size(), data.size() + data.size() / 16 + 2);
}

TEST(WordCodecTest, RejectsMalformedInput) {
  const std::vector<unsigned char> data = random_bytes(64, 5);
  const std::vector<unsigned char> packed = word_pack(data);
  // Truncation anywhere fails (decoded size can no longer be reached).
  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    EXPECT_THROW(word_unpack(packed.data(), cut, data.size(), "test"),
                 std::runtime_error)
        << cut;
  }
  // Wrong raw size.
  EXPECT_THROW(
      word_unpack(packed.data(), packed.size(), data.size() - 1, "test"),
      std::runtime_error);
  EXPECT_THROW(
      word_unpack(packed.data(), packed.size(), data.size() + 1, "test"),
      std::runtime_error);
  // Invalid control nibble (9..15).
  std::vector<unsigned char> bad = {0x0F};
  EXPECT_THROW(word_unpack(bad.data(), bad.size(), 8, "test"),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Block container
// ---------------------------------------------------------------------

TEST(BlockContainerTest, RoundTripsAndDetectsEveryFlippedByte) {
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  BlockWriter writer(stream, "mem");
  const std::vector<unsigned char> a = random_bytes(100, 1);
  const std::vector<unsigned char> b = random_bytes(3, 2);
  writer.write_block(7, a);
  writer.write_block(9, b);
  writer.write_block(0, std::vector<unsigned char>{});  // empty payload
  EXPECT_EQ(writer.blocks_written(), 3u);
  const std::string bytes = stream.str();

  {
    std::stringstream in(bytes, std::ios::in | std::ios::binary);
    BlockReader reader(in, "mem");
    std::uint32_t aux = 0;
    std::vector<unsigned char> payload;
    ASSERT_TRUE(reader.read_block(aux, payload));
    EXPECT_EQ(aux, 7u);
    EXPECT_EQ(payload, a);
    ASSERT_TRUE(reader.skip_block(aux));  // skipping is positional only
    EXPECT_EQ(aux, 9u);
    ASSERT_TRUE(reader.read_block(aux, payload));
    EXPECT_EQ(aux, 0u);
    EXPECT_TRUE(payload.empty());
    EXPECT_FALSE(reader.read_block(aux, payload));  // clean EOF
  }

  // Any single flipped byte anywhere in the framed stream is rejected,
  // and the diagnostic is positioned (names a block).
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    std::stringstream in(corrupt, std::ios::in | std::ios::binary);
    BlockReader reader(in, "mem");
    std::uint32_t aux = 0;
    std::vector<unsigned char> payload;
    try {
      while (reader.read_block(aux, payload)) {
      }
      FAIL() << "flipped byte " << offset << " went undetected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("block"), std::string::npos)
          << e.what();
    }
  }
}

TEST(BlockContainerTest, SkipPathDetectsFrameCorruption) {
  // Skip paths steer by the frame's length and aux fields without ever
  // reading the payload — a flipped bit there would silently misposition
  // everything after (e.g. an event-log resume). The frame carries its
  // own CRC so skip_block must reject it.
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  BlockWriter writer(stream, "mem");
  for (int b = 0; b < 3; ++b) {
    writer.write_block(static_cast<std::uint32_t>(100 + b),
                       random_bytes(50 + static_cast<std::size_t>(b), 7));
  }
  const std::string bytes = stream.str();

  // Frame offsets, walked via the length fields.
  std::vector<std::size_t> frame_offsets;
  std::size_t offset = 0;
  for (int b = 0; b < 3; ++b) {
    frame_offsets.push_back(offset);
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= std::uint32_t{p[offset + static_cast<std::size_t>(i)]}
             << (8 * i);
    }
    offset += 16 + len;
  }

  for (const std::size_t frame : frame_offsets) {
    for (std::size_t i = 0; i < 16; ++i) {
      std::string corrupt = bytes;
      corrupt[frame + i] = static_cast<char>(corrupt[frame + i] ^ 0x20);
      std::stringstream in(corrupt, std::ios::in | std::ios::binary);
      BlockReader reader(in, "mem");
      std::uint32_t aux = 0;
      try {
        while (reader.skip_block(aux)) {
        }
        FAIL() << "flipped frame byte " << frame + i << " went undetected";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("block"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(BlockContainerTest, SkipRejectsTruncatedFinalPayload) {
  // seekg past EOF "succeeds" on common istream implementations, so an
  // unchecked relative seek over a truncated final payload would read as
  // a clean EOF at the next frame — a silently shortened stream and a
  // mispositioned resume. skip_payload must throw, positioned, at every
  // truncation point inside the final payload.
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  BlockWriter writer(stream, "mem");
  writer.write_block(1, random_bytes(40, 3));
  writer.write_block(2, random_bytes(30, 4));
  const std::string bytes = stream.str();
  const std::size_t last_payload = bytes.size() - 30;

  for (std::size_t keep = 0; keep < 30; ++keep) {
    std::stringstream in(bytes.substr(0, last_payload + keep),
                         std::ios::in | std::ios::binary);
    BlockReader reader(in, "mem");
    std::uint32_t aux = 0;
    ASSERT_TRUE(reader.skip_block(aux));
    EXPECT_EQ(aux, 1u);
    try {
      reader.skip_block(aux);
      FAIL() << "skip over payload truncated to " << keep
             << " bytes went undetected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated block payload"),
                std::string::npos)
          << e.what();
    }
  }

  // The untruncated stream skips both blocks and ends cleanly.
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  BlockReader reader(in, "mem");
  std::uint32_t aux = 0;
  ASSERT_TRUE(reader.skip_block(aux));
  ASSERT_TRUE(reader.skip_block(aux));
  EXPECT_EQ(aux, 2u);
  EXPECT_FALSE(reader.skip_block(aux));
}

TEST(BlockContainerTest, FrameSplitAtHeaderBoundaryIsPositioned) {
  // A stream that ends exactly after a frame whose payload never
  // follows: both the read and the skip path must report a positioned
  // truncation (0 of N bytes), not loop or mis-seek. A stream ending
  // mid-frame is equally positioned.
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  BlockWriter writer(stream, "mem");
  writer.write_block(5, random_bytes(25, 9));
  const std::string bytes = stream.str();
  const std::string frame_only = bytes.substr(0, kBlockFrameBytes);

  for (const bool skip : {false, true}) {
    std::stringstream in(frame_only, std::ios::in | std::ios::binary);
    BlockReader reader(in, "mem");
    std::uint32_t aux = 0;
    std::vector<unsigned char> payload;
    try {
      if (skip) {
        reader.skip_block(aux);
      } else {
        reader.read_block(aux, payload);
      }
      FAIL() << "frame with absent payload went undetected (skip=" << skip
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated block payload"),
                std::string::npos)
          << e.what();
    }
  }

  for (std::size_t cut = 1; cut < kBlockFrameBytes; ++cut) {
    std::stringstream in(bytes.substr(0, cut),
                         std::ios::in | std::ios::binary);
    BlockReader reader(in, "mem");
    std::uint32_t aux = 0;
    EXPECT_THROW(reader.next_frame(aux), std::runtime_error) << cut;
  }
}

TEST(BlockContainerTest, ZeroLengthPayloadReadsSkipsAndEndsCleanly) {
  // Zero-payload blocks in every position: read and skip both consume
  // them without a stall, and a stream ending exactly after one is a
  // clean EOF.
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  BlockWriter writer(stream, "mem");
  writer.write_block(0, std::vector<unsigned char>{});
  writer.write_block(3, random_bytes(10, 5));
  writer.write_block(0, std::vector<unsigned char>{});
  const std::string bytes = stream.str();

  std::stringstream read_in(bytes, std::ios::in | std::ios::binary);
  BlockReader read_reader(read_in, "mem");
  std::uint32_t aux = 9;
  std::vector<unsigned char> payload;
  ASSERT_TRUE(read_reader.read_block(aux, payload));
  EXPECT_EQ(aux, 0u);
  EXPECT_TRUE(payload.empty());
  ASSERT_TRUE(read_reader.read_block(aux, payload));
  EXPECT_EQ(payload.size(), 10u);
  ASSERT_TRUE(read_reader.read_block(aux, payload));
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(read_reader.read_block(aux, payload));

  std::stringstream skip_in(bytes, std::ios::in | std::ios::binary);
  BlockReader skip_reader(skip_in, "mem");
  ASSERT_TRUE(skip_reader.skip_block(aux));
  ASSERT_TRUE(skip_reader.skip_block(aux));
  ASSERT_TRUE(skip_reader.skip_block(aux));
  EXPECT_EQ(aux, 0u);
  EXPECT_FALSE(skip_reader.skip_block(aux));
  EXPECT_EQ(skip_reader.blocks_read(), 3u);
}

TEST(BlockContainerTest, StreamDecoderReadsWriterBytesInAnyChunking) {
  // A socket stream is a fixed header, then the frames BlockWriter
  // writes; append_block_frame builds the same bytes in memory.
  const std::vector<unsigned char> header = random_bytes(8, 3);
  const std::vector<std::vector<unsigned char>> payloads = {
      random_bytes(10, 5), {}, random_bytes(300, 6), {}};
  std::stringstream written(std::ios::in | std::ios::out | std::ios::binary);
  written.write(reinterpret_cast<const char*>(header.data()), 8);
  BlockWriter writer(written, "mem");
  std::vector<unsigned char> stream = header;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    writer.write_block(static_cast<std::uint32_t>(i), payloads[i]);
    append_block_frame(stream, static_cast<std::uint32_t>(i),
                       payloads[i].data(), payloads[i].size());
  }
  const std::string bytes = written.str();
  ASSERT_EQ(std::vector<unsigned char>(bytes.begin(), bytes.end()), stream);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  stream.size()}) {
    BlockStreamDecoder decoder("peer", 8, kMaxBlockBytes, "stream failed",
                               "payload CRC mismatch");
    std::vector<unsigned char> seen_header;
    std::vector<std::vector<unsigned char>> seen;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      decoder.feed(
          stream.data() + at, std::min(chunk, stream.size() - at),
          [&](const unsigned char* raw) { seen_header.assign(raw, raw + 8); },
          [&](const BlockFrameHeader& frame, const unsigned char* body,
              std::size_t size) {
            EXPECT_EQ(frame.aux, seen.size());
            seen.emplace_back(body, body + size);
          });
    }
    // The empty last frame completed with its 16 bytes.
    EXPECT_TRUE(decoder.at_boundary()) << chunk;
    EXPECT_EQ(seen_header, header);
    EXPECT_EQ(seen, payloads);
    EXPECT_EQ(decoder.frames_completed(), payloads.size());
    EXPECT_EQ(decoder.bytes_consumed(), stream.size());
  }

  // A flipped frame byte fails positioned, and the decoder stays dead.
  std::vector<unsigned char> corrupt = stream;
  corrupt[8 + kBlockFrameBytes + 10 + 4] ^= 0x01;  // frame 1's aux
  BlockStreamDecoder decoder("peer", 8, kMaxBlockBytes, "stream failed",
                             "payload CRC mismatch");
  const auto ignore_header = [](const unsigned char*) {};
  const auto ignore_frame = [](const BlockFrameHeader&, const unsigned char*,
                               std::size_t) {};
  try {
    decoder.feed(corrupt.data(), corrupt.size(), ignore_header, ignore_frame);
    FAIL() << "corrupt frame accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "peer: frame CRC mismatch (corrupt frame header) (frame 1, "
              "byte offset 50)");
  }
  try {
    decoder.feed(stream.data(), 1, ignore_header, ignore_frame);
    FAIL() << "a dead decoder accepted bytes";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "peer: stream failed");
  }
}

// ---------------------------------------------------------------------
// Compressed event logs
// ---------------------------------------------------------------------

class CodecLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_codec_test_" +
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

std::vector<LogEvent> read_all(const std::string& path) {
  EventLogReader reader(path);
  std::vector<LogEvent> events;
  LogEvent event;
  while (reader.next(event)) events.push_back(event);
  return events;
}

StreamWorkloadConfig small_workload() {
  StreamWorkloadConfig config;
  config.num_objects = 200;
  config.num_servers = 5;
  config.rate = 4.0;
  config.max_events = 3000;
  return config;
}

TEST_F(CodecLogTest, CompressedRoundTripMatchesRawAcrossBlockSizes) {
  const std::string raw = temp_path("raw.evlog");
  generate_event_log(small_workload(), 11, raw);
  const std::vector<LogEvent> events = read_all(raw);

  for (const std::size_t block_events : {1u, 7u, 100u, 4096u}) {
    std::string name = "c";
    name += std::to_string(block_events);
    name += ".evlog";
    const std::string compressed = temp_path(name);
    {
      EventLogWriter writer(compressed, 5, /*num_objects=*/0,
                            EventLogFormat::kCompressed, block_events);
      for (const LogEvent& e : events) writer.write(e);
      writer.close();
    }
    EventLogReader reader(compressed);
    EXPECT_EQ(reader.header().version, EventLogHeader::kVersionCompressed);
    EXPECT_EQ(reader.header().num_events, events.size());
    EXPECT_EQ(reader.header().num_objects,
              EventLogReader(raw).header().num_objects);
    EXPECT_EQ(read_all(compressed), events);
  }
}

TEST_F(CodecLogTest, CompressionBeatsTheRawFormat) {
  // The dense-id regime the format targets: the acceptance threshold is
  // >= 1.8x smaller than 20 bytes/event.
  StreamWorkloadConfig workload;
  workload.num_objects = 2000;
  workload.num_servers = 10;
  workload.rate = 2000.0 / 64.0;
  workload.max_events = 20000;
  const std::string raw = temp_path("dense_raw.evlog");
  const std::string compressed = temp_path("dense_c.evlog");
  ASSERT_EQ(generate_event_log(workload, 42, raw),
            generate_event_log(workload, 42, compressed,
                               EventLogFormat::kCompressed));
  const auto raw_size = std::filesystem::file_size(raw);
  const auto compressed_size = std::filesystem::file_size(compressed);
  EXPECT_GE(static_cast<double>(raw_size),
            1.8 * static_cast<double>(compressed_size));
  EXPECT_LE(static_cast<double>(compressed_size) / 20000.0, 12.0);
  EXPECT_EQ(read_all(compressed), read_all(raw));
}

TEST_F(CodecLogTest, TranscodeConvertsBothDirections) {
  const std::string raw = temp_path("t_raw.evlog");
  const std::uint64_t n = generate_event_log(small_workload(), 3, raw);
  const std::string compressed = temp_path("t_c.evlog");
  const std::string back = temp_path("t_back.evlog");
  EXPECT_EQ(event_log_transcode(raw, compressed,
                                EventLogFormat::kCompressed),
            n);
  EXPECT_EQ(event_log_transcode(compressed, back, EventLogFormat::kRaw), n);
  EXPECT_EQ(read_all(back), read_all(raw));
  EXPECT_EQ(EventLogReader(back).header().num_objects,
            EventLogReader(raw).header().num_objects);
  // Transcoding a log onto itself must be rejected up front — the
  // writer's truncating open would destroy the source.
  EXPECT_THROW(event_log_transcode(raw, raw, EventLogFormat::kCompressed),
               std::runtime_error);
  EXPECT_EQ(read_all(raw).size(), n);  // source intact
}

TEST_F(CodecLogTest, SkipEventsMatchesRawAtEveryPosition) {
  const std::string raw = temp_path("skip_raw.evlog");
  generate_event_log(small_workload(), 17, raw);
  const std::vector<LogEvent> events = read_all(raw);
  const std::string compressed = temp_path("skip_c.evlog");
  {
    // Small blocks so skips cross many block boundaries.
    EventLogWriter writer(compressed, 5, 0, EventLogFormat::kCompressed, 64);
    for (const LogEvent& e : events) writer.write(e);
    writer.close();
  }
  for (const std::size_t skip :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{1000}, events.size() - 1,
        events.size()}) {
    EventLogReader reader(compressed);
    reader.skip_events(skip);
    EXPECT_EQ(reader.events_read(), skip);
    LogEvent event;
    if (skip == events.size()) {
      EXPECT_FALSE(reader.next(event));
      continue;
    }
    ASSERT_TRUE(reader.next(event)) << skip;
    EXPECT_EQ(event, events[skip]) << skip;
  }
  // Mixed consume-then-skip within a decoded block.
  EventLogReader reader(compressed);
  LogEvent event;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(reader.next(event));
  reader.skip_events(200);
  ASSERT_TRUE(reader.next(event));
  EXPECT_EQ(event, events[210]);
  // Over-skip past the header count is rejected.
  EXPECT_THROW(EventLogReader(compressed).skip_events(events.size() + 1),
               std::invalid_argument);
}

TEST_F(CodecLogTest, HashEventsIsFormatIndependent) {
  const std::string raw = temp_path("hash_raw.evlog");
  generate_event_log(small_workload(), 23, raw);
  const std::string compressed = temp_path("hash_c.evlog");
  event_log_transcode(raw, compressed, EventLogFormat::kCompressed);
  EventLogReader a(raw);
  EventLogReader b(compressed);
  EXPECT_EQ(a.hash_events(1500, kEventStreamHashSeed),
            b.hash_events(1500, kEventStreamHashSeed));
}

/// The corruption satellite: truncating a compressed log at EVERY byte
/// offset past the header must fail the read (the header's event count
/// is known), and flipping any byte in the block region must fail the
/// CRC with a diagnostic naming the block.
TEST_F(CodecLogTest, TruncationAtEveryOffsetAndBitFlipsAreRejected) {
  const std::string path = temp_path("corrupt.evlog");
  {
    StreamWorkloadConfig workload = small_workload();
    workload.max_events = 600;  // small enough to sweep every byte
    EventLogWriter writer(path, 5, 0, EventLogFormat::kCompressed, 100);
    Rng rng(1);
    double t = 0.0;
    for (std::uint64_t i = 0; i < workload.max_events; ++i) {
      t += rng.uniform(0.001, 1.0);
      writer.write(t, rng.uniform_index(workload.num_objects),
                   static_cast<std::uint32_t>(rng.uniform_index(5)));
    }
    writer.close();
  }
  const std::vector<LogEvent> events = read_all(path);
  ASSERT_EQ(events.size(), 600u);
  const auto full_size = std::filesystem::file_size(path);

  const auto expect_read_fails = [&](const std::string& corrupt,
                                     const char* needle,
                                     const std::string& trace) {
    SCOPED_TRACE(trace);
    try {
      read_all(corrupt);
      FAIL() << "corruption went undetected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    } catch (const std::invalid_argument&) {
      // Header-field corruption can also surface as a validation error.
    }
  };

  // Truncation at every byte offset of the block region, plus inside
  // the header.
  std::ifstream in(path, std::ios::binary);
  std::string bytes(full_size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(full_size));
  ASSERT_EQ(static_cast<std::uintmax_t>(in.gcount()), full_size);
  for (std::uintmax_t cut = 0; cut < full_size; ++cut) {
    const std::string trunc = temp_path("trunc.evlog");
    std::ofstream(trunc, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    expect_read_fails(trunc, "", "truncated at " + std::to_string(cut));
  }

  // A flipped bit anywhere in the block region fails the CRC with a
  // positioned diagnostic.
  for (std::uintmax_t offset = EventLogHeader::kSize; offset < full_size;
       ++offset) {
    const std::string flipped = temp_path("flip.evlog");
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    std::ofstream(flipped, std::ios::binary | std::ios::trunc)
        .write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    expect_read_fails(flipped, "block", "flip at " + std::to_string(offset));
  }
}

// ---------------------------------------------------------------------
// Cross-version reads
// ---------------------------------------------------------------------

void push_le32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

void push_le64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

/// Hand-crafts a version-1 or version-2 snapshot file — the layouts
/// written by earlier releases — holding the given raw records.
std::string write_old_snapshot(
    const std::string& path, std::uint32_t version,
    const std::vector<std::pair<std::uint64_t, std::vector<unsigned char>>>&
        records) {
  std::vector<unsigned char> bytes;
  push_le64(bytes, SnapshotHeader::kMagic);
  push_le32(bytes, version);
  push_le32(bytes, 4);                       // num_servers
  push_le64(bytes, records.size());          // num_objects
  push_le64(bytes, 1000);                    // events_ingested
  push_le64(bytes, 10);                      // batches
  push_le64(bytes, 0x5eed5eed5eed5eedULL);   // base_seed
  push_le64(bytes, std::bit_cast<std::uint64_t>(42.5));
  push_le32(bytes, SnapshotHeader::kFlagAnyEvent);
  push_le32(bytes, 0);  // reserved
  if (version >= 2) {
    push_le64(bytes, 0xabcdef);  // log_hash
    push_le64(bytes, 77);        // log_num_objects
    push_le64(bytes, 1234);      // log_num_events
    const std::string policy = "drwp(alpha=0.3)";
    push_le32(bytes, static_cast<std::uint32_t>(policy.size()));
    bytes.insert(bytes.end(), policy.begin(), policy.end());
    push_le32(bytes, 0);  // empty predictor spec
  }
  for (const auto& [id, payload] : records) {
    push_le64(bytes, id);
    push_le32(bytes, static_cast<std::uint32_t>(payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  push_le64(bytes, SnapshotHeader::kFooterMagic);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST_F(CodecLogTest, OldSnapshotVersionsStillRead) {
  const std::vector<std::pair<std::uint64_t, std::vector<unsigned char>>>
      records = {{3, random_bytes(40, 1)}, {9, random_bytes(0, 2)},
                 {1000, random_bytes(7, 3)}};
  for (const std::uint32_t version : {1u, 2u}) {
    const std::string path = write_old_snapshot(
        temp_path("v" + std::to_string(version) + ".ckpt"), version,
        records);
    SnapshotReader reader(path);
    EXPECT_EQ(reader.header().version, version);
    EXPECT_EQ(reader.header().codec, SnapshotHeader::kCodecRaw);
    EXPECT_EQ(reader.header().events_ingested, 1000u);
    if (version >= 2) {
      EXPECT_EQ(reader.header().policy_spec, "drwp(alpha=0.3)");
      EXPECT_EQ(reader.header().log_num_objects, 77u);
    } else {
      EXPECT_TRUE(reader.header().policy_spec.empty());
    }
    std::uint64_t id = 0;
    std::vector<unsigned char> payload;
    for (const auto& [expected_id, expected_payload] : records) {
      ASSERT_TRUE(reader.next_object(id, payload));
      EXPECT_EQ(id, expected_id);
      EXPECT_EQ(payload, expected_payload);
    }
    EXPECT_FALSE(reader.next_object(id, payload));  // footer verified

    // Truncating the old-version file is still detected.
    const std::string trunc =
        temp_path("v" + std::to_string(version) + "_trunc.ckpt");
    std::filesystem::copy_file(
        path, trunc, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(trunc,
                                 std::filesystem::file_size(trunc) - 9);
    SnapshotReader bad(trunc);
    EXPECT_THROW(
        {
          std::uint64_t i = 0;
          std::vector<unsigned char> p;
          while (bad.next_object(i, p)) {
          }
        },
        std::runtime_error);
  }
}

TEST_F(CodecLogTest, RawEventLogsAreVersion1AndStillRead) {
  // The raw writer still produces the version-1 wire format, so logs
  // from earlier releases and fresh raw logs are the same bytes.
  const std::string path = temp_path("v1.evlog");
  generate_event_log(small_workload(), 5, path);
  EventLogReader reader(path);
  EXPECT_EQ(reader.header().version, EventLogHeader::kVersionRaw);
  EXPECT_EQ(reader.header().format(), EventLogFormat::kRaw);
  std::size_t n = 0;
  LogEvent event;
  while (reader.next(event)) ++n;
  EXPECT_EQ(n, 3000u);
}

// ---------------------------------------------------------------------
// End-to-end engine parity on the compressed path
// ---------------------------------------------------------------------

TEST_F(CodecLogTest, CompressedServeMatchesRawBitForBitAcrossResumeCut) {
  StreamWorkloadConfig workload;
  workload.num_objects = 300;
  workload.num_servers = 6;
  workload.rate = 300.0 / 64.0;
  workload.max_events = 6000;
  const std::string raw = temp_path("serve_raw.evlog");
  const std::string compressed = temp_path("serve_c.evlog");
  generate_event_log(workload, 77, raw);
  generate_event_log(workload, 77, compressed, EventLogFormat::kCompressed);

  SystemConfig config;
  config.num_servers = 6;
  config.transfer_cost = 10.0;
  EngineOptions options;
  options.num_shards = 16;
  options.num_threads = 2;

  EngineBuilder builder;
  builder.config(config).options(options);
  builder.policy("drwp(alpha=0.3)").predictor("last_gap");

  // Uninterrupted raw serve (double-buffered by default).
  EngineMetrics reference;
  {
    EventLogReader reader(raw);
    auto engine = builder.build();
    reference = engine->serve(reader, {.batch_events = 512});
  }
  // Synchronous ingestion delivers the same batches: bit-identical.
  {
    EventLogReader reader(raw);
    auto engine = builder.build();
    LogReplaySource source(reader, 512, /*async_ingest=*/false);
    const EngineMetrics metrics = engine->serve(source, ServeOptions{});
    EXPECT_EQ(metrics.online_cost, reference.online_cost);
    EXPECT_EQ(metrics.lower_bound, reference.lower_bound);
  }
  // Compressed serve: same events, same aggregates, bit for bit.
  {
    EventLogReader reader(compressed);
    auto engine = builder.build();
    const EngineMetrics metrics = engine->serve(reader, {.batch_events = 512});
    EXPECT_EQ(metrics.objects, reference.objects);
    EXPECT_EQ(metrics.events, reference.events);
    EXPECT_EQ(metrics.num_local, reference.num_local);
    EXPECT_EQ(metrics.num_transfers, reference.num_transfers);
    EXPECT_EQ(metrics.online_cost, reference.online_cost);
    EXPECT_EQ(metrics.lower_bound, reference.lower_bound);
  }
  // Checkpoint/resume cut entirely on the compressed path: serve half,
  // snapshot, restore, finish. The engine cuts codec 0, so the cut is
  // re-framed under codec 1, the word codec older builds wrote, and
  // resumed from that.
  const std::string raw_ckpt = temp_path("serve_raw.ckpt");
  {
    EventLogReader reader(compressed);
    auto engine = builder.build();
    engine->bind_log(reader.header());
    std::vector<LogEvent> batch;
    while (engine->stats().events_ingested < 3000 &&
           reader.read_batch(batch, 512) > 0) {
      engine->ingest(batch);
    }
    engine->checkpoint(raw_ckpt);
  }
  const std::string ckpt = temp_path("serve.ckpt");
  {
    SnapshotReader reader(raw_ckpt);
    SnapshotHeader header = reader.header();
    EXPECT_EQ(header.codec, SnapshotHeader::kCodecRaw);
    header.codec = SnapshotHeader::kCodecWord;
    SnapshotWriter writer(ckpt, header);
    std::uint64_t id = 0;
    std::vector<unsigned char> payload;
    while (reader.next_object(id, payload)) writer.add_object(id, payload);
    writer.close();
    EXPECT_EQ(read_snapshot_header(ckpt).codec, SnapshotHeader::kCodecWord);
  }
  {
    auto resumed = builder.restore(ckpt);
    EventLogReader reader(compressed);
    const EngineMetrics metrics = resumed->serve(reader, {.batch_events = 512});
    EXPECT_EQ(metrics.online_cost, reference.online_cost);
    EXPECT_EQ(metrics.lower_bound, reference.lower_bound);
    EXPECT_EQ(metrics.num_transfers, reference.num_transfers);
    EXPECT_EQ(metrics.events, reference.events);
  }
  // The compressed snapshot is smaller than the raw one it was framed
  // from.
  EXPECT_LT(std::filesystem::file_size(ckpt),
            std::filesystem::file_size(raw_ckpt));
}

/// Resuming against the wrong log still fails on the compressed path
/// (the binding hash is computed over decoded events).
TEST_F(CodecLogTest, WrongCompressedLogIsRejectedOnResume) {
  StreamWorkloadConfig workload;
  workload.num_objects = 100;
  workload.num_servers = 4;
  workload.rate = 2.0;
  workload.max_events = 2000;
  const std::string log = temp_path("right.evlog");
  const std::string wrong = temp_path("wrong.evlog");
  generate_event_log(workload, 1, log, EventLogFormat::kCompressed);
  generate_event_log(workload, 2, wrong, EventLogFormat::kCompressed);

  SystemConfig config;
  config.num_servers = 4;
  config.transfer_cost = 8.0;
  EngineOptions options;
  options.num_shards = 4;
  options.num_threads = 1;
  EngineBuilder builder;
  builder.config(config).options(options);
  builder.policy("drwp(alpha=0.3)").predictor("last_gap");

  const std::string ckpt = temp_path("bind.ckpt");
  {
    EventLogReader reader(log);
    auto engine = builder.build();
    engine->bind_log(reader.header());
    std::vector<LogEvent> batch;
    reader.read_batch(batch, 1000);
    engine->ingest(batch);
    engine->checkpoint(ckpt);
  }
  auto resumed = builder.restore(ckpt);
  EventLogReader reader(wrong);
  EXPECT_THROW(resumed->serve(reader, {.batch_events = 256}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repl
