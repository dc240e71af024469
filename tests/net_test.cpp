// Net-layer tests: the wire protocol (FrameAssembler against every
// corruption and chunking), and socket-level integration — concurrent
// interleaved clients whose merged serve is bit-identical to file
// replay, mid-frame disconnects surviving as the validated prefix,
// backpressure under tiny queues, live checkpoint/resume, and the
// metrics endpoint.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot.hpp"
#include "codec/block.hpp"
#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "core/drwp.hpp"
#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "predictor/last_gap.hpp"
#include "trace/event_log.hpp"

namespace repl {
namespace {

constexpr double kAlpha = 0.3;
constexpr int kServers = 5;

SystemConfig net_config() {
  SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = 10.0;
  return config;
}

EnginePolicyFactory drwp_factory() {
  return [](const EngineObjectContext&) -> PolicyPtr {
    return std::make_unique<DrwpPolicy>(kAlpha);
  };
}

EnginePredictorFactory last_gap_factory() {
  return [](const EngineObjectContext&) -> PredictorPtr {
    return std::make_unique<LastGapPredictor>(kServers);
  };
}

std::unique_ptr<StreamingEngine> make_engine() {
  return std::make_unique<StreamingEngine>(net_config(), EngineOptions{},
                                           drwp_factory(),
                                           last_gap_factory());
}

/// A deterministic interleaved stream: `count` events over `objects`
/// objects with strictly increasing times.
std::vector<LogEvent> make_events(std::size_t count, std::uint64_t objects) {
  std::vector<LogEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(LogEvent{0.25 * static_cast<double>(i + 1),
                              (i * 7919) % objects,
                              static_cast<std::uint32_t>((i * 31) % kServers)});
  }
  return events;
}

/// Reference aggregates: ingest `events` directly (no sockets).
EngineMetrics reference_metrics(const std::vector<LogEvent>& events) {
  auto engine = make_engine();
  EventLogHeader header;
  header.version = EventLogHeader::kVersionCompressed;
  header.num_servers = kServers;
  header.num_events = EventLogHeader::kUnknownCount;
  engine->bind_log(header);
  engine->ingest(events);
  return engine->finish();
}

void expect_same(const EngineMetrics& a, const EngineMetrics& b) {
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.num_local, b.num_local);
  EXPECT_EQ(a.num_transfers, b.num_transfers);
  EXPECT_EQ(a.online_cost, b.online_cost);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
}

/// Encodes one wire frame (header + payload) for raw-socket tests.
std::vector<unsigned char> encode_frame(const std::vector<LogEvent>& events) {
  std::vector<unsigned char> body;
  encode_event_block(events.data(), events.size(), body);
  std::vector<unsigned char> frame(kBlockFrameBytes + body.size());
  encode_block_frame(frame.data(), static_cast<std::uint32_t>(events.size()),
                     body.data(), body.size());
  std::copy(body.begin(), body.end(), frame.begin() + kBlockFrameBytes);
  return frame;
}

std::vector<unsigned char> encode_stream(const std::vector<LogEvent>& events,
                                         std::size_t block_events) {
  std::vector<unsigned char> stream(EventLogHeader::kSize);
  encode_stream_header(stream.data(), kServers);
  for (std::size_t i = 0; i < events.size(); i += block_events) {
    const std::size_t n = std::min(block_events, events.size() - i);
    const auto at = static_cast<std::ptrdiff_t>(i);
    const std::vector<LogEvent> block(
        events.begin() + at, events.begin() + at + static_cast<std::ptrdiff_t>(n));
    const std::vector<unsigned char> frame = encode_frame(block);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

// ---------------------------------------------------------------------
// FrameAssembler

TEST(FrameAssemblerTest, RoundTripsWholeStreamAndByteAtATime) {
  const std::vector<LogEvent> events = make_events(1000, 37);
  const std::vector<unsigned char> stream = encode_stream(events, 128);

  FrameAssembler whole("whole");
  std::vector<LogEvent> out;
  whole.feed(stream.data(), stream.size(), out);
  EXPECT_EQ(out, events);
  EXPECT_TRUE(whole.at_boundary());
  EXPECT_EQ(whole.events_decoded(), events.size());
  EXPECT_EQ(whole.frames_completed(), (events.size() + 127) / 128);
  EXPECT_EQ(whole.header().num_servers,
            static_cast<std::uint32_t>(kServers));

  // The chunking must be invisible: one byte at a time decodes the same
  // events, and at_boundary() is false everywhere except between frames.
  FrameAssembler trickle("trickle");
  std::vector<LogEvent> dribble;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    trickle.feed(stream.data() + i, 1, dribble);
  }
  EXPECT_EQ(dribble, events);
  EXPECT_TRUE(trickle.at_boundary());
}

TEST(FrameAssemblerTest, MidFrameIsNotABoundary) {
  const std::vector<LogEvent> events = make_events(10, 3);
  const std::vector<unsigned char> stream = encode_stream(events, 16);
  FrameAssembler assembler("partial");
  std::vector<LogEvent> out;
  // Header + frame header + half the payload: mid-frame.
  const std::size_t cut = EventLogHeader::kSize + kBlockFrameBytes + 5;
  assembler.feed(stream.data(), cut, out);
  EXPECT_FALSE(assembler.at_boundary());
  EXPECT_TRUE(out.empty());
  // The rest completes the frame.
  assembler.feed(stream.data() + cut, stream.size() - cut, out);
  EXPECT_EQ(out, events);
  EXPECT_TRUE(assembler.at_boundary());
}

TEST(FrameAssemblerTest, FrameHeaderCorruptionIsPositionedAndSticky) {
  const std::vector<LogEvent> events = make_events(64, 5);
  std::vector<unsigned char> stream = encode_stream(events, 32);
  stream[EventLogHeader::kSize + 3] ^= 0x40;  // inside the first frame header

  FrameAssembler assembler("peer");
  std::vector<LogEvent> out;
  try {
    assembler.feed(stream.data(), stream.size(), out);
    FAIL() << "corrupt frame header must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frame CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("peer"), std::string::npos) << what;
    EXPECT_NE(what.find("frame 0"), std::string::npos) << what;
  }
  EXPECT_TRUE(out.empty());
  // Dead after a failure: even clean bytes are refused.
  EXPECT_THROW(assembler.feed(stream.data(), 1, out), std::runtime_error);
}

TEST(FrameAssemblerTest, PayloadCorruptionFailsTheBodyCrc) {
  const std::vector<LogEvent> events = make_events(64, 5);
  std::vector<unsigned char> stream = encode_stream(events, 64);
  stream[EventLogHeader::kSize + kBlockFrameBytes + 7] ^= 0x01;

  FrameAssembler assembler("peer");
  std::vector<LogEvent> out;
  try {
    assembler.feed(stream.data(), stream.size(), out);
    FAIL() << "corrupt payload must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload CRC mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(FrameAssemblerTest, ImplausibleLengthRejectedBeforeAllocation) {
  // A frame header advertising a body beyond the cap, with a valid frame
  // CRC (so only the length check can reject it).
  std::vector<unsigned char> stream(EventLogHeader::kSize);
  encode_stream_header(stream.data(), kServers);
  unsigned char frame[kBlockFrameBytes];
  const unsigned char none = 0;
  encode_block_frame(frame, 1, &none, 0);
  store_le32(frame, 1 << 20);                    // huge body_len...
  store_le32(frame + 12, crc32c(frame, 12));     // ...with a valid CRC
  stream.insert(stream.end(), frame, frame + kBlockFrameBytes);

  FrameAssembler assembler("peer", /*max_body_bytes=*/4096);
  std::vector<LogEvent> out;
  try {
    assembler.feed(stream.data(), stream.size(), out);
    FAIL() << "implausible length must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible frame length"),
              std::string::npos)
        << e.what();
  }
}

TEST(FrameAssemblerTest, RejectsBadMagicWrongVersionAndZeroServers) {
  std::vector<LogEvent> out;
  {
    unsigned char header[EventLogHeader::kSize];
    encode_stream_header(header, kServers);
    header[0] ^= 0xFF;
    FrameAssembler assembler("peer");
    EXPECT_THROW(assembler.feed(header, sizeof(header), out),
                 std::runtime_error);
  }
  {
    unsigned char header[EventLogHeader::kSize];
    encode_stream_header(header, kServers);
    store_le32(header + 8, 1);  // raw format cannot be streamed
    FrameAssembler assembler("peer");
    EXPECT_THROW(assembler.feed(header, sizeof(header), out),
                 std::runtime_error);
  }
  {
    unsigned char header[EventLogHeader::kSize];
    encode_stream_header(header, 0);
    FrameAssembler assembler("peer");
    EXPECT_THROW(assembler.feed(header, sizeof(header), out),
                 std::runtime_error);
  }
}

TEST(FrameAssemblerTest, RejectsNonPositiveAndRegressingTimes) {
  {
    std::vector<LogEvent> events = make_events(4, 2);
    events[2].time = 0.0;
    const std::vector<unsigned char> stream = encode_stream(events, 8);
    FrameAssembler assembler("peer");
    std::vector<LogEvent> out;
    EXPECT_THROW(assembler.feed(stream.data(), stream.size(), out),
                 std::runtime_error);
  }
  {
    // Regression across a frame boundary: frame 2 rewinds the stream.
    std::vector<LogEvent> events = make_events(8, 2);
    events[6].time = events[1].time;
    events[7].time = events[1].time;
    const std::vector<unsigned char> stream = encode_stream(events, 6);
    FrameAssembler assembler("peer");
    std::vector<LogEvent> out;
    try {
      assembler.feed(stream.data(), stream.size(), out);
      FAIL() << "regressing time must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("regresses"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(out.size(), 6u);  // the first frame was delivered
  }
}

TEST(NetWireTest, AckRoundTripsAndRejectsBadMagic) {
  unsigned char ack[kNetAckBytes];
  encode_net_ack(ack, 123456789ULL);
  EXPECT_EQ(decode_net_ack(ack), 123456789ULL);
  ack[1] ^= 0x10;
  EXPECT_THROW(decode_net_ack(ack), std::runtime_error);
}

// ---------------------------------------------------------------------
// Socket integration

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_net_test_" + std::string(::testing::UnitTest::GetInstance()
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

/// Streams `events` through a connected client; swallows socket errors
/// (tests that kill connections expect the peer to see EPIPE).
void stream_events(Socket sock, const std::vector<LogEvent>& events,
                   EventStreamClientOptions options = {}) {
  try {
    EventStreamClient client(std::move(sock), options);
    client.handshake(kServers);
    for (const LogEvent& event : events) {
      if (!client.send(event)) return;
    }
    client.finish();
  } catch (const std::exception&) {
  }
}

TEST_F(NetTest, InterleavedClientsMatchFileReplayBitForBit) {
  // Three concurrent clients — one of them slow (tiny chunks with pauses)
  // — each streaming a round-robin share of one logical stream over TCP.
  // The merged serve must equal a direct ingest of the whole stream.
  const std::vector<LogEvent> all = make_events(6000, 41);
  const EngineMetrics reference = reference_metrics(all);

  NetServerOptions options;
  options.tcp_port = 0;
  options.min_connections = 3;
  options.batch_events = 256;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);
  const int port = server.tcp_port();
  ASSERT_GT(port, 0);

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    std::vector<LogEvent> share;
    for (std::size_t i = static_cast<std::size_t>(c); i < all.size(); i += 3) {
      share.push_back(all[i]);
    }
    EventStreamClientOptions client_options;
    client_options.block_events = static_cast<std::size_t>(100 + 37 * c);
    if (c == 1) {  // the slow client: dribbles bytes with pauses
      client_options.chunk_bytes = 64;
      client_options.pace_seconds = 0.0002;
    }
    clients.emplace_back([port, share = std::move(share), client_options] {
      stream_events(connect_tcp("127.0.0.1", port), share, client_options);
    });
  }

  const EngineMetrics metrics = engine->serve(*&source, ServeOptions{});
  for (std::thread& t : clients) t.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_total(), 3u);
  EXPECT_EQ(server.connections_failed(), 0u);
}

TEST_F(NetTest, MidFrameDisconnectKeepsExactlyTheValidatedPrefix) {
  // Client A streams its share completely; client B drops the connection
  // mid-frame. The serve must finish cleanly with aggregates equal to a
  // file replay of A's events plus B's fully-framed prefix.
  const std::vector<LogEvent> all = make_events(4000, 29);
  std::vector<LogEvent> share_a, share_b;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ((all[i].object % 2 == 0) ? share_a : share_b).push_back(all[i]);
  }

  // Choose an abort budget that lands strictly inside a frame, and
  // compute the surviving prefix by replaying the client's own framing.
  const std::size_t kBlock = 64;
  std::uint64_t abort_bytes = 0;
  std::size_t surviving = 0;
  {
    std::uint64_t bytes = 0;
    std::vector<std::uint64_t> frame_ends;
    for (std::size_t i = 0; i < share_b.size(); i += kBlock) {
      const std::size_t n = std::min(kBlock, share_b.size() - i);
      const auto at = static_cast<std::ptrdiff_t>(i);
      const std::vector<LogEvent> block(
          share_b.begin() + at,
          share_b.begin() + at + static_cast<std::ptrdiff_t>(n));
      bytes += encode_frame(block).size();
      frame_ends.push_back(bytes);
    }
    ASSERT_GE(frame_ends.size(), 4u);
    abort_bytes = frame_ends[2] + 7;  // 7 bytes into the fourth frame
    surviving = 3 * kBlock;
  }

  std::vector<LogEvent> expected = share_a;
  expected.insert(expected.end(), share_b.begin(),
                  share_b.begin() + static_cast<std::ptrdiff_t>(surviving));
  std::sort(expected.begin(), expected.end(),
            [](const LogEvent& x, const LogEvent& y) {
              return x.time < y.time;
            });
  const EngineMetrics reference = reference_metrics(expected);

  NetServerOptions options;
  options.tcp_port = -1;
  options.unix_path = temp_path("ingest.sock");
  options.min_connections = 2;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread a([&] {
    stream_events(connect_unix(options.unix_path), share_a, {});
  });
  std::thread b([&] {
    EventStreamClientOptions dropper;
    dropper.block_events = kBlock;
    dropper.abort_after_bytes = abort_bytes;
    stream_events(connect_unix(options.unix_path), share_b, dropper);
  });

  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  a.join();
  b.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_failed(), 1u);
  EXPECT_NE(server.metrics_json().find("disconnected mid-frame"),
            std::string::npos);
}

TEST_F(NetTest, CorruptFrameKillsTheConnectionNotTheServer) {
  const std::vector<LogEvent> all = make_events(2000, 17);
  std::vector<LogEvent> share_a, share_b;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ((all[i].object % 2 == 0) ? share_a : share_b).push_back(all[i]);
  }
  const EngineMetrics reference = reference_metrics(share_a);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.min_connections = 2;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread a([&] {
    stream_events(connect_unix(options.unix_path), share_a, {});
  });
  std::thread b([&] {
    // Raw socket: valid handshake, then a payload with a flipped bit.
    try {
      Socket sock = connect_unix(options.unix_path);
      unsigned char header[EventLogHeader::kSize];
      encode_stream_header(header, kServers);
      sock.write_all(header, sizeof(header));
      unsigned char ack[kNetAckBytes];
      ASSERT_TRUE(sock.read_exact(ack, sizeof(ack)));
      std::vector<unsigned char> frame = encode_frame(share_b);
      frame[kBlockFrameBytes + 11] ^= 0x08;
      sock.write_all(frame.data(), frame.size());
      sock.shutdown_write();
      // Wait for the server to close on us (kill observed).
      unsigned char sink;
      sock.read_exact(&sink, 1);
    } catch (const std::exception&) {
    }
  });

  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  a.join();
  b.join();

  // Only the clean client's events were served; the corrupt one is a
  // diagnosed failure, not a crash.
  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_failed(), 1u);
  EXPECT_NE(server.metrics_json().find("CRC mismatch"), std::string::npos);
}

TEST_F(NetTest, LateJoinerBehindTheWatermarkIsKilled) {
  const std::vector<LogEvent> early = make_events(500, 7);

  // One client lifts the start barrier; the serve outlives it (no idle
  // end) so a second client can join after its events were admitted.
  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.min_connections = 1;
  options.stop_when_idle = false;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread clients([&] {
    // First client streams and closes; its events are fully admitted
    // once it is the only open connection.
    stream_events(connect_unix(options.unix_path), early, {});
    // Poll until the serve has admitted everything the first client sent.
    while (server.events_admitted() < early.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The second client replays old times — behind the watermark.
    stream_events(connect_unix(options.unix_path), early, {});
    while (server.connections_failed() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
  });

  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  clients.join();

  EXPECT_EQ(metrics.events, early.size());
  EXPECT_EQ(server.connections_total(), 2u);
  EXPECT_EQ(server.connections_failed(), 1u);
  EXPECT_NE(server.metrics_json().find("time-regressed"), std::string::npos);
}

TEST_F(NetTest, StaggeredClientsBehindTheStartBarrierShareTheGlobalBound) {
  // min_connections=2 with the global queue bound equal to one
  // connection's: the first client fills the whole global bound before
  // the second connects, while the barrier admits nothing. The second
  // connection must still publish its first time (an empty queue may
  // always take one event), or the watermark stays at 0 for good.
  const std::vector<LogEvent> all = make_events(4000, 23);
  std::vector<LogEvent> share_a, share_b;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ((all[i].object % 2 == 0) ? share_a : share_b).push_back(all[i]);
  }
  const EngineMetrics reference = reference_metrics(all);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.min_connections = 2;
  options.max_connection_events = 256;
  options.max_total_events = 256;
  options.batch_events = 128;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread clients([&] {
    std::thread a([&] {
      stream_events(connect_unix(options.unix_path), share_a, {});
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.events_queued() < options.max_total_events &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stream_events(connect_unix(options.unix_path), share_b, {});
    a.join();
  });
  // A deadlocked admission would block serve() forever: stop the server
  // after a generous bound so the test fails on its aggregates instead.
  std::atomic<bool> served{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!served && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!served) server.stop();
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  served = true;
  watchdog.join();
  clients.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_total(), 2u);
  EXPECT_EQ(server.connections_failed(), 0u);
}

TEST_F(NetTest, SingleOrderedClientIsAdmittedInWholeQueuedRuns) {
  // One time-ordered client: everything it has queued is admissible (its
  // later events cannot be earlier), so batches carry whole decoded
  // frames rather than one event each.
  const std::vector<LogEvent> all = make_events(40960, 97);
  const EngineMetrics reference = reference_metrics(all);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread client([&] {
    EventStreamClientOptions blocks;
    blocks.block_events = 4096;
    stream_events(connect_unix(options.unix_path), all, blocks);
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_failed(), 0u);
  const EngineStats& stats = engine->stats();
  ASSERT_GT(stats.batches, 0u);
  EXPECT_GE(stats.events_ingested / stats.batches, 100u)
      << stats.events_ingested << " events in " << stats.batches
      << " batches";
}

TEST_F(NetTest, TimeRegressionAcrossFramesKillsOnlyThatConnection) {
  // The invariant the newest-time admission cap relies on: a connection
  // whose next frame starts earlier than its previous frame ended is
  // killed at the frame decoder, its whole frames before the regression
  // stay admitted, and every other connection is served in full.
  const std::vector<LogEvent> all = make_events(3000, 19);
  std::vector<LogEvent> share_a, share_b;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ((all[i].object % 2 == 0) ? share_a : share_b).push_back(all[i]);
  }
  const std::size_t kBlock = 64;
  ASSERT_GE(share_b.size(), 4 * kBlock);
  // Frame 2 replays frame 0's times: ordered inside the frame, earlier
  // than the end of frame 1.
  for (std::size_t i = 0; i < kBlock; ++i) {
    share_b[2 * kBlock + i].time = share_b[i].time;
  }
  std::vector<LogEvent> expected = share_a;
  expected.insert(expected.end(), share_b.begin(),
                  share_b.begin() + static_cast<std::ptrdiff_t>(2 * kBlock));
  std::sort(expected.begin(), expected.end(),
            [](const LogEvent& x, const LogEvent& y) {
              return x.time < y.time;
            });
  const EngineMetrics reference = reference_metrics(expected);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.min_connections = 2;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread a([&] {
    stream_events(connect_unix(options.unix_path), share_a, {});
  });
  std::thread b([&] {
    EventStreamClientOptions framed;
    framed.block_events = kBlock;
    stream_events(connect_unix(options.unix_path), share_b, framed);
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  a.join();
  b.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_total(), 2u);
  EXPECT_EQ(server.connections_failed(), 1u);
  EXPECT_EQ(server.events_admitted(), expected.size());
  EXPECT_NE(server.metrics_json().find("regresses"), std::string::npos);
}

TEST_F(NetTest, TinyQueuesBackpressureWithoutLossOrDeadlock) {
  const std::vector<LogEvent> all = make_events(5000, 13);
  const EngineMetrics reference = reference_metrics(all);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.max_connection_events = 8;  // absurdly small on purpose
  options.max_total_events = 8;
  options.batch_events = 4;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread client([&] {
    EventStreamClientOptions small;
    small.block_events = 32;
    stream_events(connect_unix(options.unix_path), all, small);
  });

  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();
  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_failed(), 0u);
}

TEST_F(NetTest, ZeroEventClientEndsTheServeCleanly) {
  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread client([&] {
    stream_events(connect_unix(options.unix_path), {}, {});
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();
  EXPECT_EQ(metrics.events, 0u);
  EXPECT_EQ(server.connections_failed(), 0u);
}

TEST_F(NetTest, HandshakeRejectsMismatchedServerCount) {
  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  NetIngestServer server(options);
  server.start(kServers, 0);

  EventStreamClient client(connect_unix(options.unix_path));
  EXPECT_THROW(client.handshake(kServers + 1), std::runtime_error);
  server.stop();
  EXPECT_EQ(server.connections_failed(), 1u);
}

TEST_F(NetTest, KillAndResumeFromCheckpointReproducesUninterruptedRun) {
  // The crash drill: serve part of the stream with periodic checkpoints,
  // "crash" (abandon engine and server), restore from the snapshot, let
  // the client reconnect — the handshake tells it how much to skip — and
  // finish. Final aggregates must equal an uninterrupted run.
  const std::vector<LogEvent> all = make_events(4000, 23);
  const EngineMetrics reference = reference_metrics(all);
  const std::string ckpt = temp_path("live.ckpt");

  std::uint64_t resume_offset = 0;
  {
    NetServerOptions options;
    options.unix_path = temp_path("ingest.sock");
    options.tcp_port = -1;
    options.batch_events = 256;  // keep the kill point mid-stream
    NetIngestServer server(options);
    auto engine = make_engine();
    NetIngestSource source(server, kServers);
    source.attach(*engine);

    std::thread client([&] {
      EventStreamClientOptions small;
      small.block_events = 64;
      stream_events(connect_unix(options.unix_path), all, small);
    });

    // Manual drain (the serve loop minus finish): ingest until we are
    // past 1500 events, checkpoint, and abandon everything mid-session.
    std::vector<LogEvent> batch;
    while (engine->stats().events_ingested < 1500 &&
           source.next_batch(batch)) {
      engine->ingest(batch);
    }
    engine->checkpoint(ckpt);
    resume_offset = engine->stats().events_ingested;
    ASSERT_GT(resume_offset, 0u);
    ASSERT_LT(resume_offset, all.size());
    server.stop();
    client.join();
  }

  // Restart: restore the snapshot, serve the remainder of the stream.
  auto engine = StreamingEngine::restore(ckpt, net_config(), EngineOptions{},
                                         drwp_factory(), last_gap_factory());
  ASSERT_EQ(engine->resume_position(), resume_offset);

  NetServerOptions options;
  options.unix_path = temp_path("ingest2.sock");
  options.tcp_port = -1;
  NetIngestServer server(options);
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  std::thread client([&] {
    try {
      EventStreamClient client_conn(connect_unix(options.unix_path));
      const std::uint64_t skip = client_conn.handshake(kServers);
      EXPECT_EQ(skip, resume_offset);
      for (std::size_t i = static_cast<std::size_t>(skip); i < all.size();
           ++i) {
        client_conn.send(all[i]);
      }
      client_conn.finish();
    } catch (const std::exception&) {
    }
  });

  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();
  expect_same(metrics, reference);
}

/// One HTTP GET against a local port; optional extra request headers
/// ("Accept: application/json\r\n"). Returns the full raw response.
std::string http_get(int port, const std::string& target,
                     const std::string& extra_headers = "") {
  Socket sock = connect_tcp("127.0.0.1", port);
  const std::string request =
      "GET " + target + " HTTP/1.0\r\n" + extra_headers + "\r\n";
  sock.write_all(reinterpret_cast<const unsigned char*>(request.data()),
                 request.size());
  std::string response;
  unsigned char buf[512];
  for (;;) {
    const std::size_t n = sock.read_some(buf, sizeof(buf));
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), n);
  }
  return response;
}

TEST_F(NetTest, MetricsEndpointServesPrometheusAndJsonOverHttp) {
  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.metrics_port = 0;
  NetIngestServer server(options);
  server.start(kServers, 42);
  server.note_checkpoint(1000);
  const int port = server.metrics_port();
  ASSERT_GT(port, 0);

  // Default /metrics is Prometheus text. The admitted counter speaks
  // logical-stream positions, so it starts at the resume offset; the
  // checkpoint gauges reflect note_checkpoint.
  const std::string prom = http_get(port, "/metrics");
  EXPECT_NE(prom.find("200 OK"), std::string::npos);
  EXPECT_NE(prom.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE repl_net_events_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("repl_net_events_admitted_total 42"),
            std::string::npos);
  EXPECT_NE(prom.find("repl_checkpoint_events 1000"), std::string::npos);

  // Query strings and HTTP/1.0 clients must not confuse the routing.
  EXPECT_NE(http_get(port, "/metrics?x=1&y=2")
                .find("repl_net_events_admitted_total 42"),
            std::string::npos);

  // JSON via content negotiation and via the explicit .json path, with
  // the per-connection detail the old endpoint carried.
  for (const std::string& json :
       {http_get(port, "/metrics", "Accept: application/json\r\n"),
        http_get(port, "/metrics.json")}) {
    EXPECT_NE(json.find("200 OK"), std::string::npos);
    EXPECT_NE(json.find("application/json"), std::string::npos);
    EXPECT_NE(json.find("\"repl_net_events_admitted_total\""),
              std::string::npos);
    EXPECT_NE(json.find("\"per_connection\""), std::string::npos);
    EXPECT_NE(json.find("\"uptime_seconds\""), std::string::npos);
  }

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  EXPECT_NE(http_get(port, "/bogus").find("404"), std::string::npos);
  server.stop();
}

TEST_F(NetTest, SourceHooksNeedNoWiring) {
  // The net source carries the front-end's hooks itself. With tracing on
  // and ServeOptions naming only the checkpoint cadence and path, the
  // engine's ingest spans join the client's wire trace frame and every
  // checkpoint reaches the server's checkpoint gauges.
  const std::vector<LogEvent> all = make_events(4000, 31);
  const EngineMetrics reference = reference_metrics(all);
  constexpr std::uint64_t kTraceId = 0x7e57c0ffee15900dULL;
  constexpr std::uint64_t kSpanId = 0x5ca1ab1eULL;

  NetServerOptions options;
  options.tcp_port = -1;
  options.unix_path = temp_path("ingest.sock");
  options.batch_events = 256;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  ServeOptions serve;
  serve.checkpoint_every = 1000;
  serve.checkpoint_path = temp_path("live.ckpt");
  const std::string part = temp_path("trace.jsonl");
  EngineMetrics metrics;
  {
    struct StopTracer {
      ~StopTracer() { obs::Tracer::global().stop(); }
    } stop_tracer;
    obs::Tracer::global().start(part, "net-test");
    std::thread client([&] {
      try {
        EventStreamClient c(connect_unix(options.unix_path));
        c.handshake(kServers);
        c.send_trace(kTraceId, kSpanId);
        for (const LogEvent& event : all) c.send(event);
        c.finish();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client: " << e.what();
      }
    });
    metrics = engine->serve(source, serve);
    client.join();
  }
  expect_same(metrics, reference);

  std::ifstream in(part);
  std::string line;
  std::size_t ingest_spans = 0;
  const std::string want = "\"trace_id\":\"7e57c0ffee15900d\"";
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"engine.ingest\"") == std::string::npos) continue;
    ++ingest_spans;
    EXPECT_NE(line.find(want), std::string::npos) << line;
  }
  EXPECT_EQ(ingest_spans, engine->stats().batches);
  EXPECT_GT(ingest_spans, 0u);

  const std::uint64_t last_cut =
      read_snapshot_header(serve.checkpoint_path).events_ingested;
  EXPECT_EQ(last_cut, all.size());
  double gauge = -1.0;
  for (const obs::Sample& sample : server.registry().collect()) {
    if (sample.name == "repl_checkpoint_events") gauge = sample.value;
  }
  EXPECT_EQ(gauge, static_cast<double>(last_cut));
  // The stats-line suffix, rendered from the server's registry: nothing
  // left queued, one clean connection.
  const auto now = std::chrono::steady_clock::now();
  const std::string stats = obs::ProgressLine("[serve]", {}, now).render(
      server.registry().collect(), now);
  EXPECT_TRUE(stats.ends_with(" queued=0 conns=1/0f")) << stats;
}

TEST_F(NetTest, RegistryAgreesWithServerCountersEndToEnd) {
  // A shared registry (as repl_server wires it): the server publishes
  // into a caller-owned registry, and after a full serve both exposition
  // formats scraped over HTTP agree exactly with the server's own
  // counters.
  const std::vector<LogEvent> all = make_events(3000, 29);
  const EngineMetrics reference = reference_metrics(all);

  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.tcp_port = 0;
  options.metrics_port = 0;
  options.batch_events = 128;
  options.metrics = &registry;
  EngineMetrics metrics;
  {
    NetIngestServer server(options);
    auto engine = make_engine();
    NetIngestSource source(server, kServers);
    source.attach(*engine);
    ASSERT_GT(server.tcp_port(), 0);

    std::thread client([&] {
      stream_events(connect_tcp("127.0.0.1", server.tcp_port()), all, {});
    });
    metrics = engine->serve(source, ServeOptions{});
    client.join();

    expect_same(metrics, reference);
    EXPECT_EQ(server.events_admitted(), all.size());

    // The registry's counters must equal the server's own accounting.
    obs::Counter& admitted = registry.counter(
        "repl_net_events_admitted_total", "");
    obs::Counter& received = registry.counter(
        "repl_net_events_received_total", "");
    EXPECT_EQ(admitted.value(), server.events_admitted());
    EXPECT_EQ(received.value(), all.size());

    // End-to-end over HTTP: both formats carry that exact value.
    const std::string want =
        "repl_net_events_admitted_total " + std::to_string(all.size());
    EXPECT_NE(http_get(server.metrics_port(), "/metrics").find(want),
              std::string::npos);
    EXPECT_NE(http_get(server.metrics_port(), "/metrics.json")
                  .find("\"repl_net_events_admitted_total\":{\"type\":"
                        "\"counter\",\"value\":" +
                        std::to_string(all.size())),
              std::string::npos);
    server.stop();
  }
  // The server removed its collect hook on destruction: scraping the
  // surviving registry is safe and the counters persist.
  bool saw_admitted = false;
  for (const obs::Sample& s : registry.collect()) {
    if (s.name == "repl_net_events_admitted_total") {
      saw_admitted = true;
      EXPECT_EQ(s.counter_value, all.size());
    }
  }
  EXPECT_TRUE(saw_admitted);
}

TEST_F(NetTest, StreamSplitAcrossSequentialConnectionsMatchesDirectIngest) {
  // One producer streams half its events, closes at a frame boundary,
  // connects again and streams the rest: the server merges the two
  // connections into a serve equal to a direct ingest.
  const std::vector<LogEvent> all = make_events(4000, 31);
  const EngineMetrics reference = reference_metrics(all);

  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.batch_events = 128;
  options.min_connections = 2;  // the serve must outlive the first one
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  const auto half = static_cast<std::ptrdiff_t>(all.size() / 2);
  std::thread client([&] {
    stream_events(connect_unix(options.unix_path),
                  std::vector<LogEvent>(all.begin(), all.begin() + half));
    stream_events(connect_unix(options.unix_path),
                  std::vector<LogEvent>(all.begin() + half, all.end()));
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_total(), 2u);
  EXPECT_EQ(server.connections_failed(), 0u);
}

// ---------------------------------------------------------------------
// Per-connection ingest rate limiting

TEST_F(NetTest, RateLimitBoundsIngestWithoutLossAndCountsStalls) {
  // 6000 events against a 4000/s cap with one second of burst: the
  // bucket admits 4000 immediately and meters the remaining 2000, so
  // the serve cannot finish faster than ~0.5s — and no event is lost
  // or reordered by the throttle.
  const std::vector<LogEvent> all = make_events(6000, 17);
  const EngineMetrics reference = reference_metrics(all);

  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.unix_path = temp_path("ingest.sock");
  options.tcp_port = -1;
  options.batch_events = 256;
  options.max_events_per_sec = 4000.0;
  options.metrics = &registry;
  NetIngestServer server(options);
  auto engine = make_engine();
  NetIngestSource source(server, kServers);
  source.attach(*engine);

  const auto start = std::chrono::steady_clock::now();
  std::thread client([&] {
    EventStreamClientOptions small;
    small.block_events = 512;
    stream_events(connect_unix(options.unix_path), all, small);
  });
  const EngineMetrics metrics = engine->serve(source, ServeOptions{});
  client.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  expect_same(metrics, reference);
  EXPECT_EQ(server.connections_failed(), 0u);
  EXPECT_GE(elapsed, 0.4);
  EXPECT_GE(registry.counter("repl_net_backpressure_stalls_total", "").value(),
            1u);
}

}  // namespace
}  // namespace repl
