// Cluster tests: the deterministic partition function, the control
// protocol codec and its state machine, a worker's refusal of a snapshot
// cut for another slice, and — when the repl_cluster launcher is built —
// true multi-process serving: coordinator + N workers over unix sockets,
// bit-identical to single-process serve, including after SIGKILLing
// workers at every point of the kill matrix and respawning them from
// their per-partition checkpoints.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "cluster/control.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/partition.hpp"
#include "cluster/worker.hpp"
#include "codec/block.hpp"
#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "engine/engine.hpp"
#include "obs/federation.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"
#include "util/json.hpp"

namespace repl {
namespace {

constexpr int kServers = 5;
constexpr std::uint64_t kSeed = 0x5eed5eed5eed5eedULL;

#ifdef REPL_CLUSTER_BIN
constexpr const char* kClusterBin = REPL_CLUSTER_BIN;
#else
constexpr const char* kClusterBin = nullptr;
#endif

SystemConfig cluster_config() {
  SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = 10.0;
  return config;
}

/// A deterministic interleaved stream: `count` events over `objects`
/// objects with strictly increasing times (the net_test generator).
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

void expect_same(const EngineMetrics& a, const EngineMetrics& b) {
  EXPECT_EQ(a.objects, b.objects);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.num_local, b.num_local);
  EXPECT_EQ(a.num_transfers, b.num_transfers);
  EXPECT_EQ(a.online_cost, b.online_cost);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
}

/// Asserts `fn` throws a std::exception whose message contains `needle`.
template <typename Fn>
void expect_throws_with(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected an exception containing \"" << needle << "\"";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

// ---------------------------------------------------------------------
// Partition function

TEST(PartitionFunction, GoldenValuesPinTheMapping) {
  // kPartitionFunctionVersion = 1 IS these outputs. If this test fails,
  // the mapping changed: every existing snapshot and cross-version
  // cluster would resume the wrong slice. Bump the version, don't
  // repin silently.
  struct Golden {
    std::uint64_t id;
    std::uint32_t p2, p4, p7;
  };
  constexpr Golden kGolden[] = {
      {0ULL, 1, 1, 2},
      {1ULL, 0, 0, 4},
      {2ULL, 0, 0, 5},
      {3ULL, 0, 0, 5},
      {42ULL, 0, 0, 1},
      {7919ULL, 1, 1, 6},
      {123456789ULL, 0, 2, 5},
      {18446744073709551615ULL, 1, 1, 5},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(partition_of(g.id, 2), g.p2) << "id " << g.id;
    EXPECT_EQ(partition_of(g.id, 4), g.p4) << "id " << g.id;
    EXPECT_EQ(partition_of(g.id, 7), g.p7) << "id " << g.id;
  }
  EXPECT_EQ(kPartitionFunctionVersion, 1u);
}

TEST(PartitionFunction, StableInRangeAndDegenerate) {
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 7u, 64u}) {
    for (std::uint64_t id = 0; id < 4096; ++id) {
      const std::uint32_t p = partition_of(id, n);
      ASSERT_LT(p, n);
      // Pure function: repeated evaluation must agree.
      ASSERT_EQ(partition_of(id, n), p);
    }
  }
  // One partition degenerates to the single-process stream.
  for (std::uint64_t id = 0; id < 4096; ++id) {
    ASSERT_EQ(partition_of(id * 0x9e3779b97f4a7c15ULL, 1), 0u);
  }
}

TEST(PartitionFunction, SpreadsObjectsRoughlyEvenly) {
  constexpr std::uint32_t kPartitions = 4;
  constexpr std::uint64_t kIds = 100000;
  std::uint64_t counts[kPartitions] = {0, 0, 0, 0};
  for (std::uint64_t id = 0; id < kIds; ++id) {
    ++counts[partition_of(id, kPartitions)];
  }
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    // Uniform expectation is 25000; a mixed 64-bit hash stays well
    // inside +-20% at this sample size.
    EXPECT_GT(counts[p], kIds / kPartitions * 8 / 10) << "partition " << p;
    EXPECT_LT(counts[p], kIds / kPartitions * 12 / 10) << "partition " << p;
  }
}

TEST(PartitionFunction, VersionGuardFailsLoudly) {
  EXPECT_NO_THROW(
      require_partition_function_version(kPartitionFunctionVersion));
  EXPECT_THROW(
      require_partition_function_version(kPartitionFunctionVersion + 1),
      std::invalid_argument);
  EXPECT_THROW(require_partition_function_version(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Control protocol codec

ControlHello test_hello() {
  ControlHello hello;
  hello.partition_id = 1;
  hello.num_partitions = 4;
  hello.pf_version = kPartitionFunctionVersion;
  hello.num_servers = kServers;
  hello.resume_events = 77;
  hello.base_seed = kSeed;
  return hello;
}

/// Stream header + hello — the prefix every legal control stream shares.
std::vector<unsigned char> control_prefix(
    const ControlHello& hello = test_hello()) {
  std::vector<unsigned char> bytes;
  encode_control_header(bytes);
  encode_control_hello(hello, bytes);
  return bytes;
}

/// Feeds `bytes` in `chunk`-sized pieces through `assembler`.
std::vector<ControlMessage> feed_all(const std::vector<unsigned char>& bytes,
                                     std::size_t chunk,
                                     ClusterControlAssembler& assembler) {
  std::vector<ControlMessage> out;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t take = std::min(chunk, bytes.size() - at);
    assembler.feed(bytes.data() + at, take, out);
    at += take;
  }
  return out;
}

/// Asserts a fresh assembler rejects `bytes` with `needle` in the
/// diagnostic, at a few different chunkings.
void expect_control_rejects(const std::vector<unsigned char>& bytes,
                            const std::string& needle) {
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, bytes.size()}) {
    ClusterControlAssembler assembler("test");
    expect_throws_with([&] { feed_all(bytes, chunk, assembler); }, needle);
  }
}

std::vector<EngineObjectFinal> make_finals(std::size_t count,
                                           std::uint64_t first_id) {
  std::vector<EngineObjectFinal> finals(count);
  for (std::size_t i = 0; i < count; ++i) {
    finals[i].id = first_id + 3 * i;
    finals[i].events = 10 + i;
    finals[i].num_local = 7 + i;
    finals[i].num_transfers = 3;
    finals[i].online_cost = 1.25 * static_cast<double>(i + 1);
    finals[i].lower_bound = 0.5 * static_cast<double>(i + 1);
  }
  return finals;
}

TEST(ControlCodec, RoundTripsAFullSessionAtEveryChunking) {
  const ControlHello hello = test_hello();
  const std::vector<EngineObjectFinal> finals = make_finals(10, 100);
  ControlSummary summary;
  summary.objects = 10;
  summary.events = 145;
  summary.num_local = 115;
  summary.num_transfers = 30;
  summary.online_cost = 68.75;
  summary.lower_bound = 27.5;

  std::vector<unsigned char> bytes = control_prefix(hello);
  encode_control_progress(ControlProgress{100, 1}, bytes);
  encode_control_checkpoint(ControlCheckpoint{100}, bytes);
  encode_control_finals(finals.data(), 6, bytes);
  encode_control_finals(finals.data() + 6, 4, bytes);
  encode_control_summary(summary, bytes);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, bytes.size()}) {
    ClusterControlAssembler assembler("test");
    const std::vector<ControlMessage> messages =
        feed_all(bytes, chunk, assembler);
    ASSERT_EQ(messages.size(), 6u) << "chunk " << chunk;
    EXPECT_TRUE(assembler.at_boundary());
    EXPECT_TRUE(assembler.complete());
    EXPECT_EQ(assembler.messages_decoded(), 6u);
    EXPECT_EQ(assembler.finals_records(), 10u);
    EXPECT_EQ(assembler.bytes_consumed(), bytes.size());

    EXPECT_EQ(messages[0].type, ControlType::kHello);
    EXPECT_EQ(messages[0].hello.partition_id, hello.partition_id);
    EXPECT_EQ(messages[0].hello.num_partitions, hello.num_partitions);
    EXPECT_EQ(messages[0].hello.pf_version, hello.pf_version);
    EXPECT_EQ(messages[0].hello.num_servers, hello.num_servers);
    EXPECT_EQ(messages[0].hello.resume_events, hello.resume_events);
    EXPECT_EQ(messages[0].hello.base_seed, hello.base_seed);

    EXPECT_EQ(messages[1].type, ControlType::kProgress);
    EXPECT_EQ(messages[1].progress.events_ingested, 100u);
    EXPECT_EQ(messages[1].progress.batches, 1u);
    EXPECT_EQ(messages[2].type, ControlType::kCheckpoint);
    EXPECT_EQ(messages[2].checkpoint.events_ingested, 100u);

    ASSERT_EQ(messages[3].type, ControlType::kFinals);
    ASSERT_EQ(messages[4].type, ControlType::kFinals);
    std::vector<EngineObjectFinal> got = messages[3].finals;
    got.insert(got.end(), messages[4].finals.begin(),
               messages[4].finals.end());
    ASSERT_EQ(got.size(), finals.size());
    for (std::size_t i = 0; i < finals.size(); ++i) {
      EXPECT_EQ(got[i].id, finals[i].id);
      EXPECT_EQ(got[i].events, finals[i].events);
      EXPECT_EQ(got[i].num_local, finals[i].num_local);
      EXPECT_EQ(got[i].num_transfers, finals[i].num_transfers);
      EXPECT_EQ(got[i].online_cost, finals[i].online_cost);
      EXPECT_EQ(got[i].lower_bound, finals[i].lower_bound);
    }

    EXPECT_EQ(messages[5].type, ControlType::kSummary);
    EXPECT_EQ(messages[5].summary.objects, summary.objects);
    EXPECT_EQ(messages[5].summary.events, summary.events);
    EXPECT_EQ(messages[5].summary.online_cost, summary.online_cost);
    EXPECT_EQ(messages[5].summary.lower_bound, summary.lower_bound);
  }
}

TEST(ControlCodec, RejectsBadStreamHeader) {
  std::vector<unsigned char> bad_magic = control_prefix();
  bad_magic[0] ^= 0xff;
  expect_control_rejects(bad_magic, "bad control stream magic");

  std::vector<unsigned char> bad_version = control_prefix();
  bad_version[8] = 9;
  expect_control_rejects(bad_version, "unsupported control stream version 9");

  std::vector<unsigned char> bad_reserved = control_prefix();
  bad_reserved[12] = 1;
  expect_control_rejects(bad_reserved,
                         "control stream header reserved field is not zero");
}

TEST(ControlCodec, HelloMustOpenTheStreamExactlyOnce) {
  std::vector<unsigned char> no_hello;
  encode_control_header(no_hello);
  encode_control_progress(ControlProgress{10, 1}, no_hello);
  expect_control_rejects(no_hello,
                         "progress before hello (hello must open the stream)");

  std::vector<unsigned char> twice = control_prefix();
  encode_control_hello(test_hello(), twice);
  expect_control_rejects(twice, "duplicate hello");
}

TEST(ControlCodec, RejectsInvalidHelloGeometry) {
  ControlHello zero_parts = test_hello();
  zero_parts.partition_id = 0;
  zero_parts.num_partitions = 0;
  expect_control_rejects(control_prefix(zero_parts),
                         "hello declares 0 partitions");

  ControlHello out_of_range = test_hello();
  out_of_range.partition_id = 4;
  expect_control_rejects(control_prefix(out_of_range),
                         "hello partition id 4 out of range [0, 4)");

  ControlHello zero_servers = test_hello();
  zero_servers.num_servers = 0;
  expect_control_rejects(control_prefix(zero_servers),
                         "hello declares 0 servers");
}

TEST(ControlCodec, CountersMustNotRegress) {
  // The hello's resume position is the floor both counters start from.
  std::vector<unsigned char> below_resume = control_prefix();
  encode_control_progress(ControlProgress{50, 1}, below_resume);
  expect_control_rejects(below_resume, "progress regressed");

  std::vector<unsigned char> events_back = control_prefix();
  encode_control_progress(ControlProgress{200, 2}, events_back);
  encode_control_progress(ControlProgress{100, 3}, events_back);
  expect_control_rejects(events_back, "progress regressed: 100 events after");

  std::vector<unsigned char> batches_back = control_prefix();
  encode_control_progress(ControlProgress{200, 2}, batches_back);
  encode_control_progress(ControlProgress{300, 1}, batches_back);
  expect_control_rejects(batches_back,
                         "progress batch count regressed: 1 after");

  std::vector<unsigned char> ckpt_back = control_prefix();
  encode_control_checkpoint(ControlCheckpoint{500}, ckpt_back);
  encode_control_checkpoint(ControlCheckpoint{400}, ckpt_back);
  expect_control_rejects(ckpt_back,
                         "checkpoint position regressed: 400 events after");

  // Equal repeats are legal (non-strict monotonicity): a worker may
  // re-announce its position.
  std::vector<unsigned char> equal = control_prefix();
  encode_control_progress(ControlProgress{200, 2}, equal);
  encode_control_progress(ControlProgress{200, 2}, equal);
  encode_control_checkpoint(ControlCheckpoint{200}, equal);
  encode_control_checkpoint(ControlCheckpoint{200}, equal);
  ClusterControlAssembler assembler("test");
  EXPECT_EQ(feed_all(equal, 13, assembler).size(), 5u);
}

TEST(ControlCodec, FinalsMustBeSortedAndSummaryMustAccount) {
  const std::vector<EngineObjectFinal> seven = make_finals(1, 7);
  const std::vector<EngineObjectFinal> three = make_finals(1, 3);

  std::vector<unsigned char> unsorted = control_prefix();
  encode_control_finals(seven.data(), 1, unsorted);
  encode_control_finals(three.data(), 1, unsorted);
  expect_control_rejects(unsorted,
                         "finals id 3 does not increase past 7 (finals must "
                         "be id-sorted)");

  std::vector<unsigned char> duplicate = control_prefix();
  encode_control_finals(seven.data(), 1, duplicate);
  encode_control_finals(seven.data(), 1, duplicate);
  expect_control_rejects(duplicate, "does not increase past 7");

  const std::vector<EngineObjectFinal> finals = make_finals(2, 10);
  std::vector<unsigned char> short_count = control_prefix();
  encode_control_finals(finals.data(), 2, short_count);
  ControlSummary summary;
  summary.objects = 3;
  encode_control_summary(summary, short_count);
  expect_control_rejects(short_count,
                         "summary claims 3 objects but 2 finals records "
                         "were streamed");

  std::vector<unsigned char> progress_after = control_prefix();
  encode_control_finals(finals.data(), 2, progress_after);
  encode_control_progress(ControlProgress{900, 9}, progress_after);
  expect_control_rejects(
      progress_after,
      "progress after finals began (only finals/summary may follow)");
}

TEST(ControlCodec, SummaryIsTerminal) {
  const std::vector<EngineObjectFinal> finals = make_finals(2, 10);
  std::vector<unsigned char> bytes = control_prefix();
  encode_control_finals(finals.data(), 2, bytes);
  ControlSummary summary;
  summary.objects = 2;
  encode_control_summary(summary, bytes);
  encode_control_progress(ControlProgress{900, 9}, bytes);
  expect_control_rejects(bytes,
                         "progress after summary (summary is terminal)");
}

/// A raw control frame: aux = (type << 24) | count over `body`.
std::vector<unsigned char> raw_control_frame(
    std::uint32_t type, std::uint32_t count,
    const std::vector<unsigned char>& body) {
  std::vector<unsigned char> frame(kBlockFrameBytes + body.size());
  encode_block_frame(frame.data(), (type << 24) | count, body.data(),
                     body.size());
  std::copy(body.begin(), body.end(), frame.begin() + kBlockFrameBytes);
  return frame;
}

TEST(ControlCodec, MetricsRoundTripAndObeyTheStateMachine) {
  ControlMetrics snapshot;
  snapshot.trace_id = 0x1111222233334444ULL;
  snapshot.span_id = 0x5555666677778888ULL;
  obs::Sample counter;
  counter.name = "repl_events_ingested_total";
  counter.help = "Events folded into per-object deques";
  counter.type = obs::MetricType::kCounter;
  counter.counter_value = 123456789;
  counter.value = 123456789.0;
  obs::Sample gauge;
  gauge.name = "repl_net_events_queued";
  gauge.type = obs::MetricType::kGauge;
  gauge.value = 17.5;
  gauge.labels = {{"listener", "unix"}};
  snapshot.samples = {counter, gauge};

  std::vector<unsigned char> bytes = control_prefix();
  encode_control_metrics(snapshot, bytes);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, bytes.size()}) {
    ClusterControlAssembler assembler("test");
    const std::vector<ControlMessage> messages =
        feed_all(bytes, chunk, assembler);
    ASSERT_EQ(messages.size(), 2u) << "chunk " << chunk;
    ASSERT_EQ(messages[1].type, ControlType::kMetrics);
    EXPECT_EQ(messages[1].metrics.trace_id, snapshot.trace_id);
    EXPECT_EQ(messages[1].metrics.span_id, snapshot.span_id);
    ASSERT_EQ(messages[1].metrics.samples.size(), 2u);
    EXPECT_EQ(messages[1].metrics.samples[0].name, counter.name);
    EXPECT_EQ(messages[1].metrics.samples[0].counter_value,
              counter.counter_value);
    EXPECT_EQ(messages[1].metrics.samples[1].name, gauge.name);
    EXPECT_EQ(messages[1].metrics.samples[1].value, gauge.value);
    ASSERT_EQ(messages[1].metrics.samples[1].labels.size(), 1u);
    EXPECT_EQ(messages[1].metrics.samples[1].labels[0].second, "unix");
  }

  // Metrics frames are rejected once the finals sequence has begun —
  // the worker must settle its snapshot before draining.
  const std::vector<EngineObjectFinal> finals = make_finals(1, 5);
  std::vector<unsigned char> late = control_prefix();
  encode_control_finals(finals.data(), 1, late);
  encode_control_metrics(snapshot, late);
  expect_control_rejects(late, "metrics after finals began");

  // The frame's item count must equal the encoded sample count.
  std::vector<unsigned char> body(16, 0);
  obs::encode_samples(snapshot.samples, body);
  std::vector<unsigned char> miscounted = control_prefix();
  const std::vector<unsigned char> frame = raw_control_frame(
      static_cast<std::uint32_t>(ControlType::kMetrics), 3, body);
  miscounted.insert(miscounted.end(), frame.begin(), frame.end());
  expect_control_rejects(miscounted, "truncated");

  // A body shorter than the trace prefix can hold no samples at all.
  std::vector<unsigned char> stub = control_prefix();
  const std::vector<unsigned char> short_frame = raw_control_frame(
      static_cast<std::uint32_t>(ControlType::kMetrics), 0,
      std::vector<unsigned char>(8));
  stub.insert(stub.end(), short_frame.begin(), short_frame.end());
  expect_control_rejects(stub, "metrics body is 8 bytes");
}

TEST(ControlCodec, RejectsMalformedFrames) {
  const auto append = [](std::vector<unsigned char>& out,
                         const std::vector<unsigned char>& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  };

  // Flipped payload byte: hello body starts at 16 (header) + 16 (frame).
  std::vector<unsigned char> bad_payload = control_prefix();
  bad_payload[kControlHeaderBytes + kBlockFrameBytes] ^= 0x01;
  expect_control_rejects(bad_payload, "control payload CRC mismatch");

  // Flipped frame-header byte.
  std::vector<unsigned char> bad_frame = control_prefix();
  bad_frame[kControlHeaderBytes] ^= 0x01;
  expect_control_rejects(bad_frame, "frame CRC mismatch");

  // An implausible body length with a freshly valid frame CRC must be
  // refused before any allocation.
  std::vector<unsigned char> huge = control_prefix();
  {
    unsigned char header[kBlockFrameBytes];
    store_le32(header, static_cast<std::uint32_t>(kMaxControlBodyBytes + 1));
    store_le32(header + 4,
               static_cast<std::uint32_t>(ControlType::kProgress) << 24);
    store_le32(header + 8, 0);
    store_le32(header + 12, crc32c(header, 12));
    huge.insert(huge.end(), header, header + kBlockFrameBytes);
  }
  expect_control_rejects(huge, "implausible frame length");

  // Unknown message type (7 is the first past kMetrics).
  std::vector<unsigned char> unknown = control_prefix();
  append(unknown, raw_control_frame(7, 0, std::vector<unsigned char>(8)));
  expect_control_rejects(unknown, "unknown control message type 7");

  // A finals frame with no records.
  std::vector<unsigned char> empty_finals = control_prefix();
  append(empty_finals,
         raw_control_frame(static_cast<std::uint32_t>(ControlType::kFinals),
                           0, {}));
  expect_control_rejects(empty_finals, "finals frame holds no records");

  // Item counts belong to finals frames only.
  std::vector<unsigned char> counted_progress = control_prefix();
  append(counted_progress,
         raw_control_frame(static_cast<std::uint32_t>(ControlType::kProgress),
                           1, std::vector<unsigned char>(16)));
  expect_control_rejects(counted_progress,
                         "progress frame declares item count 1 (only finals "
                         "frames carry items)");

  // Wrong body size for the declared type.
  std::vector<unsigned char> short_body = control_prefix();
  append(short_body,
         raw_control_frame(static_cast<std::uint32_t>(ControlType::kProgress),
                           0, std::vector<unsigned char>(12)));
  expect_control_rejects(short_body, "progress body is 12 bytes, expected 16");
}

TEST(ControlCodec, DeadAfterFailureAndTruncationIsVisible) {
  std::vector<unsigned char> bad = control_prefix();
  bad[0] ^= 0xff;
  ClusterControlAssembler assembler("test");
  std::vector<ControlMessage> out;
  EXPECT_THROW(assembler.feed(bad.data(), bad.size(), out),
               std::runtime_error);
  expect_throws_with([&] { assembler.feed(bad.data(), 1, out); },
                     "control stream already failed");

  // A truncated-but-clean prefix never throws; it is visibly incomplete.
  std::vector<unsigned char> whole = control_prefix();
  encode_control_progress(ControlProgress{100, 1}, whole);
  for (std::size_t cut :
       {std::size_t{8}, kControlHeaderBytes, kControlHeaderBytes + 5,
        kControlHeaderBytes + kBlockFrameBytes + 32, whole.size() - 1,
        whole.size()}) {
    ClusterControlAssembler partial("test");
    std::vector<ControlMessage> messages;
    partial.feed(whole.data(), cut, messages);
    EXPECT_FALSE(partial.complete()) << "cut " << cut;
    const bool boundary =
        cut == kControlHeaderBytes ||
        cut == kControlHeaderBytes + kBlockFrameBytes + 32 ||
        cut == whole.size();
    EXPECT_EQ(partial.at_boundary(), boundary) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------
// Worker start, in process

TEST(ClusterWorker, RefusesAnotherSliceBeforeItsHello) {
  // The worker binds its slice right after the restore, before its event
  // listener and its hello. No coordinator listens here, so a worker
  // that got past the bind fails on the control dial instead: each
  // refusal below names both sides, and the matching slice reaches the
  // dial.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "repl_worker_slice_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string snapshot = (dir / "part1.ckpt").string();
  const std::string serves =
      "; this worker serves partition 1 of 2 under partition function 1";
  struct Case {
    bool bound;
    std::uint32_t id, count, pf_version;
    std::string cause;
  };
  const Case cases[] = {
      {true, 0, 2, 1,
       "snapshot was cut for partition 0 of 2 under partition function 1" +
           serves},
      {true, 1, 4, 1,
       "snapshot was cut for partition 1 of 4 under partition function 1" +
           serves},
      {true, 1, 2, 2,
       "snapshot was cut for partition 1 of 2 under partition function 2" +
           serves},
      {false, 0, 0, 0, "snapshot was cut with no partition slice" + serves},
      {true, 1, 2, 1, "cannot connect to unix socket"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cause);
    EngineOptions engine_options;
    engine_options.base_seed = kSeed;
    EngineBuilder builder;
    builder.config(cluster_config())
        .options(engine_options)
        .policy("drwp(alpha=0.3)")
        .predictor("last_gap");
    auto engine = builder.build();
    if (c.bound) engine->bind_slice(c.id, c.count, c.pf_version);
    engine->ingest(make_events(500, 17));
    engine->checkpoint(snapshot);

    ClusterWorkerOptions worker;
    worker.partition_id = 1;
    worker.num_partitions = 2;
    worker.event_socket = (dir / "event.sock").string();
    worker.control_socket = (dir / "control.sock").string();
    worker.resume_from = snapshot;
    worker.config = cluster_config();
    worker.engine.base_seed = kSeed;
    expect_throws_with([&] { run_cluster_worker(worker); }, c.cause);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Multi-process cluster serving (needs the repl_cluster launcher)

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kClusterBin == nullptr) {
      GTEST_SKIP() << "repl_cluster launcher not built "
                      "(REPL_BUILD_EXAMPLES=OFF)";
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("repl_clu_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string write_log(const std::vector<LogEvent>& events) const {
    const std::string path = (dir_ / "stream.evlog").string();
    EventLogWriter writer(path, kServers, 0, EventLogFormat::kCompressed);
    for (const LogEvent& event : events) writer.write(event);
    writer.close();
    return path;
  }

  /// A fresh subdirectory per cluster run, so one run's sockets and
  /// checkpoints cannot leak into the next.
  std::string run_dir(const std::string& name) const {
    const std::filesystem::path sub = dir_ / name;
    std::filesystem::create_directories(sub);
    return sub.string();
  }

  std::filesystem::path dir_;
};

/// The single-process ground truth: the same engine stack serving the
/// same log in one process.
EngineMetrics single_reference(const std::string& log_path) {
  EngineOptions options;
  options.base_seed = kSeed;
  options.compute_lower_bound = true;
  EngineBuilder builder;
  builder.config(cluster_config())
      .options(options)
      .policy("drwp(alpha=0.3)")
      .predictor("last_gap");
  auto engine = builder.build();
  EventLogReader reader(log_path);
  return engine->serve(reader, ServeOptions{});
}

/// SIGKILLs one worker once, at an exact partition-local routed count,
/// from the coordinator's progress hook.
struct KillPlan {
  std::uint32_t partition = 0;
  std::uint64_t at = 0;
  ClusterCoordinator* coordinator = nullptr;
  std::atomic<bool> fired{false};
};

ClusterCoordinatorOptions cluster_options(const std::string& socket_dir,
                                          std::uint32_t partitions) {
  ClusterCoordinatorOptions options;
  options.num_partitions = partitions;
  options.worker_binary = kClusterBin == nullptr ? "" : kClusterBin;
  options.socket_dir = socket_dir;
  options.config = cluster_config();
  options.base_seed = kSeed;
  // Deliberately a different geometry from the reference serve: parity
  // must hold at any shard/thread count.
  options.worker_shards = 8;
  return options;
}

ClusterServeResult run_cluster(const std::string& log_path,
                               const std::string& socket_dir,
                               std::uint32_t partitions,
                               std::uint64_t checkpoint_every,
                               std::size_t batch_events,
                               KillPlan* kill = nullptr,
                               std::string* health = nullptr) {
  ClusterCoordinatorOptions options = cluster_options(socket_dir, partitions);
  options.checkpoint_every = checkpoint_every;
  options.batch_events = batch_events;
  if (kill != nullptr) {
    options.on_progress = [kill](std::uint32_t partition,
                                 std::uint64_t routed) {
      if (partition != kill->partition || routed < kill->at) return;
      if (kill->fired.exchange(true)) return;
      const int pid = kill->coordinator->worker_pid(partition);
      if (pid > 0) ::kill(pid, SIGKILL);
    };
  }
  ClusterCoordinator coordinator(options);
  if (kill != nullptr) kill->coordinator = &coordinator;
  ClusterServeResult result = coordinator.serve_log(log_path);
  if (health != nullptr) {
    JsonWriter w;
    w.begin_object();
    coordinator.health_json(w);
    w.end_object();
    *health = w.str();
  }
  return result;
}

/// Partition p's object in a /healthz body ("" when absent).
std::string partition_health(const std::string& health, std::uint32_t p) {
  const std::size_t at =
      health.find("{\"partition\":" + std::to_string(p) + ",");
  if (at == std::string::npos) return "";
  return health.substr(at, health.find('}', at) - at);
}

bool partition_alive(const std::string& health, std::uint32_t p) {
  return partition_health(health, p).find("\"state\":\"alive\"") !=
         std::string::npos;
}

/// Partition-local event counts — the denominators for kill cuts.
std::vector<std::uint64_t> slice_counts(const std::vector<LogEvent>& events,
                                        std::uint32_t partitions) {
  std::vector<std::uint64_t> counts(partitions, 0);
  for (const LogEvent& event : events) {
    ++counts[partition_of(event.object, partitions)];
  }
  return counts;
}

TEST_F(ClusterTest, MultiPartitionServeIsBitIdenticalToSingleProcess) {
  const std::vector<LogEvent> events = make_events(20000, 257);
  const std::string log = write_log(events);
  const EngineMetrics want = single_reference(log);
  ASSERT_EQ(want.events, events.size());

  for (std::uint32_t partitions : {1u, 2u, 4u}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    const ClusterServeResult result =
        run_cluster(log, run_dir("p" + std::to_string(partitions)),
                    partitions, /*checkpoint_every=*/0,
                    /*batch_events=*/1024);
    expect_same(want, result.metrics);
    EXPECT_EQ(result.respawns, 0u);
    ASSERT_EQ(result.summaries.size(), partitions);
    std::uint64_t events_sum = 0;
    std::uint64_t objects_sum = 0;
    for (const ControlSummary& summary : result.summaries) {
      events_sum += summary.events;
      objects_sum += summary.objects;
    }
    EXPECT_EQ(events_sum, want.events);
    EXPECT_EQ(objects_sum, want.objects);
  }
}

// Workers are spawned with the server count, λ and the initial server
// only, so they serve unit storage rates. A cluster handed other rates
// would drift from a single-process serve without a word; its
// coordinator refuses them up front, naming the field. Unit rates listed
// explicitly still serve.
TEST_F(ClusterTest, NonUnitStorageRatesAreRefused) {
  ClusterCoordinatorOptions options = cluster_options(run_dir("rates"), 2);
  options.config.storage_rates = {1.0, 2.0, 3.0, 4.0, 5.0};
  expect_throws_with([&] { ClusterCoordinator coordinator(options); },
                     "config.storage_rates[1] is 2");
  options.config.storage_rates.assign(kServers, 1.0);
  const std::string log = write_log(make_events(2000, 37));
  ClusterCoordinator coordinator(options);
  expect_same(single_reference(log), coordinator.serve_log(log).metrics);
}

/// Writes an executable /bin/sh script that runs `prologue`, then execs
/// the repl_cluster launcher with the script's (possibly rewritten)
/// arguments.
std::string write_worker_wrapper(const std::filesystem::path& path,
                                 const std::string& prologue) {
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n" << prologue << "exec '" << kClusterBin
        << "' \"$@\"\n";
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_exec,
                               std::filesystem::perm_options::add);
  return path.string();
}

std::uint64_t respawn_count(const ClusterCoordinator& coordinator,
                            std::uint32_t partition) {
  return coordinator.registry()
      .counter("repl_cluster_worker_respawns_total", "",
               {{"partition", std::to_string(partition)}})
      .value();
}

TEST_F(ClusterTest, WorkerThatNeverSaysHelloFailsTheServe) {
  // A worker start fails at once, naming its cause, when the worker
  // exits before its hello or the coordinator rejects its hello. No
  // respawn is tried: one with the same flags would fail the same way.
  const std::string log = write_log(make_events(1000, 17));

  // A 1-partition serve leaves part0.ckpt behind, cut for partition 0
  // of 1; a 2-partition cold start over it hands partition 0 a snapshot
  // its slice bind refuses.
  const std::string stale = run_dir("stale");
  run_cluster(log, stale, 1, /*checkpoint_every=*/256, /*batch_events=*/256);
  ASSERT_TRUE(std::filesystem::exists(stale + "/part0.ckpt"));

  struct Case {
    const char* name;
    std::string binary;
    std::string dir;
    std::uint32_t partitions;
    std::string cause;
  };
  const Case cases[] = {
      {"missing binary", (dir_ / "no-such-worker").string(),
       run_dir("missing"), 1,
       "partition 0: worker exited (status 127) before its hello"},
      {"rejected hello",
       write_worker_wrapper(
           dir_ / "wrong-seed.sh",
           "for a; do shift; case \"$a\" in --seed=*) a=--seed=1 ;; esac; "
           "set -- \"$@\" \"$a\"; done\n"),
       run_dir("seed"), 1, "worker base seed 1 != coordinator's"},
      {"refused snapshot", kClusterBin, stale, 2,
       "partition 0: worker exited (status 1) before its hello"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ClusterCoordinatorOptions options = cluster_options(c.dir, c.partitions);
    options.worker_binary = c.binary;
    ClusterCoordinator coordinator(options);
    const auto start = std::chrono::steady_clock::now();
    expect_throws_with([&] { coordinator.serve_log(log); }, c.cause);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(elapsed, 2.0);
    EXPECT_EQ(respawn_count(coordinator, 0), 0u);
  }
}

TEST_F(ClusterTest, SlowStartingWorkerStillJoins) {
  // The hello wait has no deadline: a worker that takes 6 s to start
  // (as a long snapshot restore would) joins, and parity holds.
  const std::string log = write_log(make_events(2000, 37));
  ClusterCoordinatorOptions options = cluster_options(run_dir("slow"), 1);
  options.worker_binary =
      write_worker_wrapper(dir_ / "slow-worker.sh", "sleep 6\n");
  ClusterCoordinator coordinator(options);
  const ClusterServeResult result = coordinator.serve_log(log);
  expect_same(single_reference(log), result.metrics);
  EXPECT_EQ(result.respawns, 0u);
}

TEST_F(ClusterTest, ExhaustedRespawnBudgetNamesTheLastFailure) {
  // Every incarnation of partition 1's worker is SIGKILLed once it has
  // been routed events. With one respawn allowed, the second death ends
  // the serve, and the budget error names the failed write that found it.
  const std::vector<LogEvent> events = make_events(12000, 101);
  const std::string log = write_log(events);
  const std::uint64_t cut = slice_counts(events, 2)[1] / 4;
  ClusterCoordinatorOptions options = cluster_options(run_dir("budget"), 2);
  options.batch_events = 256;
  options.max_respawns = 1;
  ClusterCoordinator* coordinator_ptr = nullptr;
  int killed = -1;
  options.on_progress = [&](std::uint32_t partition, std::uint64_t routed) {
    if (partition != 1 || routed < cut) return;
    const int pid = coordinator_ptr->worker_pid(1);
    if (pid > 0 && pid != killed) {
      ::kill(pid, SIGKILL);
      // Wait for the death but leave the reaping to the coordinator: the
      // next write to this worker then fails, before routing ends.
      siginfo_t info{};
      ::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT);
      killed = pid;
    }
  };
  ClusterCoordinator coordinator(options);
  coordinator_ptr = &coordinator;
  expect_throws_with([&] { coordinator.serve_log(log); },
                     "partition 1: respawn budget (1) exhausted; "
                     "last failure: socket write failed: ");
  EXPECT_EQ(respawn_count(coordinator, 1), 1u);
}

TEST_F(ClusterTest, RespawnThatExitsBeforeItsHelloFailsAtOnce) {
  // A respawn starts through the same hello-then-dial path as the first
  // start. The first incarnation serves until it is SIGKILLed; the next
  // exits before its hello (as one that refuses its snapshot does), which
  // fails the serve at once, naming the exit, with no further respawn.
  const std::vector<LogEvent> events = make_events(8000, 53);
  const std::string log = write_log(events);
  const std::string marker = (dir_ / "first-incarnation").string();
  ClusterCoordinatorOptions options = cluster_options(run_dir("respawn"), 1);
  options.batch_events = 256;
  options.worker_binary = write_worker_wrapper(
      dir_ / "one-incarnation.sh",
      "if [ -e '" + marker + "' ]; then exit 3; fi\n: > '" + marker + "'\n");
  ClusterCoordinator* coordinator_ptr = nullptr;
  std::chrono::steady_clock::time_point killed_at{};
  options.on_progress = [&](std::uint32_t, std::uint64_t routed) {
    if (routed < events.size() / 4 ||
        killed_at != std::chrono::steady_clock::time_point{}) {
      return;
    }
    const int pid = coordinator_ptr->worker_pid(0);
    ASSERT_GT(pid, 0);
    ::kill(pid, SIGKILL);
    killed_at = std::chrono::steady_clock::now();
  };
  ClusterCoordinator coordinator(options);
  coordinator_ptr = &coordinator;
  expect_throws_with([&] { coordinator.serve_log(log); },
                     "partition 0: worker exited (status 3) before its hello");
  ASSERT_NE(killed_at, std::chrono::steady_clock::time_point{});
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - killed_at)
                             .count();
  EXPECT_LT(elapsed, 2.0);
  EXPECT_EQ(respawn_count(coordinator, 0), 1u);
}

TEST_F(ClusterTest, StartFailureReapsEveryWorkerOnce) {
  // Partition 1's worker exits before its hello while partition 0's
  // starts and is dialed. The exit check reaps partition 1's worker, so
  // the live-worker gauge reads 1 when the serve fails; tearing the
  // coordinator down reaps partition 0's and leaves partition 1's pid
  // alone, so the gauge ends at exactly 0.
  const std::string log = write_log(make_events(1000, 17));
  obs::MetricsRegistry registry;
  ClusterCoordinatorOptions options = cluster_options(run_dir("half"), 2);
  options.metrics = &registry;
  options.worker_binary = write_worker_wrapper(
      dir_ / "partition1-exits.sh",
      "for a; do [ \"$a\" = --partition=1 ] && exit 4; done\n");
  const obs::Gauge* alive = nullptr;
  {
    ClusterCoordinator coordinator(options);
    alive = &registry.gauge("repl_cluster_workers_alive", "");
    const auto start = std::chrono::steady_clock::now();
    expect_throws_with(
        [&] { coordinator.serve_log(log); },
        "partition 1: worker exited (status 4) before its hello");
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(elapsed, 2.0);
    EXPECT_GT(coordinator.worker_pid(0), 0);
    EXPECT_EQ(coordinator.worker_pid(1), -1);
    EXPECT_EQ(alive->value(), 1.0);
  }
  EXPECT_EQ(alive->value(), 0.0);
}

TEST_F(ClusterTest, FederationAndTracingCoverTheWholeServe) {
  // One cluster serve with tracing on: the coordinator's federated
  // /metrics view must settle at the workers' true per-partition totals,
  // /healthz must report every partition, and the merged Chrome trace
  // must hold spans from the coordinator and both worker processes.
  const std::vector<LogEvent> events = make_events(12000, 101);
  const std::string log = write_log(events);
  const std::string dir = run_dir("fed");
  const std::string coord_part = dir + "/trace.coord.jsonl";

  ClusterCoordinatorOptions options;
  options.num_partitions = 2;
  options.worker_binary = kClusterBin == nullptr ? "" : kClusterBin;
  options.socket_dir = dir;
  options.config = cluster_config();
  options.base_seed = kSeed;
  options.worker_shards = 8;
  options.checkpoint_every = 1024;
  options.batch_events = 512;
  options.trace_dir = dir;

  obs::Tracer::global().start(coord_part, "coordinator-test");
  ClusterCoordinator coordinator(options);
  const ClusterServeResult result = coordinator.serve_log(log);
  obs::Tracer::global().stop();
  expect_same(single_reference(log), result.metrics);

  // Each worker's last metrics snapshot lands before its finals, so the
  // federated ingest counters equal the per-partition event totals and
  // sum to the whole log — the same number a single process would count.
  std::uint64_t fed_sum = 0;
  for (std::uint32_t p = 0; p < options.num_partitions; ++p) {
    const std::uint64_t ingested =
        coordinator.federated_counter(p, "repl_events_ingested_total");
    EXPECT_EQ(ingested, result.summaries[p].events) << "partition " << p;
    fed_sum += ingested;
  }
  EXPECT_EQ(fed_sum, events.size());

  // The federated samples carry partition labels plus the derived
  // cluster gauges.
  bool saw_labeled = false;
  bool saw_floor = false;
  for (const obs::Sample& sample : coordinator.federated_samples()) {
    if (sample.name == "repl_events_ingested_total") {
      for (const auto& [key, value] : sample.labels) {
        if (key == "partition") saw_labeled = true;
      }
    }
    if (sample.name == "repl_cluster_slowest_partition_events") {
      saw_floor = true;
      EXPECT_GT(sample.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_labeled);
  EXPECT_TRUE(saw_floor);

  JsonWriter health;
  health.begin_object();
  coordinator.health_json(health);
  health.end_object();
  const std::string health_doc = health.str();
  EXPECT_NE(health_doc.find("\"partitions\":["), std::string::npos);
  EXPECT_NE(health_doc.find("\"state\":\"alive\""), std::string::npos);
  EXPECT_NE(health_doc.find("\"events_routed\":"), std::string::npos);

  // Merge the coordinator's part with every worker part: the timeline
  // must parse and contain spans from all three processes.
  std::vector<std::string> parts = coordinator.trace_parts();
  EXPECT_EQ(parts.size(), 2u);  // one incarnation per partition
  parts.push_back(coord_part);
  const std::string merged_path = dir + "/trace.json";
  const std::size_t merged = obs::merge_trace_parts(parts, merged_path);
  EXPECT_GT(merged, 0u);
  std::ifstream in(merged_path);
  std::string trace_doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(trace_doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_doc.find("route.batch"), std::string::npos);
  EXPECT_NE(trace_doc.find("engine.ingest"), std::string::npos);
  EXPECT_NE(trace_doc.find("worker-p0"), std::string::npos);
  EXPECT_NE(trace_doc.find("worker-p1"), std::string::npos);
}

/// Points this process's fd 2 at a file for its lifetime, and with it
/// the stderr every worker spawned meanwhile inherits.
class StderrToFile {
 public:
  explicit StderrToFile(const std::string& path) {
    std::fflush(stderr);
    saved_ = ::dup(2);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, 2);
      ::close(fd);
    }
  }
  ~StderrToFile() {
    std::fflush(stderr);
    ::dup2(saved_, 2);
    ::close(saved_);
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

 private:
  int saved_ = -1;
};

TEST_F(ClusterTest, WorkerServeLinesEndWithTheNetStatus) {
  // A worker's periodic [serve] lines end with its event source's
  // status, as a repl_server's do: queued events and connections. The
  // coordinator logs no [serve] line, so every one in the file is a
  // worker's; its one event connection never fails.
  const std::string log = write_log(make_events(4000, 97));
  ClusterCoordinatorOptions options = cluster_options(run_dir("stats"), 1);
  options.batch_events = 256;
  options.stats_every = 1e-6;
  const std::string err = (dir_ / "stderr.txt").string();
  {
    StderrToFile redirect(err);
    ClusterCoordinator coordinator(options);
    (void)coordinator.serve_log(log);
  }
  std::ifstream in(err);
  std::size_t serve_lines = 0;
  bool saw_status = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("[serve]") == std::string::npos) continue;
    ++serve_lines;
    const std::string tail = "conns=1/0f";
    if (line.size() >= tail.size() &&
        line.compare(line.size() - tail.size(), tail.size(), tail) == 0) {
      saw_status = true;
    }
  }
  EXPECT_GT(serve_lines, 0u);
  EXPECT_TRUE(saw_status) << "no worker [serve] line ends in conns=1/0f";
}

TEST_F(ClusterTest, CoordinatorLastLineCoversTheWholeLog) {
  // The coordinator renders its [cluster] line from its own series plus
  // the workers' federated ones. Its last line comes once every summary
  // has arrived, and each worker sends its last metrics snapshot before
  // its summary, so that line sums the whole log. The cadence is too
  // long for a periodic line, so the last one is the only one.
  const std::string log = write_log(make_events(4000, 97));
  ClusterCoordinatorOptions options = cluster_options(run_dir("line"), 2);
  options.batch_events = 256;
  options.stats_every = 3600.0;
  obs::Logger& logger = obs::Logger::global();
  logger.reset();
  std::mutex mu;
  std::vector<std::string> lines;
  logger.set_sink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    if (line.find("[cluster]") != std::string::npos) lines.push_back(line);
  });
  {
    ClusterCoordinator coordinator(options);
    (void)coordinator.serve_log(log);
  }
  logger.reset();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(" events=4000 "), std::string::npos) << lines[0];
  const std::string tail = " conns=2/0f routed=4000 respawns=0 in_flight=0";
  EXPECT_TRUE(lines[0].ends_with(tail)) << lines[0];
}

TEST_F(ClusterTest, CoordinatorReportsWhileWorkersDrain) {
  // Once the log is routed, the coordinator waits while the workers
  // ingest their backlog, cut and send their summaries. Its [cluster]
  // lines keep their cadence through that wait: at least two come after
  // the last event is routed and before the last line (the routing loop
  // can log at most one of them, after its last batch).
  const std::vector<LogEvent> events = make_events(200000, 20000);
  const std::string log = write_log(events);
  ClusterCoordinatorOptions options = cluster_options(run_dir("drain"), 2);
  options.batch_events = 256;
  options.checkpoint_every = 2000;  // the workers cut often, so they lag
  options.stats_every = 0.005;
  std::uint64_t routed = 0;  // the coordinator thread's own count
  options.on_progress = [&routed](std::uint32_t, std::uint64_t) { ++routed; };
  obs::Logger& logger = obs::Logger::global();
  logger.reset();
  std::mutex mu;
  std::vector<bool> after_routing;  // per [cluster] line
  logger.set_sink([&](const std::string& line) {
    if (line.find("[cluster]") == std::string::npos) return;
    std::lock_guard<std::mutex> lock(mu);
    after_routing.push_back(routed == events.size());
  });
  {
    ClusterCoordinator coordinator(options);
    (void)coordinator.serve_log(log);
  }
  logger.reset();
  ASSERT_FALSE(after_routing.empty());
  ASSERT_TRUE(after_routing.back());
  const auto draining =
      std::count(after_routing.begin(), after_routing.end() - 1, true);
  EXPECT_GE(draining, 2) << after_routing.size() << " [cluster] lines";
}

TEST_F(ClusterTest, KillRespawnMatrixStaysBitIdentical) {
  // The satellite matrix: SIGKILL one worker at 1/4, 1/2, and 3/4 of its
  // slice, at 2 and 4 partitions, with periodic per-partition
  // checkpoints; the respawned worker resumes from its snapshot, the
  // coordinator replays the tail, and the aggregates must not notice.
  const std::vector<LogEvent> events = make_events(20000, 257);
  const std::string log = write_log(events);
  const EngineMetrics want = single_reference(log);

  for (std::uint32_t partitions : {2u, 4u}) {
    const std::vector<std::uint64_t> counts =
        slice_counts(events, partitions);
    const std::uint32_t victim = partitions - 1;
    for (int quarter : {1, 2, 3}) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions) +
                   " cut=" + std::to_string(quarter) + "/4");
      KillPlan plan;
      plan.partition = victim;
      plan.at = std::max<std::uint64_t>(
          1, counts[victim] * static_cast<std::uint64_t>(quarter) / 4);
      std::string dir_name = "k";
      dir_name += std::to_string(partitions);
      dir_name += 'q';
      dir_name += std::to_string(quarter);
      std::string health;
      const ClusterServeResult result = run_cluster(
          log, run_dir(dir_name), partitions, /*checkpoint_every=*/1024,
          /*batch_events=*/512, &plan, &health);
      EXPECT_TRUE(plan.fired.load());
      EXPECT_EQ(result.respawns, 1u);
      EXPECT_TRUE(partition_alive(health, victim)) << health;
      expect_same(want, result.metrics);
    }
  }
}

TEST_F(ClusterTest, ColdStartFromWholeSliceSnapshotsReportsTheirProgress) {
  // A second serve in a directory whose snapshots already cover every
  // slice: each worker restores, is sent nothing, and so never sends a
  // progress message. Its hello's resume position is then the only
  // report of what it holds, and /healthz must show it.
  const std::vector<LogEvent> events = make_events(6000, 61);
  const std::string log = write_log(events);
  const EngineMetrics want = single_reference(log);
  const std::string dir = run_dir("warm");
  run_cluster(log, dir, 2, /*checkpoint_every=*/1, /*batch_events=*/512);
  // Each partition's checkpoint is one file; sockets aside, nothing else
  // is left behind.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_socket()) files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"part0.ckpt", "part1.ckpt"}));

  std::string health;
  const ClusterServeResult result =
      run_cluster(log, dir, 2, /*checkpoint_every=*/1, /*batch_events=*/512,
                  nullptr, &health);
  expect_same(want, result.metrics);
  EXPECT_EQ(result.respawns, 0u);
  const std::vector<std::uint64_t> counts = slice_counts(events, 2);
  for (std::uint32_t p = 0; p < 2; ++p) {
    const std::string entry = partition_health(health, p);
    const std::string count = std::to_string(counts[p]);
    EXPECT_NE(entry.find("\"events_ingested\":" + count), std::string::npos)
        << entry;
    EXPECT_NE(entry.find("\"checkpoint_events\":" + count), std::string::npos)
        << entry;
  }
}

TEST_F(ClusterTest, WorkerDeathMidBatchWithoutCheckpointReplaysTheSlice) {
  // No checkpoints at all: the respawned worker restarts from zero and
  // the coordinator must replay its whole slice. Small batches put the
  // kill mid-stream with frames in flight.
  const std::vector<LogEvent> events = make_events(12000, 101);
  const std::string log = write_log(events);
  const EngineMetrics want = single_reference(log);

  const std::uint32_t partitions = 4;
  const std::vector<std::uint64_t> counts = slice_counts(events, partitions);
  KillPlan plan;
  plan.partition = 1;
  plan.at = std::max<std::uint64_t>(1, counts[1] / 2 + 1);
  std::string health;
  const ClusterServeResult result =
      run_cluster(log, run_dir("midbatch"), partitions,
                  /*checkpoint_every=*/0, /*batch_events=*/256, &plan, &health);
  EXPECT_TRUE(plan.fired.load());
  EXPECT_EQ(result.respawns, 1u);
  EXPECT_TRUE(partition_alive(health, plan.partition)) << health;
  expect_same(want, result.metrics);
}

TEST_F(ClusterTest, MillionObjectSmokeParityWithKillAndRespawn) {
  // The acceptance workload: ~1.2M events over 10^6 objects, served at
  // 4 partitions with one worker SIGKILLed mid-serve and respawned from
  // its per-partition checkpoint — bit-identical to one process.
  const std::vector<LogEvent> events = make_events(1200000, 1000000);
  const std::string log = write_log(events);
  const EngineMetrics want = single_reference(log);
  ASSERT_EQ(want.objects, 1000000u);

  const std::uint32_t partitions = 4;
  const std::vector<std::uint64_t> counts = slice_counts(events, partitions);
  KillPlan plan;
  plan.partition = 2;
  plan.at = std::max<std::uint64_t>(1, counts[2] / 2);
  std::string health;
  const ClusterServeResult result =
      run_cluster(log, run_dir("smoke"), partitions,
                  /*checkpoint_every=*/50000,
                  /*batch_events=*/std::size_t{1} << 16, &plan, &health);
  EXPECT_TRUE(plan.fired.load());
  EXPECT_EQ(result.respawns, 1u);
  EXPECT_TRUE(partition_alive(health, plan.partition)) << health;
  expect_same(want, result.metrics);
}

}  // namespace
}  // namespace repl
