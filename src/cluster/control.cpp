#include "cluster/control.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "codec/endian.hpp"
#include "obs/federation.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

constexpr std::size_t kHelloBytes = 32;
constexpr std::size_t kProgressBytes = 16;
constexpr std::size_t kCheckpointBytes = 8;
constexpr std::size_t kSummaryBytes = 48;
constexpr std::size_t kMetricsPrefixBytes = 16;  // trace_id + span_id

std::uint32_t pack_aux(ControlType type, std::uint32_t count) {
  return (static_cast<std::uint32_t>(type) << 24) | count;
}

void store_f64(unsigned char* p, double v) {
  store_le64(p, std::bit_cast<std::uint64_t>(v));
}

double load_f64(const unsigned char* p) {
  return std::bit_cast<double>(load_le64(p));
}

}  // namespace

const char* control_type_name(ControlType type) {
  switch (type) {
    case ControlType::kHello:
      return "hello";
    case ControlType::kProgress:
      return "progress";
    case ControlType::kCheckpoint:
      return "checkpoint";
    case ControlType::kFinals:
      return "finals";
    case ControlType::kSummary:
      return "summary";
    case ControlType::kMetrics:
      return "metrics";
  }
  return "unknown";
}

void encode_control_header(std::vector<unsigned char>& out) {
  unsigned char raw[kControlHeaderBytes];
  store_le64(raw + 0, kControlMagic);
  store_le32(raw + 8, kControlVersion);
  store_le32(raw + 12, 0);
  out.insert(out.end(), raw, raw + kControlHeaderBytes);
}

void encode_control_hello(const ControlHello& hello,
                          std::vector<unsigned char>& out) {
  std::vector<unsigned char> body(kHelloBytes);
  store_le32(body.data() + 0, hello.partition_id);
  store_le32(body.data() + 4, hello.num_partitions);
  store_le32(body.data() + 8, hello.pf_version);
  store_le32(body.data() + 12, hello.num_servers);
  store_le64(body.data() + 16, hello.resume_events);
  store_le64(body.data() + 24, hello.base_seed);
  append_block_frame(out, pack_aux(ControlType::kHello, 0), body.data(),
                     body.size());
}

void encode_control_progress(const ControlProgress& progress,
                             std::vector<unsigned char>& out) {
  std::vector<unsigned char> body(kProgressBytes);
  store_le64(body.data() + 0, progress.events_ingested);
  store_le64(body.data() + 8, progress.batches);
  append_block_frame(out, pack_aux(ControlType::kProgress, 0), body.data(),
                     body.size());
}

void encode_control_checkpoint(const ControlCheckpoint& checkpoint,
                               std::vector<unsigned char>& out) {
  std::vector<unsigned char> body(kCheckpointBytes);
  store_le64(body.data(), checkpoint.events_ingested);
  append_block_frame(out, pack_aux(ControlType::kCheckpoint, 0), body.data(),
                     body.size());
}

void encode_control_finals(const EngineObjectFinal* finals, std::size_t count,
                           std::vector<unsigned char>& out) {
  REPL_REQUIRE_MSG(count >= 1 && count <= kControlFinalsChunk,
                   "finals frame must hold 1.." << kControlFinalsChunk
                                                << " records, got " << count);
  std::vector<unsigned char> body(count * kControlFinalsRecordBytes);
  for (std::size_t i = 0; i < count; ++i) {
    unsigned char* p = body.data() + i * kControlFinalsRecordBytes;
    store_le64(p + 0, finals[i].id);
    store_le64(p + 8, static_cast<std::uint64_t>(finals[i].events));
    store_le64(p + 16, static_cast<std::uint64_t>(finals[i].num_local));
    store_le64(p + 24, static_cast<std::uint64_t>(finals[i].num_transfers));
    store_f64(p + 32, finals[i].online_cost);
    store_f64(p + 40, finals[i].lower_bound);
  }
  append_block_frame(out,
                     pack_aux(ControlType::kFinals,
                              static_cast<std::uint32_t>(count)),
                     body.data(), body.size());
}

void encode_control_summary(const ControlSummary& summary,
                            std::vector<unsigned char>& out) {
  std::vector<unsigned char> body(kSummaryBytes);
  store_le64(body.data() + 0, summary.objects);
  store_le64(body.data() + 8, summary.events);
  store_le64(body.data() + 16, summary.num_local);
  store_le64(body.data() + 24, summary.num_transfers);
  store_f64(body.data() + 32, summary.online_cost);
  store_f64(body.data() + 40, summary.lower_bound);
  append_block_frame(out, pack_aux(ControlType::kSummary, 0), body.data(),
                     body.size());
}

void encode_control_metrics(const ControlMetrics& metrics,
                            std::vector<unsigned char>& out) {
  std::vector<unsigned char> body(kMetricsPrefixBytes);
  store_le64(body.data() + 0, metrics.trace_id);
  store_le64(body.data() + 8, metrics.span_id);
  obs::encode_samples(metrics.samples, body);
  REPL_REQUIRE_MSG(body.size() <= kMaxControlBodyBytes,
                   "encoded metrics snapshot is "
                       << body.size() << " bytes, the control frame cap is "
                       << kMaxControlBodyBytes);
  append_block_frame(
      out,
      pack_aux(ControlType::kMetrics,
               static_cast<std::uint32_t>(metrics.samples.size())),
      body.data(), body.size());
}

ClusterControlAssembler::ClusterControlAssembler(std::string name,
                                                 std::size_t max_body_bytes)
    : stream_(std::move(name), kControlHeaderBytes, max_body_bytes,
              "control stream already failed",
              "control payload CRC mismatch") {}

void ClusterControlAssembler::feed(const unsigned char* data, std::size_t size,
                                   std::vector<ControlMessage>& out) {
  stream_.feed(
      data, size, [this](const unsigned char* raw) { read_header(raw); },
      [this, &out](const BlockFrameHeader& frame, const unsigned char* body,
                   std::size_t body_size) {
        decode_message(frame, body, body_size, out);
      });
}

void ClusterControlAssembler::read_header(const unsigned char* raw) {
  if (load_le64(raw) != kControlMagic) {
    stream_.fail("bad control stream magic");
  }
  const std::uint32_t version = load_le32(raw + 8);
  if (version != kControlVersion) {
    stream_.fail("unsupported control stream version " +
                 std::to_string(version));
  }
  if (load_le32(raw + 12) != 0) {
    stream_.fail("control stream header reserved field is not zero");
  }
}

void ClusterControlAssembler::decode_message(const BlockFrameHeader& frame,
                                             const unsigned char* body,
                                             std::size_t size,
                                             std::vector<ControlMessage>& out) {
  const std::uint32_t raw_type = frame.aux >> 24;
  const std::uint32_t count = frame.aux & 0x00ffffffu;
  if (raw_type < 1 ||
      raw_type > static_cast<std::uint32_t>(ControlType::kMetrics)) {
    stream_.fail("unknown control message type " + std::to_string(raw_type));
  }
  const auto type = static_cast<ControlType>(raw_type);
  const auto require_size = [&](std::size_t expected) {
    if (size != expected) {
      stream_.fail(std::string(control_type_name(type)) + " body is " +
                   std::to_string(size) + " bytes, expected " +
                   std::to_string(expected));
    }
  };
  const auto require_zero_count = [&] {
    if (count != 0) {
      stream_.fail(std::string(control_type_name(type)) +
                   " frame declares item count " + std::to_string(count) +
                   " (only finals frames carry items)");
    }
  };
  if (summary_seen_) {
    stream_.fail(std::string(control_type_name(type)) +
                 " after summary (summary is terminal)");
  }
  if (!hello_seen_ && type != ControlType::kHello) {
    stream_.fail(std::string(control_type_name(type)) +
                 " before hello (hello must open the stream)");
  }
  if (finals_seen_ && type != ControlType::kFinals &&
      type != ControlType::kSummary) {
    stream_.fail(std::string(control_type_name(type)) +
                 " after finals began (only finals/summary may follow)");
  }

  ControlMessage message;
  message.type = type;
  switch (type) {
    case ControlType::kHello: {
      if (hello_seen_) stream_.fail("duplicate hello");
      require_zero_count();
      require_size(kHelloBytes);
      ControlHello hello;
      hello.partition_id = load_le32(body + 0);
      hello.num_partitions = load_le32(body + 4);
      hello.pf_version = load_le32(body + 8);
      hello.num_servers = load_le32(body + 12);
      hello.resume_events = load_le64(body + 16);
      hello.base_seed = load_le64(body + 24);
      if (hello.num_partitions < 1) {
        stream_.fail("hello declares 0 partitions");
      }
      if (hello.partition_id >= hello.num_partitions) {
        stream_.fail("hello partition id " +
                     std::to_string(hello.partition_id) + " out of range [0, " +
                     std::to_string(hello.num_partitions) + ")");
      }
      if (hello.num_servers < 1) stream_.fail("hello declares 0 servers");
      hello_ = hello;
      hello_seen_ = true;
      progress_events_ = hello.resume_events;
      checkpoint_events_ = hello.resume_events;
      message.hello = hello;
      break;
    }
    case ControlType::kProgress: {
      require_zero_count();
      require_size(kProgressBytes);
      ControlProgress progress;
      progress.events_ingested = load_le64(body + 0);
      progress.batches = load_le64(body + 8);
      if (progress.events_ingested < progress_events_) {
        stream_.fail("progress regressed: " +
                     std::to_string(progress.events_ingested) +
                     " events after " + std::to_string(progress_events_));
      }
      if (progress.batches < progress_batches_) {
        stream_.fail("progress batch count regressed: " +
                     std::to_string(progress.batches) + " after " +
                     std::to_string(progress_batches_));
      }
      progress_events_ = progress.events_ingested;
      progress_batches_ = progress.batches;
      message.progress = progress;
      break;
    }
    case ControlType::kCheckpoint: {
      require_zero_count();
      require_size(kCheckpointBytes);
      ControlCheckpoint checkpoint;
      checkpoint.events_ingested = load_le64(body);
      if (checkpoint.events_ingested < checkpoint_events_) {
        stream_.fail("checkpoint position regressed: " +
                     std::to_string(checkpoint.events_ingested) +
                     " events after " + std::to_string(checkpoint_events_));
      }
      checkpoint_events_ = checkpoint.events_ingested;
      message.checkpoint = checkpoint;
      break;
    }
    case ControlType::kFinals: {
      if (count < 1) stream_.fail("finals frame holds no records");
      require_size(static_cast<std::size_t>(count) *
                   kControlFinalsRecordBytes);
      message.finals.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const unsigned char* p = body + i * kControlFinalsRecordBytes;
        EngineObjectFinal final;
        final.id = load_le64(p + 0);
        final.events = static_cast<std::size_t>(load_le64(p + 8));
        final.num_local = static_cast<std::size_t>(load_le64(p + 16));
        final.num_transfers = static_cast<std::size_t>(load_le64(p + 24));
        final.online_cost = load_f64(p + 32);
        final.lower_bound = load_f64(p + 40);
        if (finals_records_ > 0 && final.id <= last_final_id_) {
          stream_.fail("finals id " + std::to_string(final.id) +
                       " does not increase past " +
                       std::to_string(last_final_id_) +
                       " (finals must be id-sorted)");
        }
        last_final_id_ = final.id;
        ++finals_records_;
        message.finals.push_back(final);
      }
      finals_seen_ = true;
      break;
    }
    case ControlType::kSummary: {
      require_zero_count();
      require_size(kSummaryBytes);
      ControlSummary summary;
      summary.objects = load_le64(body + 0);
      summary.events = load_le64(body + 8);
      summary.num_local = load_le64(body + 16);
      summary.num_transfers = load_le64(body + 24);
      summary.online_cost = load_f64(body + 32);
      summary.lower_bound = load_f64(body + 40);
      if (summary.objects != finals_records_) {
        stream_.fail("summary claims " + std::to_string(summary.objects) +
                     " objects but " + std::to_string(finals_records_) +
                     " finals records were streamed");
      }
      summary_seen_ = true;
      message.summary = summary;
      break;
    }
    case ControlType::kMetrics: {
      if (size < kMetricsPrefixBytes) {
        stream_.fail("metrics body is " + std::to_string(size) +
                     " bytes, the trace prefix alone is " +
                     std::to_string(kMetricsPrefixBytes));
      }
      ControlMetrics metrics;
      metrics.trace_id = load_le64(body + 0);
      metrics.span_id = load_le64(body + 8);
      metrics.samples =
          obs::decode_samples(body + kMetricsPrefixBytes,
                              size - kMetricsPrefixBytes, count,
                              stream_.name());
      message.metrics = std::move(metrics);
      break;
    }
  }
  out.push_back(std::move(message));
}

}  // namespace repl
