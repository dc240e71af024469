#include "net/wire.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "codec/endian.hpp"

namespace repl {

void encode_stream_header(unsigned char* out, std::uint32_t num_servers) {
  store_le64(out, EventLogHeader::kMagic);
  store_le32(out + 8, EventLogHeader::kVersionCompressed);
  store_le32(out + 12, num_servers);
  store_le64(out + 16, 0);  // num_objects: unknown while streaming
  store_le64(out + 24, EventLogHeader::kUnknownCount);
}

void encode_net_ack(unsigned char* out, std::uint64_t resume_events) {
  store_le64(out, kNetAckMagic);
  store_le64(out + 8, resume_events);
}

std::uint64_t decode_net_ack(const unsigned char* raw) {
  if (load_le64(raw) != kNetAckMagic) {
    throw std::runtime_error(
        "bad handshake ACK from server (wrong magic — not a repl ingest "
        "server?)");
  }
  return load_le64(raw + 8);
}

void encode_trace_frame(std::vector<unsigned char>& out,
                        std::uint64_t trace_id, std::uint64_t span_id) {
  if (trace_id == 0) {
    throw std::invalid_argument("trace frames require a nonzero trace id");
  }
  unsigned char body[kTraceFrameBodyBytes];
  store_le64(body + 0, trace_id);
  store_le64(body + 8, span_id);
  store_le64(body + 16, 0);  // reserved
  append_block_frame(out, kTraceFrameAuxFlag, body, sizeof(body));
}

FrameAssembler::FrameAssembler(std::string name, std::size_t max_body_bytes)
    : stream_(std::move(name), EventLogHeader::kSize, max_body_bytes,
              "stream already failed", "block payload CRC mismatch") {}

void FrameAssembler::feed(const unsigned char* data, std::size_t size,
                          std::vector<LogEvent>& out) {
  stream_.feed(
      data, size, [this](const unsigned char* raw) { read_header(raw); },
      [this, &out](const BlockFrameHeader& frame, const unsigned char* body,
                   std::size_t body_size) {
        decode_frame(frame, body, body_size, out);
      });
}

void FrameAssembler::read_header(const unsigned char* raw) {
  if (load_le64(raw) != EventLogHeader::kMagic) {
    stream_.fail("bad stream header magic");
  }
  header_.version = load_le32(raw + 8);
  if (header_.version != EventLogHeader::kVersionCompressed) {
    stream_.fail("unsupported stream version " +
                 std::to_string(header_.version) +
                 " (live ingest speaks the compressed v2 format only)");
  }
  header_.num_servers = load_le32(raw + 12);
  if (header_.num_servers == 0) {
    stream_.fail("stream header declares 0 servers");
  }
  header_.num_objects = load_le64(raw + 16);
  header_.num_events = load_le64(raw + 24);
}

void FrameAssembler::decode_frame(const BlockFrameHeader& frame,
                                  const unsigned char* body, std::size_t size,
                                  std::vector<LogEvent>& out) {
  if (frame.aux & kTraceFrameAuxFlag) {
    if (frame.aux != kTraceFrameAuxFlag) {
      stream_.fail("trace frame aux carries unexpected bits " +
                   std::to_string(frame.aux & ~kTraceFrameAuxFlag));
    }
    if (size != kTraceFrameBodyBytes) {
      stream_.fail("trace frame body is " + std::to_string(size) +
                   " bytes, expected " +
                   std::to_string(kTraceFrameBodyBytes));
    }
    const std::uint64_t trace_id = load_le64(body);
    const std::uint64_t span_id = load_le64(body + 8);
    if (load_le64(body + 16) != 0) {
      stream_.fail("trace frame reserved field is not zero");
    }
    if (trace_id == 0) stream_.fail("trace frame carries a zero trace id");
    latest_trace_ = obs::TraceContext{trace_id, span_id};
    ++trace_frames_;
    return;
  }
  // Decode into scratch and validate the whole frame before publishing:
  // a frame that fails any check must contribute nothing to `out`, so
  // the caller's delivered prefix is exactly the complete valid frames.
  scratch_.clear();
  decode_event_block(frame.aux, body, size, scratch_,
                     stream_.name() + " frame " +
                         std::to_string(stream_.frames_completed()));
  for (const LogEvent& event : scratch_) {
    const double t = event.time;
    // The engine rejects non-positive times; catching them here turns an
    // engine-poisoning batch into a single killed connection.
    if (!std::isfinite(t) || t <= 0.0) {
      stream_.fail("non-positive or non-finite event time in frame payload");
    }
    if (t < last_time_) {
      stream_.fail("event time " + std::to_string(t) +
                   " regresses below stream time " +
                   std::to_string(last_time_));
    }
    last_time_ = t;
  }
  out.insert(out.end(), scratch_.begin(), scratch_.end());
  events_ += frame.aux;
}

}  // namespace repl
