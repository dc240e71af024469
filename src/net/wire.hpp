// The live-ingest wire protocol.
//
// A client stream is byte-identical to a version-2 (compressed) event
// log: the 32-byte REPLELOG header, then codec/block.hpp frames of
// delta/varint-coded events. That identity is the point — `stream_gen`
// output can be piped onto a socket unmodified, every corruption the
// file reader detects is detected at the socket boundary by the same
// checks, and the engine cannot tell replay from live traffic.
//
//   client → server   32-byte stream header (REPLELOG, version 2,
//                     num_servers; counts unknown)
//   server → client   16-byte ACK: u64 magic "REPLNACK", u64
//                     resume_events — how many events of the logical
//                     stream the server has already ingested (non-zero
//                     when it restored from a checkpoint; the client
//                     must skip that many events before streaming)
//   client → server   block frames until the client half-closes its
//                     write side at a frame boundary (clean end)
//
// FrameAssembler is the server-side decoder: it accepts arbitrary byte
// chunks (whatever recv returned) and emits fully validated events.
// Framing and both CRC checks run in codec/block.hpp's
// BlockStreamDecoder, which the cluster control stream shares. The
// wire's own checks: the v2 header, trace frames, and event times that
// must be positive, finite, and non-decreasing within the stream (the
// engine's own precondition, enforced per connection). Any violation
// throws with the frame index and stream byte offset; the server kills
// that connection, never the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "codec/block.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"

namespace repl {

/// "REPLNACK": the server's handshake reply magic.
inline constexpr std::uint64_t kNetAckMagic = 0x4b43414e4c504552ULL;
inline constexpr std::size_t kNetAckBytes = 16;

/// Trace-context frames ride the event stream as ordinary block frames
/// whose aux field has this bit set. Event blocks can never collide:
/// their aux is the event count, capped at kMaxBlockEvents (4096), so
/// bit 31 is free. The 24-byte body is u64 trace_id, u64 span_id, u64
/// reserved (must be 0). A trace frame updates the assembler's
/// latest_trace() and decodes no events; every event that follows is
/// attributed to that context until the next trace frame.
inline constexpr std::uint32_t kTraceFrameAuxFlag = 0x80000000u;
inline constexpr std::size_t kTraceFrameBodyBytes = 24;

/// Encodes the 32-byte client stream header (a v2 event-log header with
/// unknown counts) into `out`.
void encode_stream_header(unsigned char* out, std::uint32_t num_servers);

/// Encodes the 16-byte handshake ACK into `out`.
void encode_net_ack(unsigned char* out, std::uint64_t resume_events);

/// Decodes an ACK; throws std::runtime_error on a bad magic.
std::uint64_t decode_net_ack(const unsigned char* raw);

/// Appends one framed trace-context message (see kTraceFrameAuxFlag) to
/// `out`. Requires a nonzero trace_id — zero means "no trace", which is
/// expressed by sending nothing.
void encode_trace_frame(std::vector<unsigned char>& out,
                        std::uint64_t trace_id, std::uint64_t span_id);

/// Incremental decoder for one client's byte stream. Feed bytes in any
/// chunking; completed events are appended to the caller's buffer.
class FrameAssembler {
 public:
  /// `name` labels the peer in diagnostics. `max_body_bytes` caps one
  /// frame's advertised payload (a corrupt length must fail, not
  /// allocate gigabytes).
  explicit FrameAssembler(std::string name,
                          std::size_t max_body_bytes = kMaxBlockBytes);

  /// Consumes `size` bytes, appending every event they complete to
  /// `out`. Throws std::runtime_error with a positioned diagnostic on
  /// any protocol violation; the assembler is unusable afterwards.
  void feed(const unsigned char* data, std::size_t size,
            std::vector<LogEvent>& out);

  /// True once the 32-byte stream header has been consumed+validated.
  bool header_done() const { return stream_.header_done(); }
  /// Valid once header_done(): version/num_servers of this stream.
  const EventLogHeader& header() const { return header_; }

  /// True exactly between frames, where a peer may close cleanly.
  bool at_boundary() const { return stream_.at_boundary(); }

  std::uint64_t bytes_consumed() const { return stream_.bytes_consumed(); }
  std::uint64_t frames_completed() const { return stream_.frames_completed(); }
  std::uint64_t events_decoded() const { return events_; }
  std::uint64_t trace_frames() const { return trace_frames_; }
  /// Newest decoded event time (0 before the first event).
  double last_time() const { return last_time_; }
  /// Trace context announced by the most recent trace frame; invalid
  /// (zero trace_id) until one arrives.
  obs::TraceContext latest_trace() const { return latest_trace_; }

 private:
  void read_header(const unsigned char* raw);
  void decode_frame(const BlockFrameHeader& frame, const unsigned char* body,
                    std::size_t size, std::vector<LogEvent>& out);

  BlockStreamDecoder stream_;
  /// Decode staging: a frame's events are validated here in full before
  /// they are published to the caller, so a failing frame delivers
  /// nothing.
  std::vector<LogEvent> scratch_;
  EventLogHeader header_;
  std::uint64_t events_ = 0;
  std::uint64_t trace_frames_ = 0;
  double last_time_ = 0.0;
  obs::TraceContext latest_trace_{};
};

}  // namespace repl
