// Client half of the live-ingest wire protocol.
//
// EventStreamClient turns a connected socket into an event sink: it
// performs the handshake (stream header out, ACK with the server's
// resume offset back), batches events into v2 block frames — the same
// bytes EventLogWriter puts on disk — and half-closes at a frame
// boundary when finished. The options exist mostly for tests and load
// generation: tiny blocks to multiply frame boundaries, chunked+paced
// writes to simulate a slow or trickling peer, and a byte budget after
// which the connection is dropped mid-frame to exercise the server's
// disconnect handling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.hpp"
#include "trace/event_log.hpp"

namespace repl {

struct EventStreamClientOptions {
  /// Events per block frame. Smaller blocks mean lower latency per event
  /// and more framing overhead.
  std::size_t block_events = kEventLogBlockEvents;
  /// When non-zero, each frame is written in chunks of at most this many
  /// bytes (with `pace_seconds` of sleep between chunks) — a controllable
  /// slow client.
  std::size_t chunk_bytes = 0;
  double pace_seconds = 0.0;
  /// When non-zero, the connection is dropped abruptly once this many
  /// payload bytes (header excluded) have been written — lands mid-frame
  /// unless aligned to a boundary on purpose. Test hook.
  std::uint64_t abort_after_bytes = 0;
};

class EventStreamClient {
 public:
  EventStreamClient(Socket sock, EventStreamClientOptions options = {});
  ~EventStreamClient();

  EventStreamClient(const EventStreamClient&) = delete;
  EventStreamClient& operator=(const EventStreamClient&) = delete;

  /// Sends the stream header and reads the server's ACK. Returns the
  /// number of events the server has already ingested (from a restored
  /// checkpoint); the caller should skip that many before streaming.
  /// Throws std::runtime_error on a refused or malformed handshake.
  std::uint64_t handshake(std::uint32_t num_servers);

  /// Queues one event; flushes a full frame when the block fills. Returns
  /// false once the abort budget has been hit (the connection is gone and
  /// further sends are no-ops — the test got the disconnect it asked for).
  bool send(const LogEvent& event);

  /// Flushes any partial block as a short frame.
  bool flush();

  /// Flushes pending events, then sends a trace-context frame: every
  /// event that follows is attributed to (trace_id, span_id) by the
  /// server. Requires a nonzero trace_id. Returns false after an abort.
  bool send_trace(std::uint64_t trace_id, std::uint64_t span_id);

  /// Flushes and half-closes the write side at a frame boundary — the
  /// clean end-of-stream the server expects. No-op after an abort.
  void finish();

  std::uint64_t events_sent() const { return events_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  bool aborted() const { return aborted_; }

 private:
  bool write_paced(const unsigned char* data, std::size_t size);

  Socket sock_;
  EventStreamClientOptions options_;
  std::vector<LogEvent> pending_;
  std::vector<unsigned char> body_;
  std::vector<unsigned char> frame_;
  std::uint64_t events_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  bool handshaken_ = false;
  bool finished_ = false;
  bool aborted_ = false;
};

}  // namespace repl
