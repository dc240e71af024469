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
#include <functional>
#include <memory>
#include <vector>

#include "net/socket.hpp"
#include "trace/event_log.hpp"
#include "util/rng.hpp"

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

/// Dial/backoff policy for ReconnectingEventStreamClient.
struct ReconnectPolicy {
  /// Dial attempts per connect() call before the last error propagates.
  std::size_t max_attempts = 10;
  /// Capped exponential backoff between attempts: the n-th failed attempt
  /// sleeps initial * 2^n (clamped to max), scaled by a deterministic
  /// jitter factor in [1 - jitter/2, 1 + jitter/2] drawn from `seed`.
  double initial_backoff_seconds = 0.02;
  double max_backoff_seconds = 1.0;
  double jitter = 0.5;
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  /// Observability hook: called before each backoff sleep with the
  /// 0-based attempt index and the jittered delay about to be slept.
  std::function<void(std::size_t attempt, double delay_seconds)> on_retry;

  /// The longest connect() can sleep before giving up: every backoff
  /// step at the top of its jitter range.
  double backoff_budget_seconds() const;
};

/// Reconnect-with-backoff mode of the event-stream client: owns the dial
/// function instead of a connected socket, so a dropped transport (or a
/// server that is not up yet) is survivable. connect() dials with capped
/// exponential backoff + jitter, handshakes, and returns the server's
/// REPLNACK resume offset — the number of logical-stream events the
/// server already holds. The *caller* owns resumption: replay your
/// source from that offset, then continue send()ing. On a mid-stream
/// send/flush failure, call reconnect() (drop + connect) and resume from
/// the fresh offset — exactly the loop a cluster coordinator runs when
/// it respawns a worker.
class ReconnectingEventStreamClient {
 public:
  /// `dial` must return a connected Socket or throw; it is retried under
  /// the policy's backoff schedule.
  ReconnectingEventStreamClient(std::function<Socket()> dial,
                                std::uint32_t num_servers,
                                ReconnectPolicy policy = {},
                                EventStreamClientOptions options = {});

  /// Establishes (or re-establishes) the transport; returns the server's
  /// resume offset. Throws the last dial/handshake error once
  /// max_attempts is exhausted.
  std::uint64_t connect();

  /// Discards the current transport without the clean finish() half-close
  /// — the right move after a send/flush threw (the socket is already
  /// broken; finishing it would throw again).
  void drop();

  /// drop() + connect().
  std::uint64_t reconnect() {
    drop();
    return connect();
  }

  bool connected() const { return client_ != nullptr; }
  /// The offset returned by the most recent successful handshake.
  std::uint64_t resume_events() const { return resume_events_; }
  /// Successful connections / total dial attempts so far.
  std::size_t connects() const { return connects_; }
  std::size_t attempts() const { return attempts_; }

  /// Pass-throughs to the live transport; REPL_REQUIRE connected().
  /// Errors propagate — call reconnect() and resume from its offset.
  bool send(const LogEvent& event);
  bool flush();
  bool send_trace(std::uint64_t trace_id, std::uint64_t span_id);
  void finish();

 private:
  std::function<Socket()> dial_;
  std::uint32_t num_servers_;
  ReconnectPolicy policy_;
  EventStreamClientOptions options_;
  std::unique_ptr<EventStreamClient> client_;
  Rng rng_;
  std::uint64_t resume_events_ = 0;
  std::size_t connects_ = 0;
  std::size_t attempts_ = 0;
};

}  // namespace repl
