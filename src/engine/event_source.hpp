// EventSource: where the engine's events come from.
//
// StreamingEngine::serve historically drove one hard-wired producer — an
// EventLogReader over a finished file. Live network ingest needs the same
// drain loop (validation, sharded execution, periodic checkpoints) over a
// source that is not a file, so the producer side is abstracted here:
// serve() drains any EventSource, and file replay and socket ingest are
// two implementations of the same two-call contract.
//
// Contract: attach() is called exactly once, before the first
// next_batch(), with the engine that will consume the stream — the source
// binds/cross-checks the stream identity (StreamingEngine::bind_log) and
// positions itself past a restored engine's consumed prefix
// (resume_position()). next_batch() then blocks for the next batch;
// batches must be internally and mutually time-ordered, exactly what
// StreamingEngine::ingest demands. A source that fails mid-stream first
// delivers every event it produced before the failure, then throws from
// next_batch() — and keeps throwing on retry (sticky), so a caller can
// never mistake a failed stream for a drained one.
//
// What a front-end knows and the engine does not — the bytes it decoded,
// the trace a batch rode in on, what to do once events are ingested or
// durable — is the source's to say, through the hooks below. Every hook
// has a no-op default, so serve() runs one loop for every producer. What
// a front-end has to report (queue depths, connection counts) it
// publishes into the registry, where the engine's progress line and a
// scrape both read it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "trace/event_log.hpp"

namespace repl {

class StreamingEngine;
struct EngineStats;

class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Binds the stream's identity to `engine` and seeks past a restored
  /// engine's consumed prefix. serve() calls this once before the drain.
  virtual void attach(StreamingEngine& engine) = 0;

  /// Blocks for the next time-ordered batch, replaced into `out`.
  /// Returns false at the end of the stream. Events decoded before a
  /// failure are delivered before the failure is thrown; the error is
  /// sticky across calls.
  virtual bool next_batch(std::vector<LogEvent>& out) = 0;

  /// Encoded bytes consumed by the source so far, as of the last
  /// delivered batch (0 when the source has no byte-level view — a
  /// network source counts its bytes on its connection threads). Feeds
  /// the engine's decode-bytes telemetry; only called between
  /// next_batch() calls, on the serving thread.
  virtual std::uint64_t bytes_consumed() const { return 0; }

  /// Trace context the last delivered batch rode in on (a net source's
  /// newest wire trace frame); the batch's spans join it. Invalid (the
  /// default) roots a fresh local trace. Called after each next_batch(),
  /// only while the process Tracer is enabled.
  virtual obs::TraceContext trace_parent() const { return {}; }

  /// Called after each batch is ingested, with the engine's running
  /// stats — where a partition worker streams progress to its
  /// coordinator.
  virtual void ingested(const EngineStats&) {}

  /// Called once a periodic checkpoint covering the first
  /// `events_ingested` events of the stream has landed atomically.
  virtual void checkpointed(std::uint64_t /*events_ingested*/) {}
};

/// File replay: serves a finished event log, double-buffered by default.
/// A reader thread decodes batch N+1 into the one spare buffer while the
/// engine executes batch N, and next_batch() swaps that buffer with the
/// caller's, so two batch buffers rotate and nothing else is allocated.
/// With `async_ingest` false the same produce step runs inline, on the
/// caller's thread, with identical batches, byte marks and errors.
/// attach() performs the log binding and the hash-verified resume seek,
/// then starts the reader thread, so the seek owns the reader's position
/// before the thread exists.
class LogReplaySource final : public EventSource {
 public:
  /// `reader` must outlive the source and must not be touched by the
  /// caller until the source is destroyed.
  LogReplaySource(EventLogReader& reader, std::size_t batch_events,
                  bool async_ingest);
  /// Stops and joins the reader thread; a decode in flight finishes its
  /// batch first.
  ~LogReplaySource() override;

  LogReplaySource(const LogReplaySource&) = delete;
  LogReplaySource& operator=(const LogReplaySource&) = delete;

  void attach(StreamingEngine& engine) override;
  bool next_batch(std::vector<LogEvent>& out) override;
  std::uint64_t bytes_consumed() const override { return bytes_delivered_; }

 private:
  /// Reads the next batch into the spare slot; returns whether the
  /// stream ends with it (a clean end or a failure).
  bool produce();
  void run();

  EventLogReader& reader_;
  const std::size_t batch_events_;
  const bool async_;

  /// The spare slot, owned by produce() while `ready_` is false and by
  /// next_batch() while it is true: a batch buffer, the reader's
  /// bytes_read() after it, and the failure that cut it short.
  /// next_batch() never hands back a slot that is empty or failed, so
  /// the end of the stream and the error are both stable.
  std::vector<LogEvent> spare_;
  std::uint64_t spare_bytes_ = 0;
  std::exception_ptr error_;

  /// bytes_read() as of the last delivered batch (or the resume seek);
  /// touched only by the consumer.
  std::uint64_t bytes_delivered_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool ready_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace repl
