// Cross-process distributed tracing with Chrome trace_event output.
//
// A TraceContext (trace_id + span_id) is minted at the coordinator per
// routed event batch and propagated to workers in-band: a tagged aux
// frame on the v2 event wire (net/wire.hpp) and a field of the control
// `metrics` message (cluster/control.hpp). Worker-side spans adopt the
// most recent wire context as their parent, so one batch's journey —
// coordinator route, wire, worker ingest wait, engine execute — shares
// one trace_id end to end.
//
// Recording is lock-free on the hot path: each thread owns a
// single-producer ring (the flusher is the single consumer) and a span
// records by copying a POD SpanRecord into its ring — no allocation, no
// lock, drop-on-full with a counter. flush() drains every ring into the
// process's part file as JSON lines (one complete Chrome trace event
// per line), so a SIGKILLed worker leaves a valid prefix: every flushed
// span survives. Each worker incarnation writes a distinct part file;
// obs::merge_trace_parts stitches all parts (coordinator + every
// incarnation of every worker) into one {"traceEvents":[...]} document
// that chrome://tracing and Perfetto open as a single timeline.
//
// Timestamps are CLOCK_MONOTONIC, shared by every process on the
// machine, so cross-process span nesting lines up without clock-sync
// machinery (the cluster is single-host today; wire NTP-style offsets
// through TraceContext if that changes).
//
// Tracing is observability, not control flow: spans never touch
// aggregate state, and a serve with tracing on is bit-identical to one
// without (gated in ctest and bench_cluster).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace repl::obs {

class Histogram;

/// The propagated slice of a trace: which trace this work belongs to
/// and which span caused it. trace_id 0 = "no context" everywhere.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// One completed span, as recorded into a thread ring. POD: name and
/// arg_key must point at string literals (or other process-lifetime
/// storage) — the flusher reads them after the span is gone.
struct SpanRecord {
  const char* name = nullptr;
  const char* arg_key = nullptr;
  std::uint64_t start_ns = 0;  ///< CLOCK_MONOTONIC
  std::uint64_t dur_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t arg_value = 0;
  std::uint32_t tid = 0;  ///< stable per-thread id within this process
};

/// Process-wide trace collector. start() opens (appends to) a JSONL
/// part file and enables recording; spans no-op while disabled.
class Tracer {
 public:
  static Tracer& global();

  /// Begins recording into `path` (JSON lines, append). `process_name`
  /// labels this process's row in the merged timeline. Throws
  /// std::runtime_error if the file cannot be opened.
  void start(const std::string& path, const std::string& process_name);

  /// Drains every thread ring into the part file and fsync-free
  /// flushes stdio buffers. Cheap enough to call at every checkpoint.
  void flush();

  /// flush() + close. Idempotent; recording disables first.
  void stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Process-unique nonzero id (pid-salted, so ids from different
  /// cluster processes never collide in one merged trace).
  std::uint64_t next_id();

  /// Spans lost to full rings since start() (visible in the part file's
  /// final metadata line too).
  std::uint64_t dropped() const;

  const std::string& path() const { return path_; }

  /// Pushes one completed span into this thread's ring (Span::stop).
  void record(const SpanRecord& record);

  /// Monotonic now, in nanoseconds.
  static std::uint64_t now_ns();

 private:
  Tracer() = default;

  struct ThreadRing;
  ThreadRing& ring_for_this_thread();
  void flush_locked();

  std::atomic<bool> enabled_{false};
  std::string path_;
  void* file_ = nullptr;  // FILE*, opaque to keep <cstdio> out of the header
  std::vector<ThreadRing*> rings_;
  std::atomic<std::uint64_t> id_counter_{0};
  std::uint64_t id_salt_ = 0;
  std::uint32_t next_tid_ = 1;
  mutable std::atomic<std::uint64_t> dropped_{0};
  // Guards rings_ registration and file writes (flush/stop).
  mutable std::mutex mu_;
};

/// One timed interval, the serve pipeline's one timer: a single clock
/// pair feeds every sink the span has — a total in seconds, a histogram,
/// and a complete ("ph":"X") trace event when it is named and the Tracer
/// was on at its start — so the views of one interval cannot disagree.
/// The event joins a valid parent's trace, else starts a root trace.
/// Records at stop() or destruction; with no sink it reads no clock.
class Span {
 public:
  /// `name` is a string literal, or null for no trace event; `total`
  /// (seconds, added to) and `histogram` may be null. The span starts at
  /// `start_ns`, or now when it is 0: passing a stop() result starts it
  /// exactly where the previous one ended, with no clock read.
  explicit Span(const char* name, TraceContext parent = {},
                double* total = nullptr, Histogram* histogram = nullptr,
                std::uint64_t start_ns = 0);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Whether this span records a trace event.
  bool traced() const { return name_ != nullptr; }
  std::uint64_t start_ns() const { return start_ns_; }

  /// Re-parents before stop(); used when the parent context arrives
  /// mid-span (e.g. it rode in with the batch the span is waiting for).
  void set_parent(TraceContext parent) { parent_ = parent; }

  /// Attaches one integer argument (key must be a string literal).
  void set_arg(const char* key, std::uint64_t value) {
    arg_key_ = key;
    arg_value_ = value;
  }

  /// The parent context of this span's children; empty when it records
  /// no trace event. Ids are minted on first use.
  TraceContext context();

  /// Records the interval, ending at `end_ns` (0: now), into every sink
  /// once and returns its end; later calls, and a span with nothing to
  /// record, read no clock and return `end_ns`.
  std::uint64_t stop(std::uint64_t end_ns = 0);

 private:
  const char* name_;
  TraceContext parent_;
  double* total_;
  Histogram* histogram_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t trace_id_ = 0;
  const char* arg_key_ = nullptr;
  std::uint64_t arg_value_ = 0;
  bool armed_;
};

/// Stitches JSONL part files into one Chrome JSON trace document
/// ({"traceEvents":[...]}). Missing or empty parts are skipped (a
/// killed worker may never have flushed); a malformed line fails the
/// merge with a diagnostic naming the part. Returns the number of
/// events written.
std::size_t merge_trace_parts(const std::vector<std::string>& parts,
                              const std::string& out_path);

}  // namespace repl::obs
