// Shared pieces of the benchmark harness: run context and metric output,
// the span log behind traced runs, allocator sampling, cached inputs and
// reference aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "trace/stream_gen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Allocator bytes in use: mallinfo2 uordblks + hblkhd. Unlike RSS it
/// does not depend on when freed pages go back to the kernel.
std::uint64_t heap_in_use();

/// Returns the allocator's free memory to the kernel (malloc_trim), so a
/// serve that follows faults its heap in as a fresh process would.
void release_free_memory();

/// Harness-side spans, kept in memory and written at exit. Spans of one
/// batch share a trace id; a span's parent is another span's id. With
/// the log disabled every call is a no-op, so the untraced runs that
/// produce the end-to-end metrics pay one branch per call site.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t thread = 0;
  };
  struct Layer {
    std::size_t spans = 0;
    double total_s = 0.0;
    /// Duration minus the part covered by child spans.
    double self_s = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Traced runs interleave untraced serves to measure the overhead.
  void set_enabled(bool on) { enabled_ = on; }
  /// Fresh id for a trace or a span (0 when disabled).
  std::uint64_t next_id();
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const std::string& name, std::uint64_t trace,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id = 0);

  std::map<std::string, Layer> layers() const;
  /// Chrome trace-event JSON ({"traceEvents":[...]}).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_ = 0;
  std::vector<Record> records_;
  Clock::time_point origin_ = Clock::now();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation accumulates and finally prints.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time; --seconds is required.
  double seconds = 0.0;
  bool traced = false;
  /// Smoke scale: tiny inputs, for the self-check.
  bool smoke = false;
  /// A child process of an untraced run (see replay.cpp).
  bool child = false;
  /// This executable, for spawning children.
  std::string self;
  /// Directory keyed by (workload, seed, build): log + reference.
  std::string cache_dir;
  /// Scratch directory for snapshots and sockets; emptied per run.
  std::string work_dir;

  SpanLog spans{false};
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a failed check; the run then reports correct=false.
  void fail(const std::string& what);
};

/// The aggregates a serve returns, compared bit for bit.
struct Aggregates {
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  std::uint64_t num_local = 0;
  std::uint64_t num_transfers = 0;
  double online_cost = 0.0;
  double lower_bound = 0.0;

  static Aggregates of(const repl::EngineMetrics& m);
  /// One line, doubles in hexfloat so a text round trip is exact.
  std::string to_line() const;
  static bool from_line(const std::string& line, Aggregates& out);
  bool operator==(const Aggregates&) const = default;
};

/// The system every workload serves: 10 servers, transfer cost λ = 10.
repl::SystemConfig bench_config();
inline constexpr const char* kPolicy = "drwp(alpha=0.3)";
inline constexpr const char* kPredictor = "last_gap";

/// Stream_gen Poisson workload over `objects` with object Zipf `zipf`.
repl::StreamWorkloadConfig workload_config(std::uint64_t objects, double zipf,
                                           std::uint64_t events);

/// The cached compressed log `<name>.evlog` for this run, generated from
/// the run's seed on first use.
std::string ensure_log(const RunContext& ctx,
                       const repl::StreamWorkloadConfig& workload,
                       const std::string& name = "log");

/// The cached reference aggregates of log `name`; `compute` runs only on
/// a cache miss.
Aggregates ensure_reference(RunContext& ctx,
                            const std::function<Aggregates()>& compute,
                            const std::string& name = "log");

/// Serial per-object Simulator + OPTL sweep in ascending object id — the
/// engine's parity reference. `step_ns`, when set, receives the sweep's
/// simulation time per event (trace materialization excluded).
Aggregates serial_reference(const std::string& log_path,
                            double* step_ns = nullptr);

/// Decodes the whole log with EventLogReader::read_batch; returns seconds.
double scan_log(const std::string& log_path, std::uint64_t* events = nullptr);

/// Sum over partitions of one federated counter, or of one labeled
/// histogram's sum (`label` = "stage=execute" style, empty for none).
double sample_total(const std::vector<repl::obs::Sample>& samples,
                    const std::string& name, const std::string& label = "");
/// Count of a (labeled) histogram summed over partitions.
std::uint64_t sample_count(const std::vector<repl::obs::Sample>& samples,
                           const std::string& name,
                           const std::string& label = "");
/// Upper bucket bound at quantile q of a histogram merged over partitions.
double sample_quantile(const std::vector<repl::obs::Sample>& samples,
                       const std::string& name, double q);

}  // namespace perfbench
