// Low-overhead metrics primitives + the registry that owns them.
//
// Hot-path contract: Counter::inc / Gauge::set / Histogram::observe are
// lock-free and never contend across threads — every instrument is built
// from cache-line-padded atomic cells indexed by a sticky per-thread slot,
// so two threads incrementing the same counter touch different lines.
// Reads (scrapes) sum the cells; because each cell is monotone for
// counters/histogram buckets, a later scrape can never observe a smaller
// value than an earlier one, and a histogram's total count is *derived*
// from its bucket cells, so count == sum(buckets) holds in every scrape
// no matter how hard writers race the reader ("no torn totals").
//
// The registry is get-or-create: asking twice for the same (name, labels)
// returns the same instrument; asking for the same series under a
// different type throws. Exposition (Prometheus text / JSON) renders from
// Registry::collect() snapshots — see obs/exposition.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace repl::obs {

/// Label set for one series. Kept sorted by key inside the registry so
/// {a=1,b=2} and {b=2,a=1} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Number of padded cells per instrument. Threads hash onto cells with a
/// sticky thread-local slot; 16 cells keeps the common pools (engine
/// workers + net reader threads + scraper) collision-free in practice
/// while a scrape still only reads 16 lines.
inline constexpr std::size_t kMetricCells = 16;

/// The sticky cell slot for the calling thread.
std::size_t metric_cell_slot() noexcept;

/// Monotone counter. inc() is a relaxed fetch_add on this thread's cell.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    cells_[metric_cell_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) total += cell.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kMetricCells];
};

/// Point-in-time double value. set() wins over concurrent add()s only in
/// the sense of last-writer; gauges are for low-rate state, not hot paths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept;
  void add(double delta) noexcept;
  double value() const noexcept;

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram with Prometheus semantics: `bounds` are the
/// inclusive upper edges of the finite buckets; everything above the last
/// bound lands in the implicit +Inf bucket. Cells are sharded like
/// Counter; the per-cell `sum` is a CAS-loop double add, acceptable
/// because observe() is called per batch/stage, not per event.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x) noexcept;

  struct Snapshot {
    /// Cumulative counts per finite bound, then +Inf last; size = bounds+1.
    std::vector<std::uint64_t> cumulative;
    std::uint64_t count = 0;  ///< == cumulative.back(), by construction.
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Default latency bounds, in seconds: 100us .. ~100s, x2 per bucket.
  static std::vector<double> default_latency_bounds();

 private:
  struct alignas(64) Cell {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  // bounds+1 slots
    std::atomic<std::uint64_t> sum_bits{0};
  };

  std::vector<double> bounds_;
  Cell cells_[kMetricCells];
};

/// One collected series, ready for exposition.
struct Sample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0.0;                     ///< gauge (and counter, as double)
  std::uint64_t counter_value = 0;        ///< counter, lossless
  std::vector<double> bounds;             ///< histogram finite bounds
  std::vector<std::uint64_t> cumulative;  ///< histogram, size bounds+1
  std::uint64_t count = 0;                ///< histogram
  double sum = 0.0;                       ///< histogram
};

/// Named instrument store. Registration takes a mutex (cold); returned
/// references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});

  /// Runs before every collect(); use to refresh gauges that mirror state
  /// behind a lock (queue depths, open connections). Hooks run on the
  /// scraping thread and must be safe to call concurrently with writers.
  /// Returns an id for remove_collect_hook — a component whose lifetime is
  /// shorter than the registry's must remove its hook before dying.
  std::size_t add_collect_hook(std::function<void()> hook);
  void remove_collect_hook(std::size_t id);

  /// Snapshot every series, sorted by (name, labels). Runs collect hooks.
  std::vector<Sample> collect();

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(const std::string& name, const std::string& help,
                        MetricType type, Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;  // key: name+labels
  std::vector<std::pair<std::size_t, std::function<void()>>> hooks_;
  std::size_t next_hook_id_ = 1;
};

}  // namespace repl::obs
