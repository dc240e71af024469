#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/check.hpp"

namespace repl::obs {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  // Same as metric names minus ':', and no reserved "__" prefix.
  if (!valid_metric_name(name) || name.find(':') != std::string::npos)
    return false;
  return name.rfind("__", 0) != 0;
}

/// Canonical series key: name plus sorted label pairs. Label values are
/// length-prefixed so {a="b,c"} and {a="b", c=""} cannot collide.
std::string series_key(const std::string& name, const Labels& labels) {
  std::ostringstream key;
  key << name;
  for (const auto& [k, v] : labels)
    key << '\x1f' << k.size() << ':' << k << '=' << v.size() << ':' << v;
  return key.str();
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::size_t metric_cell_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricCells;
  return slot;
}

void Gauge::set(double v) noexcept {
  bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept {
  std::uint64_t expected = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + delta),
      std::memory_order_relaxed)) {
  }
}

double Gauge::value() const noexcept {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  REPL_REQUIRE_MSG(!bounds_.empty(), "histogram needs at least one bound");
  REPL_REQUIRE_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                       std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                           bounds_.end(),
                   "histogram bounds must be strictly increasing");
  const std::size_t slots = bounds_.size() + 1;  // finite buckets + +Inf
  for (auto& cell : cells_) {
    cell.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i)
      cell.buckets[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double x) noexcept {
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), x) -
                               bounds_.begin());
  Cell& cell = cells_[metric_cell_slot()];
  cell.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = cell.sum_bits.load(std::memory_order_relaxed);
  while (!cell.sum_bits.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + x),
      std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  const std::size_t slots = bounds_.size() + 1;
  Snapshot snap;
  snap.cumulative.assign(slots, 0);
  for (const auto& cell : cells_) {
    for (std::size_t i = 0; i < slots; ++i)
      snap.cumulative[i] += cell.buckets[i].load(std::memory_order_relaxed);
    snap.sum += std::bit_cast<double>(cell.sum_bits.load(std::memory_order_relaxed));
  }
  // Per-bound counts -> cumulative; the total is derived from the same
  // bucket reads, so it can never disagree with them.
  for (std::size_t i = 1; i < slots; ++i)
    snap.cumulative[i] += snap.cumulative[i - 1];
  snap.count = snap.cumulative.back();
  return snap;
}

std::vector<double> Histogram::default_latency_bounds() {
  std::vector<double> bounds;
  for (double b = 100e-6; b < 200.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, Labels labels) {
  return *find_or_create(name, help, MetricType::kCounter, std::move(labels))
              .counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              Labels labels) {
  return *find_or_create(name, help, MetricType::kGauge, std::move(labels))
              .gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  REPL_REQUIRE_MSG(valid_metric_name(name), "invalid metric name: " + name);
  for (const auto& [k, v] : labels)
    REPL_REQUIRE_MSG(valid_label_name(k), "invalid label name: " + k);
  std::sort(labels.begin(), labels.end());
  const std::string key = series_key(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    REPL_REQUIRE_MSG(it->second->type == MetricType::kHistogram,
                     "metric '" + name + "' already registered as " +
                         type_name(it->second->type));
    REPL_REQUIRE_MSG(it->second->histogram->bounds() == bounds,
                     "metric '" + name +
                         "' already registered with different buckets");
    return *it->second->histogram;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->type = MetricType::kHistogram;
  entry->labels = std::move(labels);
  entry->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram& result = *entry->histogram;
  entries_.emplace(key, std::move(entry));
  return result;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, MetricType type,
    Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  REPL_REQUIRE_MSG(valid_metric_name(name), "invalid metric name: " + name);
  for (const auto& [k, v] : labels)
    REPL_REQUIRE_MSG(valid_label_name(k), "invalid label name: " + k);
  std::sort(labels.begin(), labels.end());
  const std::string key = series_key(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    REPL_REQUIRE_MSG(it->second->type == type,
                     "metric '" + name + "' already registered as " +
                         type_name(it->second->type));
    return *it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->type = type;
  entry->labels = std::move(labels);
  if (type == MetricType::kCounter) entry->counter = std::make_unique<Counter>();
  if (type == MetricType::kGauge) entry->gauge = std::make_unique<Gauge>();
  Entry& result = *entry;
  entries_.emplace(key, std::move(entry));
  return result;
}

std::size_t MetricsRegistry::add_collect_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void MetricsRegistry::remove_collect_hook(std::size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == id) {
      hooks_.erase(it);
      return;
    }
  }
}

std::vector<Sample> MetricsRegistry::collect() {
  // Copied (not referenced) so a concurrent remove_collect_hook can't
  // invalidate what we run; hooks run outside mu_ so a hook may itself
  // register lazily-created series without deadlocking.
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hooks.reserve(hooks_.size());
    for (const auto& [id, hook] : hooks_) hooks.push_back(hook);
  }
  for (const auto& hook : hooks) hook();

  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> samples;
  samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Sample s;
    s.name = entry->name;
    s.help = entry->help;
    s.type = entry->type;
    s.labels = entry->labels;
    switch (entry->type) {
      case MetricType::kCounter:
        s.counter_value = entry->counter->value();
        s.value = static_cast<double>(s.counter_value);
        break;
      case MetricType::kGauge:
        s.value = entry->gauge->value();
        break;
      case MetricType::kHistogram: {
        auto snap = entry->histogram->snapshot();
        s.bounds = entry->histogram->bounds();
        s.cumulative = std::move(snap.cumulative);
        s.count = snap.count;
        s.sum = snap.sum;
        break;
      }
    }
    samples.push_back(std::move(s));
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  return samples;
}

}  // namespace repl::obs
