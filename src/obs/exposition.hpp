// Renders a MetricsRegistry into wire formats: Prometheus text
// exposition format 0.0.4 and a JSON document. Both render from the same
// collect() snapshot, so the two formats always describe the same scrape.
// ProgressLine renders the same samples as one human-readable log line.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace repl::obs {

/// Prometheus text exposition (content type
/// "text/plain; version=0.0.4; charset=utf-8"): one `# HELP` / `# TYPE`
/// pair per family, cumulative `_bucket{le=...}` / `_sum` / `_count`
/// series for histograms, escaped help strings and label values,
/// deterministic (name, labels) order.
std::string prometheus_text(MetricsRegistry& registry);

/// Same rendering over an explicit sample snapshot — the federation
/// path, where one exposition merges several registries' samples.
/// `samples` must be sorted by (name, labels); obs::sort_samples does.
std::string prometheus_text(const std::vector<Sample>& samples);

/// The MIME type `prometheus_text` should be served under.
const char* prometheus_content_type();

/// JSON exposition: `{"metrics": {"<series>": {"type", "value"| "count"/
/// "sum"/"buckets"}, ...}, ...extra}`. Series keys carry their labels in
/// Prometheus selector syntax (`repl_stage_seconds{stage="route"}`).
/// `extra`, when set, appends additional top-level members after
/// "metrics" (e.g. per-connection detail) into the still-open root
/// object.
std::string metrics_json_text(
    MetricsRegistry& registry,
    const std::function<void(JsonWriter&)>& extra = nullptr);

/// JSON exposition over an explicit sample snapshot (see above).
std::string metrics_json_text(
    const std::vector<Sample>& samples,
    const std::function<void(JsonWriter&)>& extra = nullptr);

/// A serve's periodic progress line, rendered from samples alone: `t=
/// events= rate= batches= ev/batch= p50_batch= p99_batch= ckpt=`, then
/// `queued= conns=<opened>/<failed>f` when repl_net_* series are present
/// and `routed= respawns= in_flight=` when repl_cluster_* series are.
/// Each value sums its series over every label set, and histograms merge
/// bucket-wise before the quantile, so a cluster's partition-labelled
/// federated samples add up to one line.
class ProgressLine {
 public:
  using Clock = std::chrono::steady_clock;

  /// `tag` opens every line. `t` counts from `start`; `rate` and
  /// `ev/batch` count from the events and batches in `baseline`.
  ProgressLine(std::string tag, const std::vector<Sample>& baseline,
               Clock::time_point start);

  /// The line for `samples`, taken at `now`; `rate` covers the events
  /// since the previous line.
  std::string render(const std::vector<Sample>& samples,
                     Clock::time_point now);

 private:
  std::string tag_;
  Clock::time_point start_;
  Clock::time_point last_;
  double start_events_;
  double start_batches_;
  double last_events_;
};

}  // namespace repl::obs
