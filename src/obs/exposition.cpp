#include "obs/exposition.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/csv.hpp"
#include "util/histogram.hpp"

namespace repl::obs {
namespace {

const char* type_text(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Escaping for HELP docstrings: backslash and newline.
std::string escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Escaping for label values: backslash, double-quote, newline.
std::string escape_label(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// `{k="v",...}` or empty; `extra` appends one more pair (used for `le`).
std::string label_block(const Labels& labels, const std::string& extra_key = {},
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"" << escape_label(v) << '"';
  }
  if (!extra_key.empty()) {
    if (!first) os << ',';
    os << extra_key << "=\"" << escape_label(extra_value) << '"';
  }
  os << '}';
  return os.str();
}

/// Series key used in the JSON document: name plus selector-style labels.
std::string series_name(const Sample& s) {
  return s.name + label_block(s.labels);
}

/// Series `name` summed over every label set; counters as doubles.
double sum_of(const std::vector<Sample>& samples, const std::string& name) {
  double total = 0.0;
  for (const Sample& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

bool has_family(const std::vector<Sample>& samples, const char* prefix) {
  return std::any_of(samples.begin(), samples.end(), [&](const Sample& s) {
    return s.name.rfind(prefix, 0) == 0;
  });
}

}  // namespace

std::string prometheus_text(MetricsRegistry& registry) {
  return prometheus_text(registry.collect());
}

std::string prometheus_text(const std::vector<Sample>& samples) {
  std::ostringstream os;
  std::string last_family;
  for (const Sample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      if (!s.help.empty())
        os << "# HELP " << s.name << ' ' << escape_help(s.help) << '\n';
      os << "# TYPE " << s.name << ' ' << type_text(s.type) << '\n';
    }
    switch (s.type) {
      case MetricType::kCounter:
        os << s.name << label_block(s.labels) << ' ' << s.counter_value
           << '\n';
        break;
      case MetricType::kGauge:
        os << s.name << label_block(s.labels) << ' ' << format_double(s.value)
           << '\n';
        break;
      case MetricType::kHistogram: {
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          os << s.name << "_bucket"
             << label_block(s.labels, "le", format_double(s.bounds[i])) << ' '
             << s.cumulative[i] << '\n';
        }
        os << s.name << "_bucket" << label_block(s.labels, "le", "+Inf") << ' '
           << s.count << '\n';
        os << s.name << "_sum" << label_block(s.labels) << ' '
           << format_double(s.sum) << '\n';
        os << s.name << "_count" << label_block(s.labels) << ' ' << s.count
           << '\n';
        break;
      }
    }
  }
  return os.str();
}

const char* prometheus_content_type() {
  return "text/plain; version=0.0.4; charset=utf-8";
}

std::string metrics_json_text(
    MetricsRegistry& registry,
    const std::function<void(JsonWriter&)>& extra) {
  return metrics_json_text(registry.collect(), extra);
}

std::string metrics_json_text(
    const std::vector<Sample>& samples,
    const std::function<void(JsonWriter&)>& extra) {
  JsonWriter w;
  w.begin_object();
  w.key("metrics").begin_object();
  for (const Sample& s : samples) {
    w.key(series_name(s)).begin_object();
    w.key("type").value(type_text(s.type));
    switch (s.type) {
      case MetricType::kCounter:
        w.key("value").value(s.counter_value);
        break;
      case MetricType::kGauge:
        w.key("value").value(s.value);
        break;
      case MetricType::kHistogram: {
        w.key("count").value(s.count);
        w.key("sum").value(s.sum);
        w.key("buckets").begin_array();
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          w.begin_object();
          w.key("le").value(s.bounds[i]);
          w.key("count").value(s.cumulative[i]);
          w.end_object();
        }
        w.begin_object();
        w.key("le").value("+Inf");
        w.key("count").value(s.count);
        w.end_object();
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_object();
  if (extra) extra(w);
  w.end_object();
  return w.str();
}

ProgressLine::ProgressLine(std::string tag, const std::vector<Sample>& baseline,
                           Clock::time_point start)
    : tag_(std::move(tag)),
      start_(start),
      last_(start),
      start_events_(sum_of(baseline, "repl_events_ingested_total")),
      start_batches_(sum_of(baseline, "repl_batches_total")),
      last_events_(start_events_) {}

std::string ProgressLine::render(const std::vector<Sample>& samples,
                                 Clock::time_point now) {
  const double events = sum_of(samples, "repl_events_ingested_total");
  const double batches = sum_of(samples, "repl_batches_total");
  const double interval = std::chrono::duration<double>(now - last_).count();
  // repl_batch_seconds merged bucket-wise over the label sets that share
  // the first one's buckets (federated samples come from other processes).
  const Sample* first = nullptr;
  std::vector<std::uint64_t> cumulative;
  for (const Sample& s : samples) {
    if (s.name != "repl_batch_seconds" || s.type != MetricType::kHistogram) {
      continue;
    }
    if (first == nullptr) {
      first = &s;
      cumulative.assign(s.cumulative.size(), 0);
    }
    if (s.bounds != first->bounds) continue;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      cumulative[i] += s.cumulative[i];
    }
  }
  const auto quantile_ms = [&](double q) {
    return first == nullptr
               ? 0.0
               : histogram_quantile(first->bounds, cumulative, q) * 1e3;
  };
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      " t=%.1fs events=%.0f rate=%.0f/s batches=%.0f ev/batch=%.1f "
      "p50_batch=%.1fms p99_batch=%.1fms ckpt=%.0f",
      std::chrono::duration<double>(now - start_).count(), events,
      interval > 0.0 ? (events - last_events_) / interval : 0.0, batches,
      batches > start_batches_
          ? (events - start_events_) / (batches - start_batches_)
          : 0.0,
      quantile_ms(0.5), quantile_ms(0.99),
      sum_of(samples, "repl_checkpoint_writes_total"));
  std::string line = tag_ + buf;
  if (has_family(samples, "repl_net_")) {
    std::snprintf(buf, sizeof(buf), " queued=%.0f conns=%.0f/%.0ff",
                  sum_of(samples, "repl_net_queued_events"),
                  sum_of(samples, "repl_net_connections_opened_total"),
                  sum_of(samples, "repl_net_connections_failed_total"));
    line += buf;
  }
  if (has_family(samples, "repl_cluster_")) {
    std::snprintf(buf, sizeof(buf), " routed=%.0f respawns=%.0f in_flight=%.0f",
                  sum_of(samples, "repl_cluster_events_routed_total"),
                  sum_of(samples, "repl_cluster_worker_respawns_total"),
                  sum_of(samples, "repl_cluster_events_in_flight"));
    line += buf;
  }
  last_ = now;
  last_events_ = events;
  return line;
}

}  // namespace repl::obs
