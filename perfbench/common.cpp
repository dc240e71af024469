#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <unordered_map>

#include "api/registry.hpp"
#include "api/spec.hpp"
#include "core/simulator.hpp"
#include "offline/opt_lower_bound.hpp"
#include "run/parallel_runner.hpp"
#include "trace/event_log.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using namespace repl;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

std::uint64_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<std::uint64_t>(info.uordblks) +
         static_cast<std::uint64_t>(info.hblkhd);
}

void release_free_memory() { ::malloc_trim(0); }

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint64_t SpanLog::next_id() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_;
}

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t trace,
                           std::uint64_t parent, Clock::time_point start,
                           Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = ++next_;
  records_.push_back(
      Record{name, trace, id, parent, start, end, thread_index()});
  return id;
}

std::map<std::string, SpanLog::Layer> SpanLog::layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_s;
  for (const Record& r : records_) {
    if (r.parent != 0) child_s[r.parent] += seconds_between(r.start, r.end);
  }
  std::map<std::string, Layer> out;
  for (const Record& r : records_) {
    Layer& layer = out[r.name];
    const double total = seconds_between(r.start, r.end);
    const auto it = child_s.find(r.id);
    const double covered = it == child_s.end() ? 0.0 : it->second;
    ++layer.spans;
    layer.total_s += total;
    layer.self_s += std::max(0.0, total - covered);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    const double ts = seconds_between(origin_, r.start) * 1e6;
    const double dur = seconds_between(r.start, r.end) * 1e6;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"trace\":%" PRIu64 ",\"span\":%" PRIu64
                  ",\"parent\":%" PRIu64 "}}",
                  first ? "" : ",", r.name.c_str(), ts, dur, r.thread,
                  r.trace, r.id, r.parent);
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

void RunContext::fail(const std::string& what) {
  errors.push_back(what);
  std::cerr << "perfbench: FAIL: " << what << "\n";
}

Aggregates Aggregates::of(const EngineMetrics& m) {
  Aggregates a;
  a.objects = m.objects;
  a.events = m.events;
  a.num_local = m.num_local;
  a.num_transfers = m.num_transfers;
  a.online_cost = m.online_cost;
  a.lower_bound = m.lower_bound;
  return a;
}

std::string Aggregates::to_line() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "objects=%" PRIu64 " events=%" PRIu64 " local=%" PRIu64
                " transfers=%" PRIu64 " online=%a bound=%a",
                objects, events, num_local, num_transfers, online_cost,
                lower_bound);
  return line;
}

bool Aggregates::from_line(const std::string& line, Aggregates& out) {
  return std::sscanf(line.c_str(),
                     "objects=%" SCNu64 " events=%" SCNu64 " local=%" SCNu64
                     " transfers=%" SCNu64 " online=%la bound=%la",
                     &out.objects, &out.events, &out.num_local,
                     &out.num_transfers, &out.online_cost,
                     &out.lower_bound) == 6;
}

SystemConfig bench_config() {
  SystemConfig config;
  config.num_servers = 10;
  config.transfer_cost = 10.0;
  return config;
}

StreamWorkloadConfig workload_config(std::uint64_t objects, double zipf,
                                     std::uint64_t events) {
  StreamWorkloadConfig workload;
  workload.num_objects = objects;
  workload.num_servers = bench_config().num_servers;
  workload.object_zipf_s = zipf;
  workload.arrivals = StreamWorkloadConfig::Arrivals::kPoisson;
  workload.rate = static_cast<double>(objects) / 64.0;
  workload.max_events = events;
  return workload;
}

std::string ensure_log(const RunContext& ctx,
                       const StreamWorkloadConfig& workload,
                       const std::string& name) {
  const std::string path = ctx.cache_dir + "/" + name + ".evlog";
  if (std::filesystem::exists(path)) return path;
  const std::string tmp = path + ".tmp";
  generate_event_log(workload, ctx.seed, tmp, EventLogFormat::kCompressed);
  std::filesystem::rename(tmp, path);
  return path;
}

Aggregates ensure_reference(RunContext& ctx,
                            const std::function<Aggregates()>& compute,
                            const std::string& name) {
  const std::string path = ctx.cache_dir + "/" + name + ".reference";
  Aggregates ref;
  {
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line)) {
      if (!Aggregates::from_line(line, ref)) {
        ctx.fail("unreadable reference aggregates in " + path);
      }
      return ref;
    }
  }
  ref = compute();
  const std::string tmp = path + ".tmp";
  std::ofstream(tmp) << ref.to_line() << "\n";
  std::filesystem::rename(tmp, path);
  return ref;
}

Aggregates serial_reference(const std::string& log_path, double* step_ns) {
  const SystemConfig config = bench_config();
  std::map<std::uint64_t, std::vector<Request>> per_object;
  std::uint64_t events = 0;
  {
    EventLogReader reader(log_path);
    std::vector<LogEvent> batch;
    while (reader.read_batch(batch, std::size_t{1} << 16) > 0) {
      for (const LogEvent& e : batch) {
        per_object[e.object].push_back(
            Request{e.time, static_cast<int>(e.server)});
      }
      events += batch.size();
    }
  }
  SimulationOptions options;
  options.record_events = false;
  const Simulator simulator(config, options);
  ComponentRegistry& registry = ComponentRegistry::instance();
  const ComponentSpec policy = registry.canonicalize(
      ComponentKind::kPolicy, parse_component_spec(kPolicy));
  const ComponentSpec predictor = registry.canonicalize(
      ComponentKind::kPredictor, parse_component_spec(kPredictor));
  const std::uint64_t base_seed = EngineOptions{}.base_seed;

  Aggregates ref;
  const auto start = Clock::now();
  for (auto& [id, requests] : per_object) {
    Trace trace(config.num_servers, std::move(requests));
    BuildContext build;
    build.config = config;
    build.seed =
        ParallelRunner::object_seed(base_seed, static_cast<std::size_t>(id));
    build.trace = &trace;
    const PolicyPtr p = registry.build_policy(policy, build);
    const PredictorPtr q = registry.build_predictor(predictor, build);
    const SimulationResult result = simulator.run(*p, trace, *q);
    ref.online_cost += result.total_cost();
    ref.num_local += result.num_local;
    ref.num_transfers += result.num_transfers;
    ref.lower_bound += opt_lower_bound(config, trace);
  }
  if (step_ns != nullptr && events > 0) {
    *step_ns = seconds_between(start, Clock::now()) * 1e9 /
               static_cast<double>(events);
  }
  ref.objects = per_object.size();
  ref.events = events;
  return ref;
}

double scan_log(const std::string& log_path, std::uint64_t* events) {
  const auto start = Clock::now();
  EventLogReader reader(log_path);
  std::vector<LogEvent> batch;
  std::uint64_t n = 0;
  while (reader.read_batch(batch, std::size_t{1} << 16) > 0) {
    n += batch.size();
  }
  if (events != nullptr) *events = n;
  return seconds_between(start, Clock::now());
}

namespace {

bool has_label(const obs::Sample& s, const std::string& label) {
  if (label.empty()) return true;
  const auto eq = label.find('=');
  const std::string key = label.substr(0, eq);
  const std::string value = label.substr(eq + 1);
  return std::any_of(s.labels.begin(), s.labels.end(), [&](const auto& kv) {
    return kv.first == key && kv.second == value;
  });
}

}  // namespace

double sample_total(const std::vector<obs::Sample>& samples,
                    const std::string& name, const std::string& label) {
  double total = 0.0;
  for (const obs::Sample& s : samples) {
    if (s.name != name || !has_label(s, label)) continue;
    total += s.type == obs::MetricType::kHistogram ? s.sum : s.value;
  }
  return total;
}

std::uint64_t sample_count(const std::vector<obs::Sample>& samples,
                           const std::string& name, const std::string& label) {
  std::uint64_t total = 0;
  for (const obs::Sample& s : samples) {
    if (s.name == name && has_label(s, label)) total += s.count;
  }
  return total;
}

double sample_quantile(const std::vector<obs::Sample>& samples,
                       const std::string& name, double q) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  for (const obs::Sample& s : samples) {
    if (s.name != name || s.type != obs::MetricType::kHistogram) continue;
    if (bounds.empty()) {
      bounds = s.bounds;
      cumulative.assign(s.cumulative.size(), 0);
    }
    if (s.bounds != bounds) continue;
    for (std::size_t i = 0; i < s.cumulative.size(); ++i) {
      cumulative[i] += s.cumulative[i];
    }
  }
  if (cumulative.empty() || cumulative.back() == 0) return 0.0;
  const double target = q * static_cast<double>(cumulative.back());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (static_cast<double>(cumulative[i]) >= target) return bounds[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace perfbench
