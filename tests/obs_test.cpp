// Telemetry subsystem tests: metrics primitives (sharded counters,
// gauges, fixed-bucket histograms), the registry's get-or-create and
// type-conflict contracts, Prometheus/JSON exposition (including a
// grammar validator for the text format), the HTTP exporter's request
// parsing and content negotiation, a multi-threaded scrape-while-writing
// hammer (run under TSan in CI), and the engine-level invariant that
// telemetry-on serving produces bit-identical aggregates.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/drwp.hpp"
#include "engine/engine.hpp"
#include "engine/event_source.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/federation.hpp"
#include "obs/http_exporter.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "predictor/last_gap.hpp"
#include "util/histogram.hpp"

namespace repl {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HttpRequest;
using obs::MetricsRegistry;
using obs::Sample;

// ---------------------------------------------------------------------
// Primitives

TEST(ObsMetricsTest, CounterSumsAcrossCellsAndIsMonotone) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
}

TEST(ObsMetricsTest, HistogramBucketsAreCumulativeAndCountDerived) {
  Histogram h({0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket le=0.1
  h.observe(0.5);    // le=1
  h.observe(0.5);    // le=1
  h.observe(100.0);  // +Inf
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.cumulative.size(), 4u);
  EXPECT_EQ(snap.cumulative[0], 1u);
  EXPECT_EQ(snap.cumulative[1], 3u);
  EXPECT_EQ(snap.cumulative[2], 3u);
  EXPECT_EQ(snap.cumulative[3], 4u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.05 + 0.5 + 0.5 + 100.0);
}

TEST(ObsMetricsTest, HistogramBoundInclusivityMatchesPrometheus) {
  // `le` is an inclusive upper edge: an observation exactly on a bound
  // lands in that bound's bucket.
  Histogram h({1.0, 2.0});
  h.observe(1.0);
  h.observe(2.0);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.cumulative[0], 1u);
  EXPECT_EQ(snap.cumulative[1], 2u);
  EXPECT_EQ(snap.cumulative[2], 2u);
}

/// histogram_quantile over a live histogram's snapshot.
double quantile_of(const Histogram& h, double q) {
  return histogram_quantile(h.bounds(), h.snapshot().cumulative, q);
}

TEST(ObsMetricsTest, HistogramQuantileInterpolates) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1, 2]
  // Every observation sits in the (1,2] bucket: quantiles interpolate
  // inside it.
  EXPECT_GT(quantile_of(h, 0.5), 1.0);
  EXPECT_LE(quantile_of(h, 0.5), 2.0);
  EXPECT_LE(quantile_of(h, 0.5), quantile_of(h, 0.99));
  EXPECT_EQ(quantile_of(Histogram({1.0}), 0.5), 0.0);  // empty
}

TEST(ObsMetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(ObsMetricsTest, HistogramQuantileFreeFunction) {
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  // 10 below 1, 10 in (1,2], none above.
  const std::vector<std::uint64_t> cumulative{10, 20, 20, 20};
  EXPECT_LE(histogram_quantile(bounds, cumulative, 0.25), 1.0);
  const double p75 = histogram_quantile(bounds, cumulative, 0.75);
  EXPECT_GT(p75, 1.0);
  EXPECT_LE(p75, 2.0);
  EXPECT_THROW(histogram_quantile(bounds, {1, 2}, 0.5),
               std::invalid_argument);
  EXPECT_THROW(histogram_quantile(bounds, cumulative, 1.5),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Registry

TEST(ObsRegistryTest, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry r;
  Counter& a = r.counter("x_total", "help");
  Counter& b = r.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  // Distinct label sets are distinct series; label order is normalized.
  Counter& l1 = r.counter("y_total", "", {{"a", "1"}, {"b", "2"}});
  Counter& l2 = r.counter("y_total", "", {{"b", "2"}, {"a", "1"}});
  Counter& l3 = r.counter("y_total", "", {{"a", "1"}, {"b", "3"}});
  EXPECT_EQ(&l1, &l2);
  EXPECT_NE(&l1, &l3);
}

TEST(ObsRegistryTest, TypeConflictAndBadNamesThrow) {
  MetricsRegistry r;
  r.counter("x_total", "");
  EXPECT_THROW(r.gauge("x_total", ""), std::invalid_argument);
  EXPECT_THROW(r.histogram("x_total", "", {1.0}), std::invalid_argument);
  EXPECT_THROW(r.counter("0bad", ""), std::invalid_argument);
  EXPECT_THROW(r.counter("has space", ""), std::invalid_argument);
  EXPECT_THROW(r.counter("x2_total", "", {{"0bad", "v"}}),
               std::invalid_argument);
  r.histogram("h", "", {1.0, 2.0});
  EXPECT_THROW(r.histogram("h", "", {1.0, 3.0}), std::invalid_argument);
}

TEST(ObsRegistryTest, CollectIsSortedAndHooksRun) {
  MetricsRegistry r;
  r.counter("b_total", "").inc();
  r.counter("a_total", "").inc(2);
  int hook_runs = 0;
  const std::size_t id = r.add_collect_hook([&] {
    ++hook_runs;
    r.gauge("hooked", "registered lazily by a hook").set(1.0);
  });
  const std::vector<Sample> samples = r.collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_EQ(samples[1].name, "b_total");
  EXPECT_EQ(samples[2].name, "hooked");
  EXPECT_EQ(hook_runs, 1);
  r.remove_collect_hook(id);
  r.collect();
  EXPECT_EQ(hook_runs, 1);
}

// ---------------------------------------------------------------------
// Prometheus text grammar

/// Validates exposition text against the 0.0.4 grammar the way a
/// Prometheus scraper would: well-formed comment and sample lines, legal
/// metric/label names, parseable values, TYPE-before-samples per family,
/// and cumulative histogram buckets with `_count` equal to the +Inf
/// bucket. Returns "" when valid, else a diagnostic.
std::string validate_prometheus(const std::string& text) {
  const auto valid_name = [](const std::string& name, bool label) {
    if (name.empty()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                         c == '_' || (!label && c == ':');
      if (!(alpha || (i > 0 && std::isdigit(static_cast<unsigned char>(c)))))
        return false;
    }
    return true;
  };
  if (text.empty() || text.back() != '\n') return "must end with newline";

  std::map<std::string, std::string> typed;  // family -> type
  // Histogram bookkeeping: family -> (last cumulative count, inf count,
  // declared _count value).
  struct HistState {
    std::uint64_t last_bucket = 0;
    bool saw_inf = false;
    std::uint64_t inf_count = 0;
  };
  std::map<std::string, HistState> hists;

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) return "blank line";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      if (kind != "HELP" && kind != "TYPE") return "bad comment: " + line;
      if (!valid_name(family, false)) return "bad family name: " + line;
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return "bad type: " + line;
        }
        if (typed.count(family) != 0) return "duplicate TYPE: " + line;
        typed[family] = type;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) return "no value: " + line;
    const std::string name = line.substr(0, name_end);
    if (!valid_name(name, false)) return "bad metric name: " + line;
    std::string le;          // the le label, when present
    std::string series_key;  // non-le labels: one series per key
    std::size_t pos = name_end;
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      if (close == std::string::npos) return "unterminated labels: " + line;
      std::string labels = line.substr(pos + 1, close - pos - 1);
      while (!labels.empty()) {
        const std::size_t eq = labels.find('=');
        if (eq == std::string::npos) return "bad label pair: " + line;
        const std::string lname = labels.substr(0, eq);
        if (!valid_name(lname, true)) return "bad label name: " + line;
        if (eq + 1 >= labels.size() || labels[eq + 1] != '"')
          return "unquoted label value: " + line;
        std::size_t end = eq + 2;
        std::string lvalue;
        while (end < labels.size() && labels[end] != '"') {
          if (labels[end] == '\\') ++end;  // escaped char
          if (end < labels.size()) lvalue.push_back(labels[end]);
          ++end;
        }
        if (end >= labels.size()) return "unterminated value: " + line;
        if (lname == "le") {
          le = lvalue;
        } else {
          series_key += lname + "=" + lvalue + ",";
        }
        labels.erase(0, end + 1);
        if (!labels.empty()) {
          if (labels[0] != ',') return "bad label separator: " + line;
          labels.erase(0, 1);
        }
      }
      pos = close + 1;
    }
    if (pos >= line.size() || line[pos] != ' ') return "no value: " + line;
    const std::string value = line.substr(pos + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return "bad value: " + line;

    // The family of a histogram series drops the _bucket/_sum/_count
    // suffix; its TYPE must have been declared before any sample.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed.count(family.substr(0, family.size() - s.size())) != 0) {
        family = family.substr(0, family.size() - s.size());
        break;
      }
    }
    if (typed.count(family) == 0) return "sample before TYPE: " + line;
    if (typed[family] == "histogram") {
      // One bucket ladder per series: the family may carry many label
      // sets (repl_stage_seconds{stage=...}), each cumulative on its own.
      HistState& h = hists[family + "{" + series_key + "}"];
      if (name == family + "_bucket") {
        if (le.empty()) return "bucket without le: " + line;
        const auto count = static_cast<std::uint64_t>(v);
        if (count < h.last_bucket) return "non-cumulative bucket: " + line;
        h.last_bucket = count;
        if (le == "+Inf") {
          h.saw_inf = true;
          h.inf_count = count;
        }
      } else if (name == family + "_count") {
        if (!h.saw_inf || static_cast<std::uint64_t>(v) != h.inf_count) {
          return "_count != +Inf bucket: " + line;
        }
      }
    }
  }
  return "";
}

TEST(ObsPrometheusTest, ExpositionPassesGrammarValidator) {
  MetricsRegistry r;
  r.counter("repl_events_total", "Events ingested").inc(12345);
  r.gauge("repl_queue_depth", "Queued events").set(7.5);
  Histogram& h = r.histogram("repl_batch_seconds", "Batch latency",
                             Histogram::default_latency_bounds());
  h.observe(0.001);
  h.observe(0.5);
  r.counter("repl_stage_total", "Labelled \"counter\"\nwith escapes",
            {{"stage", "route\\x"}})
      .inc();
  const std::string text = obs::prometheus_text(r);
  EXPECT_EQ(validate_prometheus(text), "") << text;
  EXPECT_NE(text.find("# TYPE repl_batch_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("repl_batch_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("repl_events_total 12345"), std::string::npos);
  EXPECT_NE(text.find("{stage=\"route\\\\x\"}"), std::string::npos);
}

TEST(ObsPrometheusTest, ValidatorCatchesMalformedText) {
  EXPECT_NE(validate_prometheus("x_total 1\n"), "");  // sample before TYPE
  EXPECT_NE(validate_prometheus("# TYPE x_total counter\nx_total one\n"),
            "");
  EXPECT_NE(validate_prometheus("# TYPE 0bad counter\n"), "");
  EXPECT_NE(validate_prometheus("# TYPE x_total counter\nx_total 1"),
            "");  // no trailing newline
  EXPECT_EQ(validate_prometheus("# TYPE x_total counter\nx_total 1\n"), "");
}

TEST(ObsJsonTest, JsonExpositionCarriesSeriesAndExtra) {
  MetricsRegistry r;
  r.counter("c_total", "").inc(5);
  r.histogram("h_seconds", "", {1.0}).observe(0.5);
  const std::string text = obs::metrics_json_text(r, [](JsonWriter& w) {
    w.key("extra").value("yes");
  });
  EXPECT_NE(text.find("\"c_total\":{\"type\":\"counter\",\"value\":5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"h_seconds\":{\"type\":\"histogram\",\"count\":1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"extra\":\"yes\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// HTTP request parsing + content negotiation

TEST(ObsHttpParseTest, ParsesVariants) {
  HttpRequest r = obs::parse_http_request(
      "GET /metrics?x=1&y=2 HTTP/1.0\r\nAccept: application/json\r\n"
      "X-Custom:  padded  \r\n\r\n");
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.path, "/metrics");
  EXPECT_EQ(r.query, "x=1&y=2");
  EXPECT_EQ(r.version, "HTTP/1.0");
  EXPECT_EQ(r.header("accept"), "application/json");
  EXPECT_EQ(r.header("x-custom"), "padded");
  EXPECT_EQ(r.header("missing"), "");

  // Version-less request line (HTTP/0.9 style) still routes.
  EXPECT_TRUE(obs::parse_http_request("GET /metrics\r\n\r\n").valid);
  // Bare LF instead of CRLF.
  EXPECT_TRUE(obs::parse_http_request("GET /metrics HTTP/1.1\n\n").valid);

  EXPECT_FALSE(obs::parse_http_request("").valid);
  EXPECT_FALSE(obs::parse_http_request("\r\n").valid);
  EXPECT_FALSE(obs::parse_http_request("GET\r\n").valid);
  EXPECT_FALSE(obs::parse_http_request("GET metrics HTTP/1.1\r\n").valid);
  EXPECT_FALSE(obs::parse_http_request("GET /x FTP/9\r\n").valid);
}

TEST(ObsHttpParseTest, KeepAliveNegotiationFollowsHttpVersionRules) {
  const auto wants = [](const std::string& raw) {
    return obs::http_keepalive_requested(obs::parse_http_request(raw));
  };
  // HTTP/1.1: persistent unless the client opts out.
  EXPECT_TRUE(wants("GET /metrics HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(wants("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_FALSE(wants("GET /metrics HTTP/1.1\r\nConnection: CLOSE\r\n\r\n"));
  // HTTP/1.0: persistent only on an explicit opt-in.
  EXPECT_FALSE(wants("GET /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(wants("GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  // Version-less and invalid request lines never keep the socket.
  EXPECT_FALSE(wants("GET /metrics\r\n\r\n"));
  EXPECT_FALSE(wants("garbage\r\n\r\n"));
}

TEST(ObsHttpTest, ContentNegotiationAndStatusBranches) {
  MetricsRegistry r;
  r.counter("neg_total", "").inc(9);
  obs::MetricsHttpServer server(r, {});

  const auto request = [](const std::string& raw) {
    return obs::parse_http_request(raw);
  };
  // Default: Prometheus text.
  std::string resp = server.respond(request("GET /metrics HTTP/1.1\r\n\r\n"));
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find(obs::prometheus_content_type()), std::string::npos);
  EXPECT_NE(resp.find("neg_total 9"), std::string::npos);

  // Accept: application/json and /metrics.json negotiate JSON.
  for (const char* raw :
       {"GET /metrics HTTP/1.1\r\nAccept: application/json\r\n\r\n",
        "GET /metrics.json HTTP/1.1\r\n\r\n",
        "GET /metrics.json?pretty=1 HTTP/1.0\r\n\r\n"}) {
    resp = server.respond(request(raw));
    EXPECT_NE(resp.find("application/json"), std::string::npos) << raw;
    EXPECT_NE(resp.find("\"neg_total\""), std::string::npos) << raw;
  }

  // A query string on /metrics must not break the default route.
  resp = server.respond(request("GET /metrics?x=1 HTTP/1.0\r\n\r\n"));
  EXPECT_NE(resp.find("neg_total 9"), std::string::npos);

  resp = server.respond(request("GET /healthz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos);

  // Every branch closes the connection and sizes the body.
  for (const char* raw :
       {"GET /metrics HTTP/1.1\r\n\r\n", "GET /nope HTTP/1.1\r\n\r\n",
        "POST /metrics HTTP/1.1\r\n\r\n", "garbage\r\n\r\n"}) {
    resp = server.respond(request(raw));
    EXPECT_NE(resp.find("Connection: close"), std::string::npos) << raw;
    const std::size_t cl = resp.find("Content-Length: ");
    ASSERT_NE(cl, std::string::npos) << raw;
    const std::size_t body = resp.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos) << raw;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::stoul(resp.substr(cl + 16))),
              resp.size() - body - 4)
        << raw;
  }
  EXPECT_NE(server.respond(request("POST /metrics HTTP/1.1\r\n\r\n"))
                .find("405"),
            std::string::npos);
  EXPECT_NE(server.respond(request("GET /nope HTTP/1.1\r\n\r\n")).find("404"),
            std::string::npos);
  EXPECT_NE(server.respond(request("garbage\r\n\r\n")).find("400"),
            std::string::npos);
}

TEST(ObsHttpTest, ServesOverRealSockets) {
  MetricsRegistry r;
  r.counter("sock_total", "").inc(3);
  obs::MetricsHttpServer server(r, {});
  server.start();
  ASSERT_GT(server.port(), 0);

  Socket sock = connect_tcp("127.0.0.1", server.port());
  // Opt out of keep-alive so the server closes and EOF ends the read.
  const std::string request =
      "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
  sock.write_all(reinterpret_cast<const unsigned char*>(request.data()),
                 request.size());
  std::string response;
  unsigned char buf[512];
  for (;;) {
    const std::size_t n = sock.read_some(buf, sizeof(buf));
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), n);
  }
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("sock_total 3"), std::string::npos);
  server.stop();
}

/// Reads one full HTTP response (head + Content-Length body) off `sock`,
/// carrying any read-ahead between calls in `buffer`. "" on EOF.
std::string read_http_response(Socket& sock, std::string& buffer) {
  unsigned char buf[1024];
  for (;;) {
    const std::size_t head = buffer.find("\r\n\r\n");
    if (head != std::string::npos) {
      const std::size_t cl = buffer.find("Content-Length: ");
      EXPECT_NE(cl, std::string::npos) << buffer;
      if (cl == std::string::npos) return "";
      const std::size_t total =
          head + 4 + static_cast<std::size_t>(std::stoul(buffer.substr(cl + 16)));
      if (buffer.size() >= total) {
        const std::string response = buffer.substr(0, total);
        buffer.erase(0, total);
        return response;
      }
    }
    const std::size_t n = sock.read_some(buf, sizeof(buf));
    if (n == 0) return "";
    buffer.append(reinterpret_cast<const char*>(buf), n);
  }
}

TEST(ObsHttpTest, KeepAliveReusesOneSocketUpToTheRequestBound) {
  MetricsRegistry r;
  r.counter("ka_total", "").inc(5);
  obs::MetricsHttpOptions options;
  options.max_requests_per_connection = 3;
  obs::MetricsHttpServer server(r, options);
  server.start();
  ASSERT_GT(server.port(), 0);

  Socket sock = connect_tcp("127.0.0.1", server.port());
  std::string buffer;
  const std::string request = "GET /metrics HTTP/1.1\r\n\r\n";
  const auto roundtrip = [&] {
    sock.write_all(reinterpret_cast<const unsigned char*>(request.data()),
                   request.size());
    return read_http_response(sock, buffer);
  };

  // Requests 1 and 2 keep the socket; request 3 hits the bound.
  for (int i = 0; i < 2; ++i) {
    const std::string resp = roundtrip();
    EXPECT_NE(resp.find("200 OK"), std::string::npos) << i;
    EXPECT_NE(resp.find("Connection: keep-alive"), std::string::npos) << i;
    EXPECT_NE(resp.find("ka_total 5"), std::string::npos) << i;
  }
  const std::string last = roundtrip();
  EXPECT_NE(last.find("200 OK"), std::string::npos);
  EXPECT_NE(last.find("Connection: close"), std::string::npos);
  unsigned char byte = 0;
  EXPECT_EQ(sock.read_some(&byte, 1), 0u);  // server closed at the bound

  // An explicit Connection: close is honored on the first request.
  Socket once = connect_tcp("127.0.0.1", server.port());
  const std::string closing =
      "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
  once.write_all(reinterpret_cast<const unsigned char*>(closing.data()),
                 closing.size());
  std::string once_buffer;
  const std::string only = read_http_response(once, once_buffer);
  EXPECT_NE(only.find("Connection: close"), std::string::npos);
  EXPECT_EQ(once.read_some(&byte, 1), 0u);
  server.stop();
}

TEST(ObsHttpTest, ExtraSamplesFederateIntoEveryExposition) {
  MetricsRegistry r;
  r.counter("zz_local_total", "coordinator-side series").inc(2);
  obs::MetricsHttpServer server(r, {});
  server.set_extra_samples([] {
    Sample s;
    s.name = "aa_remote_total";
    s.help = "worker-side series";
    s.type = obs::MetricType::kCounter;
    s.labels = {{"partition", "3"}};
    s.counter_value = 7;
    s.value = 7.0;
    return std::vector<Sample>{s};
  });

  const std::string text =
      server.respond(obs::parse_http_request("GET /metrics HTTP/1.1\r\n\r\n"));
  EXPECT_NE(text.find("aa_remote_total{partition=\"3\"} 7"), std::string::npos)
      << text;
  EXPECT_NE(text.find("zz_local_total 2"), std::string::npos);
  // The merge is re-sorted: the injected series lands before the local one.
  EXPECT_LT(text.find("aa_remote_total"), text.find("zz_local_total"));
  const std::size_t body = text.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(validate_prometheus(text.substr(body + 4)), "") << text;

  const std::string json = server.respond(obs::parse_http_request(
      "GET /metrics.json HTTP/1.1\r\n\r\n"));
  EXPECT_NE(json.find("aa_remote_total"), std::string::npos);
  EXPECT_NE(json.find("zz_local_total"), std::string::npos);
}

// ---------------------------------------------------------------------
// Federation: the metrics-message sample codec and the coordinator merge

TEST(ObsFederationTest, SampleCodecRoundTripsEveryTypeAndStaysStrict) {
  std::vector<Sample> in;
  Sample c;
  c.name = "repl_events_ingested_total";
  c.help = "Events ingested";
  c.type = obs::MetricType::kCounter;
  c.counter_value = 123456789;
  c.value = 123456789.0;
  in.push_back(c);
  Sample g;
  g.name = "repl_net_events_queued";
  g.type = obs::MetricType::kGauge;
  g.labels = {{"listener", "unix"}};
  g.value = -3.25;
  in.push_back(g);
  Sample h;
  h.name = "repl_batch_seconds";
  h.help = "Batch latency";
  h.type = obs::MetricType::kHistogram;
  h.bounds = {0.5, 1.5, 4.5};
  h.cumulative = {2, 5, 7, 9};
  h.count = 9;
  h.sum = 13.75;
  in.push_back(h);

  std::vector<unsigned char> bytes;
  obs::encode_samples(in, bytes);
  const std::vector<Sample> out =
      obs::decode_samples(bytes.data(), bytes.size(), in.size(), "test");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].name, c.name);
  EXPECT_EQ(out[0].help, c.help);
  EXPECT_EQ(out[0].type, obs::MetricType::kCounter);
  EXPECT_EQ(out[0].counter_value, 123456789u);
  EXPECT_EQ(out[1].type, obs::MetricType::kGauge);
  ASSERT_EQ(out[1].labels.size(), 1u);
  EXPECT_EQ(out[1].labels[0].first, "listener");
  EXPECT_EQ(out[1].labels[0].second, "unix");
  EXPECT_EQ(out[1].value, -3.25);
  EXPECT_EQ(out[2].type, obs::MetricType::kHistogram);
  EXPECT_EQ(out[2].bounds, h.bounds);
  EXPECT_EQ(out[2].cumulative, h.cumulative);
  EXPECT_EQ(out[2].count, 9u);  // derived from the +Inf bucket
  EXPECT_EQ(out[2].sum, 13.75);

  // The decoder is exact-byte and exact-count: anything else throws.
  std::vector<unsigned char> tampered = bytes;
  tampered.push_back(0);  // trailing byte
  EXPECT_THROW(
      obs::decode_samples(tampered.data(), tampered.size(), 3, "test"),
      std::runtime_error);
  EXPECT_THROW(obs::decode_samples(bytes.data(), bytes.size(), 2, "test"),
               std::runtime_error);  // bytes left over after last sample
  EXPECT_THROW(obs::decode_samples(bytes.data(), bytes.size() - 1, 3, "test"),
               std::runtime_error);  // truncated
  tampered = bytes;
  tampered[0] = 9;  // unknown sample type tag
  EXPECT_THROW(
      obs::decode_samples(tampered.data(), tampered.size(), 3, "test"),
      std::runtime_error);
}

TEST(ObsFederationTest, FederationLabelsPartitionsAndStaysMonotone) {
  obs::FederatedMetrics fed;
  Sample c;
  c.name = "repl_events_ingested_total";
  c.type = obs::MetricType::kCounter;
  c.counter_value = 100;
  c.value = 100.0;
  fed.update(0, {c});
  Sample c1 = c;
  c1.counter_value = 150;
  fed.update(1, {c1});

  // The same series from two partitions federates into two labeled
  // samples, not one clobbered slot.
  std::size_t labeled = 0;
  for (const Sample& s : fed.collect()) {
    if (s.name != "repl_events_ingested_total") continue;
    ++labeled;
    ASSERT_EQ(s.labels.size(), 1u);
    EXPECT_EQ(s.labels[0].first, "partition");
    const std::uint64_t want = s.labels[0].second == "0" ? 100u : 150u;
    EXPECT_EQ(s.counter_value, want);
  }
  EXPECT_EQ(labeled, 2u);
  EXPECT_EQ(fed.counter_value(0, "repl_events_ingested_total"), 100u);
  EXPECT_EQ(fed.counter_value(1, "repl_events_ingested_total"), 150u);
  EXPECT_EQ(fed.counter_value(2, "repl_events_ingested_total"), 0u);
  ASSERT_EQ(fed.partitions().size(), 2u);

  // A respawned worker re-seeds its counters below the pre-kill value;
  // the federated view must not go backwards, then tracks the catch-up.
  Sample low = c;
  low.counter_value = 40;
  fed.update(0, {low});
  EXPECT_EQ(fed.counter_value(0, "repl_events_ingested_total"), 100u);
  Sample high = c;
  high.counter_value = 170;
  fed.update(0, {high});
  EXPECT_EQ(fed.counter_value(0, "repl_events_ingested_total"), 170u);

  // A snapshot that omits a series retains the last value (respawned
  // workers re-register series lazily).
  Sample other;
  other.name = "repl_checkpoints_total";
  other.type = obs::MetricType::kCounter;
  other.counter_value = 4;
  other.value = 4.0;
  fed.update(0, {other});
  EXPECT_EQ(fed.counter_value(0, "repl_events_ingested_total"), 170u);
  EXPECT_EQ(fed.counter_value(0, "repl_checkpoints_total"), 4u);
}

TEST(ObsFederationTest, FederatedExpositionEscapesLabelsAndValidates) {
  obs::FederatedMetrics fed;
  Sample s;
  s.name = "repl_label_escape";
  s.type = obs::MetricType::kGauge;
  s.labels = {{"path", "a\"b\\c\nd"}};
  s.value = 1.0;
  fed.update(7, {s});

  const std::string text = obs::prometheus_text(fed.collect());
  EXPECT_EQ(validate_prometheus(text), "") << text;
  EXPECT_NE(text.find("partition=\"7\""), std::string::npos) << text;
  EXPECT_NE(text.find("a\\\"b\\\\c\\nd"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Structured logging

TEST(ObsLogTest, SpecGatesComponentsAndMacrosSkipDisabledWork) {
  obs::Logger& log = obs::Logger::global();
  log.reset();
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  log.configure("warn,net=debug");
  EXPECT_FALSE(log.enabled(obs::LogLevel::kInfo, "engine"));
  EXPECT_TRUE(log.enabled(obs::LogLevel::kWarn, "engine"));
  EXPECT_TRUE(log.enabled(obs::LogLevel::kDebug, "net"));
  EXPECT_FALSE(log.enabled(obs::LogLevel::kTrace, "net"));

  // A disabled line must not evaluate its stream expression.
  int evaluated = 0;
  const auto observe = [&evaluated] {
    ++evaluated;
    return "seen";
  };
  REPL_LOG_INFO("engine", "skipped " << observe());
  REPL_LOG_WARN("engine", "kept " << observe());
  EXPECT_EQ(evaluated, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("engine kept seen"), std::string::npos) << lines[0];

  // Malformed specs throw without half-applying.
  EXPECT_THROW(log.configure("info,info"), std::invalid_argument);
  EXPECT_THROW(log.configure("=debug"), std::invalid_argument);
  EXPECT_THROW(log.configure("net=loud"), std::invalid_argument);
  EXPECT_THROW(obs::parse_log_level("loud"), std::invalid_argument);
  EXPECT_EQ(obs::parse_log_level("WARNING"), obs::LogLevel::kWarn);
  EXPECT_EQ(std::string(obs::log_level_name(obs::LogLevel::kWarn)), "warn");
  log.reset();
}

TEST(ObsLogTest, JsonModeEmitsOneEscapedObjectPerLine) {
  obs::Logger& log = obs::Logger::global();
  log.reset();
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  log.set_json(true);
  EXPECT_TRUE(log.json());

  log.log(obs::LogLevel::kError, "net",
          std::string("quote \" slash \\ nl \n tab \t ctl \x01"),
          {{"peer", "10.0.0.1:99"}});
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"net\""), std::string::npos) << line;
  EXPECT_NE(line.find("\\\""), std::string::npos) << line;
  EXPECT_NE(line.find("\\\\"), std::string::npos) << line;
  EXPECT_NE(line.find("\\n"), std::string::npos) << line;
  EXPECT_NE(line.find("\\t"), std::string::npos) << line;
  EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
  EXPECT_NE(line.find("\"peer\":\"10.0.0.1:99\""), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, escaped newline
  log.reset();
}

// ---------------------------------------------------------------------
// Progress lines: one renderer over samples for every front-end

/// An engine's progress series as it publishes them: 5,000 events in 20
/// batches of `batch_seconds` each, and 3 cuts.
void publish_engine_progress(MetricsRegistry& r, double batch_seconds) {
  r.counter("repl_events_ingested_total", "").inc(5000);
  r.counter("repl_batches_total", "").inc(20);
  r.counter("repl_checkpoint_writes_total", "").inc(3);
  Histogram& batches = r.histogram("repl_batch_seconds", "",
                                   Histogram::default_latency_bounds());
  for (int i = 0; i < 20; ++i) batches.observe(batch_seconds);
}

/// A net server's series: one connection, `failed` of them killed.
void publish_net_progress(MetricsRegistry& r, std::uint64_t failed) {
  r.counter("repl_net_connections_opened_total", "", {{"kind", "unix"}})
      .inc();
  r.counter("repl_net_connections_failed_total", "").inc(failed);
  r.gauge("repl_net_queued_events", "").set(0.0);
}

constexpr obs::ProgressLine::Clock::time_point kLineStart{};

obs::ProgressLine::Clock::time_point at_ms(int ms) {
  return kLineStart + std::chrono::milliseconds(ms);
}

TEST(ObsProgressLineTest, EngineRegistryRendersTheServeLine) {
  // Every batch took 3 ms: bucket (1.6 ms, 3.2 ms] of the default
  // latency ladder, so p50 interpolates to 2.4 ms and p99 to 3.2 ms.
  MetricsRegistry r;
  publish_engine_progress(r, 0.003);
  obs::ProgressLine progress("[serve]", {}, kLineStart);
  EXPECT_EQ(progress.render(r.collect(), at_ms(2500)),
            "[serve] t=2.5s events=5000 rate=2000/s batches=20 "
            "ev/batch=250.0 p50_batch=2.4ms p99_batch=3.2ms ckpt=3");

  // `rate` counts from the previous line, `ev/batch` from the baseline.
  r.counter("repl_events_ingested_total", "").inc(1000);
  r.counter("repl_batches_total", "").inc(5);
  EXPECT_EQ(progress.render(r.collect(), at_ms(3000)),
            "[serve] t=3.0s events=6000 rate=2000/s batches=25 "
            "ev/batch=240.0 p50_batch=2.4ms p99_batch=3.2ms ckpt=3");
  obs::ProgressLine resumed("[serve]", r.collect(), kLineStart);
  r.counter("repl_events_ingested_total", "").inc(300);
  r.counter("repl_batches_total", "").inc(1);
  EXPECT_EQ(resumed.render(r.collect(), at_ms(100)),
            "[serve] t=0.1s events=6300 rate=3000/s batches=26 "
            "ev/batch=300.0 p50_batch=2.4ms p99_batch=3.2ms ckpt=3");
}

TEST(ObsProgressLineTest, NetSeriesAppendQueueAndConnections) {
  MetricsRegistry r;
  publish_engine_progress(r, 0.003);
  publish_net_progress(r, 0);
  obs::ProgressLine progress("[serve]", {}, kLineStart);
  EXPECT_EQ(progress.render(r.collect(), at_ms(2500)),
            "[serve] t=2.5s events=5000 rate=2000/s batches=20 "
            "ev/batch=250.0 p50_batch=2.4ms p99_batch=3.2ms ckpt=3 "
            "queued=0 conns=1/0f");
}

TEST(ObsProgressLineTest, PartitionCopiesSumAndHistogramsMerge) {
  // Two workers' snapshots, federated under a partition label: the
  // counters add, and the batch histograms merge bucket-wise before the
  // quantile. Half the 40 batches took 3 ms and half 50 ms, so p50 is
  // the top of the 3.2 ms bucket and p99 sits in (25.6, 51.2] ms.
  MetricsRegistry fast;
  MetricsRegistry slow;
  publish_engine_progress(fast, 0.003);
  publish_engine_progress(slow, 0.05);
  publish_net_progress(fast, 0);
  publish_net_progress(slow, 1);
  obs::FederatedMetrics federated;
  federated.update(0, fast.collect());
  federated.update(1, slow.collect());
  obs::ProgressLine progress("[cluster]", {}, kLineStart);
  const std::string line = progress.render(federated.collect(), at_ms(2500));
  EXPECT_EQ(line,
            "[cluster] t=2.5s events=10000 rate=4000/s batches=40 "
            "ev/batch=250.0 p50_batch=3.2ms p99_batch=50.7ms ckpt=6 "
            "queued=0 conns=2/1f");
  // A peer's series that borrows the histogram's name under another type
  // stays out of the merge instead of failing the line.
  Sample borrowed;
  borrowed.name = "repl_batch_seconds";
  borrowed.type = obs::MetricType::kCounter;
  std::vector<Sample> with_borrowed{borrowed};
  for (Sample& s : federated.collect()) with_borrowed.push_back(std::move(s));
  EXPECT_EQ(obs::ProgressLine("[cluster]", {}, kLineStart)
                .render(with_borrowed, at_ms(2500)),
            line);

  // The coordinator's own series add routing, respawns and lag.
  MetricsRegistry coordinator;
  coordinator.counter("repl_cluster_events_routed_total", "",
                      {{"partition", "0"}}).inc(6000);
  coordinator.counter("repl_cluster_events_routed_total", "",
                      {{"partition", "1"}}).inc(4100);
  coordinator.counter("repl_cluster_worker_respawns_total", "",
                      {{"partition", "1"}}).inc();
  coordinator.gauge("repl_cluster_events_in_flight", "",
                    {{"partition", "0"}}).set(12.0);
  coordinator.gauge("repl_cluster_events_in_flight", "",
                    {{"partition", "1"}}).set(30.0);
  std::vector<Sample> samples = coordinator.collect();
  for (Sample& s : federated.collect()) samples.push_back(std::move(s));
  obs::ProgressLine cluster("[cluster]", {}, kLineStart);
  EXPECT_EQ(cluster.render(samples, at_ms(2500)),
            line + " routed=10100 respawns=1 in_flight=42");
}

// ---------------------------------------------------------------------
// Tracing: spans, part files, and the Chrome-trace merge

TEST(ObsTraceTest, SpansFlushToPartsAndMergeSkipsMissingOnes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "repl_obs_trace_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string part_a = (dir / "a.jsonl").string();
  const std::string part_b = (dir / "b.jsonl").string();

  obs::Tracer& tracer = obs::Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  {
    // Disabled tracer: spans are no-ops with no context.
    obs::Span noop("disabled.span");
    noop.set_arg("events", 1);
    EXPECT_FALSE(noop.context().valid());
  }

  tracer.start(part_a, "proc-a");
  EXPECT_TRUE(tracer.enabled());
  obs::TraceContext root_ctx;
  {
    obs::Span root("test.root");
    root.set_arg("events", 42);
    root_ctx = root.context();
    EXPECT_TRUE(root_ctx.valid());
    obs::Span child("test.child", root_ctx);
    EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
    EXPECT_NE(child.context().span_id, root_ctx.span_id);
  }
  EXPECT_NE(tracer.next_id(), 0u);
  tracer.stop();
  EXPECT_FALSE(tracer.enabled());
  tracer.stop();  // idempotent

  // The part file is one complete JSON object per line: the process
  // metadata plus both spans.
  std::ifstream part(part_a);
  ASSERT_TRUE(part.good());
  std::size_t json_lines = 0;
  bool saw_root = false;
  bool saw_meta = false;
  std::string line;
  while (std::getline(part, line)) {
    if (line.empty()) continue;
    ++json_lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line.find("test.root") != std::string::npos) saw_root = true;
    if (line.find("proc-a") != std::string::npos) saw_meta = true;
  }
  EXPECT_GE(json_lines, 3u);
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_meta);

  // A second incarnation writes its own part, under a name that needs
  // JSON escaping.
  tracer.start(part_b, "proc-b \"q\" \\ \t");
  { obs::Span other("test.other"); }
  tracer.stop();

  // Merge stitches both parts and skips the part that never flushed.
  const std::string merged = (dir / "trace.json").string();
  const std::size_t events = obs::merge_trace_parts(
      {part_a, part_b, (dir / "missing.jsonl").string()}, merged);
  EXPECT_GE(events, 4u);
  std::ifstream mf(merged);
  const std::string doc((std::istreambuf_iterator<char>(mf)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("test.root"), std::string::npos);
  EXPECT_NE(doc.find("test.child"), std::string::npos);
  EXPECT_NE(doc.find("test.other"), std::string::npos);
  EXPECT_NE(doc.find("proc-a"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"proc-b \\\"q\\\" \\\\ \\t\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(ObsTraceTest, OneSpanFeedsItsTotalHistogramAndTraceEvent) {
  namespace fs = std::filesystem;
  const fs::path part =
      fs::temp_directory_path() /
      ("repl_obs_span_sinks_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(part);
  obs::Tracer& tracer = obs::Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  {
    // Tracer off and no sink: nothing to record, so no clock is read.
    obs::Span idle("idle.span");
    EXPECT_FALSE(idle.traced());
    EXPECT_EQ(idle.start_ns(), 0u);
    EXPECT_EQ(idle.stop(), 0u);
  }

  tracer.start(part.string(), "span-sinks");
  double total = 0.25;
  Histogram histogram(Histogram::default_latency_bounds());
  {
    obs::Span span("test.stage", {}, &total, &histogram, 1000);
    EXPECT_TRUE(span.traced());
    span.set_arg("events", 7);
    EXPECT_EQ(span.stop(1000 + 123456789), 1000u + 123456789u);
    EXPECT_EQ(span.stop(5), 5u);  // recorded once; the destructor adds none
  }
  tracer.stop();

  // One 123,456,789 ns interval, in seconds in both local sinks and in
  // microseconds in the trace event.
  EXPECT_EQ(total, 0.25 + 0.123456789);
  const Histogram::Snapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 0.123456789);
  std::ifstream in(part);
  std::string line;
  std::size_t events = 0;
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"test.stage\"") == std::string::npos) continue;
    ++events;
    EXPECT_NE(line.find("\"ts\":1.000,\"dur\":123456.789,"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"events\":7"), std::string::npos) << line;
  }
  EXPECT_EQ(events, 1u);
  fs::remove(part);
}

// ---------------------------------------------------------------------
// Concurrency: writers hammer while a scraper reads (TSan coverage)

TEST(ObsConcurrencyTest, ScrapesStayMonotoneUnderConcurrentWriters) {
  MetricsRegistry r;
  Counter& counter = r.counter("hammer_total", "");
  Histogram& hist = r.histogram("hammer_seconds", "", {0.25, 0.5, 0.75});
  Gauge& gauge = r.gauge("hammer_gauge", "");

  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        counter.inc();
        hist.observe(static_cast<double>((i + static_cast<std::uint64_t>(w)) %
                                         10) /
                     10.0);
        gauge.set(static_cast<double>(i));
      }
      done.fetch_add(1);
    });
  }

  // Scrape continuously until every writer finished: counters must be
  // monotone scrape-over-scrape, and a histogram's count must equal its
  // +Inf bucket in every snapshot — no torn totals, ever.
  std::uint64_t last_count = 0;
  std::uint64_t last_hist = 0;
  while (done.load() < kWriters) {
    const std::uint64_t now = counter.value();
    EXPECT_GE(now, last_count);
    last_count = now;
    const Histogram::Snapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, snap.cumulative.back());
    for (std::size_t i = 1; i < snap.cumulative.size(); ++i) {
      EXPECT_GE(snap.cumulative[i], snap.cumulative[i - 1]);
    }
    EXPECT_GE(snap.count, last_hist);
    last_hist = snap.count;
    obs::prometheus_text(r);  // full exposition under fire
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
  const Histogram::Snapshot final_snap = hist.snapshot();
  EXPECT_EQ(final_snap.count, kWriters * kPerWriter);
}

// ---------------------------------------------------------------------
// Engine parity: telemetry on == telemetry off, bit for bit

EnginePolicyFactory obs_policy_factory() {
  return [](const EngineObjectContext&) -> PolicyPtr {
    return std::make_unique<DrwpPolicy>(0.3);
  };
}

EnginePredictorFactory obs_predictor_factory(int servers) {
  return [servers](const EngineObjectContext&) -> PredictorPtr {
    return std::make_unique<LastGapPredictor>(servers);
  };
}

constexpr int kObsServers = 5;

std::vector<LogEvent> obs_events(std::size_t count) {
  std::vector<LogEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(
        LogEvent{0.5 * static_cast<double>(i + 1), (i * 131) % 97,
                 static_cast<std::uint32_t>((i * 17) % kObsServers)});
  }
  return events;
}

/// In-memory EventSource: serves pre-chunked batches of a fixed stream
/// (binds the same synthetic identity the net source uses).
class VectorSource final : public EventSource {
 public:
  VectorSource(std::vector<LogEvent> events, std::size_t batch)
      : events_(std::move(events)), batch_(batch) {}

  void attach(StreamingEngine& engine) override {
    EventLogHeader header;
    header.version = EventLogHeader::kVersionCompressed;
    header.num_servers = kObsServers;
    header.num_events = EventLogHeader::kUnknownCount;
    engine.bind_log(header);
  }

  bool next_batch(std::vector<LogEvent>& out) override {
    out.clear();
    if (at_ >= events_.size()) return false;
    const std::size_t n = std::min(batch_, events_.size() - at_);
    out.assign(events_.begin() + static_cast<std::ptrdiff_t>(at_),
               events_.begin() + static_cast<std::ptrdiff_t>(at_ + n));
    at_ += n;
    return true;
  }

 private:
  std::vector<LogEvent> events_;
  std::size_t batch_;
  std::size_t at_ = 0;
};

StreamingEngine make_obs_engine(MetricsRegistry* registry) {
  SystemConfig config;
  config.num_servers = kObsServers;
  config.transfer_cost = 10.0;
  EngineOptions options;
  options.metrics = registry;
  return StreamingEngine(config, options, obs_policy_factory(),
                         obs_predictor_factory(kObsServers));
}

EngineMetrics obs_serve(MetricsRegistry* registry,
                        const ServeOptions& serve_options, std::size_t count) {
  StreamingEngine engine = make_obs_engine(registry);
  VectorSource source(obs_events(count), 256);
  return engine.serve(source, serve_options);
}

TEST(ObsEngineParityTest, TelemetryOnAggregatesAreBitIdentical) {
  const EngineMetrics off = obs_serve(nullptr, ServeOptions{}, 5000);
  MetricsRegistry registry;
  const EngineMetrics on = obs_serve(&registry, ServeOptions{}, 5000);

  EXPECT_EQ(off.objects, on.objects);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.num_local, on.num_local);
  EXPECT_EQ(off.num_transfers, on.num_transfers);
  EXPECT_EQ(off.online_cost, on.online_cost);
  EXPECT_EQ(off.lower_bound, on.lower_bound);

  // The registry actually observed the serve.
  bool saw_ingested = false;
  bool saw_stage = false;
  bool saw_batch_events = false;
  for (const Sample& s : registry.collect()) {
    if (s.name == "repl_events_ingested_total") {
      saw_ingested = true;
      EXPECT_EQ(s.counter_value, 5000u);
    }
    // Stages that ran (route/execute/reduce) have observations; the
    // checkpoint stages legitimately stay empty in this serve.
    if (s.name == "repl_stage_seconds" && s.count > 0) saw_stage = true;
    if (s.name == "repl_batch_events") {
      // Batch shape: 19 full 256-event batches and one of 136, in
      // power-of-two buckets from 1 to 65,536.
      saw_batch_events = true;
      ASSERT_EQ(s.bounds.size(), 17u);
      EXPECT_EQ(s.bounds.front(), 1.0);
      EXPECT_EQ(s.bounds.back(), 65536.0);
      EXPECT_EQ(s.count, 20u);
      EXPECT_EQ(s.sum, 5000.0);
      EXPECT_EQ(s.cumulative[7], 0u);   // le=128
      EXPECT_EQ(s.cumulative[8], 20u);  // le=256
    }
  }
  EXPECT_TRUE(saw_ingested);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_batch_events);
  const std::string text = obs::prometheus_text(registry);
  EXPECT_EQ(validate_prometheus(text), "") << text;
  EXPECT_NE(text.find("# TYPE repl_batch_events histogram"),
            std::string::npos);
  EXPECT_NE(text.find("repl_batch_events_bucket{le=\"256\"} 20"),
            std::string::npos)
      << text;
}

TEST(ObsEngineParityTest, StatsReporterEmitsLines) {
  ServeOptions serve_options;
  serve_options.stats_every = 1e-9;  // every batch
  // The stats line reads its batch latencies from the registry, so
  // asking for it without one fails before the source is attached.
  EXPECT_THROW(obs_serve(nullptr, serve_options, 5000), std::invalid_argument);

  // Lines go through the structured logger; keep the message after the
  // "<timestamp> INFO  engine " prefix.
  obs::Logger& log = obs::Logger::global();
  log.reset();
  std::vector<std::string> lines;
  log.set_sink([&lines](const std::string& line) {
    const std::size_t at = line.find(" engine ");
    if (at != std::string::npos) lines.push_back(line.substr(at + 8));
  });
  MetricsRegistry registry;
  const EngineMetrics metrics = obs_serve(&registry, serve_options, 5000);
  log.reset();
  EXPECT_EQ(metrics.events, 5000u);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("[serve]", 0), 0u) << line;
    EXPECT_NE(line.find("events="), std::string::npos) << line;
    EXPECT_NE(line.find(" ev/batch="), std::string::npos) << line;
    EXPECT_NE(line.find("p50_batch="), std::string::npos) << line;
    EXPECT_NE(line.find("p99_batch="), std::string::npos) << line;
  }
  // The final line reports the full drain, in 20 batches of 250 events
  // on average.
  EXPECT_NE(lines.back().find("events=5000"), std::string::npos)
      << lines.back();
  EXPECT_NE(lines.back().find("ev/batch=250.0"), std::string::npos)
      << lines.back();
}

/// The engine's series as "name" or "name{key=value}".
std::set<std::string> series_keys(const std::vector<Sample>& samples) {
  std::set<std::string> keys;
  for (const Sample& s : samples) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) key += "{" + k + "=" + v + "}";
    keys.insert(key);
  }
  return keys;
}

/// The README's engine metric inventory (the first table after
/// "**Metric inventory.**"), in series_keys() form: a labeled row
/// `name{stage=…}` expands to one key per backquoted label value in its
/// meaning column.
std::set<std::string> readme_engine_inventory() {
  std::ifstream in(REPL_README_PATH);
  std::string line;
  while (std::getline(in, line) &&
         line.find("**Metric inventory.**") == std::string::npos) {
  }
  std::set<std::string> keys;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    const std::size_t name_end = line.find('`', 3);
    const std::string cell = line.substr(3, name_end - 3);
    const std::size_t brace = cell.find('{');
    if (brace == std::string::npos) {
      keys.insert(cell);
      continue;
    }
    const std::string name = cell.substr(0, brace);
    const std::string label = cell.substr(brace + 1, cell.find('=') - brace - 1);
    // Label values: the backquoted words of the last cell.
    std::size_t at = line.rfind('|', line.size() - 2);
    while ((at = line.find('`', at)) != std::string::npos) {
      const std::size_t close = line.find('`', at + 1);
      keys.insert(name + "{" + label + "=" +
                  line.substr(at + 1, close - at - 1) + "}");
      at = close + 1;
    }
  }
  return keys;
}

std::uint64_t counter_of(const std::vector<Sample>& samples,
                         const std::string& name) {
  for (const Sample& s : samples) {
    if (s.name == name) return s.counter_value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

const Sample& histogram_of(const std::vector<Sample>& samples,
                           const std::string& name,
                           const std::string& stage = "") {
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    if (stage.empty() ? s.labels.empty()
                      : s.labels == obs::Labels{{"stage", stage}}) {
      return s;
    }
  }
  throw std::runtime_error("no histogram " + name + " " + stage);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ObsEngineParityTest, EachIntervalIsMeasuredOnceIntoEverySink) {
  // One serve with a registry and periodic checkpoints: every stage's
  // registry histogram and its EngineStats field come from the same
  // measurement, so they agree bit for bit, and the counters agree with
  // the stats they mirror.
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() /
      ("repl_obs_stage_test_" + std::to_string(::getpid()) + ".ckpt");
  MetricsRegistry registry;
  StreamingEngine engine = make_obs_engine(&registry);
  VectorSource source(obs_events(5000), 256);
  ServeOptions serve_options;
  serve_options.checkpoint_every = 1000;
  serve_options.checkpoint_path = ckpt.string();
  engine.serve(source, serve_options);
  std::filesystem::remove(ckpt);
  const EngineStats& stats = engine.stats();
  ASSERT_EQ(stats.batches, 20u);
  ASSERT_EQ(stats.checkpoints_written, 5u);

  const std::vector<Sample> samples = registry.collect();
  const std::pair<const char*, double> stages[] = {
      {"source_wait", stats.source_wait_seconds},
      {"route", stats.route_seconds},
      {"execute", stats.execute_seconds},
      {"reduce", stats.finish_seconds},
      {"checkpoint_write", stats.checkpoint_seconds},
  };
  for (const auto& [stage, seconds] : stages) {
    const Sample& h = histogram_of(samples, "repl_stage_seconds", stage);
    EXPECT_EQ(bits(h.sum), bits(seconds)) << stage;
    EXPECT_GT(h.count, 0u) << stage;
  }
  EXPECT_EQ(histogram_of(samples, "repl_stage_seconds", "route").count,
            stats.batches);
  EXPECT_EQ(histogram_of(samples, "repl_stage_seconds", "checkpoint_write")
                .count,
            stats.checkpoints_written);
  const Sample& batch = histogram_of(samples, "repl_batch_seconds");
  EXPECT_EQ(bits(batch.sum), bits(stats.ingest_seconds));
  EXPECT_EQ(batch.count, stats.batches);

  EXPECT_EQ(counter_of(samples, "repl_events_ingested_total"),
            stats.events_ingested);
  EXPECT_EQ(counter_of(samples, "repl_batches_total"), stats.batches);
  EXPECT_EQ(counter_of(samples, "repl_checkpoint_writes_total"),
            stats.checkpoints_written);
  EXPECT_EQ(counter_of(samples, "repl_checkpoint_bytes_total"),
            stats.checkpoint_bytes);

  // The engine registers exactly the series the README documents.
  const std::set<std::string> documented = readme_engine_inventory();
  EXPECT_EQ(documented.size(), 18u);
  EXPECT_EQ(series_keys(samples), documented);
}

TEST(ObsEngineParityTest, ManualCheckpointCountsLikeAPeriodicOne) {
  // A manual cut counts in EngineStats as it does in the registry, so
  // checkpoint_seconds / checkpoints_written is a mean per cut.
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() /
      ("repl_obs_manual_cut_" + std::to_string(::getpid()) + ".ckpt");
  MetricsRegistry registry;
  StreamingEngine engine = make_obs_engine(&registry);
  engine.ingest(obs_events(1000));
  engine.checkpoint(ckpt.string());
  std::filesystem::remove(ckpt);
  EXPECT_EQ(engine.stats().checkpoints_written, 1u);
  EXPECT_EQ(counter_of(registry.collect(), "repl_checkpoint_writes_total"),
            1u);
}

TEST(ObsEngineParityTest, CheckpointPhasesSplitEachCut) {
  // Each cut observes its three phases once, back to back inside the
  // whole cut's interval, so their sums stay within checkpoint_write's.
  const std::filesystem::path ckpt =
      std::filesystem::temp_directory_path() /
      ("repl_obs_phase_test_" + std::to_string(::getpid()) + ".ckpt");
  MetricsRegistry registry;
  StreamingEngine engine = make_obs_engine(&registry);
  VectorSource source(obs_events(2000), 256);
  ServeOptions serve_options;
  serve_options.checkpoint_every = 1000;
  serve_options.checkpoint_path = ckpt.string();
  engine.serve(source, serve_options);
  std::filesystem::remove(ckpt);
  ASSERT_EQ(engine.stats().checkpoints_written, 2u);

  const std::vector<Sample> samples = registry.collect();
  const Sample& cut =
      histogram_of(samples, "repl_stage_seconds", "checkpoint_write");
  EXPECT_EQ(cut.count, 2u);
  double phases = 0.0;
  for (const char* phase :
       {"checkpoint_encode", "checkpoint_io", "checkpoint_sync"}) {
    const Sample& h = histogram_of(samples, "repl_stage_seconds", phase);
    EXPECT_EQ(h.count, 2u) << phase;
    EXPECT_GT(h.sum, 0.0) << phase;
    phases += h.sum;
  }
  EXPECT_LE(phases, cut.sum);
}

}  // namespace
}  // namespace repl
