#include "net/ingest_server.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/engine.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace repl {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

struct NetIngestServer::Connection {
  enum class State { kHandshake, kStreaming, kClosed, kFailed };

  std::size_t id = 0;
  std::string name;
  Socket sock;
  std::thread thread;

  // Everything below is guarded by NetIngestServer::mu_.
  State state = State::kHandshake;
  std::deque<LogEvent> queue;
  /// Newest enqueued event time: the connection's watermark cap. The
  /// FrameAssembler rejects any time below the previous one, across
  /// frames too, so nothing this connection enqueues later is earlier.
  double last_time = 0.0;
  std::uint64_t events_received = 0;
  std::uint64_t bytes_received = 0;
  std::string error;

  /// Completed-frame count already published to the frames counter.
  /// Touched only by this connection's reader thread — not under mu_.
  std::uint64_t frames_published = 0;
  /// Trace frames already published to latest_trace_. Reader thread only.
  std::uint64_t trace_frames_published = 0;
};

/// The registry series this server publishes. Counters are incremented
/// on the hot paths (reader threads, the admission thread); the gauges
/// mirror state under mu_ and are refreshed by a collect hook, so they
/// are exact as of each scrape.
struct NetIngestServer::Instruments {
  explicit Instruments(obs::MetricsRegistry& r)
      : events_admitted(r.counter(
            "repl_net_events_admitted_total",
            "Events of the logical stream admitted to the engine in "
            "time-ordered batches, including the resumed prefix")),
        events_received(r.counter(
            "repl_net_events_received_total",
            "Events decoded from validated frames across all connections "
            "this process lifetime (excludes any resumed prefix)")),
        bytes_received(r.counter("repl_net_bytes_received_total",
                                 "Bytes read off client sockets")),
        frames(r.counter("repl_net_frames_total",
                         "Wire frames completed and validated")),
        crc_rejects(r.counter(
            "repl_net_crc_rejects_total",
            "Connections killed by a CRC mismatch (frame header or block "
            "payload)")),
        backpressure_stalls(r.counter(
            "repl_net_backpressure_stalls_total",
            "Times a reader thread blocked because a bounded queue was "
            "full (one per stall episode, not per event)")),
        connections_opened_tcp(
            r.counter("repl_net_connections_opened_total",
                      "Client connections accepted", {{"kind", "tcp"}})),
        connections_opened_unix(
            r.counter("repl_net_connections_opened_total",
                      "Client connections accepted", {{"kind", "unix"}})),
        connections_failed(r.counter(
            "repl_net_connections_failed_total",
            "Connections killed by a protocol, order, or transport error")),
        connections_open(r.gauge("repl_net_connections_open",
                                 "Connections in handshake or streaming")),
        queued_events(r.gauge(
            "repl_net_queued_events",
            "Events decoded but not yet admitted, summed over queues")),
        watermark_lag(r.gauge(
            "repl_net_watermark_lag",
            "Stream-time distance between the newest decoded event and "
            "the admitted watermark (0 when fully drained)")),
        checkpoint_age(r.gauge(
            "repl_checkpoint_age_seconds",
            "Seconds since the last checkpoint landed; -1 before the "
            "first")),
        checkpoint_events(r.gauge(
            "repl_checkpoint_events",
            "Events of the logical stream covered by the last checkpoint")) {
  }

  obs::Counter& events_admitted;
  obs::Counter& events_received;
  obs::Counter& bytes_received;
  obs::Counter& frames;
  obs::Counter& crc_rejects;
  obs::Counter& backpressure_stalls;
  obs::Counter& connections_opened_tcp;
  obs::Counter& connections_opened_unix;
  obs::Counter& connections_failed;
  obs::Gauge& connections_open;
  obs::Gauge& queued_events;
  obs::Gauge& watermark_lag;
  obs::Gauge& checkpoint_age;
  obs::Gauge& checkpoint_events;
};

namespace {

const char* connection_state_name(int state) {
  switch (state) {
    case 0:
      return "handshake";
    case 1:
      return "streaming";
    case 2:
      return "closed";
    default:
      return "failed";
  }
}

}  // namespace

NetIngestServer::NetIngestServer(NetServerOptions options)
    : options_(std::move(options)) {
  REPL_REQUIRE_MSG(options_.batch_events > 0, "batch_events must be positive");
  REPL_REQUIRE_MSG(options_.max_connection_events > 0,
               "max_connection_events must be positive");
  REPL_REQUIRE_MSG(options_.max_total_events >= options_.max_connection_events,
               "max_total_events must be at least max_connection_events");
  REPL_REQUIRE_MSG(options_.tcp_port >= 0 || !options_.unix_path.empty(),
               "a TCP port or a unix socket path is required");
  if (options_.metrics != nullptr) {
    registry_ = options_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  inst_ = std::make_unique<Instruments>(*registry_);
  hook_id_ = registry_->add_collect_hook([this] { refresh_gauges(); });
}

NetIngestServer::~NetIngestServer() {
  stop();
  // A shared registry outlives us: drop the hook before our state dies.
  // (The caller must not scrape a shared registry concurrently with this
  // destructor — same lifetime rule as any raw-pointer option.)
  registry_->remove_collect_hook(hook_id_);
  for (std::thread& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void NetIngestServer::start(std::uint32_t num_servers,
                            std::uint64_t resume_events) {
  REPL_REQUIRE_MSG(!started_, "server already started");
  REPL_REQUIRE_MSG(num_servers > 0, "num_servers must be positive");
  num_servers_ = num_servers;
  resume_events_ = resume_events;
  start_time_ = std::chrono::steady_clock::now();
  if (options_.tcp_port >= 0) {
    tcp_ = std::make_unique<Listener>(
        Listener::tcp(options_.tcp_host, options_.tcp_port));
  }
  if (!options_.unix_path.empty()) {
    unix_ = std::make_unique<Listener>(
        Listener::unix_domain(options_.unix_path));
  }
  if (options_.metrics_port >= 0) {
    obs::MetricsHttpOptions http;
    http.host = options_.tcp_host;
    http.port = options_.metrics_port;
    http_ = std::make_unique<obs::MetricsHttpServer>(*registry_, http);
    http_->set_json_extra([this](JsonWriter& json) { append_extra_json(json); });
    http_->set_health_extra([this](JsonWriter& json) {
      std::lock_guard<std::mutex> lock(mu_);
      json.key("uptime_seconds")
          .value(started_ ? seconds_since(start_time_) : 0.0);
      json.key("stopping").value(stopping_);
    });
    http_->start();
  }
  // The admitted counter speaks logical-stream positions, like the
  // handshake ACK: a restart that resumes at N starts the counter at N,
  // so a scrape after recovery is never below one taken before the
  // crash.
  inst_->events_admitted.inc(resume_events);
  started_ = true;
  REPL_LOG_INFO("net", "ingest server started num_servers="
                           << num_servers << " resume_events=" << resume_events
                           << " tcp_port=" << (tcp_ ? tcp_->port() : -1)
                           << " metrics_port="
                           << (http_ ? http_->port() : -1));
  if (tcp_) {
    accept_threads_.emplace_back([this] { accept_loop(*tcp_, "tcp"); });
  }
  if (unix_) {
    accept_threads_.emplace_back([this] { accept_loop(*unix_, "unix"); });
  }
}

void NetIngestServer::accept_loop(Listener& listener, const char* kind) {
  for (;;) {
    Socket sock = listener.accept();
    if (!sock.valid()) return;  // listener shut down
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    (kind[0] == 't' ? inst_->connections_opened_tcp
                    : inst_->connections_opened_unix)
        .inc();
    auto conn = std::make_unique<Connection>();
    conn->id = connections_.size();
    conn->name = std::string(kind) + " client #" + std::to_string(conn->id);
    conn->sock = std::move(sock);
    Connection& ref = *conn;
    connections_.push_back(std::move(conn));
    REPL_LOG_DEBUG("net", "accepted " << ref.name);
    ref.thread = std::thread([this, &ref] { connection_main(ref); });
    // This accept may be the one that lifts the min_connections barrier.
    consumer_cv_.notify_all();
  }
}

void NetIngestServer::connection_main(Connection& conn) {
  try {
    FrameAssembler assembler(conn.name);
    std::vector<LogEvent> decoded;
    unsigned char header[EventLogHeader::kSize];
    if (!conn.sock.read_exact(header, sizeof(header))) {
      throw std::runtime_error(conn.name +
                               ": disconnected before completing handshake");
    }
    assembler.feed(header, sizeof(header), decoded);
    if (assembler.header().num_servers != num_servers_) {
      throw std::runtime_error(
          conn.name + ": stream declares " +
          std::to_string(assembler.header().num_servers) +
          " servers, this system serves " + std::to_string(num_servers_));
    }
    unsigned char ack[kNetAckBytes];
    encode_net_ack(ack, resume_events_);
    conn.sock.write_all(ack, sizeof(ack));
    inst_->bytes_received.inc(sizeof(header));
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn.bytes_received += sizeof(header);
      conn.state = Connection::State::kStreaming;
    }

    // Token bucket for the per-connection rate cap: starts full (one
    // second of burst), refills from elapsed wall time, and a deficit is
    // slept off on this reader thread — which stops the socket reads, so
    // the cap propagates to the peer as a closed TCP window, the same
    // pressure path as a full queue.
    const double rate = options_.max_events_per_sec;
    double tokens = rate;
    auto last_refill = std::chrono::steady_clock::now();

    std::vector<unsigned char> buf(std::size_t{64} << 10);
    for (;;) {
      const std::size_t n = conn.sock.read_some(buf.data(), buf.size());
      if (n == 0) {
        if (!assembler.at_boundary()) {
          throw std::runtime_error(
              conn.name + ": disconnected mid-frame (frame " +
              std::to_string(assembler.frames_completed()) +
              ", byte offset " + std::to_string(assembler.bytes_consumed()) +
              ")");
        }
        break;  // clean close at a frame boundary
      }
      decoded.clear();
      // A defect kills the connection, but only after the whole frames
      // this read completed before it are enqueued: they are validated,
      // and the surviving stream is exactly that prefix.
      std::exception_ptr defect;
      try {
        assembler.feed(buf.data(), n, decoded);
      } catch (const std::exception&) {
        defect = std::current_exception();
      }
      inst_->bytes_received.inc(n);
      const std::uint64_t frames_done = assembler.frames_completed();
      if (frames_done > conn.frames_published) {
        inst_->frames.inc(frames_done - conn.frames_published);
        conn.frames_published = frames_done;
      }
      if (!decoded.empty()) inst_->events_received.inc(decoded.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn.bytes_received += n;
        if (assembler.trace_frames() > conn.trace_frames_published) {
          conn.trace_frames_published = assembler.trace_frames();
          latest_trace_ = assembler.latest_trace();
        }
      }
      if (rate > 0.0 && !decoded.empty()) {
        const auto now = std::chrono::steady_clock::now();
        tokens = std::min(
            rate, tokens + std::chrono::duration<double>(now - last_refill)
                                   .count() *
                               rate);
        last_refill = now;
        tokens -= static_cast<double>(decoded.size());
        if (tokens < 0.0) {
          inst_->backpressure_stalls.inc();
          std::this_thread::sleep_for(
              std::chrono::duration<double>(-tokens / rate));
        }
      }
      if (!decoded.empty()) enqueue(conn, decoded);
      if (defect) std::rethrow_exception(defect);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn.state = Connection::State::kClosed;
      conn.sock.close();
    }
    REPL_LOG_DEBUG("net", conn.name << " closed cleanly events="
                                    << conn.events_received
                                    << " bytes=" << conn.bytes_received);
  } catch (const std::exception& e) {
    bool newly_failed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn.state != Connection::State::kClosed) {
        conn.state = Connection::State::kFailed;
        conn.error = e.what();
        ++failed_connections_;
        inst_->connections_failed.inc();
        if (conn.error.find("CRC mismatch") != std::string::npos) {
          inst_->crc_rejects.inc();
        }
        newly_failed = true;
      }
      conn.sock.close();
    }
    if (newly_failed) {
      REPL_LOG_WARN("net", "connection killed: " << e.what());
    }
  }
  consumer_cv_.notify_all();
  space_cv_.notify_all();
}

void NetIngestServer::enqueue(Connection& conn,
                              const std::vector<LogEvent>& events) {
  std::unique_lock<std::mutex> lock(mu_);
  for (const LogEvent& event : events) {
    if (event.time < emitted_time_) {
      // This connection joined after the merged stream moved past its
      // times; admitting it would regress the engine's global order.
      throw std::runtime_error(
          conn.name + ": time-regressed stream (event at t=" +
          std::to_string(event.time) + " behind admitted watermark t=" +
          std::to_string(emitted_time_) + ")");
    }
    // A connection with an empty queue may always enqueue one event past
    // the global bound: that publishes its last_time, without which the
    // watermark could stay at 0 behind queues nobody may drain.
    const auto room = [&] {
      return stopping_ ||
             (conn.queue.size() < options_.max_connection_events &&
              (total_queued_ < options_.max_total_events ||
               conn.queue.empty()));
    };
    if (!room()) {
      inst_->backpressure_stalls.inc();
      // Hand the consumer what is queued before sleeping on its drain.
      consumer_cv_.notify_one();
      space_cv_.wait(lock, room);
    }
    if (stopping_) return;
    conn.queue.push_back(event);
    conn.last_time = event.time;
    ++conn.events_received;
    ++total_queued_;
  }
  consumer_cv_.notify_one();
}

double NetIngestServer::watermark_locked() const {
  double mark = std::numeric_limits<double>::infinity();
  for (const auto& conn : connections_) {
    switch (conn->state) {
      case Connection::State::kHandshake:
      case Connection::State::kStreaming:
        // Everything queued is <= last_time and everything still to come
        // is >= it, so the whole queue is admissible up to here. An open
        // connection that has sent nothing might still send anything
        // (> 0); its last_time is 0, so it blocks all admission.
        mark = std::min(mark, conn->last_time);
        break;
      case Connection::State::kClosed:
      case Connection::State::kFailed:
        break;  // no future events: no constraint
    }
  }
  return mark;
}

bool NetIngestServer::idle_end_locked() const {
  if (!options_.stop_when_idle) return false;
  if (connections_.size() < options_.min_connections) return false;
  if (total_queued_ > 0) return false;
  for (const auto& conn : connections_) {
    if (conn->state == Connection::State::kHandshake ||
        conn->state == Connection::State::kStreaming) {
      return false;
    }
  }
  return true;
}

bool NetIngestServer::next_batch(std::vector<LogEvent>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return false;
    // The start barrier: a client still to come might send anything, so
    // nothing is admitted (times are > 0) before min_connections connect.
    const double mark = connections_.size() < options_.min_connections
                            ? 0.0
                            : watermark_locked();
    while (out.size() < options_.batch_events) {
      Connection* best = nullptr;
      for (const auto& conn : connections_) {
        if (conn->queue.empty()) continue;
        if (best == nullptr ||
            conn->queue.front().time < best->queue.front().time) {
          best = conn.get();
        }
      }
      if (best == nullptr || best->queue.front().time > mark) break;
      out.push_back(best->queue.front());
      best->queue.pop_front();
      --total_queued_;
      emitted_time_ = out.back().time;
      ++admitted_events_;
    }
    if (!out.empty()) {
      inst_->events_admitted.inc(out.size());
      space_cv_.notify_all();
      return true;
    }
    if (idle_end_locked()) return false;
    consumer_cv_.wait(lock);
  }
}

void NetIngestServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& conn : connections_) conn->sock.shutdown_both();
  }
  if (tcp_) tcp_->shutdown();
  if (unix_) unix_->shutdown();
  if (http_) http_->stop();
  consumer_cv_.notify_all();
  space_cv_.notify_all();
}

void NetIngestServer::note_checkpoint(std::uint64_t events_ingested) {
  std::lock_guard<std::mutex> lock(mu_);
  ++checkpoints_;
  checkpoint_events_ = events_ingested;
  checkpoint_time_ = std::chrono::steady_clock::now();
}

int NetIngestServer::tcp_port() const { return tcp_ ? tcp_->port() : -1; }

int NetIngestServer::metrics_port() const {
  return http_ ? http_->port() : -1;
}

obs::TraceContext NetIngestServer::latest_trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_trace_;
}

std::uint64_t NetIngestServer::events_admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_events_;
}

std::size_t NetIngestServer::connections_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

std::size_t NetIngestServer::connections_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_connections_;
}

std::size_t NetIngestServer::events_queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_;
}

void NetIngestServer::refresh_gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t open = 0;
  double newest = 0.0;
  for (const auto& conn : connections_) {
    if (conn->state == Connection::State::kHandshake ||
        conn->state == Connection::State::kStreaming) {
      ++open;
      newest = std::max(newest, conn->last_time);
    }
  }
  inst_->connections_open.set(static_cast<double>(open));
  inst_->queued_events.set(static_cast<double>(total_queued_));
  inst_->watermark_lag.set(std::max(0.0, newest - emitted_time_));
  inst_->checkpoint_age.set(checkpoints_ > 0 ? seconds_since(checkpoint_time_)
                                             : -1.0);
  inst_->checkpoint_events.set(static_cast<double>(checkpoint_events_));
}

void NetIngestServer::append_extra_json(JsonWriter& json) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double uptime = started_ ? seconds_since(start_time_) : 0.0;
  json.key("uptime_seconds").value(uptime);
  json.key("events_per_second")
      .value(uptime > 0.0 ? static_cast<double>(admitted_events_) / uptime
                          : 0.0);
  json.key("admitted_time").value(emitted_time_);
  json.key("per_connection").begin_array();
  for (const auto& conn : connections_) {
    json.begin_object();
    json.key("name").value(conn->name);
    json.key("state").value(
        connection_state_name(static_cast<int>(conn->state)));
    json.key("queued").value(static_cast<std::uint64_t>(conn->queue.size()));
    json.key("events").value(conn->events_received);
    json.key("bytes").value(conn->bytes_received);
    json.key("last_time").value(conn->last_time);
    if (!conn->error.empty()) json.key("error").value(conn->error);
    json.end_object();
  }
  json.end_array();
}

std::string NetIngestServer::metrics_json() const {
  return obs::metrics_json_text(
      *registry_, [this](JsonWriter& json) { append_extra_json(json); });
}

void NetIngestSource::attach(StreamingEngine& engine) {
  if (attached_) return;
  attached_ = true;
  EventLogHeader header;
  header.version = EventLogHeader::kVersionCompressed;
  header.num_servers = num_servers_;
  header.num_objects = 0;
  header.num_events = EventLogHeader::kUnknownCount;
  engine.bind_log(header);
  server_.start(num_servers_, engine.resume_position());
}

bool NetIngestSource::next_batch(std::vector<LogEvent>& out) {
  return server_.next_batch(out);
}

}  // namespace repl
