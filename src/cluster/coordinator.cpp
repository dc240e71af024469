#include "cluster/coordinator.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cluster/partition.hpp"
#include "net/client.hpp"
#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "trace/event_log.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace repl {

struct ClusterCoordinator::Partition {
  std::uint32_t id = 0;
  pid_t pid = -1;
  /// The current incarnation's event stream, dialed once after its hello.
  std::unique_ptr<EventStreamClient> client;
  /// Partition-local events encountered in the log so far (1-based
  /// position of the most recent one). Main serving thread only.
  std::uint64_t seen = 0;
  /// Events the current incarnation already held at its handshake
  /// (restored from a checkpoint); positions <= this are not sent. A
  /// respawn resumes at or below `seen`, so after the first start this
  /// only bounds catch_up.
  std::uint64_t resume_events = 0;
  std::size_t respawns = 0;

  // Control-plane state, guarded by ClusterCoordinator::ctl_mu_.
  std::uint64_t active_epoch = 0;
  bool hello_seen = false;
  std::uint64_t progress_events = 0;
  std::uint64_t checkpoint_events = 0;
  std::vector<EngineObjectFinal> finals;
  ControlSummary summary;
  bool summary_seen = false;
  bool control_failed = false;
  std::string control_error;
  /// When the last checkpoint message landed (for /healthz age).
  std::chrono::steady_clock::time_point last_checkpoint_at{};
  /// Snapshots of the serving thread's `seen`/`respawns`, re-published
  /// under ctl_mu_ so the health/metrics threads can read them.
  std::uint64_t seen_published = 0;
  std::size_t respawns_published = 0;
};

struct ClusterCoordinator::Instruments {
  Instruments(obs::MetricsRegistry& r, std::uint32_t num_partitions)
      : workers_alive(r.gauge("repl_cluster_workers_alive",
                              "Worker processes spawned and not yet "
                              "reaped")) {
    for (std::uint32_t p = 0; p < num_partitions; ++p) {
      const obs::Labels labels{{"partition", std::to_string(p)}};
      routed.push_back(&r.counter(
          "repl_cluster_events_routed_total",
          "Events sent to this partition's worker (skipped "
          "already-ingested prefixes excluded; catch-up resends included)",
          labels));
      respawns.push_back(&r.counter(
          "repl_cluster_worker_respawns_total",
          "Times this partition's worker was killed and respawned",
          labels));
      checkpoints.push_back(&r.counter(
          "repl_cluster_checkpoints_total",
          "Per-partition checkpoints the worker reported", labels));
      in_flight.push_back(&r.gauge(
          "repl_cluster_events_in_flight",
          "Partition lag: events routed but not yet reported ingested "
          "by the worker's last progress message",
          labels));
    }
  }

  obs::Gauge& workers_alive;
  std::vector<obs::Counter*> routed;
  std::vector<obs::Counter*> respawns;
  std::vector<obs::Counter*> checkpoints;
  std::vector<obs::Gauge*> in_flight;
};

ClusterCoordinator::ClusterCoordinator(ClusterCoordinatorOptions options)
    : options_(std::move(options)) {
  REPL_REQUIRE_MSG(options_.num_partitions >= 1,
                   "cluster needs at least one partition");
  REPL_REQUIRE_MSG(!options_.worker_binary.empty(),
                   "cluster needs a worker binary path");
  REPL_REQUIRE_MSG(!options_.socket_dir.empty(),
                   "cluster needs a socket directory");
  options_.config.validate();
  const std::vector<double>& rates = options_.config.storage_rates;
  for (std::size_t s = 0; s < rates.size(); ++s) {
    REPL_REQUIRE_MSG(rates[s] == 1.0,
                     "config.storage_rates[" << s << "] is " << rates[s]
                                             << ", but cluster workers "
                                                "serve unit storage rates");
  }
  if (options_.metrics != nullptr) {
    registry_ = options_.metrics;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  inst_ = std::make_unique<Instruments>(*registry_, options_.num_partitions);
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->id = p;
    parts_.push_back(std::move(part));
  }
}

ClusterCoordinator::~ClusterCoordinator() {
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    kill_worker(p);
  }
  stop_control_plane();
}

std::string ClusterCoordinator::event_socket_path(
    std::uint32_t partition) const {
  return options_.socket_dir + "/evt" + std::to_string(partition) + ".sock";
}

std::string ClusterCoordinator::control_socket_path() const {
  return options_.socket_dir + "/ctl.sock";
}

std::string ClusterCoordinator::snapshot_path(std::uint32_t partition) const {
  return options_.socket_dir + "/part" + std::to_string(partition) + ".ckpt";
}

std::string ClusterCoordinator::trace_part_path(
    std::uint32_t partition, std::size_t incarnation) const {
  return options_.trace_dir + "/trace.p" + std::to_string(partition) + ".i" +
         std::to_string(incarnation) + ".jsonl";
}

std::vector<std::string> ClusterCoordinator::trace_parts() const {
  std::vector<std::string> out;
  if (options_.trace_dir.empty()) return out;
  for (const auto& part : parts_) {
    for (std::size_t i = 0; i <= part->respawns; ++i) {
      out.push_back(trace_part_path(part->id, i));
    }
  }
  return out;
}

std::vector<obs::Sample> ClusterCoordinator::federated_samples() const {
  std::vector<obs::Sample> out = fed_.collect();
  // Derived cluster gauges, computed at scrape time from the federated
  // counters plus the routing thread's published watermarks.
  std::lock_guard<std::mutex> lock(ctl_mu_);
  bool any = false;
  std::uint64_t slowest = 0;
  for (const auto& part : parts_) {
    const std::uint64_t admitted =
        fed_.counter_value(part->id, "repl_net_events_admitted_total");
    obs::Sample lag;
    lag.name = "repl_cluster_admitted_lag";
    lag.help =
        "Events this partition has been sent (log watermark) minus "
        "events its worker last reported admitted";
    lag.type = obs::MetricType::kGauge;
    lag.labels = {{"partition", std::to_string(part->id)}};
    lag.value = part->seen_published > admitted
                    ? static_cast<double>(part->seen_published - admitted)
                    : 0.0;
    out.push_back(std::move(lag));
    const std::uint64_t progress = part->progress_events;
    if (!any || progress < slowest) slowest = progress;
    any = true;
  }
  obs::Sample floor;
  floor.name = "repl_cluster_slowest_partition_events";
  floor.help =
      "Smallest per-partition ingested-events watermark — the cluster's "
      "progress floor";
  floor.type = obs::MetricType::kGauge;
  floor.value = static_cast<double>(any ? slowest : 0);
  out.push_back(std::move(floor));
  obs::sort_samples(out);
  return out;
}

std::uint64_t ClusterCoordinator::federated_counter(
    std::uint32_t partition, const std::string& name) const {
  return fed_.counter_value(partition, name);
}

void ClusterCoordinator::health_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(ctl_mu_);
  const auto now = std::chrono::steady_clock::now();
  w.key("partitions").begin_array();
  for (const auto& part : parts_) {
    w.begin_object();
    w.key("partition").value(static_cast<std::uint64_t>(part->id));
    // A partition is "alive" once its current incarnation said hello and
    // its control stream has not failed; between a death and the next
    // hello it reads "respawning".
    const bool alive = part->hello_seen && !part->control_failed;
    w.key("state").value(alive ? "alive" : "respawning");
    w.key("respawns").value(
        static_cast<std::uint64_t>(part->respawns_published));
    w.key("events_routed").value(part->seen_published);
    w.key("events_ingested").value(part->progress_events);
    w.key("checkpoint_events").value(part->checkpoint_events);
    if (part->last_checkpoint_at.time_since_epoch().count() != 0) {
      w.key("last_checkpoint_age_seconds")
          .value(std::chrono::duration<double>(now - part->last_checkpoint_at)
                     .count());
    }
    w.key("summary_seen").value(part->summary_seen);
    w.end_object();
  }
  w.end_array();
}

int ClusterCoordinator::worker_pid(std::uint32_t partition) const {
  REPL_REQUIRE_MSG(partition < parts_.size(), "partition out of range");
  return static_cast<int>(parts_[partition]->pid);
}

void ClusterCoordinator::start_control_plane() {
  control_listener_ = std::make_unique<Listener>(
      Listener::unix_domain(control_socket_path()));
  accept_thread_ = std::thread([this] { control_accept_loop(); });
}

void ClusterCoordinator::stop_control_plane() {
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    control_stopping_ = true;
  }
  if (control_listener_) control_listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& thread : control_threads_) {
    if (thread.joinable()) thread.join();
  }
  control_threads_.clear();
  control_listener_.reset();
}

void ClusterCoordinator::control_accept_loop() {
  for (;;) {
    Socket sock = control_listener_->accept();
    if (!sock.valid()) return;
    std::lock_guard<std::mutex> lock(ctl_mu_);
    if (control_stopping_) return;
    const std::uint64_t epoch = ++next_epoch_;
    control_threads_.emplace_back(
        [this, epoch](Socket s) { control_connection_main(std::move(s), epoch); },
        std::move(sock));
  }
}

void ClusterCoordinator::control_connection_main(Socket sock,
                                                 std::uint64_t epoch) {
  ClusterControlAssembler assembler("control#" + std::to_string(epoch));
  std::vector<ControlMessage> messages;
  Partition* part = nullptr;
  try {
    std::vector<unsigned char> buf(std::size_t{64} << 10);
    for (;;) {
      const std::size_t n = sock.read_some(buf.data(), buf.size());
      if (n == 0) {
        if (!assembler.complete()) {
          throw std::runtime_error(
              "control stream closed before its summary (worker died)");
        }
        return;
      }
      messages.clear();
      assembler.feed(buf.data(), n, messages);
      if (messages.empty()) continue;
      std::lock_guard<std::mutex> lock(ctl_mu_);
      for (ControlMessage& msg : messages) {
        if (msg.type == ControlType::kHello) {
          // The assembler already validated internal consistency; check
          // the hello against *this* cluster's geometry. Attribute the
          // connection first so a mismatch lands on the right partition.
          if (msg.hello.partition_id >= options_.num_partitions) {
            throw std::runtime_error(
                "hello from partition " +
                std::to_string(msg.hello.partition_id) +
                " but the cluster has " +
                std::to_string(options_.num_partitions) + " partitions");
          }
          part = parts_[msg.hello.partition_id].get();
          // Latest connection for a partition wins: a respawned worker's
          // stream replaces its predecessor's, whose thread goes stale.
          part->active_epoch = epoch;
          // A rejected hello throws into the catch below, which marks
          // the partition failed with the diagnostic; it is never seen.
          require_partition_function_version(msg.hello.pf_version);
          REPL_REQUIRE_MSG(
              msg.hello.num_partitions == options_.num_partitions,
              "worker believes in " << msg.hello.num_partitions
                                    << " partitions, cluster runs "
                                    << options_.num_partitions);
          REPL_REQUIRE_MSG(
              msg.hello.num_servers ==
                  static_cast<std::uint32_t>(options_.config.num_servers),
              "worker serves " << msg.hello.num_servers
                               << " servers, cluster serves "
                               << options_.config.num_servers);
          REPL_REQUIRE_MSG(msg.hello.base_seed == options_.base_seed,
                           "worker base seed " << msg.hello.base_seed
                                               << " != coordinator's "
                                               << options_.base_seed);
          part->hello_seen = true;
          // A restored worker already holds (and has checkpointed) its
          // snapshot's events; one with nothing left to catch up never
          // sends a progress or checkpoint message.
          part->progress_events = msg.hello.resume_events;
          part->checkpoint_events = msg.hello.resume_events;
          continue;
        }
        // hello-first is assembler-enforced, so part is set here.
        if (part == nullptr || part->active_epoch != epoch) return;
        switch (msg.type) {
          case ControlType::kProgress:
            part->progress_events = msg.progress.events_ingested;
            break;
          case ControlType::kCheckpoint:
            part->checkpoint_events = msg.checkpoint.events_ingested;
            part->last_checkpoint_at = std::chrono::steady_clock::now();
            inst_->checkpoints[part->id]->inc();
            break;
          case ControlType::kMetrics:
            // Stale epochs never reach here (gate above), so this is
            // always the live worker's latest snapshot. FederatedMetrics
            // locks internally and clamps counters monotone across
            // respawns.
            fed_.update(part->id, msg.metrics.samples);
            break;
          case ControlType::kFinals:
            part->finals.insert(part->finals.end(), msg.finals.begin(),
                                msg.finals.end());
            break;
          case ControlType::kSummary:
            part->summary = msg.summary;
            part->summary_seen = true;
            break;
          case ControlType::kHello:
            break;  // handled above
        }
      }
      ctl_cv_.notify_all();
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    if (part != nullptr && part->active_epoch == epoch &&
        !part->summary_seen) {
      part->control_failed = true;
      part->control_error = e.what();
    }
    ctl_cv_.notify_all();
  }
}

void ClusterCoordinator::spawn_worker(std::uint32_t p) {
  Partition& part = *parts_[p];
  std::vector<std::string> args;
  args.push_back(options_.worker_binary);
  args.push_back("--role=worker");
  args.push_back("--partition=" + std::to_string(p));
  args.push_back("--partitions=" + std::to_string(options_.num_partitions));
  args.push_back("--event-socket=" + event_socket_path(p));
  args.push_back("--control-socket=" + control_socket_path());
  args.push_back("--servers=" +
                 std::to_string(options_.config.num_servers));
  args.push_back("--lambda=" + format_double(options_.config.transfer_cost));
  args.push_back("--initial-server=" +
                 std::to_string(options_.config.initial_server));
  args.push_back("--policy=" + options_.policy_spec);
  args.push_back("--predictor=" + options_.predictor_spec);
  args.push_back("--seed=" + std::to_string(options_.base_seed));
  args.push_back("--shards=" + std::to_string(options_.worker_shards));
  args.push_back("--threads=" + std::to_string(options_.worker_threads));
  args.push_back("--batch-events=" + std::to_string(options_.batch_events));
  if (options_.checkpoint_every > 0) {
    args.push_back("--checkpoint-every=" +
                   std::to_string(options_.checkpoint_every));
    args.push_back("--checkpoint-path=" + snapshot_path(p));
  }
  if (!options_.compute_lower_bound) args.push_back("--no-lower-bound");
  // Observability pass-through. Each incarnation gets its own trace part
  // file: a SIGKILLed worker leaves its last flushed prefix behind, and
  // the respawn must not clobber it.
  if (!options_.trace_dir.empty()) {
    args.push_back("--trace-out=" + trace_part_path(p, part.respawns));
  }
  if (!options_.log_spec.empty()) {
    args.push_back("--log-level=" + options_.log_spec);
  }
  if (options_.log_json) args.push_back("--log-json");
  if (options_.stats_every > 0) {
    args.push_back("--stats-every=" + format_double(options_.stats_every));
  }
  // Resume from the partition's checkpoint when one exists — which is
  // exactly the respawn-after-kill case (and a cold start in a directory
  // where a previous serve checkpointed). Each cut is one atomically
  // renamed file that names its slice, so whatever cut last landed is
  // whole, and the worker refuses one cut for another slice.
  const std::string snap = snapshot_path(p);
  if (std::filesystem::exists(snap)) {
    args.push_back("--resume-from=" + snap);
  }

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees a fast exit
  }
  part.pid = pid;
  inst_->workers_alive.add(1.0);
  REPL_LOG_INFO("cluster", "spawned worker partition="
                               << p << " pid=" << pid << " incarnation="
                               << part.respawns);
}

std::optional<int> ClusterCoordinator::reap_worker(std::uint32_t p,
                                                   int flags) {
  Partition& part = *parts_[p];
  if (part.pid < 0) return std::nullopt;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(part.pid, &status, flags)) < 0 &&
         errno == EINTR) {
  }
  if (reaped == 0) return std::nullopt;  // WNOHANG and still running
  part.pid = -1;
  inst_->workers_alive.add(-1.0);
  return status;
}

void ClusterCoordinator::kill_worker(std::uint32_t p) {
  if (parts_[p]->pid < 0) return;
  ::kill(parts_[p]->pid, SIGKILL);
  reap_worker(p, 0);
}

void ClusterCoordinator::respawn_worker(std::uint32_t p,
                                        const std::string& failure) {
  Partition& part = *parts_[p];
  if (part.respawns >= options_.max_respawns) {
    throw std::runtime_error(
        "partition " + std::to_string(p) + ": respawn budget (" +
        std::to_string(options_.max_respawns) +
        ") exhausted; last failure: " + failure);
  }
  ++part.respawns;
  ++total_respawns_;
  inst_->respawns[p]->inc();
  REPL_LOG_WARN("cluster", "respawning worker partition="
                               << p << " attempt=" << part.respawns << "/"
                               << options_.max_respawns
                               << " failure=" << failure);
  kill_worker(p);
  part.client.reset();
  {
    // The dead worker's control stream is history: clear its partial
    // state so the respawn's hello/finals/summary start clean. Clearing
    // the epoch (ids start at 1) makes its reader thread, if still
    // draining, stale now: a late EOF on it must not mark the respawn
    // failed or end await_hello early.
    std::lock_guard<std::mutex> lock(ctl_mu_);
    part.active_epoch = 0;
    part.hello_seen = false;
    part.summary_seen = false;
    part.control_failed = false;
    part.control_error.clear();
    part.finals.clear();
    part.progress_events = 0;
    part.respawns_published = part.respawns;
  }
  spawn_worker(p);
  dial_worker(p);
}

void ClusterCoordinator::await_hello(std::uint32_t p) {
  Partition& part = *parts_[p];
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(ctl_mu_);
      if (ctl_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
            return part.hello_seen || part.control_failed;
          })) {
        if (!part.control_failed) return;
        throw std::runtime_error("partition " + std::to_string(p) + ": " +
                                 part.control_error);
      }
    }
    // No hello yet: a worker that has exited will never send one.
    if (const std::optional<int> status = reap_worker(p, WNOHANG)) {
      const std::string how =
          WIFSIGNALED(*status)
              ? "signal " + std::to_string(WTERMSIG(*status))
              : "status " + std::to_string(WEXITSTATUS(*status));
      throw std::runtime_error("partition " + std::to_string(p) +
                               ": worker exited (" + how +
                               ") before its hello");
    }
  }
}

void ClusterCoordinator::dial_worker(std::uint32_t p) {
  Partition& part = *parts_[p];
  await_hello(p);
  try {
    EventStreamClientOptions copt;
    copt.block_events = options_.batch_events;
    part.client = std::make_unique<EventStreamClient>(
        connect_unix(event_socket_path(p)), copt);
    part.resume_events = part.client->handshake(
        static_cast<std::uint32_t>(options_.config.num_servers));
  } catch (const std::exception& e) {
    throw std::runtime_error("partition " + std::to_string(p) +
                             ": dial after hello failed: " + e.what());
  }
}

void ClusterCoordinator::catch_up(std::uint32_t p, std::uint64_t through) {
  Partition& part = *parts_[p];
  // What the respawned worker reported holding (its restored snapshot's
  // cumulative event count; 0 when it started fresh).
  const std::uint64_t resume = part.resume_events;
  if (through <= resume) return;
  // Re-read the source log, filter this partition, skip the prefix the
  // worker holds, and resend up to (and including) position `through`.
  // Linear, but only runs on a respawn — correctness over speed.
  EventLogReader reader(log_path_);
  std::vector<LogEvent> batch;
  std::uint64_t pos = 0;
  bool done = false;
  while (!done && reader.read_batch(batch, options_.batch_events) > 0) {
    for (const LogEvent& event : batch) {
      if (partition_of(event.object, options_.num_partitions) != p) continue;
      ++pos;
      if (pos <= resume) continue;
      part.client->send(event);
      inst_->routed[p]->inc();
      if (pos == through) {
        done = true;
        break;
      }
    }
  }
  REPL_CHECK_MSG(pos == through,
                 "catch-up for partition " << p << " found only " << pos
                                           << " of " << through
                                           << " events in the log");
  part.client->flush();
}

void ClusterCoordinator::recover(std::uint32_t p, std::uint64_t through,
                                 std::string failure) {
  for (;;) {
    respawn_worker(p, failure);  // throws once the budget is exhausted
    try {
      catch_up(p, through);
      return;
    } catch (const CheckFailure&) {
      throw;  // a short log is not survivable by respawning again
    } catch (const std::exception& e) {
      // The fresh worker died mid-catch-up; go around (budget-capped).
      failure = e.what();
    }
  }
}

void ClusterCoordinator::route_event(std::uint32_t p, const LogEvent& event) {
  Partition& part = *parts_[p];
  for (;;) {
    try {
      part.client->send(event);
      inst_->routed[p]->inc();
      return;
    } catch (const std::exception& e) {
      // The worker is gone. Everything strictly before the current
      // event either landed or is re-sent by catch_up; the current
      // event retries on the fresh transport.
      recover(p, part.seen - 1, e.what());
    }
  }
}

void ClusterCoordinator::finish_partition(std::uint32_t p) {
  Partition& part = *parts_[p];
  for (;;) {
    try {
      part.client->finish();
      return;
    } catch (const std::exception& e) {
      recover(p, part.seen, e.what());
    }
  }
}

void ClusterCoordinator::await_summary(std::uint32_t p,
                                       const std::function<void()>& report) {
  Partition& part = *parts_[p];
  const auto done = [&] { return part.summary_seen || part.control_failed; };
  for (;;) {
    std::string failure;
    {
      std::unique_lock<std::mutex> lock(ctl_mu_);
      if (options_.stats_every > 0) {
        const std::chrono::duration<double> slice(options_.stats_every);
        while (!ctl_cv_.wait_for(lock, slice, done)) {
          // Outside ctl_mu_: the line's samples take it.
          lock.unlock();
          report();
          lock.lock();
        }
      } else {
        ctl_cv_.wait(lock, done);
      }
      if (part.summary_seen) return;
      failure = part.control_error;
    }
    // The worker died between finishing its event stream and delivering
    // its summary: respawn from its checkpoint, replay the tail, finish
    // again, and wait for the fresh incarnation's summary.
    recover(p, part.seen, failure);
    finish_partition(p);
  }
}

ClusterServeResult ClusterCoordinator::serve_log(const std::string& log_path) {
  REPL_REQUIRE_MSG(!served_, "serve_log is one-shot");
  served_ = true;
  log_path_ = log_path;
  {
    EventLogReader probe(log_path);
    REPL_REQUIRE_MSG(probe.num_servers() == options_.config.num_servers,
                     "log declares " << probe.num_servers()
                                     << " servers, cluster serves "
                                     << options_.config.num_servers);
  }

  start_control_plane();
  // Every worker is spawned before any is dialed, so they start up in
  // parallel.
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    spawn_worker(p);
  }
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    dial_worker(p);
  }

  // Progress lines render the coordinator's series and the workers'
  // federated ones, in the format of the engine's [serve] line.
  const auto cluster_samples = [this] {
    std::vector<obs::Sample> samples = registry_->collect();
    for (obs::Sample& s : federated_samples()) samples.push_back(std::move(s));
    return samples;
  };
  auto last_stats = std::chrono::steady_clock::now();
  std::optional<obs::ProgressLine> progress;
  if (options_.stats_every > 0) {
    progress.emplace("[cluster]", cluster_samples(), last_stats);
  }
  // Logs a line once stats_every has passed since the last one. Called
  // outside ctl_mu_: federated_samples() takes it, and sinks do I/O.
  const auto report = [&] {
    if (!progress) return;
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_stats).count() >=
        options_.stats_every) {
      last_stats = now;
      REPL_LOG_INFO("cluster", progress->render(cluster_samples(), now));
    }
  };
  const bool tracing = obs::Tracer::global().enabled();
  EventLogReader reader(log_path);
  std::vector<LogEvent> batch;
  while (reader.read_batch(batch, options_.batch_events) > 0) {
    // Each routed batch gets a root span; its context rides a wire trace
    // frame to every worker ahead of the batch's events, so worker-side
    // ingest spans link back here across process boundaries. Best-effort
    // by design: a dead worker's frame is dropped (route_event recovers
    // the events; the trace just loses one edge).
    obs::Span route_span("route.batch");
    route_span.set_arg("events", batch.size());
    if (tracing) {
      const obs::TraceContext ctx = route_span.context();
      for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
        try {
          parts_[p]->client->send_trace(ctx.trace_id, ctx.span_id);
        } catch (const std::exception&) {
        }
      }
    }
    for (const LogEvent& event : batch) {
      const std::uint32_t p =
          partition_of(event.object, options_.num_partitions);
      Partition& part = *parts_[p];
      ++part.seen;
      if (part.seen > part.resume_events) route_event(p, event);
      if (options_.on_progress) options_.on_progress(p, part.seen);
    }
    {
      std::lock_guard<std::mutex> lock(ctl_mu_);
      for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
        Partition& part = *parts_[p];
        part.seen_published = part.seen;
        const std::uint64_t acked =
            std::min(part.progress_events, part.seen);
        inst_->in_flight[p]->set(static_cast<double>(part.seen - acked));
      }
    }
    report();
  }

  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    finish_partition(p);
  }
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    await_summary(p, report);
    inst_->in_flight[p]->set(0.0);
  }
  // Each worker sends its last metrics snapshot before its summary, so
  // this line covers the whole log.
  if (progress) {
    REPL_LOG_INFO("cluster", progress->render(
                                 cluster_samples(),
                                 std::chrono::steady_clock::now()));
  }

  ClusterServeResult result;
  result.respawns = total_respawns_;
  result.summaries.resize(options_.num_partitions);
  std::vector<std::vector<EngineObjectFinal>> finals(options_.num_partitions);
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
      finals[p] = std::move(parts_[p]->finals);
      result.summaries[p] = parts_[p]->summary;
    }
  }

  // The deterministic cross-partition reduce: ascending-id k-way merge
  // of the per-partition finals (disjoint object spaces, each already
  // id-sorted), accumulated through reduce_object_finals — the exact
  // code path and floating-point order a single-process finish() uses.
  std::size_t total = 0;
  for (const auto& f : finals) total += f.size();
  std::vector<EngineObjectFinal> merged;
  merged.reserve(total);
  std::vector<std::size_t> idx(options_.num_partitions, 0);
  const std::size_t none = options_.num_partitions;
  for (;;) {
    std::size_t best = none;
    for (std::size_t p = 0; p < options_.num_partitions; ++p) {
      if (idx[p] >= finals[p].size()) continue;
      if (best == none || finals[p][idx[p]].id < finals[best][idx[best]].id) {
        best = p;
      }
    }
    if (best == none) break;
    merged.push_back(finals[best][idx[best]++]);
  }
  result.metrics = reduce_object_finals(merged);

  // Cross-check the reduce against the workers' own summaries. Integer
  // aggregates must agree exactly; the FP totals are intentionally
  // accumulated in a different (global id) order, so they are not
  // compared — the parity tests compare them against the single-process
  // engine instead, which is the contract that matters.
  std::uint64_t events = 0, objects = 0, local = 0, transfers = 0;
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    const ControlSummary& s = result.summaries[p];
    events += s.events;
    objects += s.objects;
    local += s.num_local;
    transfers += s.num_transfers;
    REPL_CHECK_MSG(s.events == parts_[p]->seen,
                   "partition " << p << " summarized " << s.events
                                << " events but the log holds "
                                << parts_[p]->seen << " for it");
  }
  REPL_CHECK_MSG(objects == result.metrics.objects,
                 "summary object total " << objects
                                         << " != reduced "
                                         << result.metrics.objects);
  REPL_CHECK_MSG(events == result.metrics.events,
                 "summary event total " << events << " != reduced "
                                        << result.metrics.events);
  REPL_CHECK_MSG(local == result.metrics.num_local &&
                     transfers == result.metrics.num_transfers,
                 "summary serve-mix totals disagree with the reduce");

  // Workers exit on their own after the summary; reap them.
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    reap_worker(p, 0);
  }
  stop_control_plane();
  return result;
}

}  // namespace repl
