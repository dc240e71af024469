// cluster-2p-kill: ClusterCoordinator over two repl_cluster worker
// processes, one thread each. Partition 0 is SIGKILLed as soon as the
// coordinator has its second checkpoint report; the coordinator respawns
// it from that snapshot and catches it up.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "cluster/coordinator.hpp"
#include "obs/log.hpp"
#include "trace/event_log.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_WORKER_BIN
#error "PERFBENCH_WORKER_BIN must name the repl_cluster executable"
#endif

namespace perfbench {

namespace {

using namespace repl;

constexpr std::uint32_t kPartitions = 2;
constexpr std::uint64_t kCheckpointsBeforeKill = 2;
/// Unchanged progress readings (0.1 ms apart) that count as drained.
constexpr int kDrainPolls = 10;
/// Per-partition checkpoints per slice.
constexpr std::uint64_t kCheckpointsPerSlice = 16;
/// Kill serves per untraced run at least.
constexpr std::size_t kMinKillServes = 3;
/// Small serves per run that measure set-up alone.
constexpr int kSetupServes = 15;
constexpr std::uint64_t kSetupServeEvents = 2000;

/// The coordinator as repl_cluster ships it (65,536-event wire blocks, 64
/// worker shards, 20 ms exponential reconnect backoff with jitter), with
/// one thread per worker.
ClusterCoordinatorOptions cluster_options(const std::string& dir) {
  ClusterCoordinatorOptions options;
  options.num_partitions = kPartitions;
  options.worker_binary = PERFBENCH_WORKER_BIN;
  options.socket_dir = dir;
  options.config = bench_config();
  options.policy_spec = kPolicy;
  options.predictor_spec = kPredictor;
  options.worker_threads = 1;
  options.log_spec = "warn";
  return options;
}

std::string fresh_dir(const RunContext& ctx, const std::string& name) {
  const std::string dir = ctx.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct Health {
  std::uint64_t respawns = 0;
  std::uint64_t routed = 0;
  std::uint64_t ingested = 0;
};

/// Reads one partition's entry of the coordinator's /healthz document.
Health partition_health(const ClusterCoordinator& coordinator,
                        std::uint32_t partition) {
  JsonWriter w;
  w.begin_object();
  coordinator.health_json(w);
  w.end_object();
  const std::string doc = w.str();
  Health h;
  const std::size_t at =
      doc.find("{\"partition\":" + std::to_string(partition) + ",");
  if (at == std::string::npos) return h;
  const std::size_t end = doc.find('}', at);
  const std::string entry = doc.substr(at, end - at);
  const auto number = [&](const std::string& key) -> std::uint64_t {
    const std::size_t k = entry.find("\"" + key + "\":");
    if (k == std::string::npos) return 0;
    return std::stoull(entry.substr(k + key.size() + 3));
  };
  h.respawns = number("respawns");
  h.routed = number("events_routed");
  h.ingested = number("events_ingested");
  return h;
}

/// Kills partition 0's worker as soon as the coordinator has its second
/// checkpoint report, then watches the partition until it reports having
/// ingested as many events as it had reported before the kill, and then
/// as many as had been routed to it before the kill (its lost backlog).
/// Runs on its own thread: the routing thread spends most of a serve
/// blocked on worker backpressure, so a kill placed from routing callbacks
/// would land a variable distance past the checkpoint.
class KillWatch {
 public:
  KillWatch(const ClusterCoordinator& coordinator,
            const obs::Counter& p0_checkpoints)
      : coordinator_(coordinator),
        p0_checkpoints_(p0_checkpoints),
        thread_([this] { run(); }) {}

  ~KillWatch() { stop(); }

  KillWatch(const KillWatch&) = delete;
  KillWatch& operator=(const KillWatch&) = delete;

  void stop() {
    stopping_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Read after stop().
  bool fired() const { return fired_; }
  bool recovered() const { return recovered_; }
  Clock::time_point kill_at() const { return kill_at_; }
  /// The coordinator began the respawn (its write to the dead worker
  /// failed).
  Clock::time_point detected_at() const { return detected_at_; }
  /// The respawned worker's first progress report.
  Clock::time_point alive_at() const { return alive_at_; }
  /// Back past the ingested count reported before the kill.
  Clock::time_point caught_up_at() const { return caught_up_at_; }
  /// Back past the events routed to the partition before the kill.
  Clock::time_point backlog_at() const { return backlog_at_; }

 private:
  static void pause() {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  void run() {
    while (p0_checkpoints_.value() < kCheckpointsBeforeKill) {
      if (stopping_) return;
      pause();
    }
    // Freeze the worker and let the coordinator drain the control messages
    // it already sent, so "before" is the worker's true last report and
    // its control stream ends right at the kill.
    std::uint64_t before = partition_health(coordinator_, 0).ingested;
    const pid_t pid = coordinator_.worker_pid(0);
    ::kill(pid, SIGSTOP);
    for (int stable = 0; stable < kDrainPolls;) {
      pause();
      const std::uint64_t now = partition_health(coordinator_, 0).ingested;
      stable = now == before ? stable + 1 : 0;
      before = now;
    }
    const std::uint64_t routed = partition_health(coordinator_, 0).routed;
    kill_at_ = Clock::now();
    ::kill(pid, SIGKILL);
    // Gone, sockets closed; reaping stays with the coordinator.
    siginfo_t info{};
    while (::waitid(P_PID, static_cast<id_t>(pid), &info,
                    WEXITED | WNOWAIT) < 0 &&
           errno == EINTR) {
    }
    fired_ = true;
    // The coordinator publishes the respawn count in the same step that
    // resets the partition's progress, and the drained control stream
    // carries nothing stale, so from then on every progress reading is the
    // new incarnation's. Its "alive" state is not used: a late failure of
    // the killed incarnation's control stream can land after the reset
    // and leave a healthy respawned worker reading "respawning".
    bool detected = false;
    bool serving = false;
    bool caught_up = false;
    while (!stopping_) {
      const Health h = partition_health(coordinator_, 0);
      const auto now = Clock::now();
      if (h.respawns == 0) {
        pause();
        continue;
      }
      if (!detected) {
        detected_at_ = now;
        detected = true;
      }
      if (!serving && h.ingested > 0) {
        alive_at_ = now;
        serving = true;
      }
      if (serving && !caught_up && h.ingested >= before) {
        caught_up_at_ = now;
        caught_up = true;
      }
      if (caught_up && h.ingested >= routed) {
        backlog_at_ = now;
        recovered_ = true;
        return;
      }
      pause();
    }
  }

  const ClusterCoordinator& coordinator_;
  const obs::Counter& p0_checkpoints_;
  std::atomic<bool> stopping_{false};
  bool fired_ = false;
  bool recovered_ = false;
  Clock::time_point kill_at_;
  Clock::time_point detected_at_;
  Clock::time_point alive_at_;
  Clock::time_point caught_up_at_;
  Clock::time_point backlog_at_;
  std::thread thread_;
};

struct ClusterSample {
  double setup_s = 0.0;
  double events_per_s = 0.0;
  double route_s = 0.0;
  double finals_s = 0.0;
  double recovery_s = 0.0;
  double detect_s = 0.0;
  double respawn_s = 0.0;
  double catch_up_s = 0.0;
  double replayed_events = 0.0;
  std::vector<obs::Sample> federated;
  std::uint64_t objects = 0;
  bool traced = false;
};

/// One serve of `log` over a fresh cluster; with `kill`, partition 0 is
/// SIGKILLed after its second checkpoint report.
ClusterSample cluster_serve(RunContext& ctx, const std::string& log,
                            std::uint64_t log_events,
                            const Aggregates& ref,
                            std::uint64_t checkpoint_every, bool kill) {
  const std::string dir = fresh_dir(ctx, kill ? "serve" : "setup");
  ClusterCoordinatorOptions options = cluster_options(dir);
  options.checkpoint_every = checkpoint_every;

  std::uint64_t calls = 0;
  Clock::time_point first_routed;
  Clock::time_point last_routed;
  options.on_progress = [&](std::uint32_t, std::uint64_t) {
    ++calls;
    if (calls == 1) first_routed = Clock::now();
    if (calls == log_events) last_routed = Clock::now();
  };

  ClusterCoordinator coordinator(options);
  std::optional<KillWatch> watch;
  if (kill) {
    watch.emplace(coordinator,
                  coordinator.registry().counter(
                      "repl_cluster_checkpoints_total",
                      "Per-partition checkpoints the worker reported",
                      {{"partition", "0"}}));
  }

  const std::uint64_t serve_span = ctx.spans.next_id();
  const auto called = Clock::now();
  const ClusterServeResult result = coordinator.serve_log(log);
  const auto returned = Clock::now();
  if (watch) watch->stop();

  ClusterSample s;
  s.traced = ctx.spans.enabled();
  s.setup_s = seconds_between(called, first_routed);
  s.events_per_s = static_cast<double>(log_events) /
                   seconds_between(first_routed, returned);
  s.route_s = seconds_between(first_routed, last_routed);
  s.finals_s = seconds_between(last_routed, returned);
  s.objects = result.metrics.objects;
  s.federated = coordinator.federated_samples();
  ctx.spans.add("cluster.spawn", serve_span, serve_span, called,
                first_routed);
  ctx.spans.add("cluster.route", serve_span, serve_span, first_routed,
                last_routed);
  ctx.spans.add("cluster.finals", serve_span, serve_span, last_routed,
                returned);
  ctx.spans.add("cluster.serve", serve_span, 0, called, returned, serve_span);

  // Operations are log events. An event fails when no worker summarized
  // it; every event of a serve fails when its reduce differs from the
  // reference. Killed connections and respawns beyond the injected one
  // are counted apart, on stderr.
  ctx.attempted += log_events;
  std::uint64_t ingested = 0;
  for (const ControlSummary& summary : result.summaries) {
    ingested += summary.events;
  }
  const Aggregates got = Aggregates::of(result.metrics);
  const bool mismatch = !(got == ref);
  ctx.failed += mismatch ? log_events
                         : log_events - std::min(log_events, ingested);
  if (mismatch) {
    ctx.fail("cluster reduce differs from the single-process reference\n  got " +
             got.to_line() + "\n  ref " + ref.to_line());
  }
  const std::size_t injected = kill ? 1 : 0;
  std::fprintf(
      stderr,
      "perfbench: cluster serve events=%llu ingested=%llu "
      "connections_killed=%.0f extra_respawns=%zu parity=%s\n",
      static_cast<unsigned long long>(log_events),
      static_cast<unsigned long long>(ingested),
      sample_total(s.federated, "repl_net_connections_failed_total") +
          sample_total(s.federated, "repl_net_crc_rejects_total"),
      result.respawns - std::min(result.respawns, injected),
      mismatch ? "MISMATCH" : "ok");
  if (kill) {
    const KillWatch& recovery = *watch;
    if (!recovery.fired() || result.respawns < 1 || !recovery.recovered()) {
      ctx.fail("the injected kill did not happen or partition 0 never "
               "recovered");
      return s;
    }
    const std::uint64_t trace = ctx.spans.next_id();
    ctx.spans.add("cluster.detect", trace, serve_span, recovery.kill_at(),
                  recovery.detected_at());
    const std::uint64_t span = ctx.spans.add(
        "cluster.recovery", trace, serve_span, recovery.detected_at(),
        recovery.backlog_at());
    ctx.spans.add("cluster.respawn", trace, span, recovery.detected_at(),
                  recovery.alive_at());
    ctx.spans.add("cluster.catch_up", trace, span, recovery.alive_at(),
                  recovery.caught_up_at());
    s.recovery_s =
        seconds_between(recovery.detected_at(), recovery.backlog_at());
    s.detect_s =
        seconds_between(recovery.kill_at(), recovery.detected_at());
    s.respawn_s =
        seconds_between(recovery.detected_at(), recovery.alive_at());
    s.catch_up_s =
        seconds_between(recovery.alive_at(), recovery.caught_up_at());
    double routed = 0.0;
    for (const obs::Sample& sample : coordinator.registry().collect()) {
      if (sample.name == "repl_cluster_events_routed_total") {
        routed += sample.value;
      }
    }
    s.replayed_events = routed - static_cast<double>(log_events);
    std::fprintf(stderr,
                 "perfbench: kill serve events_per_s=%.0f recovery_s=%.4f "
                 "detect_s=%.4f respawn_s=%.4f catch_up_s=%.4f "
                 "replayed_events=%.0f\n",
                 s.events_per_s, s.recovery_s, s.detect_s, s.respawn_s,
                 s.catch_up_s, s.replayed_events);
  }
  return s;
}

Aggregates single_process_reference(const std::string& log) {
  EngineBuilder builder;
  builder.config(bench_config()).policy(kPolicy).predictor(kPredictor);
  auto engine = builder.build();
  EventLogReader reader(log);
  return Aggregates::of(engine->serve(reader, ServeOptions{}));
}

}  // namespace

void run_cluster(RunContext& ctx) {
  obs::Logger::global().configure("warn");
  // Slices (~150k events at full size) must exceed the workers'
  // 65,536-event connection queues, or routing ends before the second
  // checkpoint and nothing is killed; the rest of the serve then runs
  // under live admission rather than the post-close drain.
  const std::uint64_t events = ctx.smoke ? 200000 : 300000;
  const std::string log =
      ensure_log(ctx, workload_config(50000, 1.0, events));
  const Aggregates ref =
      ensure_reference(ctx, [&] { return single_process_reference(log); });
  const std::uint64_t checkpoint_every =
      std::max<std::uint64_t>(1, ref.events / kPartitions /
                                     kCheckpointsPerSlice);

  // Set-up alone, on a small log generated from the same seed.
  const std::string setup_log = ensure_log(
      ctx, workload_config(50000, 1.0, kSetupServeEvents), "setup");
  const Aggregates setup_ref = ensure_reference(
      ctx, [&] { return single_process_reference(setup_log); }, "setup");
  std::vector<double> setups;
  ctx.spans.set_enabled(false);
  for (int i = 0; i < kSetupServes; ++i) {
    setups.push_back(cluster_serve(ctx, setup_log, setup_ref.events,
                                   setup_ref, 0, false)
                         .setup_s);
  }

  // Kill serves until --seconds is spent (at least three). A traced run
  // serves once untraced and once traced, for the tracing overhead.
  const bool traced = ctx.traced;
  std::vector<ClusterSample> samples;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(ctx.seconds);
  double last_s = 0.0;
  while (samples.size() < (traced ? 2u : kMinKillServes) ||
         (!traced && Clock::now() +
                             std::chrono::duration<double>(last_s / 2) <
                         deadline)) {
    ctx.spans.set_enabled(traced && samples.size() % 2 == 1);
    const auto start = Clock::now();
    samples.push_back(cluster_serve(ctx, log, ref.events, ref,
                                    checkpoint_every, true));
    last_s = seconds_between(start, Clock::now());
    if (!ctx.errors.empty()) break;
  }
  ctx.spans.set_enabled(false);

  std::vector<double> rates;
  std::vector<double> recoveries;
  for (const ClusterSample& s : samples) {
    if (s.traced) continue;
    setups.push_back(s.setup_s);
    rates.push_back(s.events_per_s);
    recoveries.push_back(s.recovery_s);
  }
  if (!traced) {
    ctx.metric("events_per_s", median(rates), "1/s");
    ctx.metric("setup_s", median(setups), "s");
    // Per-object state lives in the worker processes, out of reach of this
    // process's allocator statistics; an in-process serve of the same log
    // with a worker's engine geometry holds the same records.
    EngineOptions worker;
    worker.num_shards = ClusterCoordinatorOptions{}.worker_shards;
    worker.num_threads = 1;
    EngineBuilder builder;
    builder.config(bench_config()).options(worker);
    builder.policy(kPolicy).predictor(kPredictor);
    ctx.metric("bytes_per_object",
               timed_serve(ctx, builder, log, ref, nullptr).bytes_per_object,
               "B");
    ctx.metric("cost_ratio", ref.online_cost / ref.lower_bound, "ratio");
    ctx.metric("recovery_s", median(recoveries), "s");
    return;
  }

  const ClusterSample& t = samples.back();
  const std::vector<obs::Sample>& fed = t.federated;
  std::uint64_t log_events = 0;
  std::vector<double> scans;
  for (int i = 0; i < 3; ++i) scans.push_back(scan_log(log, &log_events));
  double step_ns = 0.0;
  if (!(serial_reference(log, &step_ns) == ref)) {
    ctx.fail("serial sweep disagrees with the single-process reference");
  }
  // Partition 0's last snapshot, restored in-process.
  const std::string snapshot = ctx.work_dir + "/serve/part0.ckpt";
  double restore_s = 0.0;
  double ckpt_bytes_per_object = 0.0;
  {
    EngineBuilder builder;
    builder.config(bench_config()).policy(kPolicy).predictor(kPredictor);
    const auto start = Clock::now();
    auto engine = builder.restore(snapshot);
    restore_s = seconds_between(start, Clock::now());
    ckpt_bytes_per_object =
        static_cast<double>(std::filesystem::file_size(snapshot)) /
        static_cast<double>(std::max<std::size_t>(1, engine->object_count()));
  }
  const double batches = sample_total(fed, "repl_batches_total");
  const double ingested = sample_total(fed, "repl_events_ingested_total");
  const double source_wait =
      sample_total(fed, "repl_stage_seconds", "stage=source_wait");
  const std::uint64_t writes =
      sample_count(fed, "repl_stage_seconds", "stage=checkpoint_write");

  ctx.metric("codec.decode_s", median(scans), "s");
  ctx.metric("codec.bytes_per_event",
             static_cast<double>(std::filesystem::file_size(log)) /
                 static_cast<double>(std::max<std::uint64_t>(1, log_events)),
             "B");
  ctx.metric("engine.source_wait_s", source_wait, "s");
  ctx.metric("engine.route_s",
             sample_total(fed, "repl_stage_seconds", "stage=route"), "s");
  ctx.metric("engine.execute_s",
             sample_total(fed, "repl_stage_seconds", "stage=execute"), "s");
  ctx.metric("engine.finish_s",
             sample_total(fed, "repl_stage_seconds", "stage=reduce"), "s");
  ctx.metric("engine.batch_p50_ms",
             sample_quantile(fed, "repl_batch_seconds", 0.50) * 1e3, "ms");
  ctx.metric("engine.batch_p99_ms",
             sample_quantile(fed, "repl_batch_seconds", 0.99) * 1e3, "ms");
  ctx.metric("engine.events_per_batch", batches > 0 ? ingested / batches : 0.0,
             "count");
  ctx.metric("engine.objects", static_cast<double>(t.objects), "count");
  ctx.metric("core.step_ns", step_ns, "ns");
  ctx.metric("checkpoint.write_s",
             writes == 0 ? 0.0
                         : sample_total(fed, "repl_stage_seconds",
                                        "stage=checkpoint_write") /
                               static_cast<double>(writes),
             "s");
  ctx.metric("checkpoint.bytes_per_object", ckpt_bytes_per_object, "B");
  ctx.metric("checkpoint.restore_s", restore_s, "s");
  ctx.metric("net.source_wait_s", source_wait, "s");
  ctx.metric("net.backpressure_stalls",
             sample_total(fed, "repl_net_backpressure_stalls_total"),
             "count");
  ctx.metric("cluster.spawn_s", t.setup_s, "s");
  ctx.metric("cluster.route_s", t.route_s, "s");
  ctx.metric("cluster.finals_s", t.finals_s, "s");
  ctx.metric("cluster.detect_s", t.detect_s, "s");
  ctx.metric("cluster.respawn_s", t.respawn_s, "s");
  ctx.metric("cluster.catch_up_s", t.catch_up_s, "s");
  ctx.metric("cluster.replayed_events", t.replayed_events, "count");
  ctx.metric("trace.overhead_pct",
             (samples.front().events_per_s / t.events_per_s - 1.0) * 100.0,
             "%");
}

}  // namespace perfbench
