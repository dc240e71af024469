#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/server_table.hpp"
#include "util/check.hpp"

namespace repl {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The per-event observability logs of one run, allocated only when
/// SimulationOptions::record_events is set: the streaming path keeps no
/// log at all.
struct EventLog {
  std::vector<ServeRecord> serves;
  std::vector<CopySegment> segments;
  std::vector<TransferRecord> transfers;
};

/// The canonical event sink: validates the event stream and accumulates
/// costs, copy segments, and transfers.
///
/// The billing horizon bounds which costs are billed: transfers at
/// time <= horizon, and the portion of each copy segment within
/// [0, horizon]. The cost horizon is the final request time, unknown
/// while the run is still streaming, so it starts at +inf (every in-run
/// transfer happens no later than the final request and is billed either
/// way, and every in-run segment closes no later than the final request)
/// and is pinned to the final request time just before the post-trace
/// flush.
///
/// Storage cost accumulates incrementally as segments close — one
/// addition per segment, in close order, the exact sequence a post-hoc
/// sweep over the segment list would perform — so a streaming consumer
/// (the engine, checkpoints) needs only this scalar, and the segment
/// list itself is kept only when there is a log to keep it in.
///
/// Per-server state (holding bit, open-segment begin, special-from time)
/// lives in a ServerTable keyed by the servers that ever held a copy.
class Recorder final : public EventSink {
 public:
  /// `log` (null: record nothing) must outlive the recorder.
  Recorder(const SystemConfig& config, EventLog* log)
      : config_(config), log_(log) {}

  void set_billing_horizon(double horizon) { billing_horizon_ = horizon; }

  void on_create(int server, double time) override {
    check_time(time);
    Segment& seg = servers_.touch(server, config_.num_servers);
    REPL_CHECK_MSG(!seg.holding, "create at server already holding a copy");
    seg.holding = true;
    ++count_;
    seg.begin = time;
    seg.special_from = kInf;
  }

  void on_drop(int server, double time) override {
    check_time(time);
    Segment* seg = held(server);
    REPL_CHECK_MSG(seg != nullptr, "drop at server without a copy");
    seg->holding = false;
    --count_;
    REPL_CHECK_MSG(count_ >= 1,
                   "at-least-one-copy requirement violated at t=" << time);
    close_segment(server, *seg, time);
  }

  void on_mark_special(int server, double time) override {
    check_time(time);
    Segment* seg = held(server);
    REPL_CHECK_MSG(seg != nullptr, "mark_special without a copy");
    REPL_CHECK_MSG(count_ == 1,
                   "special copy must be the only copy (Proposition 1)");
    REPL_CHECK_MSG(seg->special_from == kInf, "copy marked special twice");
    seg->special_from = time;
  }

  void on_transfer(int src, int dst, double time) override {
    check_time(time);
    REPL_CHECK_MSG(src != dst, "self-transfer");
    REPL_CHECK_MSG(held(src) != nullptr,
                   "transfer from a server without a copy");
    ++transfer_count_;
    // Transfers after the cost horizon (e.g. post-trace home migrations
    // during the flush) are recorded but not billed.
    if (time <= billing_horizon_) ++billed_transfer_count_;
    if (log_ != nullptr) {
      log_->transfers.push_back(TransferRecord{src, dst, time});
    }
  }

  void on_set_duration(int server, double time, double duration) override {
    check_time(time);
    Segment* seg = held(server);
    REPL_CHECK(seg != nullptr);
    REPL_CHECK(duration > 0.0);
    if (std::isnan(initial_intended_)) initial_intended_ = duration;
    // A renewed intended duration un-marks a special copy.
    seg->special_from = kInf;
  }

  /// Closes all still-open segments with end = +inf, in ascending server
  /// order (the storage cost's summation order). No further events may
  /// follow.
  void finish() {
    servers_.for_each([this](int s, Segment& seg) {
      if (seg.holding) {
        close_segment(s, seg, kInf);
        seg.holding = false;
      }
    });
  }

  int count() const { return count_; }
  std::size_t transfer_count() const { return transfer_count_; }
  std::size_t billed_transfer_count() const { return billed_transfer_count_; }
  double last_time() const { return last_time_; }
  double initial_intended() const { return initial_intended_; }

  /// Storage cost within [0, horizon], weighted by per-server rates.
  /// Must be called after finish() (all segments closed and billed).
  double storage_cost() const { return storage_cost_; }

  /// Checkpoint protocol: the cost accumulators and per-server open-copy
  /// state. The event log is observability, not cost state, and restarts
  /// empty after a restore.
  void save_state(StateWriter& out) const {
    out.i32(count_);
    out.u64(static_cast<std::uint64_t>(transfer_count_));
    out.u64(static_cast<std::uint64_t>(billed_transfer_count_));
    out.f64(last_time_);
    out.f64(initial_intended_);
    out.f64(storage_cost_);
    servers_.save(out);
  }

  void load_state(StateReader& in) {
    count_ = in.i32();
    transfer_count_ = static_cast<std::size_t>(in.u64());
    billed_transfer_count_ = static_cast<std::size_t>(in.u64());
    last_time_ = in.f64();
    initial_intended_ = in.f64();
    storage_cost_ = in.f64();
    if (in.legacy() &&
        in.u64() != static_cast<std::uint64_t>(config_.num_servers)) {
      in.fail("recorder server count mismatch");
    }
    servers_.load(in, config_.num_servers);
    if (count_ < 1 || count_ > config_.num_servers) {
      in.fail("recorder copy count " + std::to_string(count_) +
              " out of range");
    }
  }

 private:
  /// One server's open copy segment; the defaults are an untouched
  /// server. `begin` outlives the copy: the record keeps the last one.
  struct Segment {
    bool holding = false;
    double begin = 0.0;
    double special_from = kInf;

    void save(StateWriter& out) const {
      EntryWriter fields(out);
      fields.boolean(holding);
      fields.f64(begin, 0.0);
      fields.f64(special_from, kInf);
      fields.end();
    }
    void load(StateReader& in) {
      if (in.legacy()) {
        holding = in.boolean();
        begin = in.f64();
        special_from = in.f64();
        return;
      }
      EntryReader fields(in);
      holding = fields.boolean();
      begin = fields.f64(0.0);
      special_from = fields.f64(kInf);
      fields.end();
    }
  };

  /// The segment of `server` if it holds a copy, else null.
  Segment* held(int server) {
    REPL_CHECK(server >= 0 && server < config_.num_servers);
    Segment* seg = servers_.find(server);
    return seg != nullptr && seg->holding ? seg : nullptr;
  }

  void check_time(double time) {
    REPL_CHECK_MSG(time >= last_time_,
                   "event times must be non-decreasing: " << time << " after "
                                                          << last_time_);
    last_time_ = time;
  }

  void close_segment(int server, Segment& seg, double end) {
    // Bill the segment's storage as it closes. `billing_horizon_` is +inf
    // until finish() pins it, and every in-run close happens at or before
    // the final request time, so capping here computes the same value the
    // final horizon would — in the same operation order as a post-hoc
    // sweep, keeping costs bit-identical to the pre-streaming code path.
    const double capped = std::min(end, billing_horizon_);
    if (capped > seg.begin) {
      storage_cost_ += config_.storage_rate(server) * (capped - seg.begin);
    }
    if (log_ != nullptr) {
      log_->segments.push_back(
          CopySegment{server, seg.begin, seg.special_from, end});
    }
    seg.special_from = kInf;
  }

  const SystemConfig& config_;
  EventLog* log_;
  double billing_horizon_ = kInf;
  ServerTable<Segment> servers_;
  int count_ = 0;
  std::size_t transfer_count_ = 0;
  std::size_t billed_transfer_count_ = 0;
  double storage_cost_ = 0.0;
  double last_time_ = 0.0;
  double initial_intended_ = std::numeric_limits<double>::quiet_NaN();
};

/// Validates before any member sizes containers from config fields.
const SystemConfig& validated(const SystemConfig& config) {
  config.validate();
  return config;
}

}  // namespace

/// What one run keeps between steps: the recorder's cost state, the
/// clock, and the two result fields nothing else derives (the local-serve
/// count and the r0 prediction). finish() assembles the SimulationResult,
/// names included; the event log exists only when recording.
struct OnlineSimulation::Impl {
  Impl(const SystemConfig& cfg, const SimulationOptions& opts,
       ReplicationPolicy& pol, Predictor& pred)
      : config(validated(cfg)),
        policy(pol),
        predictor(pred),
        log(opts.record_events ? std::make_unique<EventLog>() : nullptr),
        recorder(config, log.get()) {
    predictor.reset();
    initial_prediction = predictor.predict(PredictionQuery{
        -1, config.initial_server, 0.0, config.transfer_cost});
    policy.reset(config, initial_prediction, recorder);
  }

  const SystemConfig& config;
  ReplicationPolicy& policy;
  Predictor& predictor;
  std::unique_ptr<EventLog> log;
  Recorder recorder;
  std::size_t num_local = 0;
  /// The prediction issued for the dummy request r0.
  Prediction initial_prediction;
  std::size_t index = 0;
  double last_request_time = 0.0;
  bool finished = false;
};

OnlineSimulation::OnlineSimulation(const SystemConfig& config,
                                   const SimulationOptions& options,
                                   ReplicationPolicy& policy,
                                   Predictor& predictor)
    : impl_(std::make_unique<Impl>(config, options, policy, predictor)) {}

OnlineSimulation::~OnlineSimulation() = default;
OnlineSimulation::OnlineSimulation(OnlineSimulation&&) noexcept = default;
OnlineSimulation& OnlineSimulation::operator=(OnlineSimulation&&) noexcept =
    default;

void OnlineSimulation::step(int server, double time) {
  Impl& im = *impl_;
  REPL_CHECK(!im.finished);
  REPL_REQUIRE_MSG(server >= 0 && server < im.config.num_servers,
                   "request server " << server << " out of range");
  REPL_REQUIRE_MSG(time > 0.0 && time > im.last_request_time,
                   "request times must be strictly increasing and positive: "
                       << time << " after " << im.last_request_time);
  im.last_request_time = time;

  im.policy.advance_to(time, im.recorder);
  const Prediction pred = im.predictor.predict(PredictionQuery{
      static_cast<long>(im.index), server, time, im.config.transfer_cost});
  const std::size_t transfers_before = im.recorder.transfer_count();
  const ServeAction action =
      im.policy.on_request(server, time, pred, im.recorder);
  // Cross-check the action against the event stream.
  const std::size_t new_transfers =
      im.recorder.transfer_count() - transfers_before;
  REPL_CHECK(action.extra_transfers >= 0);
  REPL_CHECK_MSG(
      new_transfers ==
          (action.local ? 0u : 1u) +
              static_cast<std::size_t>(action.extra_transfers),
      "serve action inconsistent with emitted transfers");
  if (action.local) ++im.num_local;

  if (im.log) {
    ServeRecord record;
    record.index = im.index;
    record.server = server;
    record.time = time;
    record.local = action.local;
    record.source = action.source;
    record.source_special = action.source_special;
    record.special_since = action.special_since;
    record.intended_duration = action.intended_duration;
    record.prediction = pred;
    im.log->serves.push_back(record);
  }
  ++im.index;
}

void OnlineSimulation::reserve(std::size_t num_requests) {
  if (impl_->log) impl_->log->serves.reserve(num_requests);
}

std::size_t OnlineSimulation::steps() const { return impl_->index; }

double OnlineSimulation::last_time() const {
  return impl_->last_request_time;
}

void OnlineSimulation::save_state(StateWriter& out) const {
  const Impl& im = *impl_;
  out.str(im.policy.name());
  out.str(im.predictor.name());
  // Config cross-checks: every component below prices against the same
  // SystemConfig, so a snapshot restored under a different λ, initial
  // server, or storage-rate vector must be rejected, not silently
  // continued with diverging durations/costs.
  out.f64(im.config.transfer_cost);
  out.i32(im.config.initial_server);
  for (int s = 0; s < im.config.num_servers; ++s) {
    out.f64(im.config.storage_rate(s));
  }
  save_record(out);
}

void OnlineSimulation::load_state(StateReader& in) {
  const Impl& im = *impl_;
  const std::string policy_name = in.str();
  const std::string predictor_name = in.str();
  expect_components(policy_name, predictor_name, in);
  if (in.f64() != im.config.transfer_cost) {
    in.fail("transfer cost (lambda) mismatch");
  }
  if (in.i32() != im.config.initial_server) {
    in.fail("initial server mismatch");
  }
  for (int s = 0; s < im.config.num_servers; ++s) {
    if (in.f64() != im.config.storage_rate(s)) {
      in.fail("storage rate mismatch at server " + std::to_string(s));
    }
  }
  load_record(in);
}

void OnlineSimulation::expect_components(const std::string& policy_name,
                                         const std::string& predictor_name,
                                         const StateReader& in) const {
  const Impl& im = *impl_;
  if (policy_name != im.policy.name()) {
    in.fail("policy mismatch: snapshot has '" + policy_name + "', have '" +
            im.policy.name() + "'");
  }
  if (predictor_name != im.predictor.name()) {
    in.fail("predictor mismatch: snapshot has '" + predictor_name +
            "', have '" + im.predictor.name() + "'");
  }
}

void OnlineSimulation::save_record(StateWriter& out) const {
  const Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "save_state after finish()");
  out.u64(static_cast<std::uint64_t>(im.index));
  out.f64(im.last_request_time);
  out.u64(static_cast<std::uint64_t>(im.num_local));
  out.boolean(im.initial_prediction.within_lambda);
  im.recorder.save_state(out);
  im.policy.save_state(out);
  im.predictor.save_state(out);
}

void OnlineSimulation::load_record(StateReader& in) {
  Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "load_state after finish()");
  REPL_CHECK_MSG(im.index == 0,
                 "load_state requires a freshly constructed simulation");
  im.index = static_cast<std::size_t>(in.u64());
  im.last_request_time = in.f64();
  im.num_local = static_cast<std::size_t>(in.u64());
  im.initial_prediction.within_lambda = in.boolean();
  im.recorder.load_state(in);
  im.policy.load_state(in);
  im.predictor.load_state(in);
  // The log restarts empty: a restored run reports post-restore events.
  if (im.log) {
    im.log->segments.clear();
    im.log->transfers.clear();
  }
}

SimulationResult OnlineSimulation::finish() {
  Impl& im = *impl_;
  REPL_CHECK_MSG(!im.finished, "OnlineSimulation::finish() called twice");
  im.finished = true;

  const double lambda = im.config.transfer_cost;
  const double horizon = im.last_request_time;
  im.recorder.set_billing_horizon(horizon);

  // Flush pending expiries past the horizon so the post-trace segments
  // (needed by the Proposition-2 allocation analysis) are materialized.
  // The flush window is bounded because some policies (e.g. Wang et al.'s
  // home renewal) re-arm expiries forever; two maximum TTLs past the end
  // is enough to expose every copy's fate under all implemented policies.
  double min_rate = 1.0;  // every server's rate when none are listed
  for (const double rate : im.config.storage_rates) {
    min_rate = std::min(min_rate, rate);
  }
  const double flush_time = horizon + 4.0 * lambda / min_rate + 1.0;
  im.policy.advance_to(flush_time, im.recorder);
  REPL_CHECK_MSG(im.policy.copy_count() == im.recorder.count(),
                 "policy copy count disagrees with event stream");
  REPL_CHECK(im.recorder.count() >= 1);

  im.recorder.finish();
  SimulationResult result;
  result.config = im.config;
  result.horizon = horizon;
  result.storage_cost = im.recorder.storage_cost();
  result.num_transfers = im.recorder.billed_transfer_count();
  result.transfer_cost = lambda * static_cast<double>(result.num_transfers);
  result.num_local = im.num_local;
  result.initial_intended_duration = im.recorder.initial_intended();
  result.initial_prediction = im.initial_prediction;
  if (im.log) {
    result.serves = std::move(im.log->serves);
    result.segments = std::move(im.log->segments);
    std::sort(result.segments.begin(), result.segments.end(),
              [](const CopySegment& a, const CopySegment& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.server < b.server;
              });
    result.transfers = std::move(im.log->transfers);
  }
  result.policy_name = im.policy.name();
  result.predictor_name = im.predictor.name();
  return result;
}

Simulator::Simulator(SystemConfig config, SimulationOptions options)
    : config_(std::move(config)), options_(options) {
  config_.validate();
}

SimulationResult Simulator::run(ReplicationPolicy& policy, const Trace& trace,
                                Predictor& predictor) const {
  REPL_REQUIRE_MSG(trace.num_servers() == config_.num_servers,
                   "trace has " << trace.num_servers()
                                << " servers, config expects "
                                << config_.num_servers);
  OnlineSimulation sim(config_, options_, policy, predictor);
  sim.reserve(trace.size());
  for (const Request& r : trace.requests()) sim.step(r.server, r.time);
  return sim.finish();
}

SimulationResult simulate(const SystemConfig& config,
                          ReplicationPolicy& policy, const Trace& trace,
                          Predictor& predictor, SimulationOptions options) {
  return Simulator(config, options).run(policy, trace, predictor);
}

}  // namespace repl
