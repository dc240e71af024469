// Simulator tests: cost integration, horizon clipping, event recording,
// and invariant enforcement against deliberately broken policies.
#include <cmath>

#include <gtest/gtest.h>

#include "core/drwp.hpp"
#include "core/simulator.hpp"
#include "predictor/fixed.hpp"
#include "test_util.hpp"

namespace repl {
namespace {

using testing::make_config;

/// A policy that violates the at-least-one-copy requirement: it drops the
/// initial copy on the first expiry even when it is the only one.
class DropsOnlyCopyPolicy final : public ReplicationPolicy {
 public:
  void reset(const SystemConfig& config, const Prediction&,
             EventSink& sink) override {
    config_ = config;
    holds_ = true;
    dropped_at_ = config.transfer_cost;  // drop at time λ
    sink.on_create(config.initial_server, 0.0);
  }
  void advance_to(double time, EventSink& sink) override {
    if (holds_ && time > dropped_at_) {
      holds_ = false;
      sink.on_drop(config_.initial_server, dropped_at_);
    }
  }
  ServeAction on_request(int server, double, const Prediction&,
                         EventSink&) override {
    ServeAction a;
    a.local = true;
    a.source = server;
    return a;
  }
  double next_transition_time() const override {
    return holds_ ? dropped_at_ : std::numeric_limits<double>::infinity();
  }
  bool holds(int server) const override {
    return holds_ && server == config_.initial_server;
  }
  int copy_count() const override { return holds_ ? 1 : 0; }
  std::string name() const override { return "drops-only-copy"; }
  std::unique_ptr<ReplicationPolicy> clone() const override {
    return std::make_unique<DropsOnlyCopyPolicy>(*this);
  }

 private:
  SystemConfig config_;
  bool holds_ = false;
  double dropped_at_ = 0.0;
};

/// A policy that claims a local serve without holding a copy (and emits
/// no transfer): the simulator must flag the inconsistency.
class LiesAboutLocalPolicy final : public ReplicationPolicy {
 public:
  void reset(const SystemConfig& config, const Prediction&,
             EventSink& sink) override {
    config_ = config;
    sink.on_create(config.initial_server, 0.0);
  }
  void advance_to(double, EventSink&) override {}
  ServeAction on_request(int server, double, const Prediction&,
                         EventSink&) override {
    ServeAction a;
    a.local = server == config_.initial_server;
    if (!a.local) a.source = config_.initial_server;  // but no transfer!
    return a;
  }
  double next_transition_time() const override {
    return std::numeric_limits<double>::infinity();
  }
  bool holds(int server) const override {
    return server == config_.initial_server;
  }
  int copy_count() const override { return 1; }
  std::string name() const override { return "lies-about-local"; }
  std::unique_ptr<ReplicationPolicy> clone() const override {
    return std::make_unique<LiesAboutLocalPolicy>(*this);
  }

 private:
  SystemConfig config_;
};

TEST(Simulator, RejectsServerCountMismatch) {
  const SystemConfig config = make_config(3, 1.0);
  const Trace trace(2, {{1.0, 1}});
  DrwpPolicy policy(0.5);
  FixedPredictor beyond = always_beyond_predictor();
  EXPECT_THROW(Simulator(config).run(policy, trace, beyond),
               std::invalid_argument);
}

TEST(Simulator, DetectsAtLeastOneCopyViolation) {
  const SystemConfig config = make_config(2, 1.0);
  const Trace trace(2, {{5.0, 0}});
  DropsOnlyCopyPolicy policy;
  FixedPredictor beyond = always_beyond_predictor();
  EXPECT_THROW(Simulator(config).run(policy, trace, beyond), CheckFailure);
}

TEST(Simulator, DetectsServeActionInconsistency) {
  const SystemConfig config = make_config(2, 1.0);
  const Trace trace(2, {{5.0, 1}});  // request at the non-holding server
  LiesAboutLocalPolicy policy;
  FixedPredictor beyond = always_beyond_predictor();
  EXPECT_THROW(Simulator(config).run(policy, trace, beyond), CheckFailure);
}

TEST(Simulator, StorageClippedAtHorizon) {
  // One request; default horizon is its time, so storage counts [0, t1]
  // only even though copies live longer.
  const SystemConfig config = make_config(1, 10.0);
  const Trace trace(1, {{3.0, 0}});
  DrwpPolicy policy(0.5);
  FixedPredictor beyond = always_beyond_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);
  EXPECT_DOUBLE_EQ(result.horizon, 3.0);
  EXPECT_DOUBLE_EQ(result.storage_cost, 3.0);
  EXPECT_DOUBLE_EQ(result.transfer_cost, 0.0);
}

TEST(Simulator, WeightedStorageRates) {
  SystemConfig config = make_config(2, 10.0);
  config.storage_rates = {2.0, 0.5};
  const Trace trace(2, {{4.0, 1}});
  DrwpPolicy policy(0.5);
  FixedPredictor within = always_within_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, within);
  // s0 holds [0,4] at rate 2 => 8; s1 gets its copy at t=4 (no storage
  // before the horizon). One transfer of cost 10.
  EXPECT_DOUBLE_EQ(result.storage_cost, 8.0);
  EXPECT_DOUBLE_EQ(result.transfer_cost, 10.0);
}

TEST(Simulator, RecordsServesAndTransfers) {
  const SystemConfig config = make_config(2, 4.0);
  const Trace trace(2, {{1.0, 1}, {2.0, 0}, {9.0, 1}});
  DrwpPolicy policy(0.5);
  FixedPredictor beyond = always_beyond_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);
  ASSERT_EQ(result.serves.size(), 3u);
  EXPECT_EQ(result.serves[0].index, 0u);
  EXPECT_EQ(result.serves[0].server, 1);
  EXPECT_FALSE(result.serves[0].local);
  EXPECT_EQ(result.serves[0].source, 0);
  EXPECT_TRUE(result.serves[1].local);
  ASSERT_EQ(result.transfers.size(), 2u);
  EXPECT_EQ(result.transfers[0].src, 0);
  EXPECT_EQ(result.transfers[0].dst, 1);
  EXPECT_DOUBLE_EQ(result.transfers[0].time, 1.0);
  EXPECT_EQ(result.policy_name, "drwp(alpha=0.5)");
  EXPECT_EQ(result.predictor_name, "always-beyond");
  EXPECT_DOUBLE_EQ(result.initial_intended_duration, 2.0);
}

TEST(Simulator, RecordEventsOffStillCosts) {
  const SystemConfig config = make_config(2, 4.0);
  const Trace trace(2, {{1.0, 1}, {2.0, 0}, {9.0, 1}});
  FixedPredictor beyond = always_beyond_predictor();
  DrwpPolicy a(0.5), b(0.5);
  SimulationOptions lean;
  lean.record_events = false;
  const SimulationResult full = Simulator(config).run(a, trace, beyond);
  const SimulationResult slim =
      Simulator(config, lean).run(b, trace, beyond);
  EXPECT_DOUBLE_EQ(full.total_cost(), slim.total_cost());
  EXPECT_TRUE(slim.serves.empty());
  EXPECT_TRUE(slim.segments.empty());
}

TEST(Simulator, SegmentsSortedAndConsistent) {
  const SystemConfig config = make_config(4, 20.0);
  const Trace trace = testing::random_trace(4, 0.05, 2000.0, 41);
  DrwpPolicy policy(0.4);
  FixedPredictor beyond = always_beyond_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);
  ASSERT_FALSE(result.segments.empty());
  double prev_begin = 0.0;
  std::size_t infinite = 0;
  for (const CopySegment& seg : result.segments) {
    EXPECT_GE(seg.begin, prev_begin);
    prev_begin = seg.begin;
    EXPECT_GT(seg.end, seg.begin);
    if (std::isinf(seg.end)) ++infinite;
    if (std::isfinite(seg.special_from)) {
      EXPECT_GE(seg.special_from, seg.begin);
      EXPECT_LE(seg.special_from, seg.end);
    }
  }
  // Exactly one copy survives forever (the final special copy).
  EXPECT_EQ(infinite, 1u);
}

TEST(Simulator, EmptyTraceCostsNothing) {
  const SystemConfig config = make_config(2, 4.0);
  const Trace trace(2, {});
  DrwpPolicy policy(0.5);
  FixedPredictor beyond = always_beyond_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);
  EXPECT_DOUBLE_EQ(result.total_cost(), 0.0);
  EXPECT_EQ(result.num_transfers, 0u);
}

TEST(Simulator, InitialServerConfigurable) {
  SystemConfig config = make_config(3, 4.0);
  config.initial_server = 2;
  const Trace trace(3, {{1.0, 2}});
  DrwpPolicy policy(0.5);
  FixedPredictor beyond = always_beyond_predictor();
  const SimulationResult result =
      Simulator(config).run(policy, trace, beyond);
  EXPECT_EQ(result.num_local, 1u);
  EXPECT_EQ(result.num_transfers, 0u);
}

}  // namespace
}  // namespace repl
