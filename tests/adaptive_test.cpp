// Tests for the Section-8 machinery: the OnlineCostEstimator and the
// adapted Algorithm 1 with bounded robustness 2 + beta.
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/ratio.hpp"
#include "core/adaptive_drwp.hpp"
#include "core/online_estimator.hpp"
#include "core/simulator.hpp"
#include "offline/opt_dp.hpp"
#include "offline/opt_lower_bound.hpp"
#include "predictor/fixed.hpp"
#include "predictor/noisy.hpp"
#include "predictor/oracle.hpp"
#include "test_util.hpp"
#include "trace/paper_instances.hpp"

namespace repl {
namespace {

using testing::make_config;

/// Feeds a DRWP run into a standalone estimator and returns it.
OnlineCostEstimator replay_into_estimator(const SystemConfig& config,
                                          const Trace& trace,
                                          const SimulationResult& result) {
  OnlineCostEstimator estimator(config);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ServeRecord& serve = result.serves[i];
    const int p = trace.prev_same_server(i);
    double prev_intended = std::numeric_limits<double>::quiet_NaN();
    double prev_time = std::numeric_limits<double>::quiet_NaN();
    if (p >= 0) {
      prev_intended =
          result.serves[static_cast<std::size_t>(p)].intended_duration;
      prev_time = trace[static_cast<std::size_t>(p)].time;
    } else if (serve.server == config.initial_server) {
      prev_intended = result.initial_intended_duration;
      prev_time = 0.0;
    }
    estimator.record(serve.server, serve.time, serve.local,
                     serve.source_special, serve.special_since,
                     prev_intended, prev_time);
  }
  return estimator;
}

TEST(OnlineEstimator, OptLMatchesClosedForm) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Trace trace = testing::random_trace(5, 0.05, 3000.0, seed + 20);
    if (trace.empty()) continue;
    const SystemConfig config = make_config(5, 18.0);
    FixedPredictor beyond = always_beyond_predictor();
    const SimulationResult result =
        testing::run_drwp(config, trace, 0.5, beyond);
    const OnlineCostEstimator estimator =
        replay_into_estimator(config, trace, result);
    EXPECT_NEAR(estimator.opt_lower_bound(),
                opt_lower_bound(config, trace),
                1e-9 * std::max(1.0, estimator.opt_lower_bound()))
        << "seed=" << seed;
  }
}

TEST(OnlineEstimator, OnlineUpperBoundsMeasuredCost) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Trace trace = testing::random_trace(5, 0.05, 3000.0, seed + 40);
    if (trace.empty()) continue;
    const SystemConfig config = make_config(5, 18.0);
    AccuracyPredictor noisy(trace, 0.4, seed);
    const SimulationResult result =
        testing::run_drwp(config, trace, 0.3, noisy);
    const OnlineCostEstimator estimator =
        replay_into_estimator(config, trace, result);
    // OnlineU = allocated + 2λn' is a genuine upper bound on the measured
    // (horizon-clipped) cost.
    EXPECT_GE(estimator.online_upper_bound(), result.total_cost() - 1e-6)
        << "seed=" << seed;
  }
}

TEST(OnlineEstimator, RatioInfiniteBeforeRequests) {
  const SystemConfig config = make_config(2, 10.0);
  OnlineCostEstimator estimator(config);
  EXPECT_TRUE(std::isinf(estimator.ratio_bound()));
  EXPECT_EQ(estimator.requests_seen(), 0u);
}

TEST(AdaptiveDrwp, RejectsNegativeBeta) {
  AdaptiveDrwpPolicy::Options options;
  options.beta = -0.1;
  EXPECT_THROW(AdaptiveDrwpPolicy(0.2, options), std::invalid_argument);
}

TEST(AdaptiveDrwp, MatchesPlainDrwpDuringWarmup) {
  const Trace trace = testing::random_trace(4, 0.05, 3000.0, 61);
  const SystemConfig config = make_config(4, 20.0);
  AdaptiveDrwpPolicy::Options options;
  options.beta = 0.0;
  options.warmup_requests = trace.size();  // warm-up covers everything
  AdaptiveDrwpPolicy adaptive(0.3, options);
  DrwpPolicy plain(0.3);
  AccuracyPredictor noisy_a(trace, 0.5, 5);
  AccuracyPredictor noisy_b(trace, 0.5, 5);
  const double a =
      Simulator(config).run(adaptive, trace, noisy_a).total_cost();
  const double b =
      Simulator(config).run(plain, trace, noisy_b).total_cost();
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_EQ(adaptive.fallback_count(), 0u);
}

TEST(AdaptiveDrwp, FallsBackUnderAdversarialPredictions) {
  // On the Figure-5 instance with always-"beyond" (wrong) predictions,
  // plain DRWP's ratio approaches 1 + 1/alpha; the adapted variant must
  // detect the degradation and clamp near 2 + beta.
  const double lambda = 50.0, alpha = 0.2;
  const double eps = alpha * lambda * 1e-2;
  const int m = 600;
  const SystemConfig config = make_config(2, lambda);
  const Trace trace = make_figure5_trace(alpha, lambda, m, eps);
  FixedPredictor beyond = always_beyond_predictor();
  const double opt = optimal_offline_cost(config, trace);

  DrwpPolicy plain(alpha);
  const double plain_ratio =
      evaluate_policy(config, plain, trace, beyond, opt).ratio;
  EXPECT_GT(plain_ratio, 4.0);  // 1 + 1/0.2 = 6, approached from below

  AdaptiveDrwpPolicy::Options options;
  options.beta = 0.1;
  options.warmup_requests = 50;
  AdaptiveDrwpPolicy adaptive(alpha, options);
  const double adaptive_ratio =
      evaluate_policy(config, adaptive, trace, beyond, opt).ratio;
  EXPECT_GT(adaptive.fallback_count(), 0u);
  // The fallback cannot beat the conventional policy's own behaviour on
  // this instance, but must stay well below the unbounded-alpha blowup
  // and within the paper's 2+beta target up to the warm-up transient.
  EXPECT_LT(adaptive_ratio, plain_ratio * 0.75);
  EXPECT_LE(adaptive_ratio, 2.0 + options.beta + 0.5);
}

TEST(AdaptiveDrwp, KeepsConsistencyUnderPerfectPredictions) {
  // With an oracle, the monitor should rarely trip; the adapted variant
  // keeps (close to) the plain algorithm's advantage.
  const Trace trace = testing::random_trace(5, 0.05, 5000.0, 67);
  const SystemConfig config = make_config(5, 25.0);
  const double opt = optimal_offline_cost(config, trace);
  OraclePredictor oracle_a(trace), oracle_b(trace);
  DrwpPolicy plain(0.2);
  AdaptiveDrwpPolicy::Options options;
  options.beta = 1.0;
  options.warmup_requests = 20;
  AdaptiveDrwpPolicy adaptive(0.2, options);
  const double plain_ratio =
      evaluate_policy(config, plain, trace, oracle_a, opt).ratio;
  const double adaptive_ratio =
      evaluate_policy(config, adaptive, trace, oracle_b, opt).ratio;
  EXPECT_LE(adaptive_ratio, consistency_bound(0.2) + 1e-9);
  EXPECT_NEAR(adaptive_ratio, plain_ratio, 0.35);
}

TEST(AdaptiveDrwp, RobustnessBoundAcrossSeeds) {
  // The adapted algorithm's measured ratio stays within the plain
  // robustness bound and, empirically on these workloads, within
  // 2 + beta + transient slack even under the worst predictor.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Trace trace = testing::random_trace(5, 0.05, 4000.0, seed + 90);
    if (trace.empty()) continue;
    const SystemConfig config = make_config(5, 20.0);
    AdversarialPredictor wrong(trace);
    AdaptiveDrwpPolicy::Options options;
    options.beta = 0.5;
    options.warmup_requests = 30;
    AdaptiveDrwpPolicy adaptive(0.1, options);
    const RatioReport report =
        evaluate_policy(config, adaptive, trace, wrong);
    EXPECT_LE(report.ratio, robustness_bound(0.1) + 1e-9);
    EXPECT_LE(report.ratio, 2.0 + 0.5 + 1.0) << "seed=" << seed;
  }
}

TEST(AdaptiveDrwp, CloneCarriesMonitorState) {
  const SystemConfig config = make_config(2, 10.0);
  AdaptiveDrwpPolicy::Options options;
  options.warmup_requests = 0;
  AdaptiveDrwpPolicy policy(0.5, options);
  NullEventSink sink;
  policy.reset(config, Prediction{false}, sink);
  policy.advance_to(100.0, sink);
  policy.on_request(1, 100.0, Prediction{false}, sink);
  auto clone = policy.clone();
  auto* cloned = dynamic_cast<AdaptiveDrwpPolicy*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_DOUBLE_EQ(cloned->monitored_ratio(), policy.monitored_ratio());
}

/// The monitor's OnlineU charges 2λ per seen server from the stored
/// count, so a record whose count disagrees with its seen set must not
/// restore: the resumed policy's fallback decisions would diverge.
TEST(AdaptiveDrwp, RestoreRejectsASeenCountThatDisagreesWithItsSet) {
  const SystemConfig config = make_config(4, 10.0);
  AdaptiveDrwpPolicy::Options options;
  options.warmup_requests = 0;
  NullEventSink sink;
  AdaptiveDrwpPolicy policy(0.5, options);
  policy.reset(config, Prediction{false}, sink);
  policy.advance_to(3.0, sink);
  policy.on_request(1, 3.0, Prediction{false}, sink);
  policy.advance_to(5.0, sink);
  policy.on_request(2, 5.0, Prediction{true}, sink);  // seen: 0, 1, 2
  StateWriter out;
  policy.save_state(out);
  std::vector<unsigned char> bytes = out.release();

  const auto restore = [&](const std::vector<unsigned char>& record) {
    AdaptiveDrwpPolicy restored(0.5, options);
    restored.reset(config, Prediction{false}, sink);
    StateReader in(record.data(), record.size(), "adaptive");
    restored.load_state(in);
    in.expect_end();
    return restored.monitored_ratio();
  };
  EXPECT_EQ(restore(bytes), policy.monitored_ratio());

  // The estimator's record ends with the seen count, the request count
  // and the seen set: its size, then each seen server's id and flag.
  const std::size_t set_at = bytes.size() - (1 + 3 * 2);
  const std::size_t count_at = set_at - 2 * 8;
  ASSERT_EQ(bytes[count_at], 3);
  ASSERT_EQ(bytes[set_at], 3);
  bytes[count_at] = 2;
  EXPECT_THROW(restore(bytes), std::runtime_error);
  bytes[count_at] = 3;
  bytes[set_at] = 4;  // server 3 seen, count still 3
  bytes.push_back(3);
  bytes.push_back(1);
  EXPECT_THROW(restore(bytes), std::runtime_error);
}

TEST(AdaptiveDrwp, NameReflectsParameters) {
  AdaptiveDrwpPolicy::Options options;
  options.beta = 0.25;
  AdaptiveDrwpPolicy policy(0.5, options);
  EXPECT_EQ(policy.name(), "adaptive-drwp(alpha=0.5,beta=0.25)");
}

}  // namespace
}  // namespace repl
