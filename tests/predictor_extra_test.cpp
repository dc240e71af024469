// Tests for the additional predictors (ensemble, last-gap) and the trace
// transformation utilities, including the scale-invariance property of
// competitive ratios.
#include <memory>

#include <gtest/gtest.h>

#include "analysis/ratio.hpp"
#include "core/drwp.hpp"
#include "offline/opt_dp.hpp"
#include "predictor/ensemble.hpp"
#include "predictor/fixed.hpp"
#include "predictor/last_gap.hpp"
#include "predictor/noisy.hpp"
#include "predictor/oracle.hpp"
#include "test_util.hpp"
#include "trace/trace_ops.hpp"

namespace repl {
namespace {

using testing::make_config;

double measure_accuracy(const Trace& trace, Predictor& predictor,
                        double lambda) {
  predictor.reset();
  std::size_t correct = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    PredictionQuery query{static_cast<long>(i), trace[i].server,
                          trace[i].time, lambda};
    correct += predictor.predict(query).within_lambda ==
               next_gap_within_lambda(trace, i, lambda);
  }
  return static_cast<double>(correct) / static_cast<double>(trace.size());
}

TEST(Ensemble, UnanimousExpertsPassThrough) {
  const Trace trace = testing::random_trace(4, 0.05, 2000.0, 301);
  std::vector<std::shared_ptr<Predictor>> experts;
  experts.push_back(std::make_shared<OraclePredictor>(trace));
  experts.push_back(std::make_shared<OraclePredictor>(trace));
  EnsemblePredictor ensemble(std::move(experts));
  EXPECT_DOUBLE_EQ(measure_accuracy(trace, ensemble, 20.0), 1.0);
}

TEST(Ensemble, MajorityOverrulesMinority) {
  const Trace trace = testing::random_trace(4, 0.05, 2000.0, 303);
  std::vector<std::shared_ptr<Predictor>> experts;
  experts.push_back(std::make_shared<OraclePredictor>(trace));
  experts.push_back(std::make_shared<OraclePredictor>(trace));
  experts.push_back(std::make_shared<AdversarialPredictor>(trace));
  EnsemblePredictor::Config config;
  config.penalty = 1.0;  // plain vote
  EnsemblePredictor ensemble(
      std::vector<std::shared_ptr<Predictor>>(experts), config);
  EXPECT_DOUBLE_EQ(measure_accuracy(trace, ensemble, 20.0), 1.0);
}

TEST(Ensemble, AdaptationDownWeightsBadExperts) {
  // One oracle vs two adversarial experts: a plain vote loses, but the
  // multiplicative update learns to trust the oracle.
  const Trace trace = testing::random_trace(4, 0.08, 30000.0, 305);
  ASSERT_GT(trace.size(), 500u);
  auto make_experts = [&] {
    std::vector<std::shared_ptr<Predictor>> experts;
    experts.push_back(std::make_shared<OraclePredictor>(trace));
    experts.push_back(std::make_shared<AdversarialPredictor>(trace));
    experts.push_back(std::make_shared<AdversarialPredictor>(trace));
    return experts;
  };
  EnsemblePredictor::Config plain;
  plain.penalty = 1.0;
  EnsemblePredictor voting(make_experts(), plain);
  EXPECT_LT(measure_accuracy(trace, voting, 20.0), 0.1);

  EnsemblePredictor::Config adapting;
  adapting.penalty = 0.5;
  EnsemblePredictor learner(make_experts(), adapting);
  EXPECT_GT(measure_accuracy(trace, learner, 20.0), 0.8);
  // The oracle ends with the dominant weight.
  EXPECT_DOUBLE_EQ(learner.weights()[0], 1.0);
  EXPECT_LT(learner.weights()[1], 0.01);
}

TEST(Ensemble, RejectsBadConfig) {
  const Trace trace(1, {{1.0, 0}});
  std::vector<std::shared_ptr<Predictor>> experts;
  EXPECT_THROW(EnsemblePredictor{std::move(experts)},
               std::invalid_argument);
  std::vector<std::shared_ptr<Predictor>> one;
  one.push_back(std::make_shared<OraclePredictor>(trace));
  EnsemblePredictor::Config bad;
  bad.penalty = 0.0;
  EXPECT_THROW(EnsemblePredictor(std::move(one), bad),
               std::invalid_argument);
  // Votes are one bit per expert.
  std::vector<std::shared_ptr<Predictor>> many(
      EnsemblePredictor::kMaxExperts + 1,
      std::make_shared<OraclePredictor>(trace));
  EXPECT_THROW(EnsemblePredictor{std::move(many)}, std::invalid_argument);
}

TEST(LastGap, PredictsPreviousClass) {
  LastGapPredictor predictor(1);
  const double lambda = 10.0;
  PredictionQuery q{0, 0, 1.0, lambda};
  EXPECT_FALSE(predictor.predict(q).within_lambda);  // default beyond
  q.time = 4.0;                                      // gap 3 <= 10
  EXPECT_TRUE(predictor.predict(q).within_lambda);
  q.time = 100.0;  // gap 96 > 10
  EXPECT_FALSE(predictor.predict(q).within_lambda);
  q.time = 105.0;  // gap 5 <= 10
  EXPECT_TRUE(predictor.predict(q).within_lambda);
}

TEST(LastGap, AccurateOnStronglyAutocorrelatedTraces) {
  // Periodic per-server gaps: after the first observation every forecast
  // is correct except the final one per server (no next request).
  const Trace trace = generate_periodic_trace(
      2, /*periods=*/{3.0, 40.0}, /*offsets=*/{1.0, 2.0},
      /*horizon=*/400.0);
  LastGapPredictor predictor(2);
  EXPECT_GT(measure_accuracy(trace, predictor, 10.0), 0.95);
}

TEST(TraceOps, SliceShiftsAndFilters) {
  const Trace trace(2, {{1.0, 0}, {5.0, 1}, {9.0, 0}, {12.0, 1}});
  const Trace sliced = slice_trace(trace, 4.0, 10.0);
  ASSERT_EQ(sliced.size(), 2u);
  EXPECT_DOUBLE_EQ(sliced[0].time, 1.0);  // 5 - 4
  EXPECT_EQ(sliced[0].server, 1);
  EXPECT_DOUBLE_EQ(sliced[1].time, 5.0);  // 9 - 4
}

TEST(TraceOps, MergeInterleavesByTime) {
  const Trace a(2, {{1.0, 0}, {5.0, 0}});
  const Trace b(2, {{2.0, 1}, {5.0, 1}});
  const Trace merged = merge_traces(a, b);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].server, 0);
  EXPECT_EQ(merged[1].server, 1);
  // The 5.0 tie was nudged, preserving validity.
  EXPECT_GT(merged[3].time, merged[2].time);
  EXPECT_THROW(merge_traces(a, Trace(3, {})), std::invalid_argument);
}

TEST(TraceOps, RemapServers) {
  const Trace trace(3, {{1.0, 0}, {2.0, 2}});
  const Trace remapped = remap_servers(trace, {1, 0, 0}, 2);
  EXPECT_EQ(remapped[0].server, 1);
  EXPECT_EQ(remapped[1].server, 0);
  EXPECT_THROW(remap_servers(trace, {5, 0, 0}, 2), std::invalid_argument);
}

TEST(TraceOps, ThinKeepsEveryKth) {
  const Trace trace(1, {{1.0, 0}, {2.0, 0}, {3.0, 0}, {4.0, 0}, {5.0, 0}});
  const Trace thinned = thin_trace(trace, 2);
  ASSERT_EQ(thinned.size(), 3u);
  EXPECT_DOUBLE_EQ(thinned[1].time, 3.0);
}

TEST(TraceOps, TimeScaleInvarianceOfRatios) {
  // Scaling all times and λ by the same factor scales every cost
  // linearly, leaving competitive ratios exactly unchanged — a strong
  // consistency check across trace, policy, simulator and DP.
  const Trace trace = testing::random_trace(4, 0.05, 2000.0, 307);
  const double factor = 7.5;
  const Trace scaled = scale_time(trace, factor);
  const SystemConfig config = make_config(4, 20.0);
  SystemConfig scaled_config = make_config(4, 20.0 * factor);
  FixedPredictor beyond = always_beyond_predictor();
  DrwpPolicy policy_a(0.35), policy_b(0.35);
  const RatioReport original =
      evaluate_policy(config, policy_a, trace, beyond);
  const RatioReport rescaled =
      evaluate_policy(scaled_config, policy_b, scaled, beyond);
  EXPECT_NEAR(original.ratio, rescaled.ratio, 1e-9);
  EXPECT_NEAR(rescaled.online_cost, original.online_cost * factor,
              1e-6 * original.online_cost);
}

}  // namespace
}  // namespace repl
