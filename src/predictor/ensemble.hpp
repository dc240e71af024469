// Ensemble predictor: weighted-majority vote over several base
// predictors, in the spirit of the multiple-expert setting of Gollapudi
// and Panigrahi (ICML 2019) that the paper cites as related work. The
// weights can optionally adapt multiplicatively: after each observed
// outcome, experts that mispredicted the previous gap at the same server
// are down-weighted (classic weighted-majority updates).
//
// Adaptation is causal: a prediction issued at request r_i is scored only
// when the *next* request at the same server reveals the gap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/server_table.hpp"
#include "predictor/predictor.hpp"

namespace repl {

class EnsemblePredictor final : public Predictor {
 public:
  struct Config {
    /// Multiplicative penalty in (0, 1] applied to a wrong expert's
    /// weight; 1 disables adaptation (plain weighted vote).
    double penalty = 0.5;
  };

  /// Votes are kept as a bitmask, one bit per expert; the registry
  /// takes its limit on an ensemble's children from here.
  static constexpr std::size_t kMaxExperts = 16;

  /// Takes shared ownership of 1..kMaxExperts experts; initial weights
  /// default to 1.
  EnsemblePredictor(std::vector<std::shared_ptr<Predictor>> experts,
                    Config config);
  explicit EnsemblePredictor(
      std::vector<std::shared_ptr<Predictor>> experts)
      : EnsemblePredictor(std::move(experts), Config()) {}

  void reset() override;
  Prediction predict(const PredictionQuery& query) override;
  std::string name() const override;
  /// Weights, per-server pending votes, and each expert's own state (in
  /// expert order) — restore requires the same expert lineup.
  void save_state(StateWriter& out) const override;
  void load_state(StateReader& in) override;

  const std::vector<double>& weights() const { return weights_; }

 private:
  /// A server's last issued votes; the defaults are an untouched server.
  struct PendingVote {
    double time = -1.0;  // when the scored prediction was issued
    std::uint16_t votes = 0;  // bit e: expert e forecast "within"
    bool has_votes = false;

    void save(StateWriter& out) const;
    void load(StateReader& in);
  };

  /// The version-4 record: the expert count, then every server below
  /// the extent with its time and one vote per expert.
  void load_legacy(StateReader& in);

  std::vector<std::shared_ptr<Predictor>> experts_;
  Config config_;
  std::vector<double> weights_;
  /// Last issued per-expert votes per queried server, awaiting ground
  /// truth.
  ServerTable<PendingVote> pending_;
  /// Servers the checkpoint record lists: 0 before the first query, then
  /// at least 16 and past the highest queried server.
  std::uint32_t pending_extent_ = 0;
};

}  // namespace repl
