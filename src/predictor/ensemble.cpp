#include "predictor/ensemble.hpp"

#include "util/check.hpp"
#include "util/format.hpp"

namespace repl {

EnsemblePredictor::EnsemblePredictor(
    std::vector<std::shared_ptr<Predictor>> experts, Config config)
    : experts_(std::move(experts)), config_(config) {
  REPL_REQUIRE_MSG(!experts_.empty(), "ensemble needs at least one expert");
  for (const auto& expert : experts_) REPL_REQUIRE(expert != nullptr);
  REPL_REQUIRE(config.penalty > 0.0 && config.penalty <= 1.0);
  weights_.assign(experts_.size(), 1.0);
}

void EnsemblePredictor::reset() {
  for (auto& expert : experts_) expert->reset();
  weights_.assign(experts_.size(), 1.0);
  pending_.clear();
}

Prediction EnsemblePredictor::predict(const PredictionQuery& query) {
  if (pending_.empty()) {
    // Sized lazily: server ids are discovered from queries.
    pending_.resize(16);
  }
  if (static_cast<std::size_t>(query.server) >= pending_.size()) {
    pending_.resize(static_cast<std::size_t>(query.server) + 1);
  }

  // Score the pending votes for this server: the gap since the previous
  // prediction is now known.
  PendingVote& pending = pending_[static_cast<std::size_t>(query.server)];
  if (config_.penalty < 1.0 && pending.time >= 0.0) {
    const bool truth_within = (query.time - pending.time) <= query.lambda;
    for (std::size_t e = 0; e < experts_.size(); ++e) {
      if (pending.votes[e] != truth_within) {
        weights_[e] *= config_.penalty;
      }
    }
    // Keep weights away from total collapse (renormalize to max 1).
    double max_weight = 0.0;
    for (double w : weights_) max_weight = std::max(max_weight, w);
    REPL_CHECK(max_weight > 0.0);
    for (double& w : weights_) w /= max_weight;
  }

  // Collect fresh votes and take the weighted majority.
  std::vector<bool> votes(experts_.size());
  double within_weight = 0.0, beyond_weight = 0.0;
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    const bool vote = experts_[e]->predict(query).within_lambda;
    votes[e] = vote;
    (vote ? within_weight : beyond_weight) += weights_[e];
  }
  pending.time = query.time;
  pending.votes = std::move(votes);
  return Prediction{within_weight > beyond_weight};
}

void EnsemblePredictor::save_state(StateWriter& out) const {
  out.u64(static_cast<std::uint64_t>(experts_.size()));
  for (const double w : weights_) out.f64(w);
  out.u64(static_cast<std::uint64_t>(pending_.size()));
  for (const PendingVote& pending : pending_) {
    out.f64(pending.time);
    out.u64(static_cast<std::uint64_t>(pending.votes.size()));
    for (const bool vote : pending.votes) out.boolean(vote);
  }
  for (const auto& expert : experts_) expert->save_state(out);
}

void EnsemblePredictor::load_state(StateReader& in) {
  if (in.u64() != experts_.size()) {
    in.fail("ensemble expert count mismatch");
  }
  for (double& w : weights_) w = in.f64();
  pending_.assign(static_cast<std::size_t>(in.u64()), PendingVote{});
  for (PendingVote& pending : pending_) {
    pending.time = in.f64();
    // A scored entry always carries one vote per expert; anything else is
    // corruption, and predict() would index votes out of bounds.
    const std::uint64_t num_votes = in.u64();
    if (num_votes != 0 && num_votes != experts_.size()) {
      in.fail("ensemble pending vote count " + std::to_string(num_votes) +
              " != expert count " + std::to_string(experts_.size()));
    }
    if (pending.time >= 0.0 && num_votes != experts_.size()) {
      in.fail("ensemble pending entry has a timestamp but no votes");
    }
    pending.votes.resize(static_cast<std::size_t>(num_votes));
    for (std::size_t v = 0; v < pending.votes.size(); ++v) {
      pending.votes[v] = in.boolean();
    }
  }
  for (const auto& expert : experts_) expert->load_state(in);
}

std::string EnsemblePredictor::name() const {
  std::string name =
      "ensemble(" + std::to_string(experts_.size()) + " experts";
  if (config_.penalty < 1.0) {
    name += ", penalty=" + format_general(config_.penalty);
  }
  return name + ")";
}

}  // namespace repl
