#include "predictor/ensemble.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"
#include "util/format.hpp"

namespace repl {

EnsemblePredictor::EnsemblePredictor(
    std::vector<std::shared_ptr<Predictor>> experts, Config config)
    : experts_(std::move(experts)), config_(config) {
  REPL_REQUIRE_MSG(!experts_.empty(), "ensemble needs at least one expert");
  REPL_REQUIRE_MSG(experts_.size() <= kMaxExperts,
                   "ensemble takes at most " << kMaxExperts << " experts, got "
                                             << experts_.size());
  for (const auto& expert : experts_) REPL_REQUIRE(expert != nullptr);
  REPL_REQUIRE(config.penalty > 0.0 && config.penalty <= 1.0);
  weights_.assign(experts_.size(), 1.0);
}

void EnsemblePredictor::reset() {
  for (auto& expert : experts_) expert->reset();
  weights_.assign(experts_.size(), 1.0);
  pending_.clear();
  pending_extent_ = 0;
}

Prediction EnsemblePredictor::predict(const PredictionQuery& query) {
  REPL_REQUIRE(query.server >= 0);
  // Server ids are discovered from queries.
  if (pending_extent_ == 0) pending_extent_ = 16;
  const auto server = static_cast<std::uint32_t>(query.server);
  if (server >= pending_extent_) pending_extent_ = server + 1;

  // Score the pending votes for this server: the gap since the previous
  // prediction is now known.
  PendingVote& pending =
      pending_.touch(query.server, static_cast<int>(pending_extent_));
  if (config_.penalty < 1.0 && pending.time >= 0.0) {
    const bool truth_within = (query.time - pending.time) <= query.lambda;
    for (std::size_t e = 0; e < experts_.size(); ++e) {
      const bool voted_within = ((unsigned{pending.votes} >> e) & 1u) != 0;
      if (voted_within != truth_within) weights_[e] *= config_.penalty;
    }
    // Keep weights away from total collapse (renormalize to max 1).
    double max_weight = 0.0;
    for (double w : weights_) max_weight = std::max(max_weight, w);
    REPL_CHECK(max_weight > 0.0);
    for (double& w : weights_) w /= max_weight;
  }

  // Collect fresh votes and take the weighted majority.
  unsigned votes = 0;
  double within_weight = 0.0, beyond_weight = 0.0;
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    const bool vote = experts_[e]->predict(query).within_lambda;
    if (vote) votes |= 1u << e;
    (vote ? within_weight : beyond_weight) += weights_[e];
  }
  pending.time = query.time;
  pending.votes = static_cast<std::uint16_t>(votes);
  pending.has_votes = true;
  return Prediction{within_weight > beyond_weight};
}

void EnsemblePredictor::save_state(StateWriter& out) const {
  const std::size_t experts = experts_.size();
  out.u64(static_cast<std::uint64_t>(experts));
  for (const double w : weights_) out.f64(w);
  out.u64(pending_extent_);
  pending_.for_each_server(
      static_cast<int>(pending_extent_),
      [&out, experts](int, const PendingVote& pending) {
        out.f64(pending.time);
        out.u64(pending.has_votes ? experts : 0);
        if (!pending.has_votes) return;
        for (std::size_t e = 0; e < experts; ++e) {
          out.boolean(((unsigned{pending.votes} >> e) & 1u) != 0);
        }
      });
  for (const auto& expert : experts_) expert->save_state(out);
}

void EnsemblePredictor::load_state(StateReader& in) {
  if (in.u64() != experts_.size()) {
    in.fail("ensemble expert count mismatch");
  }
  for (double& w : weights_) w = in.f64();
  // Every listed server takes at least 16 bytes of the record.
  const std::uint64_t extent = in.u64();
  if (extent > in.remaining() / 16) {
    in.fail("ensemble pending extent " + std::to_string(extent) +
            " exceeds the record");
  }
  pending_.clear();
  pending_extent_ = static_cast<std::uint32_t>(extent);
  const PendingVote untouched;
  for (std::uint32_t s = 0; s < pending_extent_; ++s) {
    PendingVote pending;
    pending.time = in.f64();
    // A scored entry always carries one vote per expert; anything else is
    // corruption, and predict() would score votes that were never cast.
    const std::uint64_t num_votes = in.u64();
    if (num_votes != 0 && num_votes != experts_.size()) {
      in.fail("ensemble pending vote count " + std::to_string(num_votes) +
              " != expert count " + std::to_string(experts_.size()));
    }
    if (pending.time >= 0.0 && num_votes != experts_.size()) {
      in.fail("ensemble pending entry has a timestamp but no votes");
    }
    pending.has_votes = num_votes != 0;
    for (std::uint64_t e = 0; e < num_votes; ++e) {
      if (in.boolean()) pending.votes |= static_cast<std::uint16_t>(1u << e);
    }
    if (pending.has_votes ||
        std::bit_cast<std::uint64_t>(pending.time) !=
            std::bit_cast<std::uint64_t>(untouched.time)) {
      pending_.touch(static_cast<int>(s), static_cast<int>(extent)) = pending;
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
