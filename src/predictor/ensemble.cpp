#include "predictor/ensemble.hpp"

#include <algorithm>
#include <bit>
#include <limits>

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

void EnsemblePredictor::PendingVote::save(StateWriter& out) const {
  const PendingVote untouched;
  EntryWriter fields(out);
  fields.boolean(has_votes);
  fields.f64(time, untouched.time);
  fields.i32(votes, untouched.votes);
  fields.end();
}

void EnsemblePredictor::PendingVote::load(StateReader& in) {
  const PendingVote untouched;
  EntryReader fields(in);
  has_votes = fields.boolean();
  time = fields.f64(untouched.time);
  const std::int32_t bits = fields.i32(untouched.votes);
  fields.end();
  if (bits < 0 || bits > 0xffff) in.fail("ensemble votes out of range");
  votes = static_cast<std::uint16_t>(bits);
}

void EnsemblePredictor::save_state(StateWriter& out) const {
  for (const double w : weights_) out.f64(w);
  out.varint(pending_extent_);
  pending_.save(out);
  for (const auto& expert : experts_) expert->save_state(out);
}

void EnsemblePredictor::load_state(StateReader& in) {
  if (in.legacy()) {
    load_legacy(in);
  } else {
    for (double& w : weights_) w = in.f64();
    pending_extent_ = in.varint();
    if (pending_extent_ > static_cast<std::uint32_t>(
                              std::numeric_limits<int>::max())) {
      in.fail("ensemble pending extent " + std::to_string(pending_extent_) +
              " out of range");
    }
    pending_.load(in, static_cast<int>(pending_extent_));
  }
  // A scored entry always carries one vote per expert; anything else is
  // corruption, and predict() would score votes that were never cast.
  const unsigned cast = (1u << experts_.size()) - 1;
  pending_.for_each([&](int, const PendingVote& pending) {
    if ((pending.votes & ~cast) != 0 ||
        (!pending.has_votes && pending.votes != 0)) {
      in.fail("ensemble pending votes do not match the " +
              std::to_string(experts_.size()) + " experts");
    }
    if (pending.time >= 0.0 && !pending.has_votes) {
      in.fail("ensemble pending entry has a timestamp but no votes");
    }
  });
  for (const auto& expert : experts_) expert->load_state(in);
}

void EnsemblePredictor::load_legacy(StateReader& in) {
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
    const std::uint64_t num_votes = in.u64();
    if (num_votes != 0 && num_votes != experts_.size()) {
      in.fail("ensemble pending vote count " + std::to_string(num_votes) +
              " != expert count " + std::to_string(experts_.size()));
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
