#include "extensions/randomized_drwp.hpp"

#include <cmath>

#include "util/format.hpp"

namespace repl {

RandomizedDrwpPolicy::RandomizedDrwpPolicy(double alpha, std::uint64_t seed)
    : DrwpPolicy(alpha), seed_(seed), rng_(seed) {}

void RandomizedDrwpPolicy::reset(const SystemConfig& config,
                                 const Prediction& pred0, EventSink& sink) {
  rng_ = Rng(seed_);  // reproducible runs
  DrwpPolicy::reset(config, pred0, sink);
}

double RandomizedDrwpPolicy::choose_duration(const Prediction& pred,
                                             const ServeContext&) {
  if (pred.within_lambda) return lambda();
  // z in [0, α] with density proportional to e^(z/α); inverse-CDF sample.
  const double u = rng_.next_double();
  const double z = alpha() * std::log1p(u * (std::exp(1.0) - 1.0));
  // Guard against a zero duration (u = 0).
  return std::max(z, 1e-9 * alpha()) * lambda();
}

void RandomizedDrwpPolicy::save_state(StateWriter& out) const {
  DrwpPolicy::save_state(out);
  out.u64(seed_);
  const Rng::State state = rng_.state();
  for (const std::uint64_t word : state.s) out.u64(word);
  out.boolean(state.have_cached_normal);
  out.f64(state.cached_normal);
}

void RandomizedDrwpPolicy::load_state(StateReader& in) {
  DrwpPolicy::load_state(in);
  if (in.u64() != seed_) in.fail("randomized-drwp seed mismatch");
  Rng::State state;
  for (std::uint64_t& word : state.s) word = in.u64();
  state.have_cached_normal = in.boolean();
  state.cached_normal = in.f64();
  rng_.set_state(state);
}

std::string RandomizedDrwpPolicy::name() const {
  return "randomized-drwp(alpha=" + format_general(alpha()) + ")";
}

std::unique_ptr<ReplicationPolicy> RandomizedDrwpPolicy::clone() const {
  return std::make_unique<RandomizedDrwpPolicy>(*this);
}

}  // namespace repl
