#include "core/adaptive_drwp.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/format.hpp"

namespace repl {

AdaptiveDrwpPolicy::AdaptiveDrwpPolicy(double alpha, Options options)
    : DrwpPolicy(alpha), options_(options) {
  REPL_REQUIRE_MSG(options.beta >= 0.0, "beta must be non-negative");
}

void AdaptiveDrwpPolicy::reset(const SystemConfig& config,
                               const Prediction& pred0, EventSink& sink) {
  // Prepare the monitor before the base reset: reset() invokes
  // choose_duration for the dummy request r0.
  estimator_.emplace(config);
  served_ = 0;
  fallback_count_ = 0;
  DrwpPolicy::reset(config, pred0, sink);
}

double AdaptiveDrwpPolicy::choose_duration(const Prediction& pred,
                                           const ServeContext& ctx) {
  // The dummy request r0 (time 0) sets the initial copy's duration and
  // carries no cost; the monitor only tracks real requests.
  if (ctx.time == 0.0 && std::isnan(ctx.prev_request_time)) {
    return DrwpPolicy::choose_duration(pred, ctx);
  }

  REPL_CHECK(estimator_.has_value());
  estimator_->record(ctx.server, ctx.time, ctx.local, ctx.source_special,
                     ctx.special_since, ctx.prev_intended,
                     ctx.prev_request_time);
  ++served_;

  if (served_ <= options_.warmup_requests) {
    return DrwpPolicy::choose_duration(pred, ctx);
  }
  if (estimator_->ratio_bound() > 2.0 + options_.beta) {
    ++fallback_count_;
    return lambda();  // conventional rule: ignore the prediction
  }
  return DrwpPolicy::choose_duration(pred, ctx);
}

void AdaptiveDrwpPolicy::save_state(StateWriter& out) const {
  DrwpPolicy::save_state(out);
  out.u64(static_cast<std::uint64_t>(served_));
  out.u64(static_cast<std::uint64_t>(fallback_count_));
  REPL_CHECK(estimator_.has_value());
  estimator_->save_state(out);
}

void AdaptiveDrwpPolicy::load_state(StateReader& in) {
  DrwpPolicy::load_state(in);
  if (in.legacy() && in.f64() != options_.beta) {
    in.fail("adaptive beta mismatch");
  }
  served_ = static_cast<std::size_t>(in.u64());
  fallback_count_ = static_cast<std::size_t>(in.u64());
  if (!estimator_.has_value()) {
    in.fail("adaptive monitor missing (load_state before reset?)");
  }
  estimator_->load_state(in);
}

double AdaptiveDrwpPolicy::monitored_ratio() const {
  return estimator_ ? estimator_->ratio_bound()
                    : std::numeric_limits<double>::infinity();
}

std::string AdaptiveDrwpPolicy::name() const {
  return "adaptive-drwp(alpha=" + format_general(alpha()) +
         ",beta=" + format_general(options_.beta) + ")";
}

std::unique_ptr<ReplicationPolicy> AdaptiveDrwpPolicy::clone() const {
  return std::make_unique<AdaptiveDrwpPolicy>(*this);
}

}  // namespace repl
