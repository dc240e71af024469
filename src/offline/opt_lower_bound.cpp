#include "offline/opt_lower_bound.hpp"

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace repl {

double opt_lower_bound(const SystemConfig& config, const Trace& trace) {
  config.validate();
  REPL_REQUIRE(trace.num_servers() == config.num_servers);
  for (double r : config.storage_rates) {
    REPL_REQUIRE_MSG(r == 1.0,
                     "OPTL is derived for uniform unit storage rates");
  }
  const double lambda = config.transfer_cost;
  double bound = 0.0;
  double prev_global = 0.0;  // dummy r0 at time 0
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double gap_same =
        interarrival_to_prev(trace, i, config.initial_server);
    bound += (gap_same > lambda) ? lambda : gap_same;
    const double gap_global = trace[i].time - prev_global;
    if (gap_global > lambda) bound += gap_global - lambda;
    prev_global = trace[i].time;
  }
  return bound;
}

StreamingLowerBound::StreamingLowerBound(const SystemConfig& config)
    : lambda_(config.transfer_cost), num_servers_(config.num_servers) {
  config.validate();
  for (double r : config.storage_rates) {
    REPL_REQUIRE_MSG(r == 1.0,
                     "OPTL is derived for uniform unit storage rates");
  }
  last_at_server_.touch(config.initial_server, num_servers_).time = 0.0;
}

void StreamingLowerBound::save_state(StateWriter& out) const {
  out.f64(prev_global_);
  out.f64(bound_);
  last_at_server_.save(out);
}

void StreamingLowerBound::load_state(StateReader& in) {
  if (in.legacy() && in.f64() != lambda_) {
    in.fail("lower bound lambda mismatch");
  }
  prev_global_ = in.f64();
  bound_ = in.f64();
  if (in.legacy() &&
      in.u64() != static_cast<std::uint64_t>(num_servers_)) {
    in.fail("lower bound server count mismatch");
  }
  last_at_server_.load(in, num_servers_);
}

void StreamingLowerBound::step(int server, double time) {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  double& last = last_at_server_.touch(server, num_servers_).time;
  const double gap_same = time - last;
  bound_ += (gap_same > lambda_) ? lambda_ : gap_same;
  const double gap_global = time - prev_global_;
  if (gap_global > lambda_) bound_ += gap_global - lambda_;
  prev_global_ = time;
  last = time;
}

}  // namespace repl
