#include "core/online_estimator.hpp"

#include "util/check.hpp"

namespace repl {

OnlineCostEstimator::OnlineCostEstimator(const SystemConfig& config)
    : lambda_(config.transfer_cost), num_servers_(config.num_servers) {
  config.validate();
  // The dummy request r0 makes the initial server "seen" from the start:
  // its copy carries a pending prediction whose worst-case future cost the
  // 2λ-per-server term covers.
  server_seen_.touch(config.initial_server, num_servers_).seen = true;
  servers_seen_count_ = 1;
}

void OnlineCostEstimator::record(int server, double time, bool local,
                                 bool source_special, double special_since,
                                 double prev_intended,
                                 double prev_request_time) {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  REPL_CHECK_MSG(time >= last_global_time_,
                 "estimator fed out-of-order requests");
  ++requests_seen_;

  // --- OPTL update ---------------------------------------------------
  const double gap_same = std::isnan(prev_request_time)
                              ? std::numeric_limits<double>::infinity()
                              : time - prev_request_time;
  opt_l_ += (gap_same > lambda_) ? lambda_ : gap_same;
  const double gap_global = time - last_global_time_;
  if (gap_global > lambda_) opt_l_ += gap_global - lambda_;
  last_global_time_ = time;

  // --- OnlineU: Proposition-2 allocation of this request --------------
  if (local) {
    // Type-3/4: storage between consecutive local requests. A local serve
    // implies a copy held since the previous request at this server, so
    // prev_request_time must exist.
    REPL_CHECK(!std::isnan(prev_request_time));
    allocated_ += time - prev_request_time;
  } else {
    // Type-1/2: transfer + the regular copy after p(i) (conservatively λ
    // for a server's first request) + the serving special period, if any.
    const double l_i = std::isnan(prev_intended) ? lambda_ : prev_intended;
    allocated_ += lambda_ + l_i;
    if (source_special) {
      REPL_CHECK(!std::isnan(special_since) && special_since <= time);
      allocated_ += time - special_since;
    }
  }

  // --- n' update -------------------------------------------------------
  bool& seen = server_seen_.touch(server, num_servers_).seen;
  if (!seen) {
    seen = true;
    ++servers_seen_count_;
  }
}

void OnlineCostEstimator::save_state(StateWriter& out) const {
  out.f64(opt_l_);
  out.f64(allocated_);
  out.f64(last_global_time_);
  out.u64(static_cast<std::uint64_t>(servers_seen_count_));
  out.u64(static_cast<std::uint64_t>(requests_seen_));
  server_seen_.save(out);
}

void OnlineCostEstimator::load_state(StateReader& in) {
  if (in.legacy() && in.f64() != lambda_) {
    in.fail("estimator lambda mismatch");
  }
  opt_l_ = in.f64();
  allocated_ = in.f64();
  last_global_time_ = in.f64();
  servers_seen_count_ = static_cast<std::size_t>(in.u64());
  requests_seen_ = static_cast<std::size_t>(in.u64());
  if (in.legacy() &&
      in.u64() != static_cast<std::uint64_t>(num_servers_)) {
    in.fail("estimator server count mismatch");
  }
  server_seen_.load(in, num_servers_);
  // OnlineU charges 2λ per seen server from the count, so a count that
  // disagrees with the set would bend every later fallback decision.
  std::size_t seen = 0;
  server_seen_.for_each([&seen](int, const Seen& entry) {
    if (entry.seen) ++seen;
  });
  if (seen != servers_seen_count_) {
    in.fail("estimator seen count " + std::to_string(servers_seen_count_) +
            " disagrees with its " + std::to_string(seen) + " seen servers");
  }
}

double OnlineCostEstimator::ratio_bound() const {
  if (opt_l_ <= 0.0) return std::numeric_limits<double>::infinity();
  return online_upper_bound() / opt_l_;
}

}  // namespace repl
