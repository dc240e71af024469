// Incremental bookkeeping for the adapted Algorithm 1 (Section 8).
//
// Maintains, as requests arrive:
//
//  * OPTL — a lower bound on the optimal offline cost:
//      Σ_{i: t_i − t_{p(i)} > λ} λ + Σ_{i: t_i − t_{p(i)} ≤ λ} (t_i − t_{p(i)})
//      + Σ_{i: t_i − t_{i−1} > λ} (t_i − t_{i−1} − λ),
//    where p(i) is the previous request at the same server (the dummy r0
//    counts for the initial server) and i−1 is the previous request
//    anywhere;
//
//  * OnlineU — an upper bound on the online cost: the Proposition-2
//    allocations of all arrived requests plus a conservative 2λ per
//    server that has received a request (the worst-case cost beyond each
//    server's last seen request when its pending prediction turns out
//    wrong).
//
// The adapted algorithm reverts to the prediction-less rule whenever
// OnlineU / OPTL exceeds the target robustness 2 + β.
#pragma once

#include <cmath>
#include <limits>

#include "checkpoint/state_io.hpp"
#include "core/server_table.hpp"
#include "core/types.hpp"

namespace repl {

class OnlineCostEstimator {
 public:
  explicit OnlineCostEstimator(const SystemConfig& config);

  /// Records request r_i and how the policy served it. Must be called in
  /// request order.
  ///
  /// `prev_intended` is l_i, the intended duration set after the previous
  /// request at this server (NaN for a server's first request);
  /// `prev_request_time` is t_{p(i)} (0 for the initial server's dummy;
  /// NaN if none). `special_since` is meaningful when `source_special`.
  void record(int server, double time, bool local, bool source_special,
              double special_since, double prev_intended,
              double prev_request_time);

  double opt_lower_bound() const { return opt_l_; }
  double online_upper_bound() const {
    return allocated_ +
           2.0 * lambda_ * static_cast<double>(servers_seen_count_);
  }

  /// OnlineU / OPTL; +inf while OPTL is still 0.
  double ratio_bound() const;

  std::size_t requests_seen() const { return requests_seen_; }

  /// Checkpoint protocol: the accumulators and the seen-server set. λ is
  /// construction state, which the snapshot header checks. A record
  /// whose seen count disagrees with its seen set fails to load.
  void save_state(StateWriter& out) const;
  void load_state(StateReader& in);

 private:
  struct Seen {
    bool seen = false;

    void save(StateWriter& out) const { out.boolean(seen); }
    void load(StateReader& in) { seen = in.boolean(); }
  };

  double lambda_;
  int num_servers_;
  double opt_l_ = 0.0;
  double allocated_ = 0.0;
  double last_global_time_ = 0.0;  // the dummy r0 arises at time 0
  ServerTable<Seen> server_seen_;
  std::size_t servers_seen_count_ = 0;
  std::size_t requests_seen_ = 0;
};

}  // namespace repl
