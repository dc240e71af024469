// The closed-form lower bound OPTL on the optimal offline cost
// (Section 8 of the paper):
//
//   OPTL = Σ_{i: t_i − t_{p(i)} > λ} λ
//        + Σ_{i: t_i − t_{p(i)} ≤ λ} (t_i − t_{p(i)})
//        + Σ_{i: t_i − t_{i−1} > λ} (t_i − t_{i−1} − λ)
//
// where p(i) is the previous request at the same server (the dummy r0 at
// time 0 counts for the initial server; a first request elsewhere has
// t_i − t_{p(i)} = ∞ and contributes λ) and t_{i−1} is the previous
// request anywhere (t_{-1} = 0, the dummy).
//
// Justification (paper): each request costs at least min(λ, gap-to-prev)
// — Proposition 5 — and the at-least-one-copy requirement forces storage
// of at least the portion of each global gap beyond λ that the first term
// does not already count. Valid for uniform storage rates (rate 1).
#pragma once

#include <limits>

#include "checkpoint/state_io.hpp"
#include "core/server_table.hpp"
#include "core/types.hpp"
#include "trace/trace.hpp"

namespace repl {

double opt_lower_bound(const SystemConfig& config, const Trace& trace);

/// Incremental OPTL: feed requests in time order and read the bound at
/// any point. The accumulation order mirrors opt_lower_bound() exactly,
/// so after the same request sequence value() is bit-identical to the
/// batch function on the materialized trace — the streaming engine uses
/// this for cost/OPTL ratio aggregates without holding traces.
class StreamingLowerBound {
 public:
  explicit StreamingLowerBound(const SystemConfig& config);

  void step(int server, double time);

  double value() const { return bound_; }

  /// Checkpoint protocol: the accumulators and the last request time of
  /// each requested server. λ is construction state, which the snapshot
  /// header checks.
  void save_state(StateWriter& out) const;
  void load_state(StateReader& in);

 private:
  /// Last request time at a server; -inf until its first request (so a
  /// first request contributes λ via an infinite same-server gap).
  struct LastRequest {
    double time = -std::numeric_limits<double>::infinity();

    void save(StateWriter& out) const { out.f64(time); }
    void load(StateReader& in) { time = in.f64(); }
  };

  double lambda_;
  int num_servers_;
  /// The dummy r0 at time 0 seeds the initial server.
  ServerTable<LastRequest> last_at_server_;
  double prev_global_ = 0.0;
  double bound_ = 0.0;
};

}  // namespace repl
