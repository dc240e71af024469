// Algorithm 1 of the paper: Dynamic Replication With Predictions (DRWP).
//
// Per-server state: the intended expiry E_j of the regular copy and the
// keep-tag K_j marking a special copy (a copy kept beyond its intended
// duration because it is the only copy in the system). On each request the
// server keeps its copy for an intended duration of
//
//      λ    if the next local request is predicted within λ,
//      α·λ  otherwise,
//
// where α ∈ (0, 1] is the distrust hyper-parameter. When a regular copy
// expires it is dropped, unless it is the only copy, in which case it
// becomes special and survives until the next request: served locally it
// turns regular again; serving a transfer it is dropped right after
// (Algorithm 1 lines 15–19).
//
// Proven bounds (reproduced by the test suite empirically):
// (5+α)/3-consistent and (1 + 1/α)-robust.
#pragma once

#include <cstdint>
#include <limits>

#include "core/policy.hpp"
#include "core/server_table.hpp"

namespace repl {

class DrwpPolicy : public ReplicationPolicy {
 public:
  /// `alpha` > 0. alpha -> 0 trusts predictions fully; alpha = 1 ignores
  /// them (both branches give duration λ); the proven bounds assume
  /// alpha in (0, 1], but larger values run fine (copies on "beyond"
  /// predictions are held longer than λ) and the experiment grid sweeps
  /// them.
  explicit DrwpPolicy(double alpha);

  /// The policy keeps a pointer to `config`, not a copy: it must outlive
  /// the driving calls (reset, advance_to, on_request, save/load_state),
  /// as it must outlive an OnlineSimulation.
  void reset(const SystemConfig& config, const Prediction& pred0,
             EventSink& sink) override;
  void advance_to(double time, EventSink& sink) override;
  ServeAction on_request(int server, double time, const Prediction& pred,
                         EventSink& sink) override;
  double next_transition_time() const override;
  bool holds(int server) const override;
  int copy_count() const override { return copy_count_; }
  std::string name() const override;
  std::unique_ptr<ReplicationPolicy> clone() const override;

  /// Serializes the per-server automaton state (E_j, K_j, bookkeeping)
  /// of the touched servers and the clock; the next expiry is recomputed
  /// from it on load. alpha is checked through name(), the server count
  /// by the snapshot header.
  void save_state(StateWriter& out) const override;
  void load_state(StateReader& in) override;

  double alpha() const { return alpha_; }
  /// λ of the config passed to reset(); valid while that config lives.
  double lambda() const { return config_->transfer_cost; }

  /// Intended expiry of `server`'s regular copy (+inf for a special copy,
  /// -inf when no copy is held). Exposed for tests and the adversary.
  double intended_expiry(int server) const;
  bool is_special(int server) const;

 protected:
  /// Everything known about the request just served, before the new
  /// intended duration is chosen. Subclasses (adapted Algorithm 1,
  /// weighted extension) override choose_duration.
  struct ServeContext {
    int server = -1;
    double time = 0.0;
    bool local = false;
    bool source_special = false;
    double special_since = std::numeric_limits<double>::infinity();
    /// Intended duration set after the preceding request at this server
    /// (the analysis' l_i); NaN if this is the server's first request.
    double prev_intended = std::numeric_limits<double>::quiet_NaN();
    /// Time of the preceding request at this server (0 for the initial
    /// server's dummy r0); NaN if none.
    double prev_request_time = std::numeric_limits<double>::quiet_NaN();
  };

  /// Default: pred.within_lambda ? λ : α·λ (Algorithm 1 lines 10–13).
  virtual double choose_duration(const Prediction& pred,
                                 const ServeContext& ctx);

  const SystemConfig& config() const { return *config_; }

 private:
  /// One server's automaton state; the defaults are an untouched server.
  struct ServerState {
    bool has_copy = false;
    bool special = false;  // K_j
    double expiry = -std::numeric_limits<double>::infinity();  // E_j
    double special_since = std::numeric_limits<double>::infinity();
    double last_intended = std::numeric_limits<double>::quiet_NaN();
    double last_request_time = std::numeric_limits<double>::quiet_NaN();

    void save(StateWriter& out) const;
    void load(StateReader& in);
  };

  void set_intended(int server, double time, double duration,
                    EventSink& sink);
  void process_expiry(int server, double time, EventSink& sink);
  /// Rescans the regular copies for the earliest (expiry, server).
  void find_next_expiry();
  int pick_transfer_source(int requester) const;

  double alpha_;
  /// The config passed to reset(); its owner keeps it alive.
  const SystemConfig* config_ = nullptr;
  int num_servers_ = 0;
  int copy_count_ = 0;
  ServerTable<ServerState> servers_;
  double now_ = 0.0;
  /// The earliest expiry among regular copies, ties to the lower server
  /// (+inf and -1 when none). Only an expiry of that copy or a renewal
  /// of it can make a later one the earliest, so only those rescan.
  double next_expiry_ = std::numeric_limits<double>::infinity();
  int next_server_ = -1;
};

/// The prediction-less 2-competitive baseline: Algorithm 1 with α = 1
/// (both prediction branches yield duration λ, so forecasts are ignored).
/// The paper notes this matches the best possible deterministic online
/// ratio for the problem.
class ConventionalPolicy final : public DrwpPolicy {
 public:
  ConventionalPolicy() : DrwpPolicy(1.0) {}
  std::string name() const override { return "conventional"; }
  std::unique_ptr<ReplicationPolicy> clone() const override {
    return std::make_unique<ConventionalPolicy>(*this);
  }
};

}  // namespace repl
