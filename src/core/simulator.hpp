// Drives a ReplicationPolicy over a trace, integrating storage/transfer
// costs and validating the model invariants on every event:
//
//  * at least one copy exists at all times;
//  * transfers originate at copy holders;
//  * a special copy is the only copy when marked (Proposition 1);
//  * event times are non-decreasing.
//
// The full event log (serve records, copy segments, transfers) is
// returned so the analysis module can classify requests (Section 4.1)
// and verify the Proposition-2 cost allocation identity.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/state_io.hpp"
#include "core/policy.hpp"
#include "core/types.hpp"
#include "predictor/predictor.hpp"
#include "trace/trace.hpp"

namespace repl {

/// One entry per request, in trace order.
struct ServeRecord {
  std::size_t index = 0;
  int server = -1;
  double time = 0.0;
  bool local = false;
  int source = -1;
  bool source_special = false;
  double special_since = std::numeric_limits<double>::infinity();
  double intended_duration = 0.0;
  Prediction prediction;
};

/// A maximal interval during which one server continuously held a copy.
/// `special_from` is +inf if the copy never became special; `end` is +inf
/// if the copy was never dropped (the final surviving copy).
struct CopySegment {
  int server = -1;
  double begin = 0.0;
  double special_from = std::numeric_limits<double>::infinity();
  double end = std::numeric_limits<double>::infinity();
};

struct TransferRecord {
  int src = -1;
  int dst = -1;
  double time = 0.0;
};

struct SimulationResult {
  SystemConfig config;
  double horizon = 0.0;
  /// Storage cost integrated over [0, horizon], weighted by the
  /// per-server storage rates.
  double storage_cost = 0.0;
  /// transfer_cost = λ × number of transfers.
  double transfer_cost = 0.0;
  double total_cost() const { return storage_cost + transfer_cost; }

  std::size_t num_local = 0;
  std::size_t num_transfers = 0;
  /// Intended duration set for the initial copy at time 0 (from the r0
  /// prediction); NaN for policies that do not use TTLs.
  double initial_intended_duration =
      std::numeric_limits<double>::quiet_NaN();
  /// The prediction issued for the dummy request r0.
  Prediction initial_prediction;

  std::vector<ServeRecord> serves;
  std::vector<CopySegment> segments;
  std::vector<TransferRecord> transfers;

  std::string policy_name;
  std::string predictor_name;
};

/// Every run bills its costs up to its final request (the paper's
/// convention of counting cost up to r_m only).
struct SimulationOptions {
  /// Keep per-event logs (serves/segments/transfers). Benches on long
  /// traces may disable to save memory; analysis requires them. Off, a
  /// run allocates no log at all (the streaming engine's setting).
  bool record_events = true;
};

/// Incremental form of the simulator: requests are fed one at a time via
/// step(), so a driver does not need the whole trace up front (the
/// streaming engine serves millions of interleaved objects this way).
/// Simulator::run() is a thin loop over this class, which makes the two
/// paths bit-identical by construction.
///
/// Lifetime: the config, policy, and predictor must outlive the
/// OnlineSimulation; reset() is called on both components here.
/// step() times must be strictly increasing and strictly positive (the
/// Trace invariants). finish() may be called once; it pins the cost
/// horizon to the last step() time, flushes pending expiries, and
/// returns the completed result.
class OnlineSimulation {
 public:
  OnlineSimulation(const SystemConfig& config,
                   const SimulationOptions& options,
                   ReplicationPolicy& policy, Predictor& predictor);
  ~OnlineSimulation();
  OnlineSimulation(OnlineSimulation&&) noexcept;
  OnlineSimulation& operator=(OnlineSimulation&&) noexcept;

  /// Serves the next request, arriving at `server` at `time`.
  void step(int server, double time);

  /// Pre-sizes the serve log when the request count is known up front.
  void reserve(std::size_t num_requests);

  /// Requests served so far.
  std::size_t steps() const;

  /// Time of the last step; 0 before the first.
  double last_time() const;

  /// Checkpoint protocol (see checkpoint/snapshot.hpp). save_state
  /// serializes everything the remaining stream needs for bit-identical
  /// costs — the request clock, the cost accumulators, and the policy's
  /// and predictor's own state (delegated) — but NOT the per-event
  /// observability logs (serves/segments/transfers), which can grow
  /// without bound on a long-running serve. A restored simulation
  /// therefore reports only post-restore events in those vectors, while
  /// every scalar of its final SimulationResult (costs, counts, horizon)
  /// is bit-identical to the uninterrupted run's.
  ///
  /// load_state must run on a freshly constructed simulation (no steps
  /// yet) whose config, options, policy type, and predictor type match
  /// the saved one; mismatches raise std::runtime_error.
  ///
  /// save_state's stream stands alone: it leads with both component
  /// names, λ, the initial server and every storage rate, and
  /// load_state checks them. A snapshot's header carries those once for
  /// every object (a version-1–4 record still holds them inline), so the
  /// engine writes save_record, the state alone, checks the names with
  /// expect_components and reads load_record.
  void save_state(StateWriter& out) const;
  void load_state(StateReader& in);
  void save_record(StateWriter& out) const;
  void load_record(StateReader& in);
  /// Fails through `in` unless the components are the named ones.
  void expect_components(const std::string& policy_name,
                         const std::string& predictor_name,
                         const StateReader& in) const;

  SimulationResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class Simulator {
 public:
  explicit Simulator(SystemConfig config, SimulationOptions options = {});

  /// Runs `policy` over `trace` with predictions from `predictor`.
  /// The policy is reset first; the predictor's reset() is called too.
  SimulationResult run(ReplicationPolicy& policy, const Trace& trace,
                       Predictor& predictor) const;

 private:
  SystemConfig config_;
  SimulationOptions options_;
};

/// Convenience wrapper: one-shot simulation.
SimulationResult simulate(const SystemConfig& config,
                          ReplicationPolicy& policy, const Trace& trace,
                          Predictor& predictor,
                          SimulationOptions options = {});

}  // namespace repl
