// The replication policy interface.
//
// A policy is an event-driven automaton over the copy configuration. The
// driver (Simulator, or the Section-9 adversary) interacts with it via:
//
//   reset(cfg, pred0, sink)       — place the initial copy at
//                                   cfg.initial_server at time 0; `pred0`
//                                   is the prediction for the dummy
//                                   request r0;
//   advance_to(t, sink)           — process all spontaneous transitions
//                                   (copy expiries) with time strictly
//                                   less than t, in time order (ties by
//                                   server index);
//   on_request(server, t, pred)   — serve a request; `pred` forecasts the
//                                   *next* inter-request time at `server`;
//   next_transition_time()        — earliest pending spontaneous
//                                   transition (+inf if none);
//   holds(server) / copy_count()  — introspection of the copy set.
//
// Time-tie conventions (see DESIGN.md §2): an intended expiry at exactly
// time t does not fire before a request at time t — copies are valid
// through their expiry instant inclusive — so drivers always call
// advance_to(t) (strict) before on_request(t).
//
// Policies must be clone()-able: the lower-bound adversary forks the
// policy to peek at its future copy-holding behaviour, and the adapted
// algorithm's tests compare forked trajectories.
#pragma once

#include <memory>
#include <string>

#include "checkpoint/state_io.hpp"
#include "core/types.hpp"
#include "predictor/predictor.hpp"
#include "util/arena.hpp"

namespace repl {

class ReplicationPolicy {
 public:
  virtual ~ReplicationPolicy() = default;

  /// Object memory (util/arena.hpp): built inside an engine shard task, a
  /// policy lives in its shard's arena (8-byte aligned); elsewhere on the
  /// heap.
  static void* operator new(std::size_t bytes) {
    return allocate_object(bytes);
  }
  static void operator delete(void* policy, std::size_t bytes) {
    deallocate_object(policy, bytes);
  }

  virtual void reset(const SystemConfig& config, const Prediction& pred0,
                     EventSink& sink) = 0;

  virtual void advance_to(double time, EventSink& sink) = 0;

  virtual ServeAction on_request(int server, double time,
                                 const Prediction& pred,
                                 EventSink& sink) = 0;

  /// Earliest time (> the last processed instant) at which the copy set
  /// changes without a request arriving; +inf if the configuration is
  /// stable.
  virtual double next_transition_time() const = 0;

  virtual bool holds(int server) const = 0;
  virtual int copy_count() const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<ReplicationPolicy> clone() const = 0;

  /// Checkpoint protocol (see checkpoint/snapshot.hpp): serialize every
  /// field that evolves after reset() so that a freshly constructed and
  /// reset() policy, after load_state(), continues bit-identically to
  /// the saved one. Static configuration (alpha, the SystemConfig) is
  /// re-established by construction + reset, not by the snapshot —
  /// implementations write cross-check fields instead of reloading them.
  /// The default refuses: a policy that silently round-tripped nothing
  /// would resume from the wrong state.
  virtual void save_state(StateWriter& out) const;
  virtual void load_state(StateReader& in);
};

inline void ReplicationPolicy::save_state(StateWriter&) const {
  REPL_REQUIRE_MSG(false, "policy '" << name()
                                     << "' does not support checkpointing");
}

inline void ReplicationPolicy::load_state(StateReader&) {
  REPL_REQUIRE_MSG(false, "policy '" << name()
                                     << "' does not support checkpointing");
}

using PolicyPtr = std::unique_ptr<ReplicationPolicy>;

}  // namespace repl
