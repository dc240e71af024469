// Prediction interface.
//
// The paper's learning-augmented setting assumes that after each request
// at a server, a *binary* prediction becomes available: will the next
// request at the same server arrive within λ time units? The simulator
// queries the predictor exactly once per request (plus once for the dummy
// request r0 at the initial copy holder), in request order — causal
// predictors may therefore maintain state across calls.
#pragma once

#include <memory>
#include <string>

#include "checkpoint/state_io.hpp"
#include "util/arena.hpp"

namespace repl {

/// The binary forecast of Algorithm 1's input model.
struct Prediction {
  /// True: the next request at this server is forecast to arrive no later
  /// than `lambda` after the current one (Algorithm 1 line 10).
  bool within_lambda = false;

  friend bool operator==(const Prediction&, const Prediction&) = default;
};

/// Identifies the prediction being requested. `request_index` is the index
/// of the request just served in the driving trace, or -1 for the dummy
/// request r0 (in which case `server` is the initial copy holder and
/// `time` is 0).
struct PredictionQuery {
  long request_index = -1;
  int server = 0;
  double time = 0.0;
  double lambda = 0.0;
};

class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Object memory (util/arena.hpp): built inside an engine shard task, a
  /// predictor lives in its shard's arena (8-byte aligned); elsewhere on
  /// the heap.
  static void* operator new(std::size_t bytes) {
    return allocate_object(bytes);
  }
  static void operator delete(void* predictor, std::size_t bytes) {
    deallocate_object(predictor, bytes);
  }

  /// Called once before each simulation run; stateful predictors clear
  /// their history here.
  virtual void reset() {}

  /// Issues the forecast for the next inter-request time at
  /// `query.server`. Called in non-decreasing `query.time` order.
  virtual Prediction predict(const PredictionQuery& query) = 0;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

  /// Checkpoint protocol (see checkpoint/snapshot.hpp): serialize every
  /// field that evolves across predict() calls, so a freshly constructed
  /// predictor continues bit-identically after load_state(). The default
  /// round-trips nothing, which is correct for the *stateless* predictors
  /// (fixed, oracle, adversarial, accuracy — their output is a pure
  /// function of the query); causal predictors with history must
  /// override both.
  virtual void save_state(StateWriter&) const {}
  virtual void load_state(StateReader&) {}
};

using PredictorPtr = std::unique_ptr<Predictor>;

}  // namespace repl
