// Last-gap (order-1 Markov) predictor: forecasts that the next
// inter-request time at a server falls in the same class (within/beyond
// λ) as the previous one. Cheap, causal, and surprisingly competitive on
// bursty workloads where gap classes are strongly autocorrelated —
// a useful contrast to the EWMA predictor in the benches.
#pragma once

#include "core/server_table.hpp"
#include "predictor/predictor.hpp"

namespace repl {

class LastGapPredictor final : public Predictor {
 public:
  explicit LastGapPredictor(int num_servers, bool default_within = false);

  void reset() override;
  Prediction predict(const PredictionQuery& query) override;
  std::string name() const override { return "last-gap"; }
  void save_state(StateWriter& out) const override;
  void load_state(StateReader& in) override;

 private:
  /// One server's history; the defaults are an untouched server.
  struct ServerState {
    double last_time = -1.0;
    int last_class = -1;  // -1 unknown, 0 beyond, 1 within

    void save(StateWriter& out) const;
    void load(StateReader& in);
  };

  int num_servers_;
  bool default_within_;
  ServerTable<ServerState> state_;
};

}  // namespace repl
