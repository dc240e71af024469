// Causal history-based predictor.
//
// A realistic stand-in for the machine-learned predictor the paper
// assumes: it observes only past arrivals and forecasts the next
// inter-request time at a server from an exponentially weighted moving
// average (EWMA) of that server's past inter-request times. The forecast
// is "within lambda" iff the EWMA is at most `margin * lambda`.
//
// Unlike the clairvoyant predictors this one can be used on live request
// streams; its accuracy on a trace is itself an interesting measurement
// (see the cdn_workload example).
#pragma once

#include "core/server_table.hpp"
#include "predictor/predictor.hpp"

namespace repl {

class HistoryPredictor final : public Predictor {
 public:
  struct Config {
    double ewma_decay = 0.3;       // weight of the newest observation
    double margin = 1.0;           // compare EWMA against margin * lambda
    bool default_within = false;   // forecast before any observation
  };

  explicit HistoryPredictor(int num_servers)
      : HistoryPredictor(num_servers, Config()) {}
  HistoryPredictor(int num_servers, Config config);

  void reset() override;
  Prediction predict(const PredictionQuery& query) override;
  std::string name() const override { return "history-ewma"; }
  void save_state(StateWriter& out) const override;
  void load_state(StateReader& in) override;

  /// EWMA currently held for `server`; negative if no observation yet.
  double ewma(int server) const;

 private:
  /// One server's history; the defaults are an untouched server.
  struct ServerState {
    double last_time = -1.0;  // time of previous request; <0 if none
    double ewma = -1.0;       // <0 until the first gap is observed

    void save(StateWriter& out) const {
      const ServerState untouched;
      EntryWriter fields(out);
      fields.f64(last_time, untouched.last_time);
      fields.f64(ewma, untouched.ewma);
      fields.end();
    }
    void load(StateReader& in) {
      if (in.legacy()) {
        last_time = in.f64();
        ewma = in.f64();
        return;
      }
      const ServerState untouched;
      EntryReader fields(in);
      last_time = fields.f64(untouched.last_time);
      ewma = fields.f64(untouched.ewma);
      fields.end();
    }
  };

  int num_servers_;
  Config config_;
  ServerTable<ServerState> state_;
};

}  // namespace repl
