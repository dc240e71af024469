#include "predictor/history.hpp"

#include "util/check.hpp"

namespace repl {

HistoryPredictor::HistoryPredictor(int num_servers, Config config)
    : num_servers_(num_servers), config_(config) {
  REPL_REQUIRE(num_servers >= 1);
  REPL_REQUIRE(config.ewma_decay > 0.0 && config.ewma_decay <= 1.0);
  REPL_REQUIRE(config.margin > 0.0);
  reset();
}

void HistoryPredictor::reset() { state_.clear(); }

Prediction HistoryPredictor::predict(const PredictionQuery& query) {
  REPL_REQUIRE(query.server >= 0 && query.server < num_servers_);
  ServerState& st = state_.touch(query.server, num_servers_);
  if (st.last_time >= 0.0) {
    const double gap = query.time - st.last_time;
    REPL_CHECK_MSG(gap >= 0.0, "history predictor fed out-of-order times");
    st.ewma = (st.ewma < 0.0)
                  ? gap
                  : config_.ewma_decay * gap +
                        (1.0 - config_.ewma_decay) * st.ewma;
  }
  st.last_time = query.time;
  if (st.ewma < 0.0) return Prediction{config_.default_within};
  return Prediction{st.ewma <= config_.margin * query.lambda};
}

void HistoryPredictor::save_state(StateWriter& out) const {
  state_.save(out);
}

void HistoryPredictor::load_state(StateReader& in) {
  if (in.legacy() &&
      in.u32() != static_cast<std::uint32_t>(num_servers_)) {
    in.fail("history predictor server count mismatch");
  }
  state_.load(in, num_servers_);
}

double HistoryPredictor::ewma(int server) const {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  return state_.get(server).ewma;
}

}  // namespace repl
