#include "predictor/last_gap.hpp"

#include "util/check.hpp"

namespace repl {

LastGapPredictor::LastGapPredictor(int num_servers, bool default_within)
    : num_servers_(num_servers), default_within_(default_within) {
  REPL_REQUIRE(num_servers >= 1);
  reset();
}

void LastGapPredictor::reset() { state_.clear(); }

void LastGapPredictor::ServerState::save(StateWriter& out) const {
  const ServerState untouched;
  EntryWriter fields(out);
  fields.f64(last_time, untouched.last_time);
  fields.i32(last_class, untouched.last_class);
  fields.end();
}

void LastGapPredictor::ServerState::load(StateReader& in) {
  const ServerState untouched;
  if (in.legacy()) {
    last_time = in.f64();
    last_class = in.i32();
  } else {
    EntryReader fields(in);
    last_time = fields.f64(untouched.last_time);
    last_class = fields.i32(untouched.last_class);
    fields.end();
  }
  if (last_class < -1 || last_class > 1) {
    in.fail("last-gap class out of range");
  }
}

void LastGapPredictor::save_state(StateWriter& out) const {
  state_.save(out);
}

void LastGapPredictor::load_state(StateReader& in) {
  if (in.legacy() &&
      in.u32() != static_cast<std::uint32_t>(num_servers_)) {
    in.fail("last-gap predictor server count mismatch");
  }
  state_.load(in, num_servers_);
}

Prediction LastGapPredictor::predict(const PredictionQuery& query) {
  REPL_REQUIRE(query.server >= 0 && query.server < num_servers_);
  ServerState& st = state_.touch(query.server, num_servers_);
  if (st.last_time >= 0.0) {
    const double gap = query.time - st.last_time;
    REPL_CHECK_MSG(gap >= 0.0, "last-gap predictor fed out-of-order times");
    st.last_class = gap <= query.lambda ? 1 : 0;
  }
  st.last_time = query.time;
  if (st.last_class < 0) return Prediction{default_within_};
  return Prediction{st.last_class == 1};
}

}  // namespace repl
