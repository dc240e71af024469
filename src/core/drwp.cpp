#include "core/drwp.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/format.hpp"

namespace repl {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

DrwpPolicy::DrwpPolicy(double alpha) : alpha_(alpha) {
  // The paper's guarantees hold for alpha in (0, 1] (alpha = 1 is the
  // conventional policy). Larger values are still well-defined automata
  // — the "beyond" branch just holds copies longer than λ — and the
  // experiment grid sweeps them to map the regime beyond the analysis,
  // so only positivity (and finiteness) is required here.
  REPL_REQUIRE_MSG(alpha > 0.0 && std::isfinite(alpha),
                   "alpha must be positive and finite, got " << alpha);
}

void DrwpPolicy::reset(const SystemConfig& config, const Prediction& pred0,
                       EventSink& sink) {
  config.validate();
  config_ = &config;
  num_servers_ = config.num_servers;
  servers_.clear();
  copy_count_ = 0;
  now_ = 0.0;
  next_expiry_ = kInf;
  next_server_ = -1;

  // Line 2: the initial copy at s1, with an intended duration chosen by
  // the prediction for the dummy request r0.
  ServerState& s0 = servers_.touch(config.initial_server, num_servers_);
  s0.has_copy = true;
  s0.last_request_time = 0.0;
  copy_count_ = 1;
  sink.on_create(config.initial_server, 0.0);
  ServeContext ctx;
  ctx.server = config.initial_server;
  ctx.time = 0.0;
  ctx.local = true;
  const double duration = choose_duration(pred0, ctx);
  set_intended(config.initial_server, 0.0, duration, sink);
}

double DrwpPolicy::choose_duration(const Prediction& pred,
                                   const ServeContext&) {
  return pred.within_lambda ? lambda() : alpha_ * lambda();
}

void DrwpPolicy::set_intended(int server, double time, double duration,
                              EventSink& sink) {
  REPL_REQUIRE(duration > 0.0);
  ServerState& st = *servers_.find(server);
  REPL_CHECK(st.has_copy);
  st.special = false;
  st.special_since = kInf;
  st.expiry = time + duration;
  st.last_intended = duration;
  if (server == next_server_) {
    find_next_expiry();  // the earliest copy was renewed
  } else if (st.expiry < next_expiry_ ||
             (st.expiry == next_expiry_ && server < next_server_)) {
    next_expiry_ = st.expiry;
    next_server_ = server;
  }
  sink.on_set_duration(server, time, duration);
}

void DrwpPolicy::find_next_expiry() {
  next_expiry_ = kInf;
  next_server_ = -1;
  // Ascending server order: the first of equal expiries is the lowest.
  servers_.for_each([this](int s, const ServerState& st) {
    if (st.has_copy && !st.special && st.expiry < next_expiry_) {
      next_expiry_ = st.expiry;
      next_server_ = s;
    }
  });
}

double DrwpPolicy::next_transition_time() const { return next_expiry_; }

void DrwpPolicy::process_expiry(int server, double time, EventSink& sink) {
  // Algorithm 1 lines 20–25.
  ServerState& st = *servers_.find(server);
  REPL_CHECK(st.has_copy && !st.special);
  if (copy_count_ == 1) {
    st.special = true;
    st.special_since = time;
    sink.on_mark_special(server, time);
  } else {
    st.has_copy = false;
    --copy_count_;
    REPL_CHECK_MSG(copy_count_ >= 1, "at-least-one-copy violated");
    sink.on_drop(server, time);
  }
}

void DrwpPolicy::advance_to(double time, EventSink& sink) {
  REPL_CHECK_MSG(time >= now_, "advance_to moved backwards");
  // An expiry at exactly `time` fires later.
  while (next_server_ >= 0 && next_expiry_ < time) {
    const double expiry = next_expiry_;
    process_expiry(next_server_, expiry, sink);
    now_ = expiry;
    find_next_expiry();
  }
  if (std::isfinite(time)) now_ = time;
}

int DrwpPolicy::pick_transfer_source(int requester) const {
  // A special copy is necessarily the only copy (checked); otherwise the
  // lowest-indexed holder is chosen — cost is source-independent under
  // the uniform transfer cost λ, so this only pins determinism.
  int first_holder = -1;
  int special_holder = -1;
  servers_.for_each([&](int s, const ServerState& st) {
    if (!st.has_copy || s == requester || special_holder >= 0) return;
    if (st.special) {
      REPL_CHECK_MSG(copy_count_ == 1,
                     "special copy must be the only copy (Proposition 1)");
      special_holder = s;
    } else if (first_holder < 0) {
      first_holder = s;
    }
  });
  if (special_holder >= 0) return special_holder;
  REPL_CHECK_MSG(first_holder >= 0, "no transfer source available");
  return first_holder;
}

ServeAction DrwpPolicy::on_request(int server, double time,
                                   const Prediction& pred, EventSink& sink) {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  REPL_CHECK_MSG(time >= now_, "requests must arrive in time order");
  REPL_CHECK_MSG(next_transition_time() >= time,
                 "advance_to(t) must run before on_request(t)");

  ServerState& st = servers_.touch(server, num_servers_);
  ServeAction action;
  ServeContext ctx;
  ctx.server = server;
  ctx.time = time;
  ctx.prev_intended = st.last_intended;
  ctx.prev_request_time = st.last_request_time;

  if (st.has_copy) {
    // Lines 4–5: served by the local copy (t_i <= E_j or K_j = 1).
    REPL_CHECK(st.special || st.expiry >= time);
    action.local = true;
    action.source = server;
    action.source_special = st.special;
    action.special_since = st.special_since;
  } else {
    // Lines 6–9: transfer from another holder, create a copy here.
    const int source = pick_transfer_source(server);
    ServerState& src = *servers_.find(source);
    action.local = false;
    action.source = source;
    action.source_special = src.special;
    action.special_since = src.special_since;
    sink.on_transfer(source, server, time);
    st.has_copy = true;
    ++copy_count_;
    sink.on_create(server, time);
    if (src.special) {
      // Lines 15–19: the special copy is dropped right after serving an
      // outgoing transfer.
      src.has_copy = false;
      src.special = false;
      src.special_since = kInf;
      --copy_count_;
      REPL_CHECK(copy_count_ >= 1);
      sink.on_drop(source, time);
    }
  }

  ctx.local = action.local;
  ctx.source_special = action.source_special;
  ctx.special_since = action.special_since;

  // Lines 10–14: the new intended duration from the fresh prediction.
  const double duration = choose_duration(pred, ctx);
  action.intended_duration = duration;
  set_intended(server, time, duration, sink);
  st.last_request_time = time;
  now_ = time;
  return action;
}

bool DrwpPolicy::holds(int server) const {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  const ServerState* st = servers_.find(server);
  return st != nullptr && st->has_copy;
}

double DrwpPolicy::intended_expiry(int server) const {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  const ServerState st = servers_.get(server);
  if (!st.has_copy) return -kInf;
  return st.special ? kInf : st.expiry;
}

bool DrwpPolicy::is_special(int server) const {
  REPL_REQUIRE(server >= 0 && server < num_servers_);
  return servers_.get(server).special;
}

void DrwpPolicy::ServerState::save(StateWriter& out) const {
  const ServerState untouched;
  EntryWriter fields(out);
  fields.boolean(has_copy);
  fields.boolean(special);
  fields.f64(expiry, untouched.expiry);
  fields.f64(special_since, untouched.special_since);
  fields.f64(last_intended, untouched.last_intended);
  fields.f64(last_request_time, untouched.last_request_time);
  fields.end();
}

void DrwpPolicy::ServerState::load(StateReader& in) {
  if (in.legacy()) {
    has_copy = in.boolean();
    special = in.boolean();
    expiry = in.f64();
    special_since = in.f64();
    last_intended = in.f64();
    last_request_time = in.f64();
    in.u64();  // the intended-duration count, which only the record kept
    return;
  }
  const ServerState untouched;
  EntryReader fields(in);
  has_copy = fields.boolean();
  special = fields.boolean();
  expiry = fields.f64(untouched.expiry);
  special_since = fields.f64(untouched.special_since);
  last_intended = fields.f64(untouched.last_intended);
  last_request_time = fields.f64(untouched.last_request_time);
  fields.end();
}

void DrwpPolicy::save_state(StateWriter& out) const {
  out.i32(copy_count_);
  out.f64(now_);
  servers_.save(out);
}

void DrwpPolicy::load_state(StateReader& in) {
  if (config_ == nullptr) in.fail("drwp load_state before reset");
  if (in.legacy()) {
    if (in.f64() != alpha_) in.fail("drwp alpha mismatch");
    if (in.i32() != num_servers_) in.fail("drwp server count mismatch");
  }
  copy_count_ = in.i32();
  now_ = in.f64();
  servers_.load(in, num_servers_);
  if (copy_count_ < 1 || copy_count_ > num_servers_) {
    in.fail("drwp copy count " + std::to_string(copy_count_) +
            " out of range");
  }
  int copies = 0;
  servers_.for_each([&copies](int, const ServerState& st) {
    if (st.has_copy) ++copies;
  });
  if (copies != copy_count_) in.fail("drwp copy count inconsistent");
  find_next_expiry();
}

std::string DrwpPolicy::name() const {
  return "drwp(alpha=" + format_general(alpha_) + ")";
}

std::unique_ptr<ReplicationPolicy> DrwpPolicy::clone() const {
  return std::make_unique<DrwpPolicy>(*this);
}

}  // namespace repl
