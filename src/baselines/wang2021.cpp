#include "baselines/wang2021.hpp"

#include <cmath>

#include "util/check.hpp"

namespace repl {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void Wang2021Policy::reset(const SystemConfig& config, const Prediction&,
                           EventSink& sink) {
  config.validate();
  config_ = config;
  home_ = 0;
  for (int s = 1; s < config.num_servers; ++s) {
    if (config.storage_rate(s) < config.storage_rate(home_)) home_ = s;
  }
  REPL_REQUIRE_MSG(config.initial_server == home_,
                   "Wang et al. assume the object starts at the "
                   "minimum-storage-rate server (server "
                       << home_ << ")");
  servers_.clear();
  copy_count_ = 0;
  now_ = 0.0;
  expiries_ = {};

  ServerState& s0 = servers_.touch(home_, config.num_servers);
  s0.has_copy = true;
  copy_count_ = 1;
  sink.on_create(home_, 0.0);
  arm_expiry(home_, 0.0, sink);
}

void Wang2021Policy::arm_expiry(int server, double time, EventSink& sink) {
  ServerState& st = *servers_.find(server);
  REPL_CHECK(st.has_copy);
  st.expiry = time + ttl(server);
  ++st.generation;
  expiries_.push(HeapEntry{st.expiry, server, st.generation});
  sink.on_set_duration(server, time, ttl(server));
}

void Wang2021Policy::purge_stale_heap() const {
  while (!expiries_.empty()) {
    const HeapEntry& top = expiries_.top();
    const ServerState& st = *servers_.find(top.server);
    if (st.has_copy && st.generation == top.generation) return;
    expiries_.pop();
  }
}

double Wang2021Policy::next_transition_time() const {
  purge_stale_heap();
  return expiries_.empty() ? kInf : expiries_.top().time;
}

void Wang2021Policy::process_expiry(int server, double time,
                                    EventSink& sink) {
  ServerState& st = *servers_.find(server);
  REPL_CHECK(st.has_copy);
  if (copy_count_ > 1) {
    st.has_copy = false;
    st.renewed_once = false;
    --copy_count_;
    sink.on_drop(server, time);
    return;
  }
  // The only copy in the system.
  if (server == home_) {
    arm_expiry(server, time, sink);  // home renews indefinitely
    return;
  }
  if (!st.renewed_once) {
    st.renewed_once = true;  // one grace renewal of λ/µ(s)
    arm_expiry(server, time, sink);
    return;
  }
  // Held 2λ/µ(s) without a local request: migrate the object home.
  sink.on_transfer(server, home_, time);
  ServerState& h = *servers_.find(home_);
  REPL_CHECK(!h.has_copy);
  h.has_copy = true;
  ++copy_count_;
  sink.on_create(home_, time);
  arm_expiry(home_, time, sink);
  st.has_copy = false;
  st.renewed_once = false;
  --copy_count_;
  sink.on_drop(server, time);
  REPL_CHECK(copy_count_ == 1);
}

void Wang2021Policy::advance_to(double time, EventSink& sink) {
  REPL_CHECK_MSG(time >= now_, "advance_to moved backwards");
  for (;;) {
    purge_stale_heap();
    if (expiries_.empty()) break;
    const HeapEntry top = expiries_.top();
    if (!(top.time < time)) break;
    expiries_.pop();
    process_expiry(top.server, top.time, sink);
    now_ = top.time;
  }
  if (std::isfinite(time)) now_ = time;
}

ServeAction Wang2021Policy::on_request(int server, double time,
                                       const Prediction&, EventSink& sink) {
  REPL_REQUIRE(server >= 0 && server < config_.num_servers);
  REPL_CHECK(time >= now_);
  REPL_CHECK_MSG(next_transition_time() >= time,
                 "advance_to(t) must run before on_request(t)");

  ServerState& st = servers_.touch(server, config_.num_servers);
  ServeAction action;
  if (st.has_copy) {
    action.local = true;
    action.source = server;
  } else {
    // The lowest-indexed holder: entries are visited in ascending id.
    int source = -1;
    servers_.for_each([&](int s, const ServerState& entry) {
      if (source < 0 && s != server && entry.has_copy) source = s;
    });
    REPL_CHECK_MSG(source >= 0, "no transfer source available");
    action.local = false;
    action.source = source;
    sink.on_transfer(source, server, time);
    st.has_copy = true;
    ++copy_count_;
    sink.on_create(server, time);
  }
  st.renewed_once = false;
  arm_expiry(server, time, sink);
  action.intended_duration = ttl(server);
  now_ = time;
  return action;
}

bool Wang2021Policy::holds(int server) const {
  REPL_REQUIRE(server >= 0 && server < config_.num_servers);
  const ServerState* st = servers_.find(server);
  return st != nullptr && st->has_copy;
}

std::unique_ptr<ReplicationPolicy> Wang2021Policy::clone() const {
  return std::make_unique<Wang2021Policy>(*this);
}

}  // namespace repl
