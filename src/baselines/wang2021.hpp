// The online algorithm of Wang et al. (INFOCOM 2021), as described in
// Section 11 of the reproduced paper. It supports distinct per-server
// storage cost rates µ(s) and was claimed 2-competitive by its authors;
// the reproduced paper refutes the claim with the Figure-9 instance, on
// which this implementation's cost ratio approaches 5/2 (see
// bench_fig9_wang_counterexample and the corresponding tests).
//
// Rules (λ = transfer cost, µ(s) = storage rate of s, "home" = the server
// with the lowest storage rate, the papers' s1):
//  * after serving a local request (by copy or transfer receipt), s keeps
//    its copy for λ/µ(s) time units, renewing on every local request;
//  * when the copy at s expires and it is not the only copy, drop it;
//  * when the copy at home expires and it is the only copy, renew it for
//    another λ/µ(home), indefinitely;
//  * when the copy at s ≠ home expires, it is the only copy, and s has
//    held it for exactly λ/µ(s) since its last local request, renew once;
//  * when it expires again (2λ/µ(s) without a local request), transfer
//    the object to home and drop the copy at s.
//
// Both papers assume the object starts at home; this implementation
// requires config.initial_server to be the minimum-rate server.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "core/policy.hpp"
#include "core/server_table.hpp"

namespace repl {

class Wang2021Policy final : public ReplicationPolicy {
 public:
  Wang2021Policy() = default;

  void reset(const SystemConfig& config, const Prediction& pred0,
             EventSink& sink) override;
  void advance_to(double time, EventSink& sink) override;
  ServeAction on_request(int server, double time, const Prediction& pred,
                         EventSink& sink) override;
  double next_transition_time() const override;
  bool holds(int server) const override;
  int copy_count() const override { return copy_count_; }
  std::string name() const override { return "wang2021"; }
  std::unique_ptr<ReplicationPolicy> clone() const override;

  int home_server() const { return home_; }

 private:
  struct HeapEntry {
    double time;
    int server;
    std::uint64_t generation;
    friend bool operator>(const HeapEntry& a, const HeapEntry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.server > b.server;
    }
  };

  struct ServerState {
    bool has_copy = false;
    bool renewed_once = false;  // only-copy grace renewal already used
    double expiry = -std::numeric_limits<double>::infinity();
    std::uint64_t generation = 0;
  };

  double ttl(int server) const {
    return config_.transfer_cost / config_.storage_rate(server);
  }
  void arm_expiry(int server, double time, EventSink& sink);
  void process_expiry(int server, double time, EventSink& sink);
  void purge_stale_heap() const;

  SystemConfig config_;
  int home_ = 0;
  /// Entries of the servers the object touched (home and requesters).
  ServerTable<ServerState> servers_;
  int copy_count_ = 0;
  double now_ = 0.0;
  mutable std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                              std::greater<HeapEntry>>
      expiries_;
};

}  // namespace repl
