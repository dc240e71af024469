#include "extensions/weighted_drwp.hpp"

#include "util/format.hpp"

namespace repl {

double WeightedDrwpPolicy::choose_duration(const Prediction& pred,
                                           const ServeContext& ctx) {
  const double base = DrwpPolicy::choose_duration(pred, ctx);
  return base / config().storage_rate(ctx.server);
}

std::string WeightedDrwpPolicy::name() const {
  return "weighted-drwp(alpha=" + format_general(alpha()) + ")";
}

std::unique_ptr<ReplicationPolicy> WeightedDrwpPolicy::clone() const {
  return std::make_unique<WeightedDrwpPolicy>(*this);
}

}  // namespace repl
