#include "util/histogram.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace repl {

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& cumulative,
                          double q) {
  REPL_REQUIRE(cumulative.size() == bounds.size() + 1);
  REPL_REQUIRE(q >= 0.0 && q <= 1.0);
  const std::uint64_t total = cumulative.back();
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::size_t bucket = 0;
  while (bucket < cumulative.size() &&
         static_cast<double>(cumulative[bucket]) < rank) {
    ++bucket;
  }
  if (bucket >= bounds.size()) {
    // Landed in +Inf: the best point estimate we can give is the edge.
    return bounds.empty() ? 0.0 : bounds.back();
  }
  const double lo = bucket == 0 ? 0.0 : bounds[bucket - 1];
  const double hi = bounds[bucket];
  const std::uint64_t below = bucket == 0 ? 0 : cumulative[bucket - 1];
  const std::uint64_t inside = cumulative[bucket] - below;
  if (inside == 0) return hi;
  const double frac = (rank - static_cast<double>(below)) /
                      static_cast<double>(inside);
  return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
}

}  // namespace repl
