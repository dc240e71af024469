// Quantile estimation over bucketed distributions.
#pragma once

#include <cstdint>
#include <vector>

namespace repl {

/// Estimated q-quantile (q in [0,1]) of a bucketed distribution given the
/// finite upper bounds and *cumulative* counts (one extra trailing entry
/// for the implicit +Inf bucket, i.e. cumulative.size() == bounds.size()+1,
/// cumulative.back() == total count). Linear interpolation inside the
/// selected bucket; +Inf hits clamp to the last finite bound; 0 when
/// empty. obs::ProgressLine estimates its batch-latency quantiles here.
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& cumulative,
                          double q);

}  // namespace repl
