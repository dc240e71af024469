#include "predictor/noisy.hpp"

#include "predictor/oracle.hpp"
#include "util/check.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace repl {

AccuracyPredictor::AccuracyPredictor(const Trace& trace, double accuracy,
                                     std::uint64_t seed)
    : trace_(&trace), accuracy_(accuracy), seed_(seed) {
  REPL_REQUIRE(accuracy >= 0.0 && accuracy <= 1.0);
}

Prediction AccuracyPredictor::predict(const PredictionQuery& query) {
  const bool truth = ground_truth_within_lambda(*trace_, query);
  // Counter-based randomness: one SplitMix64 draw keyed by the request
  // index; stateless, hence order-independent and replayable.
  SplitMix64 sm(seed_ ^
                (0x9e3779b97f4a7c15ULL *
                 static_cast<std::uint64_t>(query.request_index + 2)));
  const double u =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const bool correct = u < accuracy_;
  return Prediction{correct ? truth : !truth};
}

std::string AccuracyPredictor::name() const {
  return "accuracy(" + format_general(accuracy_) + ")";
}

}  // namespace repl
