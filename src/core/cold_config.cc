#include "core/cold_config.h"

namespace cold::core {

cold::Status ColdConfig::Validate() const {
  if (num_communities < 1) {
    return cold::Status::InvalidArgument("num_communities must be >= 1");
  }
  if (num_topics < 1) {
    return cold::Status::InvalidArgument("num_topics must be >= 1");
  }
  if (beta <= 0.0 || epsilon <= 0.0) {
    return cold::Status::InvalidArgument("beta and epsilon must be > 0");
  }
  if (lambda1 <= 0.0 || kappa <= 0.0) {
    return cold::Status::InvalidArgument("lambda1 and kappa must be > 0");
  }
  if (iterations < 1) {
    return cold::Status::InvalidArgument("iterations must be >= 1");
  }
  if (burn_in < 0 || burn_in >= iterations) {
    return cold::Status::InvalidArgument(
        "burn_in must be in [0, iterations)");
  }
  if (sample_lag < 1) {
    return cold::Status::InvalidArgument("sample_lag must be >= 1");
  }
  if (top_communities < 1) {
    return cold::Status::InvalidArgument("top_communities must be >= 1");
  }
  if (vocab_size < 0) {
    return cold::Status::InvalidArgument("vocab_size must be >= 0");
  }
  return cold::Status::OK();
}

}  // namespace cold::core
