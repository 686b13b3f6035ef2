#include "sched/partition.h"

#include <algorithm>
#include <stdexcept>

namespace metadock::sched {

std::vector<double> percents_from_times(const std::vector<double>& warmup_times) {
  if (warmup_times.empty()) {
    // An empty vector means the warm-up measured nothing — typically every
    // device was quarantined by the fault plan.  Silently returning {} lets
    // shares_from_percents fail later with a message that no longer points
    // at the cause, so diagnose it here.
    throw std::invalid_argument(
        "percents_from_times: no warm-up times (every device lost before the warm-up?)");
  }
  const double slowest = *std::max_element(warmup_times.begin(), warmup_times.end());
  if (slowest <= 0.0) {
    throw std::invalid_argument("percents_from_times: warm-up times must be positive");
  }
  std::vector<double> out;
  out.reserve(warmup_times.size());
  for (double t : warmup_times) {
    if (t <= 0.0) {
      throw std::invalid_argument("percents_from_times: warm-up times must be positive");
    }
    out.push_back(t / slowest);
  }
  return out;
}

std::vector<double> shares_from_percents(const std::vector<double>& percents) {
  if (percents.empty()) {
    throw std::invalid_argument("shares_from_percents: no Percent values (empty device list?)");
  }
  std::vector<double> shares;
  shares.reserve(percents.size());
  double sum = 0.0;
  for (double p : percents) {
    if (p <= 0.0) throw std::invalid_argument("shares_from_percents: Percent must be positive");
    shares.push_back(1.0 / p);
    sum += shares.back();
  }
  for (double& s : shares) s /= sum;
  return shares;
}

}  // namespace metadock::sched
