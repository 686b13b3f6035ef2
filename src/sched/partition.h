// Eq. 1 of the paper: the heterogeneous strategy's warm-up Percent and the
// work shares it implies.  The split itself is split_batch_into
// (sched/multi_gpu.h); NodeExecutor::warmup feeds these the surviving
// devices' warm-up times.
#pragma once

#include <vector>

namespace metadock::sched {

/// Eq. 1: Percent_g = time_g / time_slowest, so the slowest device has
/// Percent = 1 and a device twice as fast has Percent = 0.5.  Throws
/// std::invalid_argument on an empty vector (a fault plan can quarantine
/// every device before the warm-up measures anything) and on non-positive
/// times.
[[nodiscard]] std::vector<double> percents_from_times(const std::vector<double>& warmup_times);

/// Work shares implied by the Percent values: share_g ∝ 1 / Percent_g,
/// normalized to sum to 1.  Throws std::invalid_argument on an empty vector
/// or non-positive Percent values.
[[nodiscard]] std::vector<double> shares_from_percents(const std::vector<double>& percents);

}  // namespace metadock::sched
