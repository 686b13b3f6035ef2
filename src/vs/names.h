// The names shared by the `metadock` flags and the `serve` job keys of the
// same name (dataset, node, strategy, mh): one table, so the CLI and the
// job server accept exactly the same spellings.
#pragma once

#include <string>

#include "meta/params.h"
#include "mol/synth.h"
#include "sched/executor.h"
#include "sched/node_config.h"

namespace metadock::vs {

// Each maps a name to its value, or throws std::invalid_argument naming the
// key and the bad value: `"node" must be hertz or jupiter, not 'mars'`.
[[nodiscard]] mol::Dataset dataset_from(const std::string& name);
[[nodiscard]] sched::NodeConfig node_from(const std::string& name);
[[nodiscard]] sched::Strategy strategy_from(const std::string& name);
[[nodiscard]] meta::MetaheuristicParams mh_from(const std::string& name);

}  // namespace metadock::vs
