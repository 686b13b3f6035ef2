#include "vs/names.h"

#include <stdexcept>

namespace metadock::vs {
namespace {

[[noreturn]] void unknown(const char* key, const char* expected, const std::string& name) {
  throw std::invalid_argument(std::string("\"") + key + "\" must be " + expected + ", not '" +
                              name + "'");
}

}  // namespace

mol::Dataset dataset_from(const std::string& name) {
  if (name == "2BSM") return mol::kDataset2BSM;
  if (name == "2BXG") return mol::kDataset2BXG;
  unknown("dataset", "2BSM or 2BXG", name);
}

sched::NodeConfig node_from(const std::string& name) {
  if (name == "hertz") return sched::hertz();
  if (name == "jupiter") return sched::jupiter();
  unknown("node", "hertz or jupiter", name);
}

sched::Strategy strategy_from(const std::string& name) {
  if (name == "het") return sched::Strategy::kHeterogeneous;
  if (name == "hom") return sched::Strategy::kHomogeneous;
  if (name == "cpu") return sched::Strategy::kCpu;
  if (name == "coop") return sched::Strategy::kCooperative;
  unknown("strategy", "het, hom, cpu or coop", name);
}

meta::MetaheuristicParams mh_from(const std::string& name) {
  if (name == "M1") return meta::m1_genetic();
  if (name == "M2") return meta::m2_scatter_full();
  if (name == "M3") return meta::m3_scatter_light();
  if (name == "M4") return meta::m4_local_search();
  if (name == "SA") return meta::sa_annealing();
  if (name == "TS") return meta::tabu_search();
  unknown("mh", "M1, M2, M3, M4, SA or TS", name);
}

}  // namespace metadock::vs
