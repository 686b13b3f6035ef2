// Candidate solutions ("individuals"/"conformations") and per-spot search
// state for the metaheuristic template.
#pragma once

#include <limits>

#include "scoring/pose.h"

namespace metadock::meta {

struct Individual {
  scoring::Pose pose;
  double score = std::numeric_limits<double>::infinity();
};

/// Sorts better (lower-energy) individuals first.
inline bool better(const Individual& a, const Individual& b) { return a.score < b.score; }

}  // namespace metadock::meta
