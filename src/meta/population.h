// Fixed-capacity population storage for the metaheuristic engine.
//
// One set (S or Scom of one spot) is a std::vector<Individual> sized once,
// before the generation loop, plus a live count.  Select sorts the set in
// place, Combine and Improve overwrite individuals, and Include appends
// the other set and keeps the best prefix; none of them allocates.  Poses
// stay whole (AoS): the scoring kernels broadcast one pose against the
// type-partitioned receptor columns (DESIGN.md §10), so a pose stored by
// column would only be gathered back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "meta/individual.h"

namespace metadock::meta {

class Population {
 public:
  explicit Population(std::size_t capacity) : items_(capacity) {}

  /// Sets the live count.  Slots keep whatever was last written there, and
  /// callers write new slots before reading them.  Past the capacity it
  /// throws instead of growing.
  void set_size(std::size_t n) {
    if (n > items_.size()) throw std::length_error("Population: capacity exceeded");
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  Individual& operator[](std::size_t i) { return items_[i]; }
  const Individual& operator[](std::size_t i) const { return items_[i]; }

  /// Whole-population copy (sizes must fit; used by the M4 path).
  void copy_from(const Population& src) {
    set_size(src.size_);
    std::copy_n(src.items_.begin(), src.size_, items_.begin());
  }

  /// Sorts the live prefix best (lowest score) first.
  void sort_by_score() {
    std::sort(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(size_), better);
  }

  /// Elitist Include: appends all of `other`, sorts, truncates to `keep`.
  void merge_keep_best(const Population& other, std::size_t keep) {
    const std::size_t at = size_;
    set_size(at + other.size_);
    std::copy_n(other.items_.begin(), other.size_,
                items_.begin() + static_cast<std::ptrdiff_t>(at));
    sort_by_score();
    set_size(std::min(keep, size_));
  }

 private:
  std::vector<Individual> items_;
  std::size_t size_ = 0;
};

}  // namespace metadock::meta
