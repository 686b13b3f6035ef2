// Shared pieces of the screening benchmark driver: arguments, the result a
// workload fills in, and small helpers the workloads share.
//
// Two clocks appear in every result.  "host" metrics are real wall time on
// this machine (noisy; reported as medians over repeated work).  "virtual"
// metrics are the modelled node time and energy of the simulated devices
// (deterministic: a repeat of the same seed must reproduce them bit for bit,
// so any drift is reported as a failure, not as noise).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mol/molecule.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget; a workload repeats its unit of work until spent.
  double seconds = 10.0;
  /// false: end-to-end metrics (no observer).  true: per-layer metrics
  /// from a separately traced run.
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
  /// Directory for the JSONL hit streams the docking workloads write.
  std::string scratch_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string clock;  // "host" | "virtual" | "count"
};

class Result {
 public:
  void put(const std::string& name, double value, const std::string& unit,
           const std::string& clock) {
    metrics[name] = Metric{value, unit, clock};
  }
  /// Records a named output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Free-form context printed beside the metrics (already JSON-encoded).
  void note(const std::string& key, const std::string& json_value) { detail[key] = json_value; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Raw host-clock samples of an untraced run, pooled across processes by
  /// perfbench/run.py, which derives the host end-to-end metrics from them:
  ///   item_s   one docked ligand (campaign-plan: one estimate row)
  ///   unit_s   one screen of the library (campaign-plan: one sweep)
  ///   setup_s  one set-up;  plan_s  one plan of the screen (a sweep)
  std::map<std::string, std::vector<double>> samples;
  /// Ligands docked or planned per unit.
  double unit_items = 0.0;
  std::map<std::string, std::string> detail;
  std::vector<std::string> failures;
};

/// Repeats `fn` until at least `min_count` calls and `min_seconds` of wall
/// time, returning each call's wall seconds (short steps are timed many
/// times so their median is steady).
template <typename Fn>
std::vector<double> repeat_timed(std::size_t min_count, double min_seconds, Fn&& fn) {
  std::vector<double> out;
  const metadock::util::WallTimer total;
  while (out.size() < min_count || total.seconds() < min_seconds) {
    const metadock::util::WallTimer t;
    fn();
    out.push_back(t.seconds());
  }
  return out;
}

/// Thread blocks and launches over the kernel spans a tracer recorded.
struct KernelFanout {
  double blocks = 0.0;
  double launches = 0.0;
};
[[nodiscard]] KernelFanout kernel_fanout(const metadock::obs::Tracer& tracer);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// FNV-1a over the bytes of `s`, chained from `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& s,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex(std::uint64_t v);
[[nodiscard]] std::string json_string(const std::string& s);

/// A synthetic ligand library of `n` ligands seeded by `seed`: atom counts
/// stratified over [20, 60] with a +-1 seeded jitter.
[[nodiscard]] std::vector<metadock::mol::Molecule> make_library(std::size_t n,
                                                                std::uint64_t seed);

/// surface and pocket: closed-loop library screens (docking.cpp).
[[nodiscard]] Result run_docking(const Args& args);
/// campaign-plan: paper-scale and cluster estimates, no docking (plan.cpp).
[[nodiscard]] Result run_plan(const Args& args);

}  // namespace perfbench
